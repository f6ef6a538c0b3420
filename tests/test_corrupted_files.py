"""Every reader fails with its own error on a corrupted file.

Each test writes a small file with the reader's writer (the numeral table
by hand), then reads seeded mutations of it: a flip of 1-3 bits, a
truncation, or an insertion of 1-4 bytes.  A mutated file may still read;
when it does not, the only exception that may escape is the reader's
documented one, a `ValueError`.
"""

import numpy as np
import pytest

from conftest import toy_model

from asrboot.am import grow_mixtures, load_model, save_model
from asrboot.corpus import (
    AudioFormatError,
    ManifestError,
    Utterance,
    load_manifest,
    read_wav,
    wav_duration,
    write_manifest,
    write_wav_pcm16,
)
from asrboot.lexicon import graphemic_lexicon, read_lexicon, write_lexicon
from asrboot.lm import LmError, read_arpa, train_ngram, write_arpa
from asrboot.textnorm import NumeralTableError, load_numeral_table

N_MUTATIONS = 300


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One seeded mutation: 1-3 bit flips, a truncation, or 1-4 inserted
    bytes, each kind a third of the time."""
    buf = bytearray(data)
    kind = int(rng.integers(3))
    if kind == 0:
        for _ in range(int(rng.integers(1, 4))):
            buf[int(rng.integers(len(buf)))] ^= 1 << int(rng.integers(8))
    elif kind == 1:
        del buf[int(rng.integers(len(buf))):]
    else:
        at = int(rng.integers(len(buf) + 1))
        buf[at:at] = rng.bytes(int(rng.integers(1, 5)))
    return bytes(buf)


def write_model(path):
    save_model(grow_mixtures(toy_model(), max_gauss=2), path)


def write_wav(path):
    t = np.arange(16) / 16000.0
    write_wav_pcm16(path, 0.5 * np.sin(2.0 * np.pi * 440.0 * t), rate=16000)


def write_arpa_file(path):
    sentences = [["A", "B"], ["B", "A", "A"], ["A", "B", "B"], ["B"]]
    write_arpa(train_ngram(sentences, order=2), path)


def write_lexicon_file(path):
    write_lexicon(graphemic_lexicon(["AB", "BA", "ABA", "É"])[0], path)


def write_manifest_file(path):
    write_manifest(
        [
            Utterance("u1", "audio/a.wav", "AB BA"),
            Utterance("u2", "audio/b.wav", "ABA"),
        ],
        path,
    )


def write_numeral_table(path):
    path.write_bytes("1\tone\n2\ttwo\n10\tTen\n21\ttwenty-one\n".encode("utf-8"))


# reader, the writer of its file, the error it documents
READERS = {
    "load_model": (load_model, write_model, ValueError),
    "read_wav": (read_wav, write_wav, AudioFormatError),
    "wav_duration": (wav_duration, write_wav, AudioFormatError),
    "read_arpa": (read_arpa, write_arpa_file, LmError),
    "read_lexicon": (read_lexicon, write_lexicon_file, ValueError),
    "load_manifest": (load_manifest, write_manifest_file, ManifestError),
    "load_numeral_table": (load_numeral_table, write_numeral_table, NumeralTableError),
}


@pytest.mark.parametrize("name", READERS)
def test_only_the_documented_error_escapes(tmp_path, name):
    reader, writer, error = READERS[name]
    path = tmp_path / "file"
    writer(path)
    reader(path)  # the unmutated file reads
    original = path.read_bytes()
    rng = np.random.default_rng(list(READERS).index(name))
    escapes = []
    raised = 0
    for i in range(N_MUTATIONS):
        path.write_bytes(mutate(original, rng))
        try:
            reader(path)
        except error:
            raised += 1
        except Exception as exc:  # noqa: BLE001 -- any other type escapes
            escapes.append((i, repr(exc)))
    assert escapes == []
    assert raised > 0  # the mutations reach the reader's checks


def test_every_model_that_loads_keeps_its_invariants(tmp_path):
    # a mutation that loads is one the format cannot tell from a model,
    # such as a flipped bit in a mean; it must still be a valid model
    path = tmp_path / "file"
    write_model(path)
    original = path.read_bytes()
    rng = np.random.default_rng(len(READERS))
    loaded = 0
    for _ in range(N_MUTATIONS):
        path.write_bytes(mutate(original, rng))
        try:
            model = load_model(path)
        except ValueError:
            continue
        model.check_invariants()
        loaded += 1
    assert loaded > 0  # some mutations load
