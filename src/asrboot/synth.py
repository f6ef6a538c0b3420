"""Deterministic synthetic-language generator for end-to-end testing.

Each grapheme maps to a distinct bundle of sinusoids (~100 ms).  Words are
concatenated bundles; phrases and long-form recordings insert silence
gaps between words.  Everything is seeded, and ground-truth boundaries
are returned alongside the audio, so pipeline claims (alignment accuracy,
segmentation boundaries, WER) can be checked against construction.

`synth_corpus` draws everything from one generator seeded by
``SynthSpec.seed``, in a fixed order: the vocabulary (word lengths in
`WORD_LENGTH`), the short-form clips, the long-form recordings, the test
clips, then the extra LM lines.  One local clip writer, ``clips``, writes
the short-form and test sets; the word counts per utterance are the
constants `SHORTFORM_WORDS`, `UTTERANCE_WORDS`, `TEST_WORDS` and
`CORRUPTION_WORDS`.  A new kind of draw that must leave today's corpora
byte-identical takes a separate generator, as the re-renders of a
long-form recording's phrases do (`synth_corpus` streams each recording
to its file).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import (
    CANONICAL_RATE,
    Utterance,
    write_manifest,
    write_wav_pcm16,
    write_wav_pcm16_blocks,
)

DEFAULT_GRAPHEMES = ("A", "B", "D", "E", "K", "L", "M", "O", "S", "U")


@dataclass(frozen=True)
class SynthSpec:
    graphemes: tuple[str, ...] = DEFAULT_GRAPHEMES
    unit_duration: float = 0.10  # nominal seconds per grapheme
    duration_jitter: float = 0.2  # +- fraction of unit_duration
    snr_db: float = 20.0
    seed: int = 0
    word_gap: tuple[float, float] = (0.25, 0.45)  # silence between words
    utterance_gap: tuple[float, float] = (0.45, 0.7)  # silence between utterances
    clip_pad: float = 0.15  # leading/trailing silence per clip
    amplitude: float = 0.3

    def __post_init__(self):
        _check_snr(self.snr_db)

    def signature_frequencies(self) -> dict[str, tuple[float, float]]:
        """Two sinusoid frequencies per grapheme, spread over the mel range."""
        n = len(self.graphemes)
        lo, hi = 400.0, 5200.0
        out = {}
        for i, g in enumerate(self.graphemes):
            f1 = lo * (hi / lo) ** (i / max(n - 1, 1))
            f2 = min(f1 * 1.5, 7600.0)
            out[g] = (f1, f2)
        return out

    def min_signature_distance(self) -> float:
        """Smallest pairwise spectral distance between grapheme signatures."""
        freqs = self.signature_frequencies()
        bins = np.linspace(0.0, 8000.0, 257)
        spectra = []
        for g in self.graphemes:
            spec = np.zeros(len(bins))
            for f in freqs[g]:
                spec += np.exp(-0.5 * ((bins - f) / 100.0) ** 2)
            spectra.append(spec / np.linalg.norm(spec))
        worst = math.inf
        for i in range(len(spectra)):
            for j in range(i + 1, len(spectra)):
                worst = min(worst, float(np.linalg.norm(spectra[i] - spectra[j])))
        return worst


SIGNATURE_DISTANCE_FLOOR = 0.2

# Word-count ranges, inclusive, per kind of utterance; the vocabulary's
# word-length range in graphemes.
SHORTFORM_WORDS = (8, 14)
UTTERANCE_WORDS = (3, 8)  # a long-form utterance, also an extra LM line
TEST_WORDS = (2, 6)
CORRUPTION_WORDS = (6, 12)  # an off-script transcript line
WORD_LENGTH = (2, 5)

# samples per block of the noise draw, in add_noise and in a long-form
# recording's stream
NOISE_BLOCK = 1 << 16


@dataclass(frozen=True)
class Boundary:
    label: str
    start: float
    end: float


@dataclass
class LongFormTruth:
    recording_id: str
    audio: str
    transcript: str  # path to the transcript text file
    utterances: list[dict]  # {"tokens": [...], "start": s, "end": e}
    corrupted_line_indices: list[int] = field(default_factory=list)


@dataclass
class SynthCorpus:
    out_dir: str
    short_manifest: str
    test_manifest: str
    longform: list[LongFormTruth]
    lm_text: str
    vocabulary: list[str]

    def ground_truth_path(self) -> str:
        return str(Path(self.out_dir) / "ground_truth.json")


class SynthError(ValueError):
    pass


def _check_snr(snr_db: float) -> None:
    """ValueError naming ``snr_db`` if it is NaN or -inf; +inf means no
    noise."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")


def _unit_samples(spec: SynthSpec, rng: np.random.Generator) -> int:
    jitter = 1.0 + spec.duration_jitter * (2.0 * rng.random() - 1.0)
    return max(1, int(round(spec.unit_duration * jitter * CANONICAL_RATE)))


def _longest_unit(spec: SynthSpec) -> int:
    """An upper bound on what `_unit_samples` draws: the same product at
    the largest jitter, and rounded products are monotone."""
    longest = spec.unit_duration * (1.0 + abs(spec.duration_jitter)) * CANONICAL_RATE
    return max(1, int(round(longest)))


@functools.lru_cache(maxsize=128)
def _tone(grapheme: str, spec: SynthSpec) -> np.ndarray:
    """A grapheme's sum of sines, read-only, one sample longer than the
    longest unit `_unit_samples` draws under ``spec``.  Every sample
    depends only on its index, so a prefix of it equals the tone computed
    at that length, bit for bit."""
    freqs = spec.signature_frequencies()
    if grapheme not in freqs:
        raise SynthError(f"unknown grapheme {grapheme!r}")
    n = _longest_unit(spec) + 1
    t = np.arange(n) / CANONICAL_RATE
    x = np.zeros(n)
    for f in freqs[grapheme]:
        x += spec.amplitude * np.sin(2 * np.pi * f * t)
    x.flags.writeable = False
    return x


def _signature(grapheme: str, n: int, spec: SynthSpec) -> np.ndarray:
    x = _tone(grapheme, spec)[:n].copy()
    ramp = min(int(0.005 * CANONICAL_RATE), n // 2)
    if ramp > 0:
        env = np.ones(n)
        fade = 0.5 * (1 - np.cos(np.pi * np.arange(ramp) / ramp))
        env[:ramp] = fade
        env[-ramp:] = fade[::-1]
        x *= env
    return x


def synth_word(
    word: str, spec: SynthSpec, rng: np.random.Generator
) -> tuple[np.ndarray, list[Boundary]]:
    """Audio for one word plus per-grapheme boundaries (noise not added)."""
    pieces = []
    boundaries = []
    cursor = 0
    for grapheme in word:
        n = _unit_samples(spec, rng)
        pieces.append(_signature(grapheme, n, spec))
        boundaries.append(
            Boundary(grapheme, cursor / CANONICAL_RATE, (cursor + n) / CANONICAL_RATE)
        )
        cursor += n
    return np.concatenate(pieces), boundaries


def add_noise(
    x: np.ndarray, snr_db: float, rng: np.random.Generator
) -> np.ndarray:
    """Add white noise at ``snr_db`` relative to the power of the samples
    with |x| > 1e-9 into the 1-D float64 ``x``, in place, and return it.

    ``snr_db = +inf`` adds nothing and draws nothing; NaN and -inf raise
    ``ValueError``.  The noise is one ``rng.normal`` draw of ``len(x)``
    values, taken ``NOISE_BLOCK`` at a time (a generator's consecutive
    draws equal one long draw), so ``x`` ends equal to ``x + noise`` to
    the bit.  The power and the per-block draw are `_noise_scale` and
    `_add_block_noise`, the steps a long-form recording's stream takes
    too; the one array the length of ``x`` is the gathered active
    samples."""
    _check_snr(snr_db)
    if x.dtype != np.float64 or x.ndim != 1:
        raise ValueError(f"add_noise needs 1-D float64 samples, got {x.dtype} {x.shape}")
    if snr_db == math.inf:
        return x
    blocks = [x[lo : lo + NOISE_BLOCK] for lo in range(0, len(x), NOISE_BLOCK)]
    count = sum(int(np.count_nonzero(_active(part))) for part in blocks)
    scale = _noise_scale(blocks, count, snr_db)
    for part in blocks:
        _add_block_noise(part, scale, rng)
    return x


def _active(x: np.ndarray) -> np.ndarray:
    """The mask of the samples with |x| > 1e-9, whose power sets the
    noise."""
    mask = np.greater(x, 1e-9)
    mask |= np.less(x, -1e-9)
    return mask


def _noise_scale(pieces: Iterable[np.ndarray], count: int, snr_db: float) -> float:
    """The noise's standard deviation at ``snr_db`` below the power of the
    ``count`` active samples of ``pieces``.  They are gathered in order
    into one array of exactly their count, whose mean square is the
    power (1e-6 when there are none): the same array, and so the same
    float, whatever the pieces."""
    gathered = np.empty(count)
    at = 0
    for part in pieces:
        mask = _active(part)
        n = int(np.count_nonzero(mask))
        np.compress(mask, part, out=gathered[at : at + n])
        at += n
    power = float(np.mean(np.square(gathered, out=gathered))) if count else 1e-6
    return math.sqrt(power / (10.0 ** (snr_db / 10.0)))


def _add_block_noise(part: np.ndarray, scale: float, rng: np.random.Generator) -> None:
    """Add the next ``len(part)`` noise values ``rng`` draws to ``part``,
    in place."""
    part += rng.normal(0.0, scale, size=part.size)


def _silence(seconds: float) -> np.ndarray:
    return np.zeros(int(round(seconds * CANONICAL_RATE)))


def synth_phrase(
    words: Sequence[str], spec: SynthSpec, rng: np.random.Generator
) -> tuple[np.ndarray, list[Boundary]]:
    """Words separated by silence gaps; boundaries are word-level."""
    pieces = [_silence(spec.clip_pad)]
    cursor = pieces[0].size
    boundaries = []
    for k, word in enumerate(words):
        if k > 0:
            gap = _silence(rng.uniform(*spec.word_gap))
            pieces.append(gap)
            cursor += gap.size
        audio, _ = synth_word(word, spec, rng)
        boundaries.append(
            Boundary(word, cursor / CANONICAL_RATE, (cursor + len(audio)) / CANONICAL_RATE)
        )
        pieces.append(audio)
        cursor += len(audio)
    pieces.append(_silence(spec.clip_pad))
    return np.concatenate(pieces), boundaries


def make_vocabulary(
    spec: SynthSpec, size: int, rng: np.random.Generator
) -> list[str]:
    """Distinct random words over the grapheme inventory."""
    vocab: list[str] = []
    seen = set()
    guard = 0
    while len(vocab) < size:
        guard += 1
        if guard > 50 * size:
            raise SynthError("vocabulary too large for the grapheme inventory")
        length = int(rng.integers(WORD_LENGTH[0], WORD_LENGTH[1] + 1))
        word = "".join(
            spec.graphemes[int(rng.integers(0, len(spec.graphemes)))]
            for _ in range(length)
        )
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


class _Phrase(NamedTuple):
    """A long-form phrase as the layout leaves it: enough to render its
    audio again, bit for bit, without the shared generator."""

    offset: int  # of its first sample in the recording
    words: list[str]
    state: dict  # the generator's state just before `synth_phrase` drew it
    active: int  # its samples with |x| > 1e-9


def _long_phrase(
    words: Sequence[str], spec: SynthSpec, rng: np.random.Generator
) -> tuple[np.ndarray, list[Boundary]]:
    """`synth_phrase` with the padding at both ends stripped, so that the
    utterance gaps of a recording are the only silence between phrases."""
    audio, bounds = synth_phrase(words, spec, rng)
    pad = int(round(spec.clip_pad * CANONICAL_RATE))
    return (audio[pad:-pad] if pad else audio), bounds


def _rendered(
    phrases: Sequence[_Phrase], spec: SynthSpec, kind: type
) -> Iterator[tuple[int, np.ndarray]]:
    """(offset, audio) of each phrase in turn, drawn again from its saved
    state by a generator of its own, a ``kind`` bit generator."""
    gen = np.random.Generator(kind())
    for phrase in phrases:
        gen.bit_generator.state = phrase.state
        yield phrase.offset, _long_phrase(phrase.words, spec, gen)[0]


def _recording_blocks(
    phrases: Sequence[_Phrase], n: int, spec: SynthSpec, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The ``n`` noisy samples of a long-form recording, ``NOISE_BLOCK`` at
    a time, equal to the bit to `add_noise` on the whole recording: zeros
    with each phrase rendered at its offset, plus the noise ``rng`` draws.
    One render gathers the active samples for `_noise_scale`, a second
    places them.  Each block is one buffer, refilled for the next."""
    kind = type(rng.bit_generator)
    if spec.snr_db != math.inf:
        scale = _noise_scale(
            (audio for _, audio in _rendered(phrases, spec, kind)),
            sum(phrase.active for phrase in phrases), spec.snr_db,
        )
    placed = _rendered(phrases, spec, kind)
    phrase = next(placed, None)
    buf = np.empty(min(n, NOISE_BLOCK))
    for lo in range(0, n, NOISE_BLOCK):
        part = buf[: min(NOISE_BLOCK, n - lo)]
        part.fill(0.0)
        hi = lo + len(part)
        while phrase is not None and phrase[0] < hi:
            offset, audio = phrase
            a, b = max(offset, lo), min(offset + len(audio), hi)
            part[a - lo : b - lo] = audio[a - offset : b - offset]
            if b < offset + len(audio):  # runs on into the next block
                break
            phrase = next(placed, None)
        if spec.snr_db != math.inf:
            _add_block_noise(part, scale, rng)
        yield part


def _check_sizes(
    n_shortform, longform_minutes, n_test, vocabulary_size,
    longform_recording_minutes, corruption_rate,
) -> None:
    """ValueError naming the first of `synth_corpus`'s sizes that it
    cannot honour."""
    for name, value, least in (("n_shortform", n_shortform, 0), ("n_test", n_test, 0),
                               ("vocabulary_size", vocabulary_size, 1)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if not (math.isfinite(longform_minutes) and longform_minutes >= 0):
        raise ValueError(f"longform_minutes must be finite and >= 0, got {longform_minutes!r}")
    if not (math.isfinite(longform_recording_minutes) and longform_recording_minutes > 0):
        raise ValueError("longform_recording_minutes must be finite and > 0, "
                         f"got {longform_recording_minutes!r}")
    if not 0.0 <= corruption_rate <= 1.0:
        raise ValueError(f"corruption_rate must be in [0, 1], got {corruption_rate!r}")


def synth_corpus(
    spec: SynthSpec,
    out_dir,
    n_shortform: int = 60,
    longform_minutes: float = 30.0,
    n_test: int = 30,
    vocabulary_size: int = 100,
    longform_recording_minutes: float = 5.0,
    corruption_rate: float = 0.0,
) -> SynthCorpus:
    """Generate short-form clips, long-form recordings, and a test set.

    ``corruption_rate`` inserts that fraction of off-script lines into the
    long-form transcripts (text with no matching audio); the ground truth
    records which transcript lines are corrupted.

    The counts are integers >= 0, and the vocabulary holds at least one
    word, since every corpus draws words (its 400 extra LM lines, if
    nothing else); ``longform_minutes`` is finite and >= 0, a
    recording's minutes finite and > 0, and ``corruption_rate`` in
    [0, 1].  A size out of range raises ``ValueError`` naming it before
    anything is written.

    Each long-form recording is laid out first: its words, gaps, truth
    and corruption are drawn as they land, and of each phrase only its
    offset, words, the generator state it was drawn from and its count
    of active samples are kept.  Then `_recording_blocks` renders the
    phrases again from those states and streams the noisy recording to
    `write_wav_pcm16_blocks` ``NOISE_BLOCK`` samples at a time, with the
    noise drawn from the shared generator in `add_noise`'s order.  The
    files are those of a recording built whole in one buffer, with
    `add_noise` and `write_wav_pcm16` on it, to the byte; the one array
    that grows with a recording is its gathered active samples, about
    half its float64 bytes.
    """
    _check_sizes(n_shortform, longform_minutes, n_test, vocabulary_size,
                 longform_recording_minutes, corruption_rate)
    if spec.min_signature_distance() < SIGNATURE_DISTANCE_FLOOR:
        raise SynthError("grapheme signatures are not distinguishable enough")
    out = Path(out_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    vocab = make_vocabulary(spec, vocabulary_size, rng)

    def pick_words(lo: int, hi: int) -> list[str]:
        k = int(rng.integers(lo, hi + 1))
        return [vocab[int(rng.integers(0, len(vocab)))] for _ in range(k)]

    def clips(name: str, n: int, word_range: tuple[int, int]) -> Path:
        """n noisy phrases with verbatim text, and their manifest."""
        utts = []
        for i in range(n):
            words = pick_words(*word_range)
            audio, _ = synth_phrase(words, spec, rng)
            audio = add_noise(audio, spec.snr_db, rng)
            path = out / "audio" / f"{name}{i:04d}.wav"
            write_wav_pcm16(path, audio)
            utts.append(Utterance(id=path.stem, audio=str(path), text=" ".join(words)))
        manifest = out / f"{name}.jsonl"
        write_manifest(utts, manifest)
        return manifest

    short_manifest = clips("short", n_shortform, SHORTFORM_WORDS)

    # long-form recordings with one transcript file each
    longform: list[LongFormTruth] = []
    lm_lines: list[str] = []
    total_needed = longform_minutes * 60.0
    total_done = 0.0
    per_rec = longform_recording_minutes * 60.0
    # a recording opens with one clip pad of silence
    pad = int(round(spec.clip_pad * CANONICAL_RATE))
    while total_done < total_needed - 1e-9:
        target = min(per_rec, total_needed - total_done)
        rec_id = f"long{len(longform):03d}"
        phrases: list[_Phrase] = []
        cursor = pad
        truth_utts = []
        lines: list[str] = []
        corrupted_lines: list[int] = []
        while cursor / CANONICAL_RATE < target:
            words = pick_words(*UTTERANCE_WORDS)
            state = rng.bit_generator.state
            audio, bounds = _long_phrase(words, spec, rng)
            phrases.append(_Phrase(cursor, words, state, int(np.count_nonzero(_active(audio)))))
            start = cursor / CANONICAL_RATE
            cursor += len(audio)
            truth_utts.append(
                {
                    "tokens": words,
                    "start": start,
                    "end": cursor / CANONICAL_RATE,
                    "words": [
                        {
                            "word": b.label,
                            "start": start + b.start - spec.clip_pad,
                            "end": start + b.end - spec.clip_pad,
                        }
                        for b in bounds
                    ],
                }
            )
            lines.append(" ".join(words))
            if corruption_rate > 0 and rng.random() < corruption_rate:
                corrupted_lines.append(len(lines))
                lines.append(" ".join(pick_words(*CORRUPTION_WORDS)))
            cursor += int(round(rng.uniform(*spec.utterance_gap) * CANONICAL_RATE))
        audio_path = out / "audio" / f"{rec_id}.wav"
        write_wav_pcm16_blocks(audio_path, cursor,
                               _recording_blocks(phrases, cursor, spec, rng))
        transcript_path = out / f"{rec_id}.txt"
        transcript_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        lm_lines += lines
        longform.append(
            LongFormTruth(
                recording_id=rec_id,
                audio=str(audio_path),
                transcript=str(transcript_path),
                utterances=truth_utts,
                corrupted_line_indices=corrupted_lines,
            )
        )
        total_done += cursor / CANONICAL_RATE

    test_manifest = clips("test", n_test, TEST_WORDS)

    # LM text: long-form transcripts plus extra sampled sentences
    lm_lines += [" ".join(pick_words(*UTTERANCE_WORDS)) for _ in range(400)]
    lm_text = out / "lm_text.txt"
    lm_text.write_text("\n".join(lm_lines) + "\n", encoding="utf-8")

    result = SynthCorpus(
        out_dir=str(out),
        short_manifest=str(short_manifest),
        test_manifest=str(test_manifest),
        longform=longform,
        lm_text=str(lm_text),
        vocabulary=vocab,
    )
    truth = {"longform": [asdict(rec) for rec in longform], "vocabulary": vocab}
    with open(result.ground_truth_path(), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=1, sort_keys=True)
    return result
