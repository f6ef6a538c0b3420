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
byte-identical takes a separate generator.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CANONICAL_RATE, Utterance, write_manifest, write_wav_pcm16

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


def _unit_samples(spec: SynthSpec, rng: np.random.Generator) -> int:
    jitter = 1.0 + spec.duration_jitter * (2.0 * rng.random() - 1.0)
    return max(1, int(round(spec.unit_duration * jitter * CANONICAL_RATE)))


@functools.lru_cache(maxsize=128)
def _tone(grapheme: str, spec: SynthSpec) -> np.ndarray:
    """A grapheme's sum of sines, read-only, one sample longer than the
    longest unit `_unit_samples` draws under ``spec``.  Every sample
    depends only on its index, so a prefix of it equals the tone computed
    at that length, bit for bit."""
    freqs = spec.signature_frequencies()
    if grapheme not in freqs:
        raise SynthError(f"unknown grapheme {grapheme!r}")
    longest = spec.unit_duration * (1.0 + abs(spec.duration_jitter)) * CANONICAL_RATE
    n = max(1, int(round(longest))) + 1
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
    """White noise at the requested SNR relative to nonzero-signal power."""
    if math.isinf(snr_db):
        return x
    # |x| > 1e-9 from two bool masks, not a float64 |x| the length of x
    active = x[(x > 1e-9) | (x < -1e-9)]
    power = float(np.mean(np.square(active, out=active))) if active.size else 1e-6
    del active  # freed before the full-length noise draw
    noise_power = power / (10.0 ** (snr_db / 10.0))
    noise = rng.normal(0.0, math.sqrt(noise_power), size=len(x))
    noise += x
    return noise


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
    """
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
    # synth_phrase pads both ends; strip to keep utterance gaps controlled
    pad = int(round(spec.clip_pad * CANONICAL_RATE))
    while total_done < total_needed - 1e-9:
        target = min(per_rec, total_needed - total_done)
        rec_id = f"long{len(longform):03d}"
        # one zeroed buffer, so the silences need no writes; only the last
        # phrase and its gap run past the target, and resize zero-fills
        signal = np.zeros(math.ceil(target * CANONICAL_RATE))
        cursor = pad
        truth_utts = []
        lines: list[str] = []
        corrupted_lines: list[int] = []
        while cursor / CANONICAL_RATE < target:
            words = pick_words(*UTTERANCE_WORDS)
            audio, bounds = synth_phrase(words, spec, rng)
            audio = audio[pad:-pad] if pad else audio
            start = cursor / CANONICAL_RATE
            if cursor + len(audio) > signal.size:
                # no view of the buffer outlives its statement
                signal.resize(cursor + len(audio), refcheck=False)
            signal[cursor:cursor + len(audio)] = audio
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
        signal.resize(cursor, refcheck=False)
        signal = add_noise(signal, spec.snr_db, rng)
        audio_path = out / "audio" / f"{rec_id}.wav"
        write_wav_pcm16(audio_path, signal)
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
