"""Corpus data model: manifests, audio canonicalization, subsetting.

Manifests are UTF-8 JSON Lines with fields ``id``, ``audio``, ``text`` and
optional ``start``/``end`` seconds.  Audio is canonicalized to 16 kHz mono
16-bit PCM WAV.  Subsetting by a minute budget is nested: with a fixed
seed, a smaller budget is always a prefix of a larger one.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import shutil
import struct
import warnings
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.io import wavfile

from .textnorm import utf8_lines

logger = logging.getLogger(__name__)

CANONICAL_RATE = 16000

SHORT_FORM = "short_form"


class ManifestError(ValueError):
    """Raised for malformed manifests (carries the offending line number)."""


class AudioFormatError(ValueError):
    """Raised for audio the canonicalizer cannot handle."""


@dataclass(frozen=True)
class Recording:
    """One canonical audio file."""

    id: str
    audio_path: str
    sample_rate: int
    channels: int
    duration: float


@dataclass(frozen=True)
class Utterance:
    """A transcribed span: a whole recording or a [start, end) slice of one."""

    id: str
    audio: str
    text: str
    start: float | None = None
    end: float | None = None

    @property
    def recording_id(self) -> str:
        return Path(self.audio).stem

    def tokens(self) -> tuple[str, ...]:
        return tuple(self.text.split())

    def span_duration(self) -> float | None:
        if self.start is not None and self.end is not None:
            return self.end - self.start
        return None


@dataclass(frozen=True)
class CorpusStats:
    n_recordings: int
    n_utterances: int
    total_minutes: float
    minutes_by_kind: dict[str, float]


@dataclass(frozen=True)
class SubsetResult:
    utterances: list[Utterance]
    requested_minutes: float
    selected_minutes: float
    shortfall: bool


# ---------------------------------------------------------------------------
# manifest I/O

def load_manifest(path) -> list[Utterance]:
    """Read a JSONL manifest; rejects duplicate ids and bad spans."""
    utterances: list[Utterance] = []
    seen: set[str] = set()
    for lineno, line in utf8_lines(path, ManifestError):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ManifestError(f"{path}:{lineno}: expected a JSON object")
        for field in ("id", "audio", "text"):
            if field not in record:
                raise ManifestError(f"{path}:{lineno}: missing field {field!r}")
            if not isinstance(record[field], str):
                raise ManifestError(f"{path}:{lineno}: {field!r} must be a string")
        utt_id = record["id"]
        if utt_id in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate id {utt_id!r}")
        seen.add(utt_id)
        start = record.get("start")
        end = record.get("end")
        # JSON true/false load as bool, which is an int subclass
        if any(type(v) not in (int, float, type(None)) for v in (start, end)):
            raise ManifestError(f"{path}:{lineno}: start and end must be numbers")
        # json reads the non-standard Infinity and NaN as floats
        if any(v is not None and not math.isfinite(v) for v in (start, end)):
            raise ManifestError(
                f"{path}:{lineno}: start and end must be finite, "
                f"got start={start} end={end}"
            )
        if (start is None) != (end is None):
            raise ManifestError(
                f"{path}:{lineno}: start and end must be given together"
            )
        if start is not None:
            if not 0 <= start < end:
                raise ManifestError(
                    f"{path}:{lineno}: need 0 <= start < end, "
                    f"got start={start} end={end}"
                )
        utterances.append(
            Utterance(
                id=utt_id,
                audio=record["audio"],
                text=record["text"],
                start=start,
                end=end,
            )
        )
    return utterances


def write_manifest(utterances: Iterable[Utterance], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt in utterances:
            record: dict = {"id": utt.id, "audio": utt.audio, "text": utt.text}
            if utt.start is not None:
                record["start"] = utt.start
                record["end"] = utt.end
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# audio

def wav_duration(path) -> float:
    """Duration in seconds: a PCM file's from its header alone, any other
    format's from its samples.  A truncated or unreadable file raises
    `AudioFormatError` naming the path."""
    header = _pcm_header(path)
    if header is not None:
        rate, _, _, n_samples = header
        return n_samples / rate
    rate, raw = _read_raw(path)
    return len(raw) / rate


def read_wav(path) -> tuple[int, np.ndarray]:
    """Read a RIFF/WAVE file into (rate, float64 samples in [-1, 1])."""
    rate, data = _read_raw(path)
    return rate, _scaled(path, data)


def _read_raw(path) -> tuple[int, np.ndarray]:
    """(rate, samples as stored); an unreadable, truncated or empty file
    raises `AudioFormatError` naming the path.  Other ``WavFileWarning``s
    (an unknown chunk) pass through."""
    try:
        with warnings.catch_warnings():
            # scipy warns, and returns what it read, for a file that ends
            # before its header says
            warnings.filterwarnings(
                "error", "Reached EOF prematurely", wavfile.WavFileWarning
            )
            rate, data = wavfile.read(path)
    except wavfile.WavFileWarning as exc:
        raise AudioFormatError(f"{path}: truncated ({exc})") from None
    except (ValueError, struct.error) as exc:  # struct: a header cut short
        raise AudioFormatError(f"{path}: {exc}") from None
    except ZeroDivisionError:  # scipy divides by the channels and the block size
        raise AudioFormatError(
            f"{path}: malformed WAV header (0 channels or 0-byte samples)"
        ) from None
    except UnboundLocalError:  # scipy read no data chunk
        raise AudioFormatError(f"{path}: malformed WAV file (no data chunk)") from None
    _check_rate(path, rate)
    if data.size == 0:
        raise AudioFormatError(f"{path}: zero-length audio")
    return rate, data


def _check_rate(path, rate: int) -> None:
    if rate < 1:
        raise AudioFormatError(f"{path}: sample rate {rate} Hz, need at least 1")


def _pcm_header(path) -> tuple[int, int, int, int] | None:
    """(rate, channels, sample width, sample count) from a PCM WAV header,
    without reading the samples; None for a header `wave` cannot read (it
    rejects non-PCM formats).  A file shorter than its header says, or
    with chunk sizes `wave` cannot follow, raises."""
    try:
        with open(path, "rb") as fh, wave.open(fh) as wf:
            header = (wf.getframerate(), wf.getnchannels(), wf.getsampwidth(),
                      wf.getnframes())
            data_start = fh.tell()  # wave stops at the samples
    except (wave.Error, EOFError):
        return None
    except RuntimeError:  # wave's bare error for a chunk size it cannot seek to
        raise AudioFormatError(
            f"{path}: malformed WAV header (inconsistent chunk sizes)"
        ) from None
    rate, channels, width, n_samples = header
    _check_rate(path, rate)
    missing = data_start + channels * width * n_samples - os.path.getsize(path)
    if missing > 0:
        raise AudioFormatError(f"{path}: truncated, {missing} bytes of samples missing")
    return header


def _scaled(path, data: np.ndarray) -> np.ndarray:
    """Stored samples of a supported layout as float64 in [-1, 1]."""
    if data.ndim == 2 and data.shape[1] > 2:
        raise AudioFormatError(f"{path}: {data.shape[1]} channels unsupported")
    if data.dtype not in (np.int16, np.int32, np.uint8, np.float32, np.float64):
        raise AudioFormatError(f"{path}: unsupported sample format {data.dtype}")
    # scaled in place: one float64 array the length of the file
    x = data.astype(np.float64)
    if data.dtype == np.int16:
        x /= 32768.0
    elif data.dtype == np.int32:
        x /= 2147483648.0
    elif data.dtype == np.uint8:
        x -= 128.0
        x /= 128.0
    return x


_PCM16_BLOCK = 1 << 16  # samples scaled per float64 temporary


def write_wav_pcm16(path, samples: np.ndarray, rate: int = CANONICAL_RATE) -> None:
    """Write int16 samples (float inputs are scaled and clipped)."""
    if samples.dtype != np.int16:
        # block by block into one int16 array: no float64 copy of the
        # whole signal; each step is elementwise, so the blocks change nothing
        pcm = np.empty(samples.shape, dtype=np.int16)
        src, dst = samples.reshape(-1), pcm.reshape(-1)
        buf = np.empty(min(src.size, _PCM16_BLOCK))
        for lo in range(0, src.size, _PCM16_BLOCK):
            part = src[lo:lo + _PCM16_BLOCK]
            block = np.multiply(part, 32768.0, out=buf[:part.size], dtype=np.float64)
            np.rint(block, out=block)
            dst[lo:lo + part.size] = np.clip(block, -32768, 32767, out=block)
        samples = pcm
    wavfile.write(str(path), rate, samples)


def resample(samples: np.ndarray, rate: int, target_rate: int = CANONICAL_RATE) -> np.ndarray:
    """Polyphase windowed-sinc resampling to the target rate.

    Both rates must be integers from 1 (a bool is not).  ``scipy.signal``
    is imported on the first call that resamples, not with this module.
    """
    for name, value in (("rate", rate), ("target_rate", target_rate)):
        integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not integral or value < 1:
            raise ValueError(f"{name} must be an integer >= 1 Hz, got {value!r}")
    if rate == target_rate:
        return samples
    # about 47 MB and 0.6 s to import, with the scipy subpackages it loads
    from scipy.signal import firwin, resample_poly

    g = math.gcd(rate, target_rate)
    up, down = target_rate // g, rate // g
    # polyphase windowed-sinc prototype: 64 taps per phase, Kaiser window
    factor = max(up, down)
    taps = firwin(2 * 32 * factor + 1, 1.0 / factor, window=("kaiser", 8.555))
    return resample_poly(samples, up, down, window=taps)


def canonicalize_audio(input_path, out_path, rec_id: str | None = None) -> Recording:
    """Convert any supported WAV to 16 kHz mono 16-bit PCM.

    Already-canonical input is copied byte-for-byte (so canonicalization
    is idempotent bit-exactly); a PCM header tells without reading the
    samples.  Stereo is downmixed by averaging.
    """
    input_path = Path(input_path)
    out_path = Path(out_path)
    if rec_id is None:
        rec_id = out_path.stem

    header = _pcm_header(input_path)
    if header is not None and header[:3] == (CANONICAL_RATE, 1, 2) and header[3]:
        n_samples = header[3]
    else:  # not PCM, not canonical or empty: the samples decide
        rate, raw = _read_raw(input_path)
        canonical = rate == CANONICAL_RATE and raw.ndim == 1 and raw.dtype == np.int16
        n_samples = len(raw) if canonical else None
    if n_samples is not None:
        if input_path.resolve() != out_path.resolve():
            shutil.copyfile(input_path, out_path)
        return Recording(
            id=rec_id,
            audio_path=str(out_path),
            sample_rate=CANONICAL_RATE,
            channels=1,
            duration=n_samples / CANONICAL_RATE,
        )

    x = _scaled(input_path, raw)
    if x.ndim == 2:
        x = x.mean(axis=1)
    y = resample(x, rate)
    write_wav_pcm16(out_path, y)
    return Recording(
        id=rec_id,
        audio_path=str(out_path),
        sample_rate=CANONICAL_RATE,
        channels=1,
        duration=len(y) / CANONICAL_RATE,
    )


# ---------------------------------------------------------------------------
# durations, stats, subsetting

def utterance_duration(utt: Utterance, cache: dict[str, float]) -> float:
    """Utterance duration in seconds; a whole-file utterance reads the
    header once per file, through ``cache``."""
    span = utt.span_duration()
    if span is not None:
        return span
    if utt.audio not in cache:
        cache[utt.audio] = wav_duration(utt.audio)
    return cache[utt.audio]


def corpus_stats(
    utterances: Sequence[Utterance],
    kinds: dict[str, str] | None = None,
) -> CorpusStats:
    """Exact duration sums; minutes reported to 2 decimals.

    ``kinds`` optionally maps recording_id -> short_form/long_form for the
    per-kind breakdown; unlisted recordings count as short_form.
    """
    cache: dict[str, float] = {}
    total = 0.0
    by_kind: dict[str, float] = {}
    recordings = set()
    for utt in utterances:
        dur = utterance_duration(utt, cache)
        total += dur
        kind = (kinds or {}).get(utt.recording_id, SHORT_FORM)
        by_kind[kind] = by_kind.get(kind, 0.0) + dur
        recordings.add(utt.recording_id)
    return CorpusStats(
        n_recordings=len(recordings),
        n_utterances=len(utterances),
        total_minutes=round(total / 60.0, 2),
        minutes_by_kind={k: round(v / 60.0, 2) for k, v in sorted(by_kind.items())},
    )


def subset_by_duration(
    utterances: Sequence[Utterance], minutes: float, seed: int
) -> SubsetResult:
    """Greedy prefix of a seeded shuffle reaching the minute budget.

    The same seed yields the same shuffle for every budget, so subsets are
    nested: the 5-minute subset is a prefix of the 10-minute one.  A
    budget that is NaN, infinite or negative raises ValueError.
    """
    if not (math.isfinite(minutes) and minutes >= 0):
        raise ValueError(f"minutes must be finite and >= 0, got {minutes}")
    order = list(utterances)
    random.Random(seed).shuffle(order)
    cache: dict[str, float] = {}
    target_seconds = minutes * 60.0
    selected: list[Utterance] = []
    total = 0.0
    for utt in order:
        if total >= target_seconds:
            break
        selected.append(utt)
        total += utterance_duration(utt, cache)
    shortfall = total < target_seconds
    if shortfall:
        logger.warning(
            "subset_by_duration: only %.2f of %.2f minutes available",
            total / 60.0,
            minutes,
        )
    return SubsetResult(
        utterances=selected,
        requested_minutes=minutes,
        selected_minutes=total / 60.0,
        shortfall=shortfall,
    )


def validate_against_recordings(
    utterances: Sequence[Utterance], recordings: dict[str, Recording]
) -> None:
    """Check recording references and time bounds; raises ManifestError."""
    for utt in utterances:
        rec = recordings.get(utt.recording_id)
        if rec is None:
            raise ManifestError(
                f"utterance {utt.id!r}: dangling recording "
                f"reference {utt.recording_id!r}"
            )
        if utt.end is not None and utt.end > rec.duration + 1e-6:
            raise ManifestError(
                f"utterance {utt.id!r}: end {utt.end} exceeds recording "
                f"duration {rec.duration}"
            )
