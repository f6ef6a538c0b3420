"""Corpus data model: manifests, audio canonicalization, subsetting.

Manifests are UTF-8 JSON Lines with fields ``id``, ``audio`` and ``text``.
An utterance is its whole audio file: a line with ``start`` or ``end``
seconds is rejected, never read as the whole file.  Audio is
canonicalized to 16 kHz mono 16-bit PCM WAV.

WAV files are read, written and resampled here with ``struct`` and numpy
alone: one RIFF/WAVE header parser serves `read_wav`, `wav_duration` and
`canonicalize_audio`, and tells a file's layout, length and faults from
its header before any sample is read.  Subsetting by a minute budget is
nested: with a fixed seed, a smaller budget is always a prefix of a
larger one.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .textnorm import utf8_lines

logger = logging.getLogger(__name__)

# Hz: every canonical recording's rate, and the front end's
CANONICAL_RATE = 16000

SHORT_FORM = "short_form"


class ManifestError(ValueError):
    """Raised for malformed manifests (carries the offending line number)."""


class AudioFormatError(ValueError):
    """Raised for audio the canonicalizer cannot handle."""


@dataclass(frozen=True)
class Recording:
    """One canonical audio file: 16-bit PCM, mono, at ``CANONICAL_RATE``,
    the only layout `canonicalize_audio` writes; ``duration`` in seconds."""

    id: str
    audio_path: str
    duration: float


@dataclass(frozen=True)
class Utterance:
    """A transcribed audio file, the whole of it."""

    id: str
    audio: str
    text: str

    @property
    def recording_id(self) -> str:
        return Path(self.audio).stem

    def tokens(self) -> tuple[str, ...]:
        return tuple(self.text.split())


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
    """Read a JSONL manifest; rejects duplicate ids and spans."""
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
        if "start" in record or "end" in record:
            raise ManifestError(
                f"{path}:{lineno}: spans are not supported (start/end); "
                "an utterance is its whole audio file"
            )
        utterances.append(
            Utterance(id=utt_id, audio=record["audio"], text=record["text"])
        )
    return utterances


def write_manifest(utterances: Iterable[Utterance], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt in utterances:
            record = {"id": utt.id, "audio": utt.audio, "text": utt.text}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# audio

# the WAVE format tags read: PCM, IEEE float, and the extensible header
# whose sub-format GUID names one of the two
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# the sub-format GUID after its format tag: {XXXXXXXX-0000-0010-8000-00AA00389B71}
_GUID_TAIL = bytes.fromhex("000010008000" "00aa00389b71")
# (format tag, bytes per stored sample) -> the dtype of the stored samples;
# 24-bit PCM is returned as int32 with the 3 bytes at its top, as
# scipy.io.wavfile reads it
_SAMPLE_DTYPES = {
    (_PCM, 1): np.dtype(np.uint8),
    (_PCM, 2): np.dtype("<i2"),
    (_PCM, 3): np.dtype("<i4"),
    (_PCM, 4): np.dtype("<i4"),
    (_FLOAT, 4): np.dtype("<f4"),
    (_FLOAT, 8): np.dtype("<f8"),
}


class _WavHeader(NamedTuple):
    """What a RIFF/WAVE header says of the samples after it."""

    rate: int
    channels: int
    dtype: np.dtype  # of the samples as `_samples` returns them
    width: int  # bytes per stored sample
    n_frames: int
    offset: int  # of the first sample in the file


def _wav_header(path) -> _WavHeader:
    """Parse a RIFF/WAVE file's chunks up to its samples, reading none of
    them: PCM of 1 to 4 bytes a sample or IEEE float of 4 or 8, plain or
    as ``WAVE_FORMAT_EXTENSIBLE``, one or two channels.  Chunks other than
    ``fmt `` before the ``data`` chunk are skipped (``LIST`` and the
    like), and any after it is not read; the RIFF size is not used.

    Raises `AudioFormatError` naming the path for any other layout, and
    for a file that is not RIFF WAVE, has no ``fmt `` chunk before its
    ``data`` chunk, a rate of 0 Hz or no whole frame, or ends before the
    last whole frame of its ``data`` chunk."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        riff = fh.read(12)
        if riff[:4] != b"RIFF":
            raise AudioFormatError(
                f"{path}: file format {riff[:4]!r} not understood, need b'RIFF'"
            )
        if riff[8:] != b"WAVE":
            raise AudioFormatError(
                f"{path}: RIFF form type {riff[8:]!r} not understood, need b'WAVE'"
            )
        fmt = None
        while True:
            head = fh.read(8)
            if len(head) < 8:
                raise AudioFormatError(f"{path}: malformed WAV file (no data chunk)")
            chunk_id, size = struct.unpack("<4sI", head)
            if chunk_id == b"data":
                break
            body = fh.tell()
            if chunk_id == b"fmt ":
                fmt = fh.read(min(size, 40))  # the extensible header's length
                if len(fmt) < 16:
                    raise AudioFormatError(
                        f"{path}: malformed WAV header (fmt chunk of {len(fmt)} bytes)"
                    )
            fh.seek(body + size + size % 2)  # a chunk of odd size is padded
        offset = fh.tell()
    if fmt is None:
        raise AudioFormatError(f"{path}: malformed WAV file (no fmt chunk before the data)")
    tag, channels, rate, _, block_align, _ = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE and len(fmt) == 40 and fmt[28:] == _GUID_TAIL:
        tag = int.from_bytes(fmt[24:28], "little")
    if channels == 0:
        raise AudioFormatError(f"{path}: malformed WAV header (0 channels)")
    if channels > 2:
        raise AudioFormatError(f"{path}: {channels} channels unsupported")
    width, odd = divmod(block_align, channels)
    dtype = _SAMPLE_DTYPES.get((tag, width))
    if dtype is None or odd:
        raise AudioFormatError(
            f"{path}: unsupported sample format (format tag {tag:#06x}, "
            f"{block_align}-byte frames of {channels} channels)"
        )
    if rate < 1:
        raise AudioFormatError(f"{path}: sample rate {rate} Hz, need at least 1")
    n_frames = size // block_align
    if n_frames == 0:
        raise AudioFormatError(f"{path}: zero-length audio")
    missing = offset + n_frames * block_align - file_size
    if missing > 0:
        raise AudioFormatError(f"{path}: truncated, {missing} bytes of samples missing")
    return _WavHeader(rate, channels, dtype, width, n_frames, offset)


def _samples(path, header: _WavHeader) -> np.ndarray:
    """The samples as stored, (n_frames,) for one channel and
    (n_frames, 2) for two, in ``header.dtype``."""
    count = header.n_frames * header.channels
    if header.width == header.dtype.itemsize:
        data = np.fromfile(path, header.dtype, count, offset=header.offset)
    else:  # 24-bit: each sample's bytes become the top 3 of an int32
        data = np.zeros((count, 4), dtype=np.uint8)
        data[:, 1:] = np.fromfile(path, np.uint8, 3 * count,
                                  offset=header.offset).reshape(count, 3)
        data = data.view(header.dtype).reshape(count)
    return data.reshape(header.n_frames, 2) if header.channels == 2 else data


def wav_duration(path) -> float:
    """Duration in seconds of a WAV file `read_wav` reads, from its header
    alone.  A file it would reject raises `AudioFormatError` naming the
    path, as it does there."""
    header = _wav_header(path)
    return header.n_frames / header.rate


def read_wav(path) -> tuple[int, np.ndarray]:
    """Read a RIFF/WAVE file into (rate, float samples in [-1, 1]), one
    sample per row for one channel, two columns for two.

    Read are PCM of 8, 16, 24 and 32 bits and IEEE float of 32 and 64,
    plain or as ``WAVE_FORMAT_EXTENSIBLE``; any other file raises
    `AudioFormatError` naming the path.  The samples are float32 for 8-
    and 16-bit PCM and float32 files, and float64 for 24- and 32-bit PCM
    and float64 files: the narrowest float that holds every stored value
    exactly, so widening them to float64 gives the float64 scaling to the
    bit, at half its size for 16-bit audio."""
    header = _wav_header(path)
    return header.rate, _scaled(_samples(path, header), np.float32)


def _scaled(data: np.ndarray, dtype) -> np.ndarray:
    """Stored samples in [-1, 1], as float ``dtype``, or as float64 for
    24- and 32-bit PCM (int32) and float64 files, whose values float32
    does not hold exactly."""
    if data.dtype in (np.int32, np.float64):
        dtype = np.float64
    # scaled in place: one float array the length of the file, none when
    # the file's floats are already that dtype
    x = data.astype(dtype, copy=False)
    if data.dtype == np.int16:
        x /= 32768.0
    elif data.dtype == np.int32:
        x /= 2147483648.0
    elif data.dtype == np.uint8:
        x -= 128.0
        x /= 128.0
    return x


def non_finite_summary(x: np.ndarray, step: int) -> str | None:
    """None when every one of the flat samples ``x`` is finite; else how
    many are NaN or inf, and the index of the first.  Reads ``step``
    samples at a time."""
    for lo in range(0, len(x), step):
        if not np.isfinite(x[lo : lo + step]).all():
            break
    else:
        return None
    first = lo + int(np.argmin(np.isfinite(x[lo : lo + step])))
    count = sum(
        int(np.count_nonzero(~np.isfinite(x[i : i + step])))
        for i in range(lo, len(x), step)
    )
    return f"{count} non-finite samples, the first at index {first}"


_PCM16_BLOCK = 1 << 16  # samples checked for NaN and inf at a time
# samples scaled per float64 temporary: with its int16 copy, 0.625 of one
# block's float64 bytes
_PCM16_STEP = _PCM16_BLOCK // 2


def write_wav_pcm16(path, samples: np.ndarray) -> None:
    """Write (n,) samples as a canonical WAV file, 16 kHz mono 16-bit PCM:
    a 44-byte header, then the int16 samples as they lie in memory, the
    bytes ``scipy.io.wavfile.write`` gives them.  int16 samples are
    written as they are; float ones are scaled by 32768, rounded and
    clipped, a step at a time, by `write_wav_pcm16_blocks`.  Samples of
    any other shape raise ``ValueError`` naming the path and the shape,
    and a NaN or inf one naming the path, the count of non-finite
    samples and the index of the first, both before the file is
    opened."""
    if samples.ndim != 1:
        raise ValueError(f"{path}: samples of shape {samples.shape}, need (n,) mono")
    if samples.dtype != np.int16:
        summary = non_finite_summary(samples, _PCM16_BLOCK)
        if summary:
            raise ValueError(f"{path}: {summary}")
    write_wav_pcm16_blocks(path, len(samples), [samples])


def write_wav_pcm16_blocks(path, n: int, blocks: Iterable[np.ndarray]) -> None:
    """Write the ``n`` samples that the 1-D ``blocks`` hold, in order, as
    `write_wav_pcm16` writes them joined into one array: the header, then
    each block converted and written as it comes, ``_PCM16_STEP``
    samples at a time, so nothing the length of the file is held.  The
    writer reads a block before it takes the next, so a block may be a
    buffer the iterator refills.

    A NaN or inf sample raises ``ValueError`` naming the path and the
    sample's index, and so do blocks that hold other than ``n`` samples;
    the partial file is removed, as it is for an error the iterator
    raises."""
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 2 * n, b"WAVE",
        b"fmt ", 16, _PCM, 1, CANONICAL_RATE, 2 * CANONICAL_RATE, 2, 16,
        b"data", 2 * n,
    )
    buf = np.empty(_PCM16_STEP)
    done = 0
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(header)
            for block in blocks:
                for lo in range(0, len(block), _PCM16_STEP):
                    part = block[lo:lo + _PCM16_STEP]
                    if part.dtype != np.int16:
                        # elementwise, so the blocks change nothing
                        finite = np.isfinite(part)
                        if not finite.all():
                            first = done + int(np.argmin(finite))
                            raise ValueError(f"{path}: a non-finite sample at index {first}")
                        scaled = np.multiply(part, 32768.0, out=buf[:len(part)],
                                             dtype=np.float64)
                        np.rint(scaled, out=scaled)
                        part = np.clip(scaled, -32768, 32767, out=scaled).astype(np.int16)
                    part.tofile(fh)
                    done += len(part)
            if done != n:
                raise ValueError(f"{path}: {done} samples, the header says {n}")
    except BaseException:
        os.remove(path)
        raise


# the rates `resample` accepts: from _MIN_RATE Hz, with a reduced ratio
# up/down to CANONICAL_RATE whose larger term is at most _MAX_PHASES, so
# its filter has at most 64 * _MAX_PHASES + 1 taps (about 8 MB) and the
# output is at most 4 times the input; every standard rate from 4 to
# 384 kHz passes, 11,025 Hz (640/441) included
_MIN_RATE = 4000
_MAX_PHASES = 16000
# output samples `resample` computes per matrix-vector product, so that no
# temporary grows with the signal
_RESAMPLE_ROWS = 4096


def _ratio(rate: int) -> tuple[int, int]:
    """(up, down), the reduced ratio from ``rate`` to ``CANONICAL_RATE``;
    ``ValueError`` for a rate `resample` does not take."""
    if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)) or rate < 1:
        raise ValueError(f"rate must be an integer >= 1 Hz, got {rate!r}")
    if rate < _MIN_RATE:
        raise ValueError(f"sample rate {rate} Hz is below {_MIN_RATE} Hz")
    g = math.gcd(rate, CANONICAL_RATE)
    up, down = CANONICAL_RATE // g, rate // g
    if max(up, down) > _MAX_PHASES:
        raise ValueError(
            f"sample rate {rate} Hz needs {up}/{down} resampling, "
            f"more than {_MAX_PHASES} phases"
        )
    return up, down


def _taps(up: int, down: int) -> np.ndarray:
    """`resample`'s prototype filter, times ``up``: a windowed sinc of 64
    taps per phase of ``max(up, down)``, cut off at ``1 / max(up, down)``
    of the Nyquist rate, Kaiser window with beta 8.555, scaled to a unit
    sum before the gain (``scipy.signal.firwin``'s taps within 6e-17)."""
    factor = max(up, down)
    n = 64 * factor + 1
    taps = np.sinc((np.arange(n) - n // 2) / factor) * np.kaiser(n, 8.555)
    taps /= taps.sum()
    taps *= up
    return taps


def resample(samples: np.ndarray, rate: int) -> np.ndarray:
    """Polyphase windowed-sinc resampling from ``rate`` to
    ``CANONICAL_RATE``, the front end's rate: ``ceil(n * up / down)``
    float64 samples for ``n``, where up/down is the reduced ratio of the
    two rates.  Output j is the filter `_taps` applied at upsampled index
    ``j * down + len(taps) // 2``, with zeros beyond both ends of the
    input, as ``scipy.signal.resample_poly`` aligns it.  Samples already
    at ``CANONICAL_RATE`` are returned as they are.

    ``rate`` must be an integer (a bool is not) from ``_MIN_RATE`` whose
    reduced ratio to ``CANONICAL_RATE`` has no term above
    ``_MAX_PHASES``; any other raises ``ValueError`` before a filter is
    built, as do samples that are not 1-D, naming their shape.  Besides
    the output, the memory used is one zero-padded float64 copy of the
    input and the filter.
    """
    up, down = _ratio(rate)
    if samples.ndim != 1:
        raise ValueError(f"samples of shape {samples.shape}, need (n,) mono")
    if rate == CANONICAL_RATE:
        return samples
    taps = _taps(up, down)
    half = len(taps) // 2
    k = -(-len(taps) // up)  # taps per phase
    # column p holds phase p's taps, taps[p::up], in reverse, so that a
    # window of the input in time order meets them
    phases = np.zeros(k * up)
    phases[: len(taps)] = taps
    phases = phases.reshape(k, up)[::-1]
    n = len(samples)
    n_out = -(-n * up // down)
    # output j reads upsampled index t = j * down + half: input samples
    # t // up back to t // up - k + 1 against phase t % up, which is
    # window t // up of the input padded with k - 1 zeros before it; half
    # is at least 32 * down, so the last window ends past the input
    last = ((n_out - 1) * down + half) // up
    padded = np.zeros(last + k)
    padded[k - 1 : k - 1 + n] = samples
    windows = sliding_window_view(padded, k)
    out = np.empty(n_out)
    # outputs r, r + up, r + 2 up, ... share one phase, and their windows
    # start down samples apart
    for r in range(min(up, n_out)):
        start, p = divmod(r * down + half, up)
        rows = len(range(r, n_out, up))
        for lo in range(0, rows, _RESAMPLE_ROWS):
            hi = min(lo + _RESAMPLE_ROWS, rows)
            block = windows[start + lo * down : start + (hi - 1) * down + 1 : down]
            out[r + lo * up : r + hi * up : up] = block @ phases[:, p]
    return out


def canonicalize_audio(input_path, out_path) -> Recording:
    """Convert any supported WAV to 16 kHz mono 16-bit PCM at ``out_path``,
    a `Recording` whose id is the stem of ``out_path``.

    Already-canonical input is copied byte-for-byte (so canonicalization
    is idempotent bit-exactly); its header tells without reading the
    samples.  Stereo is downmixed by averaging, then `resample`d to
    ``CANONICAL_RATE``.  A file `read_wav` rejects, or whose rate
    `resample` does not take (below ``_MIN_RATE``, or a ratio of more
    than ``_MAX_PHASES`` phases, as a corrupted header may state), raises
    `AudioFormatError` naming the path, before a sample is read.  So does
    a float file with a NaN or inf sample, naming the count of non-finite
    samples after the downmix and the index of the first, before
    ``out_path`` is opened.
    """
    input_path = Path(input_path)
    out_path = Path(out_path)
    rec_id = out_path.stem

    header = _wav_header(input_path)
    if (header.rate, header.channels, header.dtype) == (CANONICAL_RATE, 1, np.int16):
        if input_path.resolve() != out_path.resolve():
            shutil.copyfile(input_path, out_path)
        return Recording(rec_id, str(out_path), header.n_frames / CANONICAL_RATE)

    try:
        _ratio(header.rate)
    except ValueError as exc:
        raise AudioFormatError(f"{input_path}: {exc}") from None
    x = _scaled(_samples(input_path, header), np.float64)
    if x.ndim == 2:
        x = x.mean(axis=1)
    summary = non_finite_summary(x, _PCM16_BLOCK)
    if summary:
        raise AudioFormatError(f"{input_path}: {summary}")
    y = resample(x, header.rate)
    write_wav_pcm16(out_path, y)
    return Recording(rec_id, str(out_path), len(y) / CANONICAL_RATE)


# ---------------------------------------------------------------------------
# durations, stats, subsetting

def corpus_stats(
    utterances: Sequence[Utterance],
    kinds: dict[str, str] | None = None,
) -> CorpusStats:
    """Exact duration sums; minutes reported to 2 decimals.

    ``kinds`` optionally maps recording_id -> short_form/long_form for the
    per-kind breakdown; unlisted recordings count as short_form.
    """
    total = 0.0
    by_kind: dict[str, float] = {}
    recordings = set()
    for utt in utterances:
        dur = wav_duration(utt.audio)
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
    target_seconds = minutes * 60.0
    selected: list[Utterance] = []
    total = 0.0
    for utt in order:
        if total >= target_seconds:
            break
        selected.append(utt)
        total += wav_duration(utt.audio)
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
    utterances: Sequence[Utterance], recording_ids: Collection[str]
) -> None:
    """Check that every utterance's recording id is one of
    ``recording_ids``; raises ManifestError."""
    for utt in utterances:
        if utt.recording_id not in recording_ids:
            raise ManifestError(
                f"utterance {utt.id!r}: dangling recording "
                f"reference {utt.recording_id!r}"
            )
