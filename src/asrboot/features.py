"""MFCC front-end, per-recording CMVN, and energy-based silence detection.

13 cepstra (C0 carries log frame energy) with delta and delta-delta
appended give 39-dimensional features.  Frames are snipped at the edges:
T = 1 + floor((N - window) / shift) for an N-sample signal.

Cepstra are computed in fixed blocks of ``BLOCK_FRAMES`` frames, read
through a strided view of the signal, and written into the preallocated
output; only the deltas see the whole track.  int16 input is converted
to float one block of samples at a time.  Apart from the (T, 39) output,
peak memory does not grow with the length of the recording.  The Hamming
window and the mel bank are built once per `FrontendConfig`, not per clip.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.fftpack import dct

from .corpus import CANONICAL_RATE

ENERGY_FLOOR = 1e-10
VAR_EPSILON = 1e-10
# frames per block of the cepstral pass: bounds its transients
BLOCK_FRAMES = 2000
# rows per block of cmvn's variance sum
CMVN_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = CANONICAL_RATE
    frame_length: float = 0.025
    frame_shift: float = 0.010
    n_mels: int = 23
    n_ceps: int = 13
    preemphasis: float = 0.97
    fmin: float = 20.0
    fmax: float = 7800.0

    def __post_init__(self):
        # inline checks: am imports this module, so am.check_count is out of reach
        for name, seconds in (("frame_length", self.frame_length),
                              ("frame_shift", self.frame_shift)):
            # rounded to whole samples, as window_samples and shift_samples do
            if not 0.5 < seconds * self.sample_rate < math.inf:
                raise ValueError(f"{name} must be at least one sample, got {seconds}")
        if not self.n_mels >= 1:
            raise ValueError(f"n_mels must be >= 1, got {self.n_mels}")
        if not 1 <= self.n_ceps <= self.n_mels:
            raise ValueError(
                f"n_ceps must be in 1..n_mels ({self.n_mels}), got {self.n_ceps}"
            )
        if not 0 <= self.fmin < self.fmax <= self.sample_rate / 2:
            raise ValueError(
                f"need 0 <= fmin < fmax <= sample_rate / 2, got fmin {self.fmin}, "
                f"fmax {self.fmax}, sample_rate {self.sample_rate}"
            )

    @property
    def window_samples(self) -> int:
        return int(round(self.frame_length * self.sample_rate))

    @property
    def shift_samples(self) -> int:
        return int(round(self.frame_shift * self.sample_rate))

    @property
    def n_fft(self) -> int:
        n = 1
        while n < self.window_samples:
            n *= 2
        return n


@dataclass(frozen=True)
class FeatureMatrix:
    """T x D feature frames plus the raw log-energy track.

    ``log_energy`` is kept separately so silence detection still works
    after CMVN rewrites the feature columns.
    """

    frames: np.ndarray
    frame_shift: float
    log_energy: np.ndarray = field(repr=False, default=None)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


class AudioTooShortError(ValueError):
    """Signal shorter than one analysis window."""


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


def mel_filterbank(cfg: FrontendConfig) -> np.ndarray:
    """Triangular mel filters, (n_mels, n_fft // 2 + 1)."""
    n_bins = cfg.n_fft // 2 + 1
    freqs = np.arange(n_bins) * cfg.sample_rate / cfg.n_fft
    mel_points = np.linspace(
        _hz_to_mel(cfg.fmin), _hz_to_mel(cfg.fmax), cfg.n_mels + 2
    )
    hz_points = _mel_to_hz(mel_points)
    bank = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (freqs - left) / (center - left)
        falling = (right - freqs) / (right - center)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


@functools.lru_cache(maxsize=16)
def _analysis_tables(cfg: FrontendConfig) -> tuple[np.ndarray, np.ndarray]:
    """The Hamming window and the transposed mel bank of ``cfg``, read-only,
    built once per config for every clip it analyses."""
    hamming = np.hamming(cfg.window_samples)
    bank = mel_filterbank(cfg)
    hamming.flags.writeable = bank.flags.writeable = False
    return hamming, bank.T


def frame_count(n_samples: int, cfg: FrontendConfig) -> int:
    if n_samples < cfg.window_samples:
        raise AudioTooShortError(
            f"{n_samples} samples is shorter than one "
            f"{cfg.window_samples}-sample window"
        )
    return 1 + (n_samples - cfg.window_samples) // cfg.shift_samples


def _deltas(frames: np.ndarray, half_window: int = 2) -> np.ndarray:
    # +-2 frame regression with edge replication
    weights = np.arange(1, half_window + 1, dtype=np.float64)
    denom = 2.0 * np.sum(weights**2)
    padded = np.pad(frames, ((half_window, half_window), (0, 0)), mode="edge")
    out = np.zeros_like(frames)
    for n in range(1, half_window + 1):
        out += n * (
            padded[half_window + n : half_window + n + len(frames)]
            - padded[half_window - n : half_window - n + len(frames)]
        )
    return out / denom


def _check_finite(x: np.ndarray, lo: int, hi: int) -> None:
    """Raise if x[lo:hi] holds a NaN or inf, counting those in x[lo:]."""
    finite = np.isfinite(x[lo:hi])
    if finite.all():
        return
    first = lo + int(np.argmin(finite))
    step = hi - lo
    count = sum(
        int(np.count_nonzero(~np.isfinite(x[i : i + step])))
        for i in range(lo, len(x), step)
    )
    raise ValueError(f"{count} non-finite samples, the first at index {first}")


def compute_mfcc(samples: np.ndarray, cfg: FrontendConfig = FrontendConfig()) -> FeatureMatrix:
    """MFCC features from canonical-format samples (int16 or float).

    Raises ``ValueError`` on samples that are not 1-D or not finite, and
    on integer samples other than int16, whose scale is not known here.
    """
    if samples.ndim != 1:
        raise ValueError(
            f"samples of shape {samples.shape} are not mono; "
            "corpus.canonicalize_audio downmixes to 16 kHz mono"
        )
    if samples.dtype.kind in "iu" and samples.dtype != np.int16:
        raise ValueError(
            f"{samples.dtype} samples are not int16 PCM; "
            "corpus.read_wav scales any supported WAV to float in [-1, 1]"
        )
    pcm = samples.dtype == np.int16
    x = samples if pcm else np.asarray(samples, dtype=np.float64)
    n_frames = frame_count(len(x), cfg)
    window, shift = cfg.window_samples, cfg.shift_samples
    hamming, bank_t = _analysis_tables(cfg)

    n_ceps = cfg.n_ceps
    frames = np.empty((n_frames, 3 * n_ceps))
    ceps = frames[:, :n_ceps]
    log_energy = np.empty(n_frames)
    rows = min(n_frames, BLOCK_FRAMES)
    block = np.empty((rows, window))
    checked = 0
    for start in range(0, n_frames, rows):
        # every block has the same row count, so the last one overlaps its
        # predecessor: BLAS takes another path for a short matmul, which
        # moves last bits
        start = min(start, n_frames - rows)
        end = start + rows
        reach = len(x) if end == n_frames else (end - 1) * shift + window
        if pcm:
            span = x[start * shift : reach].astype(np.float64)
            span /= 32768.0
        else:
            _check_finite(x, checked, reach)
            checked = reach
            span = x[start * shift : reach]
        raw = np.lib.stride_tricks.sliding_window_view(span, window)[::shift][:rows]

        # raw log energy, before pre-emphasis and windowing
        energy = np.square(raw, out=block).sum(axis=1)
        np.log(np.maximum(energy, ENERGY_FLOOR), out=log_energy[start:end])

        np.multiply(raw[:, :-1], cfg.preemphasis, out=block[:, 1:])
        np.subtract(raw[:, 1:], block[:, 1:], out=block[:, 1:])
        block[:, 0] = raw[:, 0] - cfg.preemphasis * raw[:, 0]
        block *= hamming

        power = np.abs(np.fft.rfft(block, cfg.n_fft))
        np.square(power, out=power)
        power /= cfg.n_fft
        log_mel = np.log(np.maximum(power @ bank_t, ENERGY_FLOOR))
        ceps[start:end] = dct(log_mel, type=2, axis=1, norm="ortho")[:, :n_ceps]
    ceps[:, 0] = log_energy
    frames[:, n_ceps : 2 * n_ceps] = _deltas(ceps)
    frames[:, 2 * n_ceps :] = _deltas(frames[:, n_ceps : 2 * n_ceps])
    return FeatureMatrix(
        frames=frames,
        frame_shift=cfg.frame_shift,
        log_energy=log_energy,
    )


def _column_sums(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Column sums over the rows of a sequence of (n, D) blocks.

    The running sum is carried in as the first row of each block, so the
    rows are added one at a time in order, as numpy sums axis 0 of a
    C-contiguous array: with D >= 2 the result equals
    ``np.vstack(blocks).sum(axis=0)`` to the bit (numpy sums a single
    contiguous column pairwise).  Holds one block and a copy of it.
    """
    total = None
    for block in blocks:
        if total is not None:
            block = np.concatenate([total[None], block])
        total = np.add.reduce(np.ascontiguousarray(block), axis=0)
    return total


def cmvn(f: FeatureMatrix) -> FeatureMatrix:
    """Per-dimension mean/variance normalization.

    Dimensions with variance below 1e-10 are centered but not scaled.
    The output is the one full-size array: it is centred, its squares are
    summed ``CMVN_BLOCK_ROWS`` rows at a time, and then it is scaled in
    place.  The result equals ``(x - x.mean(0)) * scale(x.var(0))`` to the
    bit for two or more columns.
    """
    n = f.n_frames
    if n == 0:
        raise ValueError("cmvn needs at least one frame")
    out = f.frames - f.frames.mean(axis=0)
    var = _column_sums(
        np.square(out[i : i + CMVN_BLOCK_ROWS]) for i in range(0, n, CMVN_BLOCK_ROWS)
    ) / n
    out *= np.where(var < VAR_EPSILON, 1.0, 1.0 / np.sqrt(np.maximum(var, VAR_EPSILON)))
    return FeatureMatrix(
        frames=out,
        frame_shift=f.frame_shift,
        log_energy=f.log_energy,
    )


def _smooth_runs(mask: np.ndarray, min_run: int = 3) -> np.ndarray:
    """Merge runs shorter than min_run into their left neighbor; a short
    first run takes the value of the run after it.  Runs are those of the
    input, so a short run next to a merged one is not lengthened by it."""
    if len(mask) == 0:
        return mask.copy()
    bounds = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    lengths = np.diff(bounds, prepend=0, append=len(mask))
    values = mask[np.concatenate(([0], bounds))].tolist()
    for k, length in enumerate(lengths.tolist()):
        if length < min_run:
            if k > 0:
                values[k] = values[k - 1]
            elif len(values) > 1:
                values[0] = values[1]
    return np.repeat(np.array(values, dtype=mask.dtype), lengths)


def silence_mask(f: FeatureMatrix, margin_db: float = 10.0) -> np.ndarray:
    """Boolean mask, True where the frame counts as silence.

    A frame is silence when its energy sits below the 5th-percentile
    energy plus the margin.  Runs shorter than 3 frames are merged into
    their neighbors.
    """
    energy_db = 10.0 * f.log_energy / np.log(10.0)
    threshold = np.percentile(energy_db, 5) + margin_db
    return _smooth_runs(energy_db < threshold)


def silence_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) frame ranges of the silent stretches."""
    edges = np.flatnonzero(np.diff(mask.astype(np.int8), prepend=0, append=0))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def slice_frames(f: FeatureMatrix, start: int, end: int) -> FeatureMatrix:
    """Frame-range view [start, end) as a new FeatureMatrix."""
    return FeatureMatrix(
        frames=f.frames[start:end],
        frame_shift=f.frame_shift,
        log_energy=f.log_energy[start:end],
    )
