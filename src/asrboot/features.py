"""MFCC front-end, per-recording CMVN, and energy-based silence detection.

13 cepstra (C0 carries log frame energy) with delta and delta-delta
appended give 39-dimensional features.  Frames are snipped at the edges:
T = 1 + floor((N - window) / shift) for an N-sample signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fftpack import dct

from .corpus import CANONICAL_RATE

ENERGY_FLOOR = 1e-10
VAR_EPSILON = 1e-10


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
    add_deltas: bool = True

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
    frame_length: float
    log_energy: np.ndarray = field(repr=False, default=None)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def frame_time(self, index: int) -> float:
        return index * self.frame_shift


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


def frame_count(n_samples: int, cfg: FrontendConfig) -> int:
    if n_samples < cfg.window_samples:
        raise AudioTooShortError(
            f"{n_samples} samples is shorter than one "
            f"{cfg.window_samples}-sample window"
        )
    return 1 + (n_samples - cfg.window_samples) // cfg.shift_samples


def _frame_signal(x: np.ndarray, cfg: FrontendConfig) -> np.ndarray:
    n_frames = frame_count(len(x), cfg)
    window, shift = cfg.window_samples, cfg.shift_samples
    idx = np.arange(window)[None, :] + shift * np.arange(n_frames)[:, None]
    return x[idx]


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


def compute_mfcc(samples: np.ndarray, cfg: FrontendConfig = FrontendConfig()) -> FeatureMatrix:
    """MFCC features from canonical-format samples (int16 or float)."""
    if samples.dtype == np.int16:
        x = samples.astype(np.float64) / 32768.0
    else:
        x = np.asarray(samples, dtype=np.float64)
    raw_frames = _frame_signal(x, cfg)

    # raw log energy, before pre-emphasis and windowing
    energy = np.sum(raw_frames**2, axis=1)
    log_energy = np.log(np.maximum(energy, ENERGY_FLOOR))

    emphasized = raw_frames.copy()
    emphasized[:, 1:] -= cfg.preemphasis * raw_frames[:, :-1]
    emphasized[:, 0] -= cfg.preemphasis * raw_frames[:, 0]
    windowed = emphasized * np.hamming(cfg.window_samples)

    power = np.abs(np.fft.rfft(windowed, cfg.n_fft)) ** 2 / cfg.n_fft
    mel_energies = power @ mel_filterbank(cfg).T
    log_mel = np.log(np.maximum(mel_energies, ENERGY_FLOOR))
    ceps = dct(log_mel, type=2, axis=1, norm="ortho")[:, : cfg.n_ceps]
    ceps[:, 0] = log_energy

    if cfg.add_deltas:
        d1 = _deltas(ceps)
        d2 = _deltas(d1)
        frames = np.hstack([ceps, d1, d2])
    else:
        frames = ceps
    return FeatureMatrix(
        frames=frames,
        frame_shift=cfg.frame_shift,
        frame_length=cfg.frame_length,
        log_energy=log_energy,
    )


def cmvn(f: FeatureMatrix) -> FeatureMatrix:
    """Per-dimension mean/variance normalization.

    Dimensions with variance below 1e-10 are centered but not scaled.
    """
    mean = f.frames.mean(axis=0)
    var = f.frames.var(axis=0)
    scale = np.where(var < VAR_EPSILON, 1.0, 1.0 / np.sqrt(np.maximum(var, VAR_EPSILON)))
    return FeatureMatrix(
        frames=(f.frames - mean) * scale,
        frame_shift=f.frame_shift,
        frame_length=f.frame_length,
        log_energy=f.log_energy,
    )


def _smooth_runs(mask: np.ndarray, min_run: int = 3) -> np.ndarray:
    """Merge runs shorter than min_run into their left neighbor."""
    out = mask.copy()
    t = len(out)
    i = 0
    while i < t:
        j = i
        while j < t and out[j] == out[i]:
            j += 1
        if j - i < min_run:
            if i > 0:
                out[i:j] = out[i - 1]
            elif j < t:
                out[i:j] = out[j]
        i = j
    return out


def silence_mask(f: FeatureMatrix, margin_db: float = 10.0) -> np.ndarray:
    """Boolean mask, True where the frame counts as silence.

    A frame is silence when its energy sits below the 5th-percentile
    energy plus the margin.  Runs shorter than 3 frames are merged into
    their neighbors.
    """
    energy_db = 10.0 * f.log_energy / np.log(10.0)
    if np.isinf(margin_db) and margin_db > 0:
        return np.ones(len(energy_db), dtype=bool)
    threshold = np.percentile(energy_db, 5) + margin_db
    return _smooth_runs(energy_db < threshold)


def silence_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) frame ranges of the silent stretches."""
    runs = []
    start = None
    for i, silent in enumerate(mask):
        if silent and start is None:
            start = i
        elif not silent and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


def slice_frames(f: FeatureMatrix, start: int, end: int) -> FeatureMatrix:
    """Frame-range view [start, end) as a new FeatureMatrix."""
    return FeatureMatrix(
        frames=f.frames[start:end],
        frame_shift=f.frame_shift,
        frame_length=f.frame_length,
        log_energy=f.log_energy[start:end],
    )
