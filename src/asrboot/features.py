"""MFCC front-end, per-recording CMVN, and energy-based silence detection.

13 cepstra (C0 carries log frame energy) with delta and delta-delta
appended give 39-dimensional features.  Frames are snipped at the edges:
T = 1 + floor((N - window) / shift) for an N-sample signal.

Samples are float of any width, as ``corpus.read_wav`` returns them
(float32 for 16-bit audio), and are checked once, before any block runs.
Cepstra are then computed in blocks of equal row count: each block's
sample span is copied, widened to float64, into a buffer of the thread
that computes it and read through a strided view of that buffer, and
the rows are written into the preallocated output; only the deltas see
the whole track, after every block.  No copy of the whole signal is
made, so float32 samples cost half the memory of float64 ones and give
the features of their float64 widening to the bit.  When the process
may use two CPUs or more, a track of T >= 2 * ``MIN_SPLIT`` frames has
blocks of ``min(BLOCK_FRAMES, ceil(T / 2))`` frames, split between the
calling thread (the first half, rounded up) and the package's helper
thread (the rest), as Kaldi splits feature extraction into
data-parallel jobs; the rfft, matmul and ufuncs release the GIL.  Any other track is computed on the calling
thread alone, in blocks of ``min(BLOCK_FRAMES, T)`` frames.  Each
output row is written by one block only, the last that covers it, so
the features are the one-thread loop's to the bit.

Each thread works in its own fixed buffers, made once per call, so a
split track costs two blocks' buffers, not one: about 5 MiB each at
``BLOCK_FRAMES`` = 500 rows.  Apart from the (T, 39) output, peak memory
does not grow with the length of the recording.
The settings are the constants of `FrontendConfig`; the Hamming window,
the mel bank and the DCT basis are built once, not per clip.  The DCT is
a product with that fixed (23, 13) basis, as Kaldi computes it, summed
band by band in band order with numpy alone: elementwise steps, so a
row's cepstra do not depend on the block's row count, and no scipy.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import threads
from .corpus import CANONICAL_RATE, non_finite_summary

ENERGY_FLOOR = 1e-10
VAR_EPSILON = 1e-10
# frames per block of the cepstral pass: bounds its transients
BLOCK_FRAMES = 500
# with two usable CPUs, a call of at least 2 * MIN_SPLIT frames splits its
# blocks between the calling thread and the helper
MIN_SPLIT = 256
# rows per block of cmvn's variance sum
CMVN_BLOCK_ROWS = 4096
# silence_mask's threshold above the 5th-percentile frame energy, in dB
_SILENCE_MARGIN_DB = 10.0


def check_count(name: str, value) -> None:
    """ValueError unless ``value`` is an integer >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class FrontendConfig:
    """The front end's fixed settings, as class constants: 16 kHz samples,
    25 ms Hamming windows every 10 ms, pre-emphasis 0.97, 23 mel bands
    from 20 Hz to 7.8 kHz and 13 cepstra.  Every feature in the package is
    computed with them, so a model and the features it decodes agree.

    The class has no fields: ``FrontendConfig()`` takes no argument and
    its attributes cannot be set.
    """

    sample_rate = CANONICAL_RATE
    frame_length = 0.025  # seconds
    frame_shift = 0.010  # seconds
    n_mels = 23
    n_ceps = 13
    preemphasis = 0.97
    fmin = 20.0  # Hz
    fmax = 7800.0  # Hz

    window_samples = int(round(frame_length * sample_rate))  # 400
    shift_samples = int(round(frame_shift * sample_rate))  # 160
    # the rfft length: the least power of two >= window_samples
    n_fft = 1 << (window_samples - 1).bit_length()  # 512


@dataclass(frozen=True)
class FeatureMatrix:
    """T x D feature frames plus the raw log-energy track, one row and one
    value per frame.  Frame t starts at ``t * FrontendConfig.frame_shift``
    seconds, the one shift every feature in the package is computed with.

    ``log_energy`` is kept separately so silence detection still works
    after CMVN rewrites the feature columns.
    """

    frames: np.ndarray
    log_energy: np.ndarray = field(repr=False)

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


def mel_filterbank() -> np.ndarray:
    """Triangular mel filters, (n_mels, n_fft // 2 + 1)."""
    cfg = FrontendConfig
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


def dct_basis() -> np.ndarray:
    """The orthonormal DCT-II from the log mel bands to the cepstra,
    (n_mels, n_ceps): cepstrum k of bands x is ``sum_j x[j] * basis[j, k]``,
    scipy's ``dct(x, type=2, norm="ortho")[:n_ceps]``."""
    cfg = FrontendConfig
    bands = np.arange(cfg.n_mels)[:, None] + 0.5
    basis = np.cos(np.pi / cfg.n_mels * bands * np.arange(cfg.n_ceps))
    basis *= np.sqrt(2.0 / cfg.n_mels)
    basis[:, 0] = np.sqrt(1.0 / cfg.n_mels)
    return basis


@functools.cache
def _analysis_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hamming window, the transposed mel bank and the DCT basis,
    read-only, built once for every clip."""
    tables = np.hamming(FrontendConfig.window_samples), mel_filterbank().T, dct_basis()
    for table in tables:
        table.flags.writeable = False
    return tables


def frame_count(n_samples: int, cfg: FrontendConfig) -> int:
    """Frames of an ``n_samples`` signal, snipped at the edges:
    T = 1 + floor((N - 400) / 160).  `AudioTooShortError` below one
    400-sample window."""
    if n_samples < cfg.window_samples:
        raise AudioTooShortError(
            f"{n_samples} samples is shorter than one "
            f"{cfg.window_samples}-sample window"
        )
    return 1 + (n_samples - cfg.window_samples) // cfg.shift_samples


def _deltas(frames: np.ndarray) -> np.ndarray:
    """+-2 frame regression with edge replication:
    sum_n n (c[t + n] - c[t - n]) / (2 sum_n n^2) over n = 1, 2."""
    t = len(frames)
    padded = np.pad(frames, ((2, 2), (0, 0)), mode="edge")
    out = np.zeros_like(frames)
    out += padded[3 : 3 + t] - padded[1 : 1 + t]
    out += 2 * (padded[4 : 4 + t] - padded[:t])
    return out / 10.0


def _check_finite(x: np.ndarray, step: int) -> None:
    """Raise if ``x`` holds a NaN or inf, naming how many and the index of
    the first; reads ``step`` samples at a time."""
    for lo in range(0, len(x), step):
        if not np.isfinite(x[lo : lo + step]).all():
            raise ValueError(non_finite_summary(x, lo, step))


def _cepstra(x, starts, rows, ceps, log_energy, first, last) -> None:
    """Cepstra and log energy of blocks ``starts[first:last]`` of float
    signal ``x``, each block ``rows`` frames, written into ``ceps`` and
    ``log_energy``.  Block k writes only the rows that no later block
    covers, ``[starts[k], starts[k + 1])``; the last block writes all its
    rows.

    The block's samples, widened to float64, and its frames, rfft, power
    and mel values live in buffers made once per call, and the DCT's
    terms in the frames' buffer once the rfft has read it: a call's
    transients are one block's, at a fixed size, where per-block
    temporaries on two threads would overlap or not by timing."""
    cfg = FrontendConfig
    window, shift = cfg.window_samples, cfg.shift_samples
    n_frames, n_ceps = len(log_energy), cfg.n_ceps
    hamming, bank_t, basis = _analysis_tables()
    n_bins = cfg.n_fft // 2 + 1
    # a block's samples, widened to float64, and its frames read through it
    span = np.empty((rows - 1) * shift + window)
    raw = np.lib.stride_tricks.sliding_window_view(span, window)[::shift]
    block = np.empty((rows, window))
    spec = np.empty((rows, n_bins), dtype=np.complex128)
    power = np.empty((rows, n_bins))
    mel = np.empty((rows, cfg.n_mels))
    mel_t, cep_t = np.empty((cfg.n_mels, rows)), np.empty((n_ceps, rows))
    # the DCT's (n_mels, n_ceps, rows) terms fill 299 of the frames' 400
    # columns: no more pages to fault in per call
    terms = block.reshape(-1)[: cfg.n_mels * n_ceps * rows].reshape(cfg.n_mels, n_ceps, rows)
    for k in range(first, last):
        start = starts[k]
        stop = n_frames if k + 1 == len(starts) else starts[k + 1]
        span[:] = x[start * shift : start * shift + span.size]

        # raw log energy, before pre-emphasis and windowing
        energy = np.square(raw, out=block).sum(axis=1)
        np.log(np.maximum(energy[: stop - start], ENERGY_FLOOR),
               out=log_energy[start:stop])

        np.multiply(raw[:, :-1], cfg.preemphasis, out=block[:, 1:])
        np.subtract(raw[:, 1:], block[:, 1:], out=block[:, 1:])
        block[:, 0] = raw[:, 0] - cfg.preemphasis * raw[:, 0]
        block *= hamming

        # the rfft pads each row to n_fft itself
        np.fft.rfft(block, cfg.n_fft, out=spec)
        np.abs(spec, out=power)
        np.square(power, out=power)
        power /= cfg.n_fft
        np.matmul(power, bank_t, out=mel)
        np.log(np.maximum(mel, ENERGY_FLOOR, out=mel), out=mel)
        # the DCT: every term basis[j, k] * mel[t, j] in one call, then the
        # bands added in band order, each add one contiguous (n_ceps, rows)
        # pass; elementwise, so a row's cepstra do not depend on the rows
        # beside it
        mel_t[:] = mel.T
        np.multiply(basis[:, :, None], mel_t[:, None, :], out=terms)
        np.add(terms[0], terms[1], out=cep_t)
        for j in range(2, cfg.n_mels):
            np.add(cep_t, terms[j], out=cep_t)
        ceps[start:stop] = cep_t[:, : stop - start].T


def compute_mfcc(samples: np.ndarray) -> FeatureMatrix:
    """MFCC features, (T, 39), at the settings of `FrontendConfig`, from
    16 kHz mono float samples of any width, as ``corpus.read_wav`` returns
    them; float32 samples give the features of
    ``samples.astype(np.float64)`` to the bit, with no such copy made.

    A call of T >= 2 * ``MIN_SPLIT`` frames, in a process that may use two
    CPUs or more (``threads.usable_cpus``), works in blocks of
    ``min(BLOCK_FRAMES, ceil(T / 2))`` frames: this thread computes the
    first half of the blocks (rounded up) and the package's helper thread
    (``threads.helper``) the rest, in the caller's context, so a caller's
    ``np.errstate`` holds on both.  Any other call works in blocks of
    ``min(BLOCK_FRAMES, T)`` frames on this thread and starts no thread:
    on one CPU the two threads would only share it.  All blocks have the
    same row count, and the last overlaps the one before it.  Each output
    row and ``log_energy`` entry is written by exactly one block, the last
    that covers it, so the result does not depend on the threads' timing.
    Each thread works in its own fixed block buffers (``_cepstra``): two
    sets when split, not one.  No thread outlives the call.

    Raises ``ValueError`` on samples that are not 1-D or not float (an
    integer's full scale is not known here), `AudioTooShortError` on
    fewer samples than one window, and ``ValueError`` on a NaN or inf
    anywhere, the tail that no frame covers too, naming the count of all
    non-finite samples and the index of the first.  The samples are
    checked in that order, before any block or thread runs.
    """
    if samples.ndim != 1:
        raise ValueError(
            f"samples of shape {samples.shape} are not mono; "
            "corpus.canonicalize_audio downmixes to 16 kHz mono"
        )
    if samples.dtype.kind != "f":
        raise ValueError(
            f"{samples.dtype} samples are not float; "
            "corpus.read_wav scales any supported WAV to float in [-1, 1]"
        )
    cfg = FrontendConfig()
    n_frames = frame_count(len(samples), cfg)
    _check_finite(samples, BLOCK_FRAMES * cfg.shift_samples)
    split = n_frames >= 2 * MIN_SPLIT and threads.usable_cpus() > 1
    rows = min(BLOCK_FRAMES, -(-n_frames // 2) if split else n_frames)
    # every block has the same row count, so the last one overlaps its
    # predecessor: BLAS takes another path for a short matmul, which
    # moves last bits
    starts = [min(start, n_frames - rows) for start in range(0, n_frames, rows)]

    n_ceps = cfg.n_ceps
    frames = np.empty((n_frames, 3 * n_ceps))
    ceps = frames[:, :n_ceps]
    log_energy = np.empty(n_frames)
    blocks = functools.partial(_cepstra, samples, starts, rows, ceps, log_energy)
    if not split:
        blocks(0, len(starts))
    else:
        half = (len(starts) + 1) // 2
        with threads.helper() as submit:
            rest = submit(blocks, half, len(starts))
            blocks(0, half)
            rest.result()
    ceps[:, 0] = log_energy
    frames[:, n_ceps : 2 * n_ceps] = _deltas(ceps)
    frames[:, 2 * n_ceps :] = _deltas(frames[:, n_ceps : 2 * n_ceps])
    return FeatureMatrix(frames=frames, log_energy=log_energy)


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
    return FeatureMatrix(frames=out, log_energy=f.log_energy)


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


def silence_mask(f: FeatureMatrix) -> np.ndarray:
    """Boolean mask, True where the frame counts as silence.

    A frame is silence when its energy sits below the 5th-percentile
    energy plus ``_SILENCE_MARGIN_DB``.  Runs shorter than 3 frames are
    merged into their neighbors.
    """
    energy_db = 10.0 * f.log_energy / np.log(10.0)
    threshold = np.percentile(energy_db, 5) + _SILENCE_MARGIN_DB
    return _smooth_runs(energy_db < threshold)


def silence_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) frame ranges of the silent stretches."""
    edges = np.flatnonzero(np.diff(mask.astype(np.int8), prepend=0, append=0))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def slice_frames(f: FeatureMatrix, start: int, end: int) -> FeatureMatrix:
    """Frame-range view [start, end) as a new FeatureMatrix."""
    return FeatureMatrix(frames=f.frames[start:end], log_energy=f.log_energy[start:end])
