import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fftpack import dct

from asrboot.features import (
    BLOCK_FRAMES,
    CMVN_BLOCK_ROWS,
    MIN_SPLIT,
    VAR_EPSILON,
    AudioTooShortError,
    FeatureMatrix,
    FrontendConfig,
    _cepstra,
    _smooth_runs,
    cmvn,
    compute_mfcc,
    dct_basis,
    frame_count,
    mel_filterbank,
    silence_mask,
    silence_runs,
    slice_frames,
)
from conftest import band_order_dct, log_mel_reference, mfcc_reference, set_usable_cpus

CFG = FrontendConfig()


def tone(freq, seconds, rate=16000, amplitude=0.5):
    t = np.arange(int(round(rate * seconds))) / rate
    return amplitude * np.sin(2 * np.pi * freq * t)


class TestFraming:
    def test_one_second_is_98_frames(self):
        f = compute_mfcc(tone(440, 1.0))
        assert f.n_frames == 98

    def test_too_short_raises(self):
        with pytest.raises(AudioTooShortError):
            compute_mfcc(np.zeros(399))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=400, max_value=1_000_000))
    def test_frame_count_formula(self, n):
        expected = 1 + (n - 400) // 160
        assert frame_count(n, CFG) == expected

    def test_dim_is_39_with_deltas(self):
        f = compute_mfcc(tone(440, 0.5))
        assert f.dim == 39

    def test_slice(self):
        f = compute_mfcc(tone(600, 0.5))
        g = slice_frames(f, 10, 20)
        assert g.n_frames == 10
        assert np.array_equal(g.frames, f.frames[10:20])


class TestMfcc:
    def test_constant_zero_audio_constant_cepstra(self):
        f = compute_mfcc(np.zeros(16000))
        assert np.allclose(f.frames, f.frames[0], atol=1e-12)

    def test_tone_peaks_in_nearest_mel_bin(self):
        cfg = FrontendConfig()
        x = tone(1000, 1.0)
        frames = x[: cfg.window_samples] * np.hamming(cfg.window_samples)
        # oracle: direct DFT magnitude of one windowed frame
        spectrum = np.abs(np.fft.rfft(frames, cfg.n_fft))
        peak_hz = np.argmax(spectrum) * cfg.sample_rate / cfg.n_fft
        assert abs(peak_hz - 1000.0) <= cfg.sample_rate / cfg.n_fft

        power = spectrum**2 / cfg.n_fft
        mel_resp = power @ mel_filterbank().T
        centers_mel = np.linspace(
            2595 * np.log10(1 + cfg.fmin / 700),
            2595 * np.log10(1 + cfg.fmax / 700),
            cfg.n_mels + 2,
        )[1:-1]
        tone_mel = 2595 * np.log10(1 + 1000.0 / 700)
        assert np.argmax(mel_resp) == np.argmin(np.abs(centers_mel - tone_mel))

    def test_amplitude_scale_touches_only_c0(self):
        rng = np.random.default_rng(0)
        x = 0.3 * rng.standard_normal(8000)
        a = compute_mfcc(x).frames
        b = compute_mfcc(2.0 * x).frames
        diff = np.abs(a - b)
        keep = np.ones(39, dtype=bool)
        keep[0] = False
        assert np.max(diff[:, keep]) < 1e-6
        # C0 itself shifts by 2*log(2)
        assert np.allclose(b[:, 0] - a[:, 0], 2 * np.log(2.0), atol=1e-9)


class TestDct:
    """The front end's DCT, its basis summed in band order, is scipy's
    FFT-based orthonormal DCT-II to rounding: within 1e-12 of each row's
    largest cepstrum.  ``TestBlocks`` holds ``compute_mfcc`` to the
    band-order sum to the bit."""

    @staticmethod
    def assert_near_scipy(log_mel):
        want = dct(log_mel, type=2, axis=1, norm="ortho")[:, : CFG.n_ceps]
        err = np.abs(band_order_dct(log_mel) - want).max(axis=1)
        assert np.all(err <= 1e-12 * np.abs(want).max(axis=1))

    def test_random_rows(self):
        rng = np.random.default_rng(3)
        self.assert_near_scipy(rng.normal(0.0, 10.0, (2000, CFG.n_mels)))

    def test_log_mel_rows(self):
        # noise, a tone and silence: the floor's rows are constant
        x = np.concatenate([noise(300), tone(440, 2.0), np.zeros(8000)])
        self.assert_near_scipy(log_mel_reference(x)[0])

    def test_basis_is_orthonormal(self):
        basis = dct_basis()
        assert basis.shape == (CFG.n_mels, CFG.n_ceps)
        assert np.allclose(basis.T @ basis, np.eye(CFG.n_ceps), atol=1e-14)


def noise(n_frames):
    """Noise with n_frames frames and a tail too short for another."""
    n = CFG.window_samples + CFG.shift_samples * (n_frames - 1) + 77
    return np.random.default_rng(0).normal(0.0, 0.1, n)


def assert_matches_reference(x):
    f = compute_mfcc(x)
    frames, log_energy = mfcc_reference(x)
    assert np.array_equal(f.frames, frames)
    assert np.array_equal(f.log_energy, log_energy)


class TestBlocks:
    """compute_mfcc works a block of frames at a time; the cepstra are the
    ones the one-pass reference gives, to the bit, at every block edge."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n_frames",
        [1, 2 * MIN_SPLIT - 1, 2 * MIN_SPLIT, 2 * MIN_SPLIT + 1, 746,
         BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 1,
         4 * BLOCK_FRAMES - 1, 4 * BLOCK_FRAMES, 4 * BLOCK_FRAMES + 1,
         4 * BLOCK_FRAMES + 3, 8 * BLOCK_FRAMES + 1, 16 * BLOCK_FRAMES + 3],
    )
    def test_equals_reference(self, monkeypatch, n_frames, dtype):
        set_usable_cpus(monkeypatch, 2)  # a call of 2 * MIN_SPLIT frames splits
        x = noise(n_frames).astype(dtype)
        assert compute_mfcc(x).n_frames == n_frames
        assert_matches_reference(x)

    def test_a_bank_the_caller_changes_leaves_the_features(self):
        mel_filterbank()[:] = 0.0
        assert_matches_reference(noise(10))

    def test_input_untouched(self):
        for dtype in (np.float32, np.float64):
            x = noise(BLOCK_FRAMES + 1).astype(dtype)
            before = x.copy()
            compute_mfcc(x)
            assert np.array_equal(x, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_memory_does_not_grow_with_length(self, dtype):
        # 180 s: the one-pass front end allocates ~270 MB here.  The
        # (T, 39) output, the deltas and two threads' 500-row buffers
        # come to about 16 MiB, with no copy of the samples
        x = noise(18_000).astype(dtype)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            compute_mfcc(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 24 * 2**20


def split_layout(n_frames):
    """The block rule of a call that splits: rows per block, block starts,
    and the first sample past the caller's half of the blocks."""
    rows = min(BLOCK_FRAMES, -(-n_frames // 2))
    starts = [min(s, n_frames - rows) for s in range(0, n_frames, rows)]
    half = (len(starts) + 1) // 2
    reach = (starts[half - 1] + rows - 1) * CFG.shift_samples + CFG.window_samples
    return rows, starts, reach


def serial_error(x):
    """The message of the one-thread loop: every non-finite sample counted,
    the first one's index named."""
    bad = ~np.isfinite(x)
    return (f"^{np.count_nonzero(bad)} non-finite samples, "
            f"the first at index {np.argmax(bad)}$")


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs."""
    started, real = [], threading.Thread.start

    def start(thread):
        started.append(thread)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestSplit:
    """With two usable CPUs, a call of 2 * MIN_SPLIT frames or more splits
    its blocks between the calling thread and the helper; the output and
    the errors are the one-thread loop's."""

    LONG = 4 * BLOCK_FRAMES + 3  # five blocks: three on the caller, two on the helper

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)

    def test_a_long_call_starts_one_thread(self, thread_starts):
        compute_mfcc(noise(self.LONG))
        assert len(thread_starts) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_frames", [2 * MIN_SPLIT, BLOCK_FRAMES + 1, LONG,
                                          4 * BLOCK_FRAMES + 1, 16 * BLOCK_FRAMES + 3])
    def test_one_usable_cpu_starts_no_thread(self, monkeypatch, thread_starts,
                                             n_frames, dtype):
        # the two threads would share the CPU; the blocks are then the
        # one-thread loop's, up to BLOCK_FRAMES rows each
        set_usable_cpus(monkeypatch, 1)
        assert_matches_reference(noise(n_frames).astype(dtype))
        assert thread_starts == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_under_a_short_switch_interval(self, dtype):
        # the threads hand over the interpreter lock far more often than
        # the default 5 ms allows; no row may notice
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_matches_reference(noise(self.LONG).astype(dtype))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n_frames", [1, MIN_SPLIT, 2 * MIN_SPLIT - 1])
    def test_a_short_call_starts_no_thread(self, thread_starts, n_frames):
        compute_mfcc(noise(n_frames))
        assert thread_starts == []

    def test_each_row_written_by_one_block(self):
        # block k writes the rows up to the next block's start, the last
        # block all of its rows
        x = noise(self.LONG)
        rows, starts, _ = split_layout(self.LONG)
        written = []
        for k in range(len(starts)):
            ceps = np.full((self.LONG, CFG.n_ceps), np.nan)
            log_energy = np.full(self.LONG, np.nan)
            _cepstra(x, starts, rows, ceps, log_energy, k, k + 1)
            assert np.array_equal(np.isnan(ceps).all(axis=1), np.isnan(log_energy))
            written.append(np.flatnonzero(~np.isnan(log_energy)).tolist())
        ends = starts[1:] + [self.LONG]
        assert written == [list(range(a, b)) for a, b in zip(starts, ends)]

    @pytest.mark.parametrize("where", [
        "helper", "both_halves", "halves_overlap", "blocks_overlap", "tail",
    ])
    def test_non_finite_gives_the_serial_error(self, where):
        x = noise(self.LONG)
        rows, starts, reach = split_layout(self.LONG)
        shift, window = CFG.shift_samples, CFG.window_samples
        helper_start = starts[(len(starts) + 1) // 2] * shift
        last_two = (starts[-1] * shift, (starts[-2] + rows - 1) * shift + window)
        assert helper_start < reach < last_two[0] < last_two[1] < len(x)
        bad = {
            "helper": [reach + 5],
            "both_halves": [123, reach + 5],
            # read by the caller's last block and the helper's first
            "halves_overlap": [(helper_start + reach) // 2],
            # read by both of the helper's blocks
            "blocks_overlap": [sum(last_two) // 2],
            "tail": [len(x) - 1],  # no frame covers it
        }[where]
        x[bad] = np.nan
        with pytest.raises(ValueError, match=serial_error(x)):
            compute_mfcc(x)

    def test_non_finite_raises_before_any_thread_starts(self, thread_starts):
        x = noise(self.LONG)
        x[split_layout(self.LONG)[2] + 5] = np.nan  # in the helper's half
        with pytest.raises(ValueError, match=serial_error(x)):
            compute_mfcc(x)
        assert thread_starts == []

    def test_callers_errstate_holds_on_the_helper(self):
        x = noise(self.LONG)
        x[split_layout(self.LONG)[2] + 5] = 1e200  # its square overflows
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                compute_mfcc(x)

    @pytest.mark.parametrize("raises", [False, True])
    def test_no_thread_outlives_the_call(self, raises):
        x = noise(self.LONG)
        if raises:
            x[split_layout(self.LONG)[2] + 5] = np.inf
        before = threading.active_count()
        if raises:
            with pytest.raises(ValueError, match=serial_error(x)):
                compute_mfcc(x)
        else:
            compute_mfcc(x)
        assert threading.active_count() == before


class TestInputChecks:
    def test_stereo_rejected(self):
        with pytest.raises(ValueError, match=r"\(16000, 2\).*canonicalize_audio"):
            compute_mfcc(np.zeros((16000, 2)))

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, np.uint8, bool])
    def test_non_float_samples_rejected(self, dtype):
        # an integer's full scale is unknown here: read unscaled, int16
        # audio moves C0 by 2 ln 32768 = 20.8 nats
        x = np.zeros(16000, dtype=dtype)
        name = np.dtype(dtype).name
        with pytest.raises(ValueError, match=rf"^{name} samples .*corpus\.read_wav"):
            compute_mfcc(x)

    def test_too_short_raises_before_the_finite_check(self):
        with pytest.raises(AudioTooShortError):
            compute_mfcc(np.full(CFG.window_samples - 1, np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = tone(440, 1.0)
        x[5000] = bad
        with pytest.raises(ValueError, match="1 non-finite samples, the first at index 5000"):
            compute_mfcc(x)

    def test_non_finite_counted_across_blocks(self):
        x = noise(2 * BLOCK_FRAMES + 1)
        # one in the first block, one past the last frame
        x[[123, len(x) - 1]] = np.nan
        with pytest.raises(ValueError, match="2 non-finite samples, the first at index 123"):
            compute_mfcc(x)
        x[123] = 0.0
        with pytest.raises(ValueError, match=f"1 non-finite samples, the first at index {len(x) - 1}"):
            compute_mfcc(x)


class TestFrontendConfig:
    def test_holds_no_setting(self):
        # the settings are class constants: none can be passed or set
        assert dataclasses.fields(CFG) == ()
        with pytest.raises(TypeError):
            FrontendConfig(frame_shift=0.015)
        with pytest.raises(dataclasses.FrozenInstanceError):
            CFG.frame_shift = 0.015
        assert FrontendConfig.frame_shift == 0.010
        assert (CFG.window_samples, CFG.shift_samples, CFG.n_fft) == (400, 160, 512)


class TestCmvn:
    def test_post_stats(self):
        rng = np.random.default_rng(1)
        f = compute_mfcc(0.2 * rng.standard_normal(16000 + 400))
        g = cmvn(f)
        assert np.max(np.abs(g.frames.mean(axis=0))) < 1e-6
        assert np.max(np.abs(g.frames.var(axis=0) - 1.0)) < 1e-4

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        f = compute_mfcc(0.2 * rng.standard_normal(8000))
        once = cmvn(f)
        twice = cmvn(once)
        assert np.allclose(once.frames, twice.frames, atol=1e-9)

    def test_constant_column_zeroed_without_blowup(self):
        frames = np.random.default_rng(3).standard_normal((50, 4))
        frames[:, 2] = 7.5
        f = FeatureMatrix(frames=frames, log_energy=frames[:, 0].copy())
        g = cmvn(f)
        assert np.allclose(g.frames[:, 2], 0.0)
        assert np.all(np.isfinite(g.frames))

    @pytest.mark.parametrize(
        "n_frames",
        [1, CMVN_BLOCK_ROWS - 1, CMVN_BLOCK_ROWS, CMVN_BLOCK_ROWS + 1,
         3 * CMVN_BLOCK_ROWS + 5],
    )
    def test_equals_the_whole_matrix_reference(self, n_frames):
        rng = np.random.default_rng(n_frames)
        x = rng.uniform(-30.0, 30.0, 39) + 5.0 * rng.standard_normal((n_frames, 39))
        x[:, 4] = -2.25
        f = FeatureMatrix(frames=x, log_energy=x[:, 0].copy())
        var = x.var(axis=0)
        scale = np.where(
            var < VAR_EPSILON, 1.0, 1.0 / np.sqrt(np.maximum(var, VAR_EPSILON))
        )
        expected = (x - x.mean(axis=0)) * scale
        got = cmvn(f).frames
        assert got.tobytes() == expected.tobytes()
        assert np.all(got[:, 4] == 0.0)

    def test_memory_is_about_one_output(self):
        # centred in the output, squares summed a block at a time
        x = np.random.default_rng(4).standard_normal((20000, 39))
        f = FeatureMatrix(frames=x, log_energy=x[:, 0].copy())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cmvn(f)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes

    def test_no_frames_rejected(self):
        f = FeatureMatrix(frames=np.zeros((0, 39)), log_energy=np.zeros(0))
        with pytest.raises(ValueError, match="at least one frame"):
            cmvn(f)


class TestSilenceMask:
    def test_all_zero_is_all_silence(self):
        f = compute_mfcc(np.zeros(16000))
        assert silence_mask(f).all()

    def test_leading_silence_boundary(self):
        x = np.concatenate([np.zeros(8000), tone(800, 1.0)])
        f = compute_mfcc(x)
        mask = silence_mask(f)
        first_speech = int(np.argmin(mask))
        assert abs(first_speech - 48) <= 3
        assert mask[:first_speech].all()

    def test_short_runs_merged(self):
        from asrboot.features import FeatureMatrix

        log_energy = np.array([-230.0] * 20 + [-2.0] * 2 + [-230.0] * 20)
        frames = np.zeros((42, 13))
        f = FeatureMatrix(frames=frames, log_energy=log_energy)
        mask = silence_mask(f)
        # the 2-frame speech blip is swallowed; everything is one silence run
        assert silence_runs(mask) == [(0, 42)]

    def test_cmvn_does_not_break_silence_mask(self):
        x = np.concatenate([np.zeros(4800), tone(800, 0.5), np.zeros(4800)])
        f = compute_mfcc(x)
        assert np.array_equal(silence_mask(cmvn(f)), silence_mask(f))


def smooth_runs_reference(mask, min_run=3):
    """The frame-by-frame scan `_smooth_runs` is held to."""
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


def silence_runs_reference(mask):
    """The frame-by-frame scan `silence_runs` is held to."""
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


@pytest.mark.parametrize("length", range(13))
def test_silence_runs_match_the_frame_scan_on_every_mask(length):
    for bits in range(2**length):
        mask = np.array([bits >> i & 1 for i in range(length)], dtype=bool)
        got = silence_runs(mask)
        assert got == silence_runs_reference(mask)
        assert all(type(i) is int for run in got for i in run)


class TestSmoothRuns:
    @pytest.mark.parametrize("min_run", [1, 2, 3, 4])
    @pytest.mark.parametrize("length", range(13))
    def test_every_mask_matches_the_frame_scan(self, length, min_run):
        for bits in range(2**length):
            mask = np.array([bits >> i & 1 for i in range(length)], dtype=bool)
            got = _smooth_runs(mask, min_run)
            assert got.dtype == mask.dtype
            assert np.array_equal(got, smooth_runs_reference(mask, min_run))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_other_dtypes_and_values(self, dtype):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mask = rng.integers(0, 3, size=int(rng.integers(0, 30))).astype(dtype)
            got = _smooth_runs(mask, 3)
            assert got.dtype == mask.dtype
            assert np.array_equal(got, smooth_runs_reference(mask, 3))
