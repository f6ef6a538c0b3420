import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrboot.features import (
    BLOCK_FRAMES,
    CMVN_BLOCK_ROWS,
    VAR_EPSILON,
    AudioTooShortError,
    FeatureMatrix,
    FrontendConfig,
    _smooth_runs,
    cmvn,
    compute_mfcc,
    frame_count,
    mel_filterbank,
    silence_mask,
    silence_runs,
    slice_frames,
)
from conftest import mfcc_reference

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
        mel_resp = power @ mel_filterbank(cfg).T
        centers_mel = np.linspace(
            2595 * np.log10(1 + cfg.fmin / 700),
            2595 * np.log10(1 + cfg.fmax / 700),
            cfg.n_mels + 2,
        )[1:-1]
        tone_mel = 2595 * np.log10(1 + 1000.0 / 700)
        assert np.argmax(mel_resp) == np.argmin(np.abs(centers_mel - tone_mel))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
    def test_integer_samples_other_than_int16_rejected(self, dtype):
        # their full scale is unknown here: read unscaled, an int32 copy of
        # int16 audio moves C0 by 2 ln 32768 = 20.8 nats
        x = noise(10, np.int16).astype(dtype)
        name = np.dtype(dtype).name
        with pytest.raises(ValueError, match=rf"^{name} samples .*corpus\.read_wav"):
            compute_mfcc(x)

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


def noise(n_frames, dtype=np.float64, cfg=CFG):
    """Noise with n_frames frames and a tail too short for another."""
    n = cfg.window_samples + cfg.shift_samples * (n_frames - 1) + 77
    x = np.random.default_rng(0).normal(0.0, 0.1, n)
    return (x * 20000).astype(np.int16) if dtype == np.int16 else x


def assert_matches_reference(x, cfg=CFG):
    f = compute_mfcc(x, cfg)
    frames, log_energy = mfcc_reference(x, cfg)
    assert np.array_equal(f.frames, frames)
    assert np.array_equal(f.log_energy, log_energy)


class TestBlocks:
    """compute_mfcc works a block of frames at a time; the cepstra are the
    ones the one-pass reference gives, to the bit, at every block edge."""

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    @pytest.mark.parametrize(
        "n_frames",
        [1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 1],
    )
    def test_equals_reference(self, n_frames, dtype):
        x = noise(n_frames, dtype)
        assert compute_mfcc(x).n_frames == n_frames
        assert_matches_reference(x)

    def test_other_frame_shift(self):
        cfg = FrontendConfig(frame_shift=0.015)
        x = noise(2 * BLOCK_FRAMES + 1, cfg=cfg)
        assert compute_mfcc(x, cfg).n_frames == 2 * BLOCK_FRAMES + 1
        assert_matches_reference(x, cfg)

    def test_a_bank_the_caller_changes_leaves_the_features(self):
        mel_filterbank(CFG)[:] = 0.0
        assert_matches_reference(noise(10))

    def test_input_untouched(self):
        for dtype in (np.int16, np.float64):
            x = noise(BLOCK_FRAMES + 1, dtype)
            before = x.copy()
            compute_mfcc(x)
            assert np.array_equal(x, before)

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    def test_memory_does_not_grow_with_length(self, dtype):
        # 180 s: the one-pass front end allocates ~270 MB here
        x = noise(18_000, dtype)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            compute_mfcc(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 64 * 2**20

    def test_int16_costs_at_most_one_float_block_more(self):
        # int16 is converted a block at a time, not copied whole to float
        def peak(x):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                compute_mfcc(x)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        block = BLOCK_FRAMES * CFG.window_samples * 8
        assert peak(noise(18_000, np.int16)) <= peak(noise(18_000)) + block


class TestInputChecks:
    def test_stereo_rejected(self):
        with pytest.raises(ValueError, match=r"\(16000, 2\).*canonicalize_audio"):
            compute_mfcc(np.zeros((16000, 2)))

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
    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"frame_shift": 0}, "frame_shift"),
            ({"frame_shift": 1e-5}, "frame_shift"),  # rounds to 0 samples
            ({"frame_length": 0}, "frame_length"),
            ({"frame_length": float("nan")}, "frame_length"),
            ({"n_mels": 0}, "n_mels"),
            ({"n_ceps": 0}, "n_ceps"),
            ({"n_ceps": 30}, "n_ceps"),
            ({"fmin": -1.0}, "fmin"),
            ({"fmin": 8000.0, "fmax": 7800.0}, "fmin < fmax"),
            ({"fmax": 12000.0}, "fmax <= sample_rate / 2"),
        ],
    )
    def test_field_out_of_range_named(self, fields, named):
        with pytest.raises(ValueError, match=named):
            FrontendConfig(**fields)

    def test_limits_accepted(self):
        # one-sample shift, n_ceps == n_mels, the full band up to Nyquist
        FrontendConfig(frame_shift=1 / 16000, n_mels=13, n_ceps=13,
                       fmin=0.0, fmax=8000.0)


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
        f = FeatureMatrix(frames=frames, frame_shift=0.01,
                          log_energy=frames[:, 0].copy())
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
        f = FeatureMatrix(frames=x, frame_shift=0.01, log_energy=x[:, 0].copy())
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
        f = FeatureMatrix(frames=x, frame_shift=0.01, log_energy=x[:, 0].copy())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cmvn(f)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes

    def test_no_frames_rejected(self):
        f = FeatureMatrix(frames=np.zeros((0, 39)), frame_shift=0.01,
                          log_energy=np.zeros(0))
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

    def test_infinite_margin_all_silence(self):
        f = compute_mfcc(tone(500, 1.0))
        assert silence_mask(f, margin_db=np.inf).all()

    def test_short_runs_merged(self):
        from asrboot.features import FeatureMatrix

        log_energy = np.array([-230.0] * 20 + [-2.0] * 2 + [-230.0] * 20)
        frames = np.zeros((42, 13))
        f = FeatureMatrix(frames=frames, frame_shift=0.01,
                          log_energy=log_energy)
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
