import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import resample as fft_resample

from conftest import NON_UTF8_LINES, write_with_bad_byte

import asrboot
from asrboot import corpus
from asrboot.corpus import (
    AudioFormatError,
    ManifestError,
    Recording,
    Utterance,
    canonicalize_audio,
    corpus_stats,
    load_manifest,
    read_wav,
    resample,
    subset_by_duration,
    validate_against_recordings,
    wav_duration,
    write_manifest,
    write_wav_pcm16,
)


def make_utt(i, dur_s, text="A B"):
    return Utterance(id=f"u{i}", audio=f"rec{i}.wav", text=text, start=0.0, end=dur_s)


class TestManifest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_manifest(path) == []

    def test_two_lines_in_order(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "audio": "a.wav", "text": "HELLO"}\n'
            '{"id": "b", "audio": "b.wav", "text": "WORLD", "start": 1.0, "end": 2.5}\n',
            encoding="utf-8",
        )
        utts = load_manifest(path)
        assert [u.id for u in utts] == ["a", "b"]
        assert utts[1].start == 1.0 and utts[1].end == 2.5

    def test_end_before_start_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "audio": "a.wav", "text": "X"}\n'
            '{"id": "b", "audio": "b.wav", "text": "Y", "start": 2.0, "end": 1.0}\n',
            encoding="utf-8",
        )
        with pytest.raises(ManifestError, match=":2"):
            load_manifest(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "audio": "a.wav", "text": "X"}\n'
            '{"id": "a", "audio": "b.wav", "text": "Y"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ManifestError, match="duplicate id"):
            load_manifest(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a"\n', encoding="utf-8")
        with pytest.raises(ManifestError, match=":1"):
            load_manifest(path)

    @pytest.mark.parametrize("line, message", [
        ('["a", "a.wav", "X"]', "expected a JSON object"),
        ('{"id": 7, "audio": "a.wav", "text": "X"}', "'id' must be a string"),
        ('{"id": "a", "audio": null, "text": "X"}', "'audio' must be a string"),
        ('{"id": "a", "audio": "a.wav", "text": 12}', "'text' must be a string"),
        ('{"id": "a", "audio": "a.wav", "text": "X", "start": "0", "end": 1}',
         "start and end must be numbers"),
        ('{"id": "a", "audio": "a.wav", "text": "X", "start": 0, "end": true}',
         "start and end must be numbers"),
        ('{"id": "a", "audio": "a.wav", "text": "X", "start": 0, "end": Infinity}',
         "start and end must be finite"),
        ('{"id": "a", "audio": "a.wav", "text": "X", "start": NaN, "end": 1}',
         "start and end must be finite"),
    ], ids=["array", "id", "audio", "text", "start", "end_bool", "end_inf", "start_nan"])
    def test_field_types_checked_with_line(self, tmp_path, line, message):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "ok", "audio": "ok.wav", "text": "Y", "start": 0, "end": 1.5}\n'
            + line + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ManifestError, match=rf"m\.jsonl:2: .*{message}"):
            load_manifest(path)

    @pytest.mark.parametrize("lineno", NON_UTF8_LINES)
    def test_not_utf8_names_its_line(self, tmp_path, lineno):
        path = tmp_path / "m.jsonl"
        lines = [
            json.dumps({"id": f"u{i}", "audio": "a.wav", "text": "X"})
            for i in range(1100)
        ]
        write_with_bad_byte(path, lines, lineno)
        with pytest.raises(ManifestError, match=rf"m\.jsonl:{lineno}: not UTF-8$"):
            load_manifest(path)

    def test_round_trip(self, tmp_path):
        utts = [
            Utterance(id="a", audio="x.wav", text="HELLO THERE"),
            Utterance(id="b", audio="y.wav", text="HI", start=0.25, end=3.5),
        ]
        path = tmp_path / "m.jsonl"
        write_manifest(utts, path)
        assert load_manifest(path) == utts
        # a second write is byte-identical
        first = path.read_bytes()
        write_manifest(load_manifest(path), path)
        assert path.read_bytes() == first

    def test_dangling_reference(self):
        utts = [Utterance(id="a", audio="missing.wav", text="X")]
        with pytest.raises(ManifestError, match="dangling"):
            validate_against_recordings(utts, {})


def write_tone(path, rate, freq=1000.0, seconds=1.0, amplitude=0.5, channels=1):
    n = int(round(rate * seconds))
    t = np.arange(n) / rate
    x = amplitude * np.sin(2 * np.pi * freq * t)
    data = np.rint(x * 32767).astype(np.int16)
    if channels == 2:
        data = np.stack([data, data], axis=1)
    wavfile.write(str(path), rate, data)
    return n


def peak_frequency(x, rate):
    n = len(x)
    spec = np.abs(np.fft.rfft(np.hanning(n) * x, 4 * n))
    k = int(np.argmax(spec))
    delta = 0.0
    if 0 < k < len(spec) - 1:
        a, b, c = spec[k - 1], spec[k], spec[k + 1]
        denom = a - 2 * b + c
        if denom != 0:
            delta = 0.5 * (a - c) / denom
    return (k + delta) * rate / (4 * n)


class TestCanonicalize:
    def test_pass_through_byte_identical(self, tmp_path):
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        write_tone(src, 16000)
        rec = canonicalize_audio(src, out)
        assert out.read_bytes() == src.read_bytes()
        assert rec.sample_rate == 16000 and rec.channels == 1
        assert rec.duration == pytest.approx(1.0)

    def test_idempotent_bit_exact(self, tmp_path):
        src = tmp_path / "in.wav"
        once = tmp_path / "once.wav"
        twice = tmp_path / "twice.wav"
        write_tone(src, 44100)
        canonicalize_audio(src, once)
        canonicalize_audio(once, twice)
        assert once.read_bytes() == twice.read_bytes()

    @pytest.mark.parametrize("n_extra", [0, 1])
    def test_downsample_length(self, tmp_path, n_extra):
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        n = write_tone(src, 32000, seconds=1.0 + n_extra / 32000.0)
        rec = canonicalize_audio(src, out)
        _, y = wavfile.read(str(out))
        assert abs(len(y) - round(n / 2)) <= 1
        assert abs(rec.duration - n / 32000.0) <= 1.0 / 16000.0

    def test_tone_peak_preserved_vs_independent_resampler(self, tmp_path):
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        write_tone(src, 32000, freq=1000.0)
        canonicalize_audio(src, out)
        _, y = wavfile.read(str(out))
        got = peak_frequency(y.astype(np.float64), 16000)
        assert abs(got - 1000.0) < 1.0
        # independent oracle: Fourier-domain resampler on the same tone
        _, x = wavfile.read(str(src))
        oracle = fft_resample(x.astype(np.float64), len(x) // 2)
        assert abs(got - peak_frequency(oracle, 16000)) < 1.0

    def test_upsample_8k(self, tmp_path):
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        n = write_tone(src, 8000, freq=800.0)
        rec = canonicalize_audio(src, out)
        _, y = wavfile.read(str(out))
        assert abs(len(y) - 2 * n) <= 1
        assert abs(peak_frequency(y.astype(np.float64), 16000) - 800.0) < 1.0
        assert rec.sample_rate == 16000

    def test_stereo_opposite_channels_cancel(self, tmp_path):
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        n = 44100
        t = np.arange(n) / 44100.0
        left = np.rint(0.4 * 32767 * np.sin(2 * np.pi * 500 * t)).astype(np.int16)
        data = np.stack([left, -left], axis=1)
        wavfile.write(str(src), 44100, data)
        canonicalize_audio(src, out)
        _, y = wavfile.read(str(out))
        assert np.all(y == 0)

    def test_stereo_downmix_average(self, tmp_path):
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        write_tone(src, 16000, channels=2)
        canonicalize_audio(src, out)
        _, y = wavfile.read(str(out))
        _, mono = wavfile.read(str(src))
        assert np.max(np.abs(y.astype(int) - mono[:, 0].astype(int))) <= 1

    def test_float32_input(self, tmp_path):
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        t = np.arange(16000) / 16000.0
        wavfile.write(str(src), 16000, (0.25 * np.sin(2 * np.pi * 440 * t)).astype(np.float32))
        rec = canonicalize_audio(src, out)
        _, y = wavfile.read(str(out))
        assert y.dtype == np.int16
        assert abs(peak_frequency(y.astype(np.float64), 16000) - 440.0) < 1.0
        assert rec.duration == pytest.approx(1.0)

    def test_uint8_input(self, tmp_path):
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        t = np.arange(8000) / 8000.0
        x = np.rint(128 + 100 * np.sin(2 * np.pi * 440 * t)).astype(np.uint8)
        wavfile.write(str(src), 8000, x)
        canonicalize_audio(src, out)
        _, y = wavfile.read(str(out))
        assert y.dtype == np.int16 and len(y) == 16000

    def test_24bit_input(self, tmp_path):
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        n = 16000
        t = np.arange(n) / 16000.0
        samples = np.rint(0.3 * 8388607 * np.sin(2 * np.pi * 650 * t)).astype(np.int64)
        payload = b"".join(struct.pack("<i", int(s) << 8)[1:4] for s in samples)
        header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 48000, 3, 24)
        header += b"data" + struct.pack("<I", len(payload))
        src.write_bytes(header + payload)
        canonicalize_audio(src, out)
        _, y = wavfile.read(str(out))
        assert y.dtype == np.int16
        assert abs(peak_frequency(y.astype(np.float64), 16000) - 650.0) < 1.0

    def test_canonical_input_copied_without_reading_its_samples(self, tmp_path):
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        n = write_tone(src, 16000, seconds=60.0)
        tracemalloc.start()
        try:
            rec = canonicalize_audio(src, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == src.read_bytes()
        assert rec.duration == n / 16000
        assert peak < 2 * n / 8

    def test_extensible_pcm_falls_through_and_is_copied(self, tmp_path):
        # wave reads no WAVE_FORMAT_EXTENSIBLE header; the samples decide
        src = tmp_path / "in.wav"
        out = tmp_path / "out.wav"
        payload = np.arange(-800, 800, dtype=np.int16).tobytes()
        pcm_guid = bytes.fromhex("0100000000001000800000aa00389b71")
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 32000, 2, 16, 22, 16, 4)
        body = b"WAVE" + b"fmt " + struct.pack("<I", 40) + fmt + pcm_guid
        body += b"data" + struct.pack("<I", len(payload)) + payload
        src.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        rec = canonicalize_audio(src, out)
        assert out.read_bytes() == src.read_bytes()
        assert rec.duration == 1600 / 16000

    @pytest.mark.parametrize("keep", [30, 44, 44 + 1000])
    def test_cut_file_rejected(self, tmp_path, keep):
        # inside the format chunk, right after the header, inside the samples
        src = tmp_path / "in.wav"
        write_tone(src, 16000)
        src.write_bytes(src.read_bytes()[:keep])
        with pytest.raises(AudioFormatError, match=r"in\.wav: "):
            canonicalize_audio(src, tmp_path / "out.wav")

    def test_zero_length_rejected(self, tmp_path):
        src = tmp_path / "in.wav"
        wavfile.write(str(src), 16000, np.zeros(0, dtype=np.int16))
        with pytest.raises(AudioFormatError, match="zero-length"):
            canonicalize_audio(src, tmp_path / "out.wav")

    def test_non_wav_input_names_path(self, tmp_path):
        src = tmp_path / "in.wav"
        src.write_bytes(b"not a wave file at all")
        with pytest.raises(AudioFormatError, match=r"in\.wav: .*not understood"):
            canonicalize_audio(src, tmp_path / "out.wav")

    def test_wav_duration(self, tmp_path):
        src = tmp_path / "in.wav"
        write_tone(src, 16000, seconds=2.5)
        assert wav_duration(src) == pytest.approx(2.5)

    def test_wav_duration_of_float_wav(self, tmp_path):
        src = tmp_path / "in.wav"
        wavfile.write(str(src), 8000, np.zeros(12000, dtype=np.float32))
        assert wav_duration(src) == 12000 / 8000

    def test_wav_duration_of_truncated_wav_names_path(self, tmp_path):
        src = tmp_path / "in.wav"
        write_tone(src, 16000, seconds=1.0)
        raw = src.read_bytes()
        src.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(AudioFormatError, match=r"in\.wav: truncated"):
            wav_duration(src)

    @pytest.mark.parametrize("dtype", [np.int16, np.float32])  # PCM header or not
    @pytest.mark.parametrize(
        "entry",
        [wav_duration, read_wav, lambda p: canonicalize_audio(p, p.with_name("o.wav"))],
        ids=["wav_duration", "read_wav", "canonicalize_audio"],
    )
    def test_zero_sample_rate_names_path(self, tmp_path, entry, dtype):
        src = tmp_path / "in.wav"
        wavfile.write(str(src), 8000, np.ones(800, dtype=dtype))
        raw = bytearray(src.read_bytes())
        raw[24:32] = bytes(8)  # the fmt chunk's sample and byte rates
        src.write_bytes(raw)
        with pytest.raises(AudioFormatError, match=r"in\.wav: sample rate 0 Hz"):
            entry(src)

    @pytest.mark.parametrize(
        "rate, target_rate",
        [(0, 16000), (16000, 0), (-8000, 16000), (True, 16000), (16000, True),
         (8000.0, 16000), (8000, 16000.5), ("8000", 16000)],
    )
    def test_resample_rates_are_integers_from_one(self, rate, target_rate):
        with pytest.raises(ValueError, match="must be an integer >= 1 Hz"):
            resample(np.zeros(800), rate, target_rate)



class TestWavIO:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_write_leaves_input_unchanged(self, tmp_path, dtype):
        x = np.random.default_rng(0).normal(0.0, 0.5, 4000).astype(dtype)
        x[:3] = [1.5, -1.5, 0.25]  # two clip
        before = x.copy()
        write_wav_pcm16(tmp_path / "out.wav", x)
        assert np.array_equal(x, before)
        _, written = wavfile.read(str(tmp_path / "out.wav"))
        expected = np.clip(np.rint(x.astype(np.float64) * 32768.0), -32768, 32767)
        assert np.array_equal(written, expected.astype(np.int16))

    def test_write_is_exact_across_blocks(self, tmp_path):
        # two channels, two and a half blocks: float64 is scaled a block
        # at a time into the one int16 array that is written
        n = 5 * corpus._PCM16_BLOCK // 4
        x = np.random.default_rng(1).normal(0.0, 0.6, (n, 2))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_wav_pcm16(tmp_path / "out.wav", x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        _, written = wavfile.read(str(tmp_path / "out.wav"))
        expected = np.clip(np.rint(x * 32768.0), -32768, 32767).astype(np.int16)
        assert np.array_equal(written, expected)
        assert peak < x.size * 2 + 1.25 * corpus._PCM16_BLOCK * 8

    @pytest.mark.parametrize(
        "dtype, scale, offset",
        [(np.int16, 32768.0, 0.0), (np.int32, 2147483648.0, 0.0), (np.uint8, 128.0, 128.0)],
    )
    def test_read_scales_to_unit_range(self, tmp_path, dtype, scale, offset):
        info = np.iinfo(dtype)
        data = np.array([info.min, 0, 1, info.max], dtype=dtype)
        wavfile.write(str(tmp_path / "in.wav"), 16000, data)
        _, x = read_wav(tmp_path / "in.wav")
        assert x.dtype == np.float64
        assert np.array_equal(x, (data.astype(np.float64) - offset) / scale)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        wavfile.write(str(path), 16000, np.arange(1000, dtype=np.int16))
        path.write_bytes(path.read_bytes()[:-100])  # 950 of 1,000 samples left
        with pytest.raises(AudioFormatError, match=r"cut\.wav: truncated"):
            read_wav(path)

    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    @pytest.mark.parametrize("reader", [read_wav, wav_duration])
    @pytest.mark.parametrize(
        "offset, value",
        [(22, 0), (16, 0x7F), (18, 1)],
        ids=["0 channels", "fmt size 0x7f", "fmt size past the file"],
    )
    def test_header_fault_names_path(self, tmp_path, reader, offset, value):
        # before: ZeroDivisionError, UnboundLocalError and wave's bare
        # RuntimeError escaped from inside scipy and wave
        path = tmp_path / "bad.wav"
        write_wav_pcm16(path, np.zeros(1600))
        raw = bytearray(path.read_bytes())
        raw[offset] = value
        path.write_bytes(raw)
        with pytest.raises(AudioFormatError, match=r"bad\.wav: "):
            reader(path)

    def test_unknown_chunk_still_read(self, tmp_path):
        path = tmp_path / "extra.wav"
        data = np.arange(1000, dtype=np.int16)
        wavfile.write(str(path), 16000, data)
        raw = path.read_bytes()
        chunk = b"abcd" + struct.pack("<I", 4) + bytes(4)
        riff_size = struct.pack("<I", len(raw) + len(chunk) - 8)
        path.write_bytes(raw[:4] + riff_size + raw[8:] + chunk)
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):
            _, x = read_wav(path)
        assert np.array_equal(x, data / 32768.0)


class TestSubset:
    def test_target_zero(self):
        utts = [make_utt(i, 60.0) for i in range(10)]
        result = subset_by_duration(utts, 0.0, seed=1)
        assert result.utterances == []
        assert not result.shortfall

    def test_exact_count(self):
        utts = [make_utt(i, 60.0) for i in range(10)]
        result = subset_by_duration(utts, 5.0, seed=1)
        assert len(result.utterances) == 5
        assert result.selected_minutes == pytest.approx(5.0)

    def test_deterministic(self):
        utts = [make_utt(i, 30.0) for i in range(20)]
        a = subset_by_duration(utts, 4.0, seed=7)
        b = subset_by_duration(utts, 4.0, seed=7)
        assert a.utterances == b.utterances

    def test_nested_subsets(self):
        utts = [make_utt(i, 45.0) for i in range(40)]
        small = subset_by_duration(utts, 5.0, seed=3).utterances
        large = subset_by_duration(utts, 10.0, seed=3).utterances
        assert large[: len(small)] == small

    def test_monotone_in_target(self):
        utts = [make_utt(i, 37.0) for i in range(40)]
        durations = []
        for minutes in [1.0, 3.0, 7.0, 11.0]:
            result = subset_by_duration(utts, minutes, seed=5)
            durations.append(result.selected_minutes)
        assert durations == sorted(durations)

    def test_shortfall_flagged(self):
        utts = [make_utt(i, 60.0) for i in range(3)]
        result = subset_by_duration(utts, 10.0, seed=1)
        assert result.shortfall
        assert len(result.utterances) == 3

    @pytest.mark.parametrize("minutes", [float("nan"), float("inf"), -1.0])
    def test_bad_budget_rejected(self, minutes):
        utts = [make_utt(i, 60.0) for i in range(3)]
        with pytest.raises(ValueError, match=f"got {minutes}"):
            subset_by_duration(utts, minutes, seed=1)


class TestStats:
    def test_empty(self):
        stats = corpus_stats([])
        assert stats.n_recordings == 0
        assert stats.n_utterances == 0
        assert stats.total_minutes == 0.0

    def test_minimal_regime_shape(self):
        # 433 files totalling 8.5 minutes
        per_utt = 510.0 / 433.0
        utts = [make_utt(i, per_utt) for i in range(433)]
        stats = corpus_stats(utts)
        assert stats.n_utterances == 433
        assert stats.total_minutes == 8.5

    def test_two_half_minute_utterances(self):
        utts = [make_utt(0, 30.0), make_utt(1, 30.0)]
        assert corpus_stats(utts).total_minutes == 1.0

    def test_kind_breakdown(self):
        utts = [make_utt(0, 60.0), make_utt(1, 120.0)]
        stats = corpus_stats(utts, kinds={"rec1": "long_form"})
        assert stats.minutes_by_kind == {"long_form": 2.0, "short_form": 1.0}


class TestImportFootprint:
    """``scipy.signal`` (about 47 MB with what it imports) is loaded by
    resampling, not by importing the package.  Each check runs in a fresh
    interpreter: this test module imports scipy.signal itself."""

    @staticmethod
    def loads_signal(code):
        env = dict(os.environ)
        src = str(Path(asrboot.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code + "\nprint('scipy.signal' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        return out.stdout.split()[-1] == "True"

    def test_importing_every_module_leaves_it_unloaded(self):
        assert not self.loads_signal(
            "import importlib, pkgutil, sys, asrboot\n"
            "for m in pkgutil.iter_modules(asrboot.__path__):\n"
            "    importlib.import_module('asrboot.' + m.name)"
        )

    def test_resampling_loads_it_and_a_bad_rate_does_not(self):
        prelude = "import sys\nimport numpy as np\nfrom asrboot import corpus\n"
        bad_rate = (
            "try:\n    corpus.resample(np.zeros(800), 0)\n"
            "except ValueError:\n    pass"
        )
        assert not self.loads_signal(prelude + bad_rate)
        assert self.loads_signal(prelude + "corpus.resample(np.zeros(800), 8000)")
