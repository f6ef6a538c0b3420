import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
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
from asrboot.features import compute_mfcc


def make_utt(directory, i, dur_s, rate=100):
    """An utterance whose audio is a silent WAV of ``dur_s`` seconds."""
    audio = directory / f"rec{i}.wav"
    wavfile.write(str(audio), rate, np.zeros(round(dur_s * rate), dtype=np.int16))
    return Utterance(id=f"u{i}", audio=str(audio), text="A B")


class TestManifest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_manifest(path) == []

    def test_two_lines_in_order(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "audio": "a.wav", "text": "HELLO"}\n'
            '{"id": "b", "audio": "b.wav", "text": "WORLD"}\n',
            encoding="utf-8",
        )
        utts = load_manifest(path)
        assert utts == [
            Utterance(id="a", audio="a.wav", text="HELLO"),
            Utterance(id="b", audio="b.wav", text="WORLD"),
        ]

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
        # an utterance is its whole file; a span is never read as the file
        ('{"id": "a", "audio": "a.wav", "text": "X", "start": 1.0}',
         "spans are not supported"),
        ('{"id": "a", "audio": "a.wav", "text": "X", "end": 2.5}',
         "spans are not supported"),
        ('{"id": "a", "audio": "a.wav", "text": "X", "start": 1.0, "end": 2.5}',
         "spans are not supported"),
    ], ids=["array", "id", "audio", "text", "start", "end", "start_end"])
    def test_field_types_checked_with_line(self, tmp_path, line, message):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "ok", "audio": "ok.wav", "text": "Y"}\n'
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
            Utterance(id="b", audio="y.wav", text="HI"),
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
            validate_against_recordings(utts, set())

    def test_known_recording_id_passes(self):
        # the recording id is the audio file's stem
        utts = [Utterance(id="u1", audio="audio/rec1.wav", text="X")]
        validate_against_recordings(utts, {"rec1", "rec2"})


def write_tone(path, rate, freq=1000.0, seconds=1.0, amplitude=0.5, channels=1):
    n = int(round(rate * seconds))
    t = np.arange(n) / rate
    x = amplitude * np.sin(2 * np.pi * freq * t)
    data = np.rint(x * 32767).astype(np.int16)
    if channels == 2:
        data = np.stack([data, data], axis=1)
    wavfile.write(str(path), rate, data)
    return n


def pcm_format(path):
    """(format tag, channels, rate) of a WAV file's plain 16-byte fmt chunk."""
    return struct.unpack_from("<HHI", Path(path).read_bytes(), 20)


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
        assert pcm_format(out) == (1, 1, 16000)
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
        canonicalize_audio(src, out)
        _, y = wavfile.read(str(out))
        assert abs(len(y) - 2 * n) <= 1
        assert abs(peak_frequency(y.astype(np.float64), 16000) - 800.0) < 1.0
        assert pcm_format(out) == (1, 1, 16000)

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

    def test_stereo_44k_int16_is_a_float64_downmix_and_resample(self, tmp_path):
        # read_wav gives float32 here, but the canonicalizer downmixes and
        # resamples in float64
        src, out, ref = tmp_path / "in.wav", tmp_path / "out.wav", tmp_path / "ref.wav"
        data = np.random.default_rng(6).integers(-20000, 20000, (44100, 2)).astype(np.int16)
        wavfile.write(str(src), 44100, data)
        canonicalize_audio(src, out)
        write_wav_pcm16(ref, resample((data / 32768.0).mean(axis=1), 44100))
        assert out.read_bytes() == ref.read_bytes()

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

    @pytest.mark.parametrize("rate", [0, -8000, True, 8000.0, "8000"])
    def test_resample_rates_are_integers_from_one(self, rate):
        with pytest.raises(ValueError, match="rate must be an integer >= 1 Hz"):
            resample(np.zeros(800), rate)

    @pytest.mark.parametrize("rate", [4000, 6000, 8000, 11025, 12000, 16000, 22050,
                                      24000, 32000, 44100, 48000, 88200, 96000,
                                      176400, 192000, 352800, 384000])
    def test_standard_rates_resample(self, rate):
        # 11,025 Hz needs the largest ratio of these, 640/441
        assert len(resample(np.zeros(rate // 100), rate)) == 160

    @pytest.mark.parametrize(
        "rate, message",
        [(7, "sample rate 7 Hz is below 4000 Hz"),
         (3999, "sample rate 3999 Hz is below 4000 Hz"),
         (16001, "sample rate 16001 Hz needs 16000/16001 resampling"),
         # a corrupted header: 2.1 billion taps before the bound
         (1_073_757_856, "sample rate 1073757856 Hz needs 500/33554933 resampling")],
    )
    def test_rates_beyond_the_filter_bound_rejected_before_filtering(
        self, tmp_path, monkeypatch, rate, message
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("no filter is built for a rejected rate")

        monkeypatch.setattr(scipy.signal, "firwin", unreachable)
        monkeypatch.setattr(scipy.signal, "resample_poly", unreachable)
        with pytest.raises(ValueError, match=f"^{message}"):
            resample(np.zeros(800), rate)
        src = tmp_path / "in.wav"
        write_wav_pcm16(src, np.zeros(800))
        raw = bytearray(src.read_bytes())
        raw[24:28] = struct.pack("<I", rate)  # the fmt chunk's sample rate
        src.write_bytes(raw)
        with pytest.raises(AudioFormatError, match=rf"^{src}: {message}"):
            canonicalize_audio(src, tmp_path / "out.wav")
        assert not (tmp_path / "out.wav").exists()



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

    def test_write_takes_no_rate(self, tmp_path):
        with pytest.raises(TypeError):
            write_wav_pcm16(tmp_path / "out.wav", np.zeros(160), rate=8000)

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    def test_two_dimensional_write_rejected_before_opening(self, tmp_path, dtype):
        path = tmp_path / "out.wav"
        with pytest.raises(ValueError, match=rf"^{path}: samples of shape \(160, 2\)"):
            write_wav_pcm16(path, np.zeros((160, 2), dtype=dtype))
        assert not path.exists()

    def test_write_is_exact_across_blocks(self, tmp_path):
        # two and a half blocks: float64 is scaled a block at a time into
        # the one int16 array that is written
        n = 5 * corpus._PCM16_BLOCK // 2
        x = np.random.default_rng(1).normal(0.0, 0.6, n)
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
        # float32 holds every 8- and 16-bit value scaled exactly, not 32-bit
        info = np.iinfo(dtype)
        data = np.array([info.min, 0, 1, info.max], dtype=dtype)
        wavfile.write(str(tmp_path / "in.wav"), 16000, data)
        _, x = read_wav(tmp_path / "in.wav")
        assert x.dtype == (np.float64 if dtype == np.int32 else np.float32)
        assert np.array_equal(x, (data.astype(np.float64) - offset) / scale)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_keeps_float_files(self, tmp_path, dtype):
        data = np.array([-1.0, -0.1, 0.0, 1e-30, 0.7, 1.0], dtype=dtype)
        wavfile.write(str(tmp_path / "in.wav"), 16000, data)
        _, x = read_wav(tmp_path / "in.wav")
        assert x.dtype == dtype
        assert np.array_equal(x, data)

    @staticmethod
    def handmade(path, tag, channels, width, payload, extensible=False, magic=b"RIFF"):
        """A WAV file of format ``tag`` (1 PCM, 3 float), plain or as
        WAVE_FORMAT_EXTENSIBLE with ``tag`` in its sub-format GUID."""
        block, rate = channels * width, 16000
        fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                          rate * block, block, 8 * width)
        if extensible:
            fmt += struct.pack("<HHI", 22, 8 * width, 0) + struct.pack("<I", tag)
            fmt += bytes.fromhex("000010008000" "00aa00389b71")
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(payload)) + payload
        path.write_bytes(magic + struct.pack("<I", len(body)) + body)

    @pytest.mark.parametrize("layout", ["u8 stereo", "i16 stereo", "i32", "f64 stereo",
                                        "24-bit stereo", "extensible f32", "extensible 24-bit"])
    def test_read_equals_scipy_scaled(self, tmp_path, layout):
        # scipy.io.wavfile.read is the oracle for the stored values,
        # 24-bit PCM as int32 with its 3 bytes at the top
        path = tmp_path / "in.wav"
        rng = np.random.default_rng(7)
        channels = 2 if "stereo" in layout else 1
        if "24-bit" in layout:
            payload = rng.bytes(3 * channels * 301)
            self.handmade(path, 1, channels, 3, payload, extensible="extensible" in layout)
        elif layout == "extensible f32":
            payload = rng.uniform(-1, 1, 301).astype("<f4").tobytes()
            self.handmade(path, 3, 1, 4, payload, extensible=True)
        else:
            dtype = {"u8": np.uint8, "i16": np.int16, "i32": np.int32, "f64": np.float64}[
                layout.split()[0]]
            data = rng.integers(0, 256, (301, channels)).astype(dtype) * 97
            wavfile.write(str(path), 16000, data[:, 0] if channels == 1 else data)
        rate, stored = wavfile.read(str(path))
        scale = {np.dtype(np.uint8): 128.0, np.dtype(np.int16): 32768.0,
                 np.dtype(np.int32): 2147483648.0}.get(stored.dtype)
        offset = 128.0 if stored.dtype == np.uint8 else 0.0
        want = stored if scale is None else (stored.astype(np.float64) - offset) / scale
        got_rate, x = read_wav(path)
        assert (got_rate, x.shape) == (rate, stored.shape)
        assert x.dtype == (np.float32 if stored.dtype.itemsize < 4 or stored.dtype == np.float32
                           else np.float64)
        assert np.array_equal(x, want)
        assert wav_duration(path) == len(stored) / rate

    @pytest.mark.parametrize(
        "make, message",
        [(lambda p: wavfile.write(str(p), 16000, np.zeros((10, 3), np.int16)),
          "3 channels unsupported"),
         (lambda p: wavfile.write(str(p), 16000, np.zeros(10, np.int64)),
          "unsupported sample format"),
         (lambda p: TestWavIO.handmade(p, 6, 1, 1, bytes(10)), "unsupported sample format"),
         (lambda p: TestWavIO.handmade(p, 1, 1, 2, bytes(10), magic=b"RIFX"),
          "not understood")],
        ids=["3 channels", "64-bit PCM", "A-law", "RIFX"],
    )
    @pytest.mark.parametrize("reader", [read_wav, wav_duration])
    def test_unsupported_layout_names_path(self, tmp_path, reader, make, message):
        path = tmp_path / "in.wav"
        make(path)
        with pytest.raises(AudioFormatError, match=rf"in\.wav: .*{message}"):
            reader(path)

    def test_float32_samples_give_the_float64_features(self, tmp_path):
        # read_wav's float32 samples widen exactly; compute_mfcc widens them
        # a block at a time and gives the float64 scaling's features
        pcm = np.random.default_rng(5).integers(-32768, 32768, 40_000).astype(np.int16)
        wavfile.write(str(tmp_path / "in.wav"), 16000, pcm)
        _, x = read_wav(tmp_path / "in.wav")
        assert x.dtype == np.float32
        got, want = compute_mfcc(x), compute_mfcc(pcm / 32768.0)
        assert np.array_equal(got.frames, want.frames)
        assert np.array_equal(got.log_energy, want.log_energy)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_rejects_non_finite_before_writing(self, tmp_path, bad):
        # an int16 cast of NaN or inf is arbitrary; the count covers every
        # block, and the first is named by its index
        x = np.zeros(3 * corpus._PCM16_BLOCK)
        x[[corpus._PCM16_BLOCK + 7, -1]] = bad
        path = tmp_path / "out.wav"
        with pytest.raises(ValueError, match=rf"^{path}: 2 non-finite samples, "
                                             rf"the first at index {corpus._PCM16_BLOCK + 7}$"):
            write_wav_pcm16(path, x)
        assert not path.exists()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        wavfile.write(str(path), 16000, np.arange(1000, dtype=np.int16))
        path.write_bytes(path.read_bytes()[:-100])  # 950 of 1,000 samples left
        with pytest.raises(AudioFormatError, match=r"cut\.wav: truncated"):
            read_wav(path)

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

    @staticmethod
    def with_unknown_chunks(path, data):
        """``data`` as 16-bit PCM with an odd-sized ``LIST`` chunk (and its
        pad byte) between the fmt and data chunks and an unknown chunk
        after the data, as archive recordings carry them."""
        write_wav_pcm16(path, data)
        raw = path.read_bytes()
        before = b"LIST" + struct.pack("<I", 3) + b"abc" + bytes(1)
        after = b"abcd" + struct.pack("<I", 4) + bytes(4)
        body = raw[8:36] + before + raw[36:] + after
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)

    def test_unknown_chunk_still_read(self, tmp_path):
        # before: scipy warned "Chunk (non-data) not understood"
        path = tmp_path / "extra.wav"
        data = np.arange(1000, dtype=np.int16)
        self.with_unknown_chunks(path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rate, x = read_wav(path)
        assert caught == []
        assert rate == 16000
        assert np.array_equal(x, data / 32768.0)
        assert wav_duration(path) == 1000 / 16000

    def test_unknown_chunk_under_an_error_filter_is_not_truncation(self, tmp_path):
        # before: "extra.wav: Chunk (non-data) not understood, skipping it."
        path = tmp_path / "extra.wav"
        data = np.arange(1000, dtype=np.int16)
        self.with_unknown_chunks(path, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, x = read_wav(path)
        assert np.array_equal(x, data / 32768.0)


class TestSubset:
    def test_target_zero(self, tmp_path):
        utts = [make_utt(tmp_path, i, 60.0) for i in range(10)]
        result = subset_by_duration(utts, 0.0, seed=1)
        assert result.utterances == []
        assert not result.shortfall

    def test_exact_count(self, tmp_path):
        utts = [make_utt(tmp_path, i, 60.0) for i in range(10)]
        result = subset_by_duration(utts, 5.0, seed=1)
        assert len(result.utterances) == 5
        assert result.selected_minutes == pytest.approx(5.0)

    def test_deterministic(self, tmp_path):
        utts = [make_utt(tmp_path, i, 30.0) for i in range(20)]
        a = subset_by_duration(utts, 4.0, seed=7)
        b = subset_by_duration(utts, 4.0, seed=7)
        assert a.utterances == b.utterances

    def test_nested_subsets(self, tmp_path):
        utts = [make_utt(tmp_path, i, 45.0) for i in range(40)]
        small = subset_by_duration(utts, 5.0, seed=3).utterances
        large = subset_by_duration(utts, 10.0, seed=3).utterances
        assert large[: len(small)] == small

    def test_monotone_in_target(self, tmp_path):
        utts = [make_utt(tmp_path, i, 37.0) for i in range(40)]
        durations = []
        for minutes in [1.0, 3.0, 7.0, 11.0]:
            result = subset_by_duration(utts, minutes, seed=5)
            durations.append(result.selected_minutes)
        assert durations == sorted(durations)

    def test_shortfall_flagged(self, tmp_path):
        utts = [make_utt(tmp_path, i, 60.0) for i in range(3)]
        result = subset_by_duration(utts, 10.0, seed=1)
        assert result.shortfall
        assert len(result.utterances) == 3

    @pytest.mark.parametrize("minutes", [float("nan"), float("inf"), -1.0])
    def test_bad_budget_rejected(self, tmp_path, minutes):
        utts = [make_utt(tmp_path, i, 60.0) for i in range(3)]
        with pytest.raises(ValueError, match=f"got {minutes}"):
            subset_by_duration(utts, minutes, seed=1)


class TestStats:
    def test_empty(self):
        stats = corpus_stats([])
        assert stats.n_recordings == 0
        assert stats.n_utterances == 0
        assert stats.total_minutes == 0.0

    def test_minimal_regime_shape(self, tmp_path):
        # 433 files totalling 8.5 minutes
        per_utt = 510.0 / 433.0
        utts = [make_utt(tmp_path, i, per_utt, rate=433) for i in range(433)]
        stats = corpus_stats(utts)
        assert stats.n_utterances == 433
        assert stats.total_minutes == 8.5

    def test_two_half_minute_utterances(self, tmp_path):
        utts = [make_utt(tmp_path, 0, 30.0), make_utt(tmp_path, 1, 30.0)]
        assert corpus_stats(utts).total_minutes == 1.0

    def test_kind_breakdown(self, tmp_path):
        utts = [make_utt(tmp_path, 0, 60.0), make_utt(tmp_path, 1, 120.0)]
        stats = corpus_stats(utts, kinds={"rec1": "long_form"})
        assert stats.minutes_by_kind == {"long_form": 2.0, "short_form": 1.0}


class TestImportFootprint:
    """scipy (about 30 MB with what it imports) is loaded by resampling
    alone, not by importing the package, reading or writing audio, or
    computing features.  Each check runs in a fresh interpreter: this test
    module imports scipy itself."""

    @staticmethod
    def scipy_modules(code):
        """The scipy modules loaded after ``code`` runs in a fresh
        interpreter, sorted."""
        env = dict(os.environ)
        src = str(Path(asrboot.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        report = "\nprint(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
        out = subprocess.run(
            [sys.executable, "-c", "import sys\n" + code + report],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        return out.stdout.splitlines()[-1].split()

    def test_importing_every_module_leaves_it_unloaded(self):
        assert self.scipy_modules(
            "import importlib, pkgutil, asrboot\n"
            "for m in pkgutil.iter_modules(asrboot.__path__):\n"
            "    importlib.import_module('asrboot.' + m.name)"
        ) == []

    def test_the_audio_and_feature_path_leaves_it_unloaded(self, tmp_path):
        path = tmp_path / "in.wav"
        assert self.scipy_modules(
            "import numpy as np\n"
            "from asrboot.corpus import read_wav, wav_duration, write_wav_pcm16\n"
            "from asrboot.features import compute_mfcc\n"
            f"write_wav_pcm16({str(path)!r}, np.sin(np.arange(16000) / 7.0) / 2)\n"
            f"rate, x = read_wav({str(path)!r})\n"
            "assert compute_mfcc(x).n_frames == 98\n"
            f"assert wav_duration({str(path)!r}) == 1.0"
        ) == []

    def test_resampling_loads_it_and_a_bad_rate_does_not(self):
        prelude = "import numpy as np\nfrom asrboot import corpus\n"
        # 0 Hz, and two rates beyond the filter bound
        bad_rate = (
            "for rate in (0, 7, 1073757856):\n"
            "    try:\n        corpus.resample(np.zeros(800), rate)\n"
            "    except ValueError:\n        pass"
        )
        assert "scipy.signal" not in self.scipy_modules(prelude + bad_rate)
        assert "scipy.signal" in self.scipy_modules(
            prelude + "corpus.resample(np.zeros(800), 8000)"
        )
