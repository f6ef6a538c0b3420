import json
import math
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from asrboot.corpus import load_manifest, wav_duration
from asrboot.synth import (
    SIGNATURE_DISTANCE_FLOOR,
    SynthError,
    SynthSpec,
    add_noise,
    make_vocabulary,
    synth_corpus,
    synth_phrase,
    synth_word,
)


class TestSynthWord:
    def test_boundaries_without_jitter(self):
        spec = SynthSpec(duration_jitter=0.0)
        audio, bounds = synth_word("ABD", spec, np.random.default_rng(0))
        assert len(audio) == 3 * 1600
        assert [b.label for b in bounds] == ["A", "B", "D"]
        assert bounds[1].start == pytest.approx(0.1)
        assert bounds[2].start == pytest.approx(0.2)

    def test_unknown_grapheme(self):
        with pytest.raises(SynthError, match="unknown grapheme"):
            synth_word("AXZ", SynthSpec(), np.random.default_rng(0))

    def test_deterministic_per_seed(self):
        spec = SynthSpec(seed=5)
        a1, _ = synth_word("ABDE", spec, np.random.default_rng(spec.seed))
        a2, _ = synth_word("ABDE", spec, np.random.default_rng(spec.seed))
        assert np.array_equal(a1, a2)

    def test_infinite_snr_is_clean(self):
        x = np.ones(100)
        rng = np.random.default_rng(0)
        assert np.array_equal(add_noise(x, math.inf, rng), x)

    def test_noise_hits_requested_snr(self):
        spec = SynthSpec(duration_jitter=0.0)
        audio, _ = synth_word("ABABABABAB", spec, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        noisy = add_noise(audio, 20.0, rng)
        noise = noisy - audio
        snr = 10 * np.log10(np.mean(audio**2) / np.mean(noise**2))
        assert abs(snr - 20.0) < 1.0

    def test_noise_leaves_input_unchanged(self):
        x = np.concatenate([np.zeros(50), np.linspace(-0.5, 0.5, 200)])
        before = x.copy()
        noisy = add_noise(x, 10.0, np.random.default_rng(2))
        assert np.array_equal(x, before)
        # the same draw, added the other way round
        power = np.mean(x[np.abs(x) > 1e-9] ** 2) / 10.0
        drawn = np.random.default_rng(2).normal(0.0, math.sqrt(power), size=len(x))
        assert np.array_equal(noisy, x + drawn)

    def test_noise_allocates_about_one_signal(self):
        # the mask is two bool arrays, not a float |x|, and the active
        # samples are freed before the full-length draw
        x = np.random.default_rng(3).normal(0.0, 0.3, 300_000)
        x[::3] = 0.0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            add_noise(x, 20.0, np.random.default_rng(4))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * x.nbytes

    def test_signatures_distinguishable(self):
        assert SynthSpec().min_signature_distance() >= SIGNATURE_DISTANCE_FLOOR


class TestSynthPhrase:
    def test_word_boundaries_propagate(self):
        spec = SynthSpec(duration_jitter=0.0, word_gap=(0.3, 0.3), clip_pad=0.1)
        rng = np.random.default_rng(0)
        audio, bounds = synth_phrase(["AB", "DE"], spec, rng)
        assert bounds[0].start == pytest.approx(0.1)
        assert bounds[0].end == pytest.approx(0.3)
        assert bounds[1].start == pytest.approx(0.6)
        assert len(audio) == int(round((0.1 + 0.2 + 0.3 + 0.2 + 0.1) * 16000))


class TestVocabulary:
    def test_distinct_words(self):
        spec = SynthSpec()
        vocab = make_vocabulary(spec, 50, np.random.default_rng(0))
        assert len(set(vocab)) == 50
        for word in vocab:
            assert all(g in spec.graphemes for g in word)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    spec = SynthSpec(seed=7)
    corpus = synth_corpus(
        spec,
        out,
        n_shortform=6,
        longform_minutes=0.8,
        n_test=4,
        vocabulary_size=30,
        longform_recording_minutes=0.4,
    )
    return corpus


class TestSynthCorpus:
    def test_manifests_validate(self, small_corpus):
        short = load_manifest(small_corpus.short_manifest)
        test = load_manifest(small_corpus.test_manifest)
        assert len(short) == 6
        assert len(test) == 4
        for utt in short + test:
            assert Path(utt.audio).exists()
            assert utt.text

    def test_durations_match_files(self, small_corpus):
        for rec in small_corpus.longform:
            declared_end = rec.utterances[-1]["end"]
            actual = wav_duration(rec.audio)
            assert actual >= declared_end - 1.0 / 16000.0

    def test_clean_transcript_matches_audio_content(self, small_corpus):
        for rec in small_corpus.longform:
            lines = Path(rec.transcript).read_text().splitlines()
            assert len(lines) == len(rec.utterances)
            for line, utt in zip(lines, rec.utterances):
                assert line.split() == utt["tokens"]

    def test_ground_truth_json(self, small_corpus):
        truth = json.loads(Path(small_corpus.ground_truth_path()).read_text())
        assert truth == {
            "longform": [asdict(rec) for rec in small_corpus.longform],
            "vocabulary": small_corpus.vocabulary,
        }

    def test_word_times_inside_utterance(self, small_corpus):
        for rec in small_corpus.longform:
            for utt in rec.utterances:
                for w in utt["words"]:
                    assert utt["start"] - 1e-6 <= w["start"] < w["end"]
                    assert w["end"] <= utt["end"] + 1e-6

    def test_determinism(self, tmp_path):
        # every file alike, once the output directory is taken out of the
        # paths that the manifests and the ground truth record
        def files(out_dir):
            synth_corpus(SynthSpec(seed=3), out_dir, n_shortform=2,
                         longform_minutes=0.2, n_test=1, vocabulary_size=10,
                         longform_recording_minutes=0.2, corruption_rate=0.5)
            return {
                str(p.relative_to(out_dir)):
                    p.read_bytes().replace(str(out_dir).encode(), b"<out>")
                for p in out_dir.rglob("*") if p.is_file()
            }

        a, b = files(tmp_path / "a"), files(tmp_path / "b")
        assert "audio/long000.wav" in a and "ground_truth.json" in a
        assert a == b

    def test_corruption_recorded(self, tmp_path):
        spec = SynthSpec(seed=11)
        corpus = synth_corpus(
            spec, tmp_path, n_shortform=2, longform_minutes=0.6, n_test=1,
            vocabulary_size=20, longform_recording_minutes=0.6,
            corruption_rate=0.5,
        )
        rec = corpus.longform[0]
        lines = Path(rec.transcript).read_text().splitlines()
        assert rec.corrupted_line_indices
        assert len(lines) == len(rec.utterances) + len(rec.corrupted_line_indices)
        clean = [
            line for i, line in enumerate(lines)
            if i not in set(rec.corrupted_line_indices)
        ]
        for line, utt in zip(clean, rec.utterances):
            assert line.split() == utt["tokens"]
