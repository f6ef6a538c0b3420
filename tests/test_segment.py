from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrboot.scoring import DEL, INS, SUB
from asrboot.segment import (
    MATCH,
    AlignedRegion,
    SegmentCandidate,
    SegmentReport,
    SWConfig,
    TimedWord,
    _split_region,
    chunk_spans,
    smith_waterman,
    success_rate,
)


class TestChunkSpans:
    @pytest.mark.parametrize("duration", [0.5, 5.0, 25.0, 26.0, 61.3, 300.0])
    def test_spans_cover_duration_with_overlap(self, duration):
        spans = chunk_spans(duration, chunk_len=30.0, overlap=5.0)
        assert spans[0][0] == 0.0
        assert spans[-1][1] == duration
        for start, end in spans:
            assert 0.0 <= start < end <= duration
            assert end - start <= 30.0
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            assert s1 == pytest.approx(s0 + 25.0)
            assert e0 - s1 == pytest.approx(5.0)

    def test_zero_duration_gives_no_spans(self):
        assert chunk_spans(0.0) == []

    @pytest.mark.parametrize("overlap", [10.0, 12.0])
    def test_overlap_not_below_chunk_len_rejected(self, overlap):
        with pytest.raises(ValueError):
            chunk_spans(60.0, chunk_len=10.0, overlap=overlap)


def words(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def hyp_indices(region):
    return {h for h, _, _ in region.pairs if h is not None}


def ref_indices(region):
    return {r for _, r, _ in region.pairs if r is not None}


class TestSmithWaterman:
    def test_planted_island_found(self):
        island = words("w", 5)
        hyp = words("x", 2) + island + words("x", 1)
        ref = words("y", 3) + island + words("y", 2)
        (region,) = smith_waterman(hyp, ref)
        assert region.hyp_span == (2, 6)
        assert region.ref_span == (3, 7)
        assert region.n_matches == 5
        assert region.score == pytest.approx(5 * SWConfig().match)

    def test_short_islands_dropped(self):
        cfg = SWConfig(min_island=3)
        for length, expected in [(2, 0), (3, 1)]:
            island = words("w", length)
            hyp = ["x"] + island + ["x"]
            ref = ["y"] + island + ["y"]
            assert len(smith_waterman(hyp, ref, cfg)) == expected

    def test_crossed_islands_disjoint_and_sorted(self):
        a, b = words("a", 4), words("b", 5)
        hyp = a + words("x", 3) + b
        ref = b + words("y", 3) + a
        regions = smith_waterman(hyp, ref)
        assert [r.n_matches for r in regions] == [4, 5]
        assert regions[0].hyp_span < regions[1].hyp_span

    @pytest.mark.parametrize("seed", range(8))
    def test_regions_disjoint_and_sorted_on_random_input(self, seed):
        rng = np.random.default_rng(seed)
        vocab = words("v", 4)
        hyp = list(rng.choice(vocab, size=int(rng.integers(5, 40))))
        ref = list(rng.choice(vocab, size=int(rng.integers(5, 40))))
        regions = smith_waterman(hyp, ref, SWConfig(min_island=2))
        for i, first in enumerate(regions):
            for second in regions[i + 1:]:
                assert not hyp_indices(first) & hyp_indices(second)
                assert not ref_indices(first) & ref_indices(second)
        spans = [r.hyp_span for r in regions]
        assert spans == sorted(spans)

    def test_empty_input_gives_no_regions(self):
        assert smith_waterman([], ["a", "b"]) == []
        assert smith_waterman(["a", "b"], []) == []


FRACTIONAL = SWConfig(match=1.0, mismatch=-0.5, gap=-0.3, min_island=1)


def step_score(label, cfg):
    return {MATCH: cfg.match, SUB: cfg.mismatch, INS: cfg.gap, DEL: cfg.gap}[label]


def assert_each_word_paired_once(regions):
    pairs = [
        (h, r) for region in regions for h, r, lab in region.pairs
        if lab in (MATCH, SUB)
    ]
    assert len({h for h, _ in pairs}) == len(pairs)
    assert len({r for _, r in pairs}) == len(pairs)


def best_local_score(hyp, ref, cfg):
    """Independent oracle: plain recursive local-alignment score."""

    @lru_cache(maxsize=None)
    def cell(i, j):
        if i == 0 or j == 0:
            return 0.0
        pair = cfg.match if hyp[i - 1] == ref[j - 1] else cfg.mismatch
        return max(
            0.0,
            cell(i - 1, j - 1) + pair,
            cell(i - 1, j) + cfg.gap,
            cell(i, j - 1) + cfg.gap,
        )

    return max(
        cell(i, j) for i in range(len(hyp) + 1) for j in range(len(ref) + 1)
    )


class TestAlignmentCore:
    def test_fractional_scores_pair_each_word_once(self):
        regions = smith_waterman(list("abba"), list("abab"), FRACTIONAL)
        assert_each_word_paired_once(regions)

    @pytest.mark.parametrize("seed", range(20))
    def test_region_score_is_sum_of_steps(self, seed):
        rng = np.random.default_rng(seed)
        vocab = words("v", int(rng.integers(2, 5)))
        hyp = list(rng.choice(vocab, size=int(rng.integers(1, 30))))
        ref = list(rng.choice(vocab, size=int(rng.integers(1, 30))))
        regions = smith_waterman(hyp, ref, FRACTIONAL)
        for region in regions:
            steps = sum(step_score(lab, FRACTIONAL) for _, _, lab in region.pairs)
            assert abs(region.score - steps) <= 1e-9
            for h, r, lab in region.pairs:
                if lab in (MATCH, SUB):
                    assert (lab == MATCH) == (hyp[h] == ref[r])
        assert_each_word_paired_once(regions)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from("abc"), max_size=9),
        st.lists(st.sampled_from("abc"), max_size=9),
        st.sampled_from([FRACTIONAL, SWConfig(min_island=1), SWConfig()]),
    )
    def test_best_region_matches_oracle(self, hyp, ref, cfg):
        regions = smith_waterman(hyp, ref, cfg)
        best = best_local_score(hyp, ref, cfg)
        if best < cfg.min_score:
            assert regions == []
        else:
            assert max(r.score for r in regions) == pytest.approx(best, abs=1e-9)


class TestSplitRegion:
    def test_region_cut_at_silence_gap(self):
        pairs = [(i, i, MATCH) for i in range(4)]
        region = AlignedRegion(score=8.0, pairs=pairs)
        hyp_words = [
            TimedWord("w0", 0.0, 0.5),
            TimedWord("w1", 0.5, 1.0),
            TimedWord("w2", 2.0, 2.5),
            TimedWord("w3", 2.5, 3.0),
        ]
        assert _split_region(region, hyp_words, [(1.2, 1.8)]) == [
            pairs[:2], pairs[2:]
        ]
        assert _split_region(region, hyp_words, []) == [pairs]


def report(n_tokens, accepted_tokens):
    accepted = [
        SegmentCandidate("rec", float(k), k + 1.0, ("w",) * n, 1.0, (0, n - 1))
        for k, n in enumerate(accepted_tokens)
    ]
    return SegmentReport(
        recording_id="rec",
        n_transcript_tokens=n_tokens,
        n_hyp_words=0,
        n_regions=0,
        n_candidates=len(accepted),
        accepted=accepted,
    )


class TestSuccessRate:
    def test_rates_pool_over_reports(self):
        rate = success_rate([report(10, [3, 4]), report(30, [5]), report(10, [])])
        assert rate.n_recordings == 3
        assert rate.recording_rate == pytest.approx(2 / 3)
        assert rate.word_yield == pytest.approx(12 / 50)

    def test_warning_below_threshold(self, caplog):
        rate = success_rate([report(10, [3]), report(10, [])])
        assert rate.recording_rate == 0.5
        assert "below 0.7" in rate.warning
        assert rate.warning in caplog.text

    def test_no_warning_at_threshold(self):
        reports = [report(10, [1])] * 7 + [report(10, [])] * 3
        assert success_rate(reports).warning is None

    def test_no_reports_rejected(self):
        with pytest.raises(ValueError):
            success_rate([])
