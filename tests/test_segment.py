import numpy as np
import pytest

from asrboot.segment import (
    MATCH,
    AlignedRegion,
    SWConfig,
    TimedWord,
    _split_region,
    chunk_spans,
    smith_waterman,
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
