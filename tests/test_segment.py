from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feats_from

from asrboot import segment
from asrboot.am import Interval
from asrboot.decode import DecodeError, Hypothesis
from asrboot.scoring import DEL, INS, SUB
from asrboot.segment import (
    MATCH,
    AlignedRegion,
    Chunk,
    HarvestConfig,
    SegmentCandidate,
    SegmentReport,
    SWConfig,
    TimedWord,
    _decode_chunks,
    _pieces_to_candidates,
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


def to_candidates(piece, hyp_words, ref_tokens, gaps, **cfg):
    rep = SegmentReport("rec", len(ref_tokens), len(hyp_words), 1, 0)
    cands = _pieces_to_candidates(
        piece, hyp_words, ref_tokens, "rec", gaps, HarvestConfig(**cfg), rep
    )
    return cands, rep


class TestPiecesToCandidates:
    def test_long_piece_split_at_widest_gap_first(self):
        hyp_words = [
            TimedWord("a", 0.0, 1.0),
            TimedWord("b", 1.2, 2.0),
            TimedWord("c", 2.5, 3.5),
            TimedWord("d", 3.6, 4.5),
            TimedWord("e", 5.5, 6.5),
        ]
        ref = ["a", "b", "c", "d", "e"]
        piece = [(i, i, MATCH) for i in range(5)]
        gaps = [(2.0, 2.5), (4.5, 5.5)]
        cands, rep = to_candidates(
            piece, hyp_words, ref, gaps, min_dur=0.5, max_dur=4.0
        )
        # the 1 s gap cuts first; the 0.5 s gap then cuts the 4.5 s left part
        assert [(c.start, c.end, c.tokens) for c in cands] == [
            (0.0, 2.0, ("a", "b")),
            (2.5, 4.5, ("c", "d")),
            (5.5, 6.5, ("e",)),
        ]
        assert (rep.rejected_long, rep.rejected_short) == (0, 0)

    def test_split_keeps_deleted_ref_word_with_its_neighbours(self):
        hyp_words = [
            TimedWord("a", 0.0, 1.0),
            TimedWord("b", 1.0, 2.0),
            TimedWord("c", 3.0, 4.0),
            TimedWord("e", 4.0, 5.0),
        ]
        ref = ["a", "b", "c", "d", "e"]
        # ref "d" was not decoded: a lone-ref step between c and e
        piece = [(0, 0, MATCH), (1, 1, MATCH), (2, 2, MATCH), (None, 3, DEL),
                 (3, 4, MATCH)]
        cands, _ = to_candidates(piece, hyp_words, ref, [(2.0, 3.0)], max_dur=3.0)
        assert [(c.start, c.end, c.tokens, c.ref_span) for c in cands] == [
            (0.0, 2.0, ("a", "b"), (0, 1)),
            (3.0, 5.0, ("c", "d", "e"), (2, 4)),
        ]
        assert cands[1].match_ratio == pytest.approx(2 / 3)

    def test_too_long_without_a_gap_between_words_is_rejected(self):
        hyp_words = [TimedWord("a", 0.0, 3.0), TimedWord("b", 3.0, 6.0)]
        piece = [(0, 0, MATCH), (1, 1, MATCH)]
        # one gap inside the first word, one after the piece
        gaps = [(0.5, 1.0), (6.5, 7.0)]
        cands, rep = to_candidates(piece, hyp_words, ["a", "b"], gaps, max_dur=4.0)
        assert cands == []
        assert rep.rejected_long == 1

    def test_too_short_is_rejected(self):
        hyp_words = [TimedWord("a", 0.0, 0.5)]
        cands, rep = to_candidates([(0, 0, MATCH)], hyp_words, ["a"], [], min_dur=1.0)
        assert cands == []
        assert rep.rejected_short == 1


def canned_hypothesis(words):
    """A decoder result holding (label, start, end) words, chunk-relative."""
    return Hypothesis(
        words=tuple(w for w, _, _ in words),
        word_intervals=tuple(Interval(w, s, e) for w, s, e in words),
        acoustic_score=0.0,
        lm_score=0.0,
        total_score=0.0,
    )


class TestDecodeChunks:
    def decode_with(self, monkeypatch, by_start, chunks):
        """Run `_decode_chunks` with `decode` answering per chunk start."""
        cfg = HarvestConfig()
        shift = cfg.frontend.frame_shift
        # frame t holds the value t, so a chunk's first frame gives its start
        feats = feats_from(np.arange(600, dtype=float)[:, None])

        def fake_decode(model, lm, tree, piece, decode_cfg, lexicon=None):
            answer = by_start[round(piece.frames[0, 0] * shift, 2)]
            if isinstance(answer, Exception):
                raise answer
            return canned_hypothesis(answer)

        monkeypatch.setattr(segment, "decode", fake_decode)
        return _decode_chunks(None, None, None, None, feats, chunks, cfg)

    def test_overlap_word_kept_from_nearest_chunk_only(self, monkeypatch):
        chunks = [Chunk("rec", 0.0, 3.0), Chunk("rec", 2.0, 5.0)]  # centres 1.5, 3.5
        by_start = {
            0.0: [("A", 0.5, 1.0), ("B", 2.2, 2.4), ("c", 2.7, 2.9)],
            2.0: [("b", 0.2, 0.4), ("C", 0.7, 0.9), ("D", 2.0, 2.5)],
        }
        words = self.decode_with(monkeypatch, by_start, chunks)
        assert words == [
            TimedWord("A", 0.5, 1.0),
            TimedWord("B", 2.2, 2.4),
            TimedWord("C", 2.7, 2.9),
            TimedWord("D", 4.0, 4.5),
        ]

    def test_chunk_whose_decode_fails_is_skipped(self, monkeypatch):
        chunks = [
            Chunk("rec", 0.0, 2.0), Chunk("rec", 2.0, 4.0), Chunk("rec", 4.0, 6.0)
        ]
        by_start = {
            0.0: [("A", 0.5, 1.0)],
            2.0: DecodeError("no token reached an utterance-final state"),
            4.0: [("C", 0.5, 1.0)],
        }
        words = self.decode_with(monkeypatch, by_start, chunks)
        assert words == [TimedWord("A", 0.5, 1.0), TimedWord("C", 4.5, 5.0)]


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
