from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feats_from
from make_golden import HARVEST, tiny_model

from asrboot import recipe, segment
from asrboot.am import Interval
from asrboot.decode import DecodeError, Hypothesis
from asrboot.features import FrontendConfig, cmvn, compute_mfcc
from asrboot.scoring import DEL, INS, SUB
from asrboot.segment import (
    MATCH,
    AlignedRegion,
    Chunk,
    HarvestConfig,
    SegmentCandidate,
    SegmentReport,
    _decode_chunks,
    _pieces_to_candidates,
    _split_region,
    chunk_recording,
    smith_waterman,
    success_rate,
)


def seams(chunks):
    return [c.start for c in chunks[1:]]


class TestChunkRecording:
    @pytest.mark.parametrize("n_frames", [0, 1, 99, 100, 101, 151, 250, 1234])
    @pytest.mark.parametrize("seed", range(3))
    def test_disjoint_cover_and_bounded(self, n_frames, seed):
        rng = np.random.default_rng(seed)
        edges = np.sort(rng.choice(max(n_frames, 1) + 1, size=20))
        runs = [(int(a), int(b)) for a, b in edges.reshape(-1, 2) if b > a]
        chunks = chunk_recording(runs, n_frames, 100)
        ends = [0] + [c.end for c in chunks]
        assert [c.start for c in chunks] == ends[:-1]
        assert ends[-1] == n_frames
        assert all(0 < c.end - c.start <= 100 for c in chunks)
        if len(chunks) > 1:
            assert chunks[-1].end - chunks[-1].start >= 50

    def test_seam_at_middle_of_longest_silence_in_second_half(self):
        # (10, 40) is in the first half; (45, 75) is clipped to (50, 75)
        runs = [(10, 40), (45, 75), (80, 95)]
        assert seams(chunk_recording(runs, 250, 100)) == [62, 162]

    def test_earliest_of_equally_long_silences_wins(self):
        assert seams(chunk_recording([(55, 65), (75, 85)], 250, 100)) == [60, 160]

    def test_without_silence_cut_at_max_frames(self):
        chunks = chunk_recording([(10, 40)], 350, 100)
        assert seams(chunks) == [100, 200, 300]

    def test_window_stops_half_a_chunk_before_the_end(self):
        # the run (195, 205) would leave a 5-frame last chunk
        assert seams(chunk_recording([(195, 205)], 210, 100)) == [100, 160]
        assert seams(chunk_recording([], 203, 101)) == [101, 152]

    def test_two_frame_chunks_advance_through_silence(self):
        chunks = chunk_recording([(0, 5)], 5, 2)
        assert [(c.start, c.end) for c in chunks] == [
            (0, 1), (1, 2), (2, 3), (3, 5)
        ]

    @pytest.mark.parametrize("max_frames", [1, 0, -3])
    def test_max_frames_under_two_rejected(self, max_frames):
        # below 2 the first seam would not pass the chunk's start
        with pytest.raises(ValueError, match=f"max_frames must be >= 2, got {max_frames}"):
            chunk_recording([], 10, max_frames)

    @pytest.mark.parametrize("max_frames", [2.5, 3.0])
    def test_max_frames_not_an_integer_rejected(self, max_frames):
        # before, 2.5 and 3.0 gave chunks with float frame bounds
        with pytest.raises(ValueError, match="max_frames must be an integer"):
            chunk_recording([], 10, max_frames)

    @pytest.mark.parametrize("chunk_len", [0.0, 0.01, 0.019])
    def test_chunk_len_under_two_frame_shifts_rejected(self, chunk_len):
        with pytest.raises(ValueError, match="chunk_len"):
            HarvestConfig(decode=HARVEST.decode, chunk_len=chunk_len)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("chunk_len", float("nan")),
            ("chunk_len", float("inf")),
        ],
    )
    def test_values_that_break_the_harvest_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HarvestConfig(decode=HARVEST.decode, **{field: value})


def words(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def hyp_indices(region):
    return {h for h, _, _ in region.pairs if h is not None}


def ref_indices(region):
    return {r for _, r, _ in region.pairs if r is not None}


def matched(region):
    return sum(1 for _, _, lab in region.pairs if lab == MATCH)


class Scores(NamedTuple):
    """Smith-Waterman step scores and least island, as `segment` holds them."""

    match: float
    mismatch: float
    gap: float
    min_island: int

    def use(self, monkeypatch) -> None:
        """Make `smith_waterman` score with these values."""
        monkeypatch.setattr(segment, "_SW_MATCH", self.match)
        monkeypatch.setattr(segment, "_SW_MISMATCH", self.mismatch)
        monkeypatch.setattr(segment, "_SW_GAP", self.gap)
        monkeypatch.setattr(segment, "_MIN_ISLAND", self.min_island)


DEFAULT = Scores(
    segment._SW_MATCH, segment._SW_MISMATCH, segment._SW_GAP, segment._MIN_ISLAND
)
FRACTIONAL = Scores(match=1.0, mismatch=-0.5, gap=-0.3, min_island=1)


class TestSmithWaterman:
    def test_planted_island_found(self):
        island = words("w", 5)
        hyp = words("x", 2) + island + words("x", 1)
        ref = words("y", 3) + island + words("y", 2)
        (region,) = smith_waterman(hyp, ref)
        assert region.hyp_span == (2, 6)
        assert region.ref_span == (3, 7)
        assert matched(region) == 5
        assert region.score == pytest.approx(5 * DEFAULT.match)

    def test_short_islands_dropped(self, monkeypatch):
        DEFAULT._replace(min_island=3).use(monkeypatch)
        for length, expected in [(2, 0), (3, 1)]:
            island = words("w", length)
            hyp = ["x"] + island + ["x"]
            ref = ["y"] + island + ["y"]
            assert len(smith_waterman(hyp, ref)) == expected

    def test_crossed_islands_disjoint_and_sorted(self):
        # alignment keeps hyp and ref order, so of two crossed islands only
        # the better one is found
        a, b = words("a", 4), words("b", 5)
        hyp = a + words("x", 3) + b
        ref = b + words("y", 3) + a
        regions = smith_waterman(hyp, ref)
        assert [matched(r) for r in regions] == [5]
        assert regions[0].hyp_span == (7, 11)

    def test_islands_in_matching_order_both_found(self):
        # ten ref fillers against three hyp ones: bridging them costs more
        # than the 4-word island gains
        a, b = words("a", 4), words("b", 5)
        hyp = a + words("x", 3) + b
        ref = a + words("y", 10) + b
        regions = smith_waterman(hyp, ref)
        assert [matched(r) for r in regions] == [4, 5]
        assert [r.hyp_span for r in regions] == [(0, 3), (7, 11)]
        assert [r.ref_span for r in regions] == [(0, 3), (14, 18)]

    @pytest.mark.parametrize(
        "seed", [*range(8), pytest.param(None, id="masking_hole")]
    )
    def test_regions_disjoint_and_sorted_on_random_input(self, seed, monkeypatch):
        if seed is None:
            # masking pairs alone let a second region delete ref 1-2, which
            # the first region pairs
            hyp, ref, cfg = list("bbcccab"), list("cbbb"), FRACTIONAL
        else:
            rng = np.random.default_rng(seed)
            vocab = words("v", 4)
            hyp = list(rng.choice(vocab, size=int(rng.integers(5, 40))))
            ref = list(rng.choice(vocab, size=int(rng.integers(5, 40))))
            cfg = DEFAULT._replace(min_island=2)
        cfg.use(monkeypatch)
        regions = smith_waterman(hyp, ref)
        for i, first in enumerate(regions):
            for second in regions[i + 1:]:
                assert not hyp_indices(first) & hyp_indices(second)
                assert not ref_indices(first) & ref_indices(second)
        spans = [r.hyp_span for r in regions]
        assert spans == sorted(spans)
        ref_spans = [r.ref_span for r in regions]
        assert all(a[1] < b[0] for a, b in zip(ref_spans, ref_spans[1:]))

    def test_empty_input_gives_no_regions(self):
        assert smith_waterman([], ["a", "b"]) == []
        assert smith_waterman(["a", "b"], []) == []


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
    def test_fractional_scores_pair_each_word_once(self, monkeypatch):
        FRACTIONAL.use(monkeypatch)
        regions = smith_waterman(list("abba"), list("abab"))
        assert_each_word_paired_once(regions)

    @pytest.mark.parametrize("seed", range(20))
    def test_region_score_is_sum_of_steps(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        vocab = words("v", int(rng.integers(2, 5)))
        hyp = list(rng.choice(vocab, size=int(rng.integers(1, 30))))
        ref = list(rng.choice(vocab, size=int(rng.integers(1, 30))))
        FRACTIONAL.use(monkeypatch)
        regions = smith_waterman(hyp, ref)
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
        st.sampled_from([FRACTIONAL, DEFAULT._replace(min_island=1), DEFAULT]),
    )
    def test_best_region_matches_oracle(self, hyp, ref, cfg):
        # not the monkeypatch fixture: it would span every example
        with pytest.MonkeyPatch.context() as mp:
            cfg.use(mp)
            regions = smith_waterman(hyp, ref)
        best = best_local_score(hyp, ref, cfg)
        if best < cfg.min_island * cfg.match:
            assert regions == []
        else:
            assert max(r.score for r in regions) == pytest.approx(best, abs=1e-9)


class TestSplitRegion:
    def test_region_spanning_two_lines_cut_between_them(self):
        pairs = [(i, i, MATCH) for i in range(4)]
        region = AlignedRegion(score=8.0, pairs=pairs)
        assert _split_region(region, [0, 0, 1, 1]) == [pairs[:2], pairs[2:]]
        assert _split_region(region, [3, 3, 3, 3]) == [pairs]

    def test_inserted_hyp_word_stays_in_the_piece_before_it(self):
        pairs = [(0, 0, MATCH), (1, 1, MATCH), (2, None, INS), (3, 2, MATCH),
                 (4, 3, MATCH)]
        region = AlignedRegion(score=6.0, pairs=pairs)
        assert _split_region(region, [0, 0, 1, 1]) == [pairs[:3], pairs[3:]]

    def test_deleted_ref_word_at_a_line_start_opens_the_new_piece(self):
        pairs = [(0, 0, MATCH), (1, 1, MATCH), (None, 2, DEL), (2, 3, MATCH),
                 (3, 4, MATCH)]
        region = AlignedRegion(score=6.0, pairs=pairs)
        assert _split_region(region, [0, 0, 1, 1, 1]) == [pairs[:2], pairs[2:]]
        # a line with no hyp word gives no piece
        assert _split_region(region, [0, 0, 1, 2, 2]) == [pairs[:2], pairs[3:]]

    def test_corrupted_line_is_its_own_piece_and_rejected(self):
        # the middle line is off-script: its words were not spoken
        lines = [["a", "b", "c"], ["x", "y", "z"], ["d", "e", "f"]]
        ref = [t for line in lines for t in line]
        hyp = ["a", "b", "c", "u", "v", "w", "d", "e", "f"]
        (region,) = smith_waterman(hyp, ref)
        line_of = [i for i, line in enumerate(lines) for _ in line]
        pieces = _split_region(region, line_of)
        assert [[r for _, r, _ in piece] for piece in pieces] == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8]
        ]
        hyp_words = [Interval(w, 0.5 * i, 0.5 * (i + 1)) for i, w in enumerate(hyp)]
        cands = [
            cand for piece in pieces
            for cand in to_candidates(piece, hyp_words, ref, [])[0]
        ]
        assert [c.match_ratio for c in cands] == [1.0, 0.0, 1.0]
        accept = segment._ACCEPT_RATIO
        assert [c.tokens for c in cands if c.match_ratio >= accept] == [
            ("a", "b", "c"), ("d", "e", "f")
        ]


def to_candidates(piece, hyp_words, ref_tokens, gaps, monkeypatch=None, **rules):
    """`_pieces_to_candidates` of one piece, with ``rules`` (``_MIN_DUR=``,
    ``_MAX_DUR=``) set in `segment` for the call."""
    for name, value in rules.items():
        monkeypatch.setattr(segment, name, value)
    rep = SegmentReport("rec", len(ref_tokens), len(hyp_words), 1, 0)
    cands = _pieces_to_candidates(piece, hyp_words, ref_tokens, "rec", gaps, rep)
    return cands, rep


class TestPiecesToCandidates:
    def test_long_piece_split_at_widest_gap_first(self, monkeypatch):
        hyp_words = [
            Interval("a", 0.0, 1.0),
            Interval("b", 1.2, 2.0),
            Interval("c", 2.5, 3.5),
            Interval("d", 3.6, 4.5),
            Interval("e", 5.5, 6.5),
        ]
        ref = ["a", "b", "c", "d", "e"]
        piece = [(i, i, MATCH) for i in range(5)]
        gaps = [(2.0, 2.5), (4.5, 5.5)]
        cands, rep = to_candidates(
            piece, hyp_words, ref, gaps, monkeypatch, _MIN_DUR=0.5, _MAX_DUR=4.0
        )
        # the 1 s gap cuts first; the 0.5 s gap then cuts the 4.5 s left part
        assert [(c.start, c.end, c.tokens) for c in cands] == [
            (0.0, 2.0, ("a", "b")),
            (2.5, 4.5, ("c", "d")),
            (5.5, 6.5, ("e",)),
        ]
        assert (rep.rejected_long, rep.rejected_short) == (0, 0)

    def test_split_keeps_deleted_ref_word_with_its_neighbours(self, monkeypatch):
        hyp_words = [
            Interval("a", 0.0, 1.0),
            Interval("b", 1.0, 2.0),
            Interval("c", 3.0, 4.0),
            Interval("e", 4.0, 5.0),
        ]
        ref = ["a", "b", "c", "d", "e"]
        # ref "d" was not decoded: a lone-ref step between c and e
        piece = [(0, 0, MATCH), (1, 1, MATCH), (2, 2, MATCH), (None, 3, DEL),
                 (3, 4, MATCH)]
        cands, _ = to_candidates(
            piece, hyp_words, ref, [(2.0, 3.0)], monkeypatch, _MAX_DUR=3.0
        )
        assert [(c.start, c.end, c.tokens, c.ref_span) for c in cands] == [
            (0.0, 2.0, ("a", "b"), (0, 1)),
            (3.0, 5.0, ("c", "d", "e"), (2, 4)),
        ]
        assert cands[1].match_ratio == pytest.approx(2 / 3)

    def test_too_long_without_a_gap_between_words_is_rejected(self, monkeypatch):
        hyp_words = [Interval("a", 0.0, 3.0), Interval("b", 3.0, 6.0)]
        piece = [(0, 0, MATCH), (1, 1, MATCH)]
        # one gap inside the first word, one after the piece
        gaps = [(0.5, 1.0), (6.5, 7.0)]
        cands, rep = to_candidates(
            piece, hyp_words, ["a", "b"], gaps, monkeypatch, _MAX_DUR=4.0
        )
        assert cands == []
        assert rep.rejected_long == 1

    def test_long_line_split_at_a_silence_of_any_length(self, monkeypatch):
        hyp_words = [
            Interval("a", 0.0, 2.0),
            Interval("b", 2.0, 4.0),
            Interval("c", 4.1, 6.0),
        ]
        piece = [(i, i, MATCH) for i in range(3)]
        # the only silence between words lasts 0.1 s
        cands, rep = to_candidates(
            piece, hyp_words, ["a", "b", "c"], [(4.0, 4.1)], monkeypatch,
            _MAX_DUR=5.0,
        )
        assert [(c.start, c.end, c.tokens) for c in cands] == [
            (0.0, 4.0, ("a", "b")),
            (4.1, 6.0, ("c",)),
        ]
        assert rep.rejected_long == 0

    def test_silence_from_the_piece_start_is_not_a_cut(self, monkeypatch):
        hyp_words = [
            Interval("a", 0.0, 0.5),
            Interval("b", 2.0, 3.0),
            Interval("c", 3.2, 6.0),
        ]
        piece = [(i, i, MATCH) for i in range(3)]
        # the widest run starts with the piece; the narrower one cuts
        cands, rep = to_candidates(
            piece, hyp_words, ["a", "b", "c"], [(0.0, 2.0), (3.0, 3.2)],
            monkeypatch, _MIN_DUR=0.1, _MAX_DUR=4.0,
        )
        assert [(c.start, c.end, c.tokens) for c in cands] == [
            (0.0, 3.0, ("a", "b")),
            (3.2, 6.0, ("c",)),
        ]
        assert rep.rejected_long == 0

    def test_word_starting_at_the_cut_falls_after_it(self, monkeypatch):
        hyp_words = [Interval("a", 0.0, 1.0), Interval("b", 2.0, 5.0)]
        piece = [(0, 0, MATCH), (1, 1, MATCH)]
        # the run's middle, 2.0, is where b starts
        cands, rep = to_candidates(
            piece, hyp_words, ["a", "b"], [(1.5, 2.5)], monkeypatch,
            _MIN_DUR=0.5, _MAX_DUR=4.0,
        )
        assert [(c.start, c.end, c.tokens) for c in cands] == [
            (0.0, 1.0, ("a",)),
            (2.0, 5.0, ("b",)),
        ]
        assert rep.rejected_long == 0

    def test_too_short_is_rejected(self, monkeypatch):
        hyp_words = [Interval("a", 0.0, 0.5)]
        cands, rep = to_candidates(
            [(0, 0, MATCH)], hyp_words, ["a"], [], monkeypatch, _MIN_DUR=1.0
        )
        assert cands == []
        assert rep.rejected_short == 1


def canned_hypothesis(words, partial=False):
    """A decoder result holding (label, start, end) words, chunk-relative."""
    return Hypothesis(
        words=tuple(w for w, _, _ in words),
        word_intervals=tuple(Interval(w, s, e) for w, s, e in words),
        acoustic_score=0.0,
        lm_score=0.0,
        total_score=0.0,
        partial=partial,
    )


class TestDecodeChunks:
    def decode_with(self, monkeypatch, by_start, bounds):
        """Run `_decode_chunks` with `decode` answering per chunk start frame."""
        # frame t holds the value t, so a chunk's first frame gives its start
        feats = feats_from(np.arange(600, dtype=float)[:, None])
        chunks = [Chunk(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        decoded = []

        def fake_decode(model, lm, tree, piece, decode_cfg, lexicon=None):
            decoded.append((int(piece.frames[0, 0]), piece.n_frames))
            answer = by_start[decoded[-1][0]]
            if isinstance(answer, Exception):
                raise answer
            if isinstance(answer, Hypothesis):
                return answer
            return canned_hypothesis(answer)

        monkeypatch.setattr(segment, "decode", fake_decode)
        report = SegmentReport("rec", 0, 0, 0, 0)
        words = _decode_chunks(
            None, None, None, feats, chunks, HARVEST.decode, report
        )
        assert decoded == [(c.start, c.end - c.start) for c in chunks]
        return words, report

    def test_words_offset_by_chunk_start_in_order(self, monkeypatch):
        by_start = {
            0: [("A", 0.5, 1.0), ("B", 2.2, 2.9)],
            300: [("C", 0.25, 0.5), ("D", 1.0, 1.25)],
            450: [("E", 0.0, 1.5)],
        }
        words, report = self.decode_with(monkeypatch, by_start, [0, 300, 450, 600])
        assert words == [
            Interval("A", 0.5, 1.0),
            Interval("B", 2.2, 2.9),
            Interval("C", 3.25, 3.5),
            Interval("D", 4.0, 4.25),
            Interval("E", 4.5, 6.0),
        ]
        assert report.chunk_failures == 0

    def test_chunk_whose_decode_fails_is_skipped(self, monkeypatch):
        by_start = {
            0: [("A", 0.5, 1.0)],
            200: DecodeError("no token reached an utterance-final state"),
            400: [("C", 0.5, 1.0)],
        }
        words, report = self.decode_with(monkeypatch, by_start, [0, 200, 400, 600])
        assert words == [Interval("A", 0.5, 1.0), Interval("C", 4.5, 5.0)]
        assert report.chunk_failures == 1

    def test_partial_chunk_is_counted_and_its_words_kept(self, monkeypatch):
        by_start = {
            0: canned_hypothesis([("A", 0.5, 1.0)], partial=True),
            200: DecodeError("no frames to decode"),
            400: canned_hypothesis([("C", 0.5, 1.0)], partial=True),
        }
        words, report = self.decode_with(monkeypatch, by_start, [0, 200, 400, 600])
        assert words == [Interval("A", 0.5, 1.0), Interval("C", 4.5, 5.0)]
        assert (report.chunk_failures, report.partial_chunks) == (1, 2)
        counts = report.as_dict()
        assert (counts["chunk_failures"], counts["partial_chunks"]) == (1, 2)


def tiny_harvest(out_dir, corruption_rate=0.0):
    """The one-minute recording of ``make_golden.tiny_model`` harvested
    through ``recipe.harvest`` at ``make_golden.HARVEST`` with its model;
    the samples and lines harvest is handed, every chunk and the features
    of every decode are recorded."""
    corp, lexicon, trained = tiny_model(out_dir, corruption_rate)
    (rec,) = corp.longform
    handed, chunks, decoded, pieces = {}, [], [], []
    real_harvest, real_decode = segment.harvest_segments, segment.decode

    def recording_harvest(recording_id, samples, lines, *args):
        handed.update(samples=samples, lines=lines)
        return real_harvest(recording_id, samples, lines, *args)

    def recording_chunks(*args):
        result = chunk_recording(*args)
        chunks.extend(result)
        return result

    def counting_decode(model, lm, tree, feats, *args, **kwargs):
        decoded.append(feats.n_frames)
        pieces.append(feats)
        return real_decode(model, lm, tree, feats, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segment, "harvest_segments", recording_harvest)
        mp.setattr(segment, "chunk_recording", recording_chunks)
        mp.setattr(segment, "decode", counting_decode)
        segments, rep = recipe.harvest(rec, trained.model, lexicon, HARVEST)
    samples, lines = handed["samples"], handed["lines"]
    return SimpleNamespace(
        chunks=chunks, decoded=decoded, pieces=pieces, samples=samples,
        segments=segments, report=rep,
        duration=len(samples) / FrontendConfig.sample_rate,
        shift=FrontendConfig.frame_shift, truth=rec.utterances,
        truth_path=corp.ground_truth_path(), recording_id=rec.recording_id,
        lines=lines,
        ref_tokens=[t for line in lines for t in line],
        line_of=[i for i, line in enumerate(lines) for _ in line],
        corrupted=rec.corrupted_line_indices,
    )


@pytest.fixture(scope="module")
def harvest(tmp_path_factory):
    return tiny_harvest(tmp_path_factory.mktemp("synth"))


@pytest.fixture(scope="module")
def off_script_harvest(tmp_path_factory):
    """The tiny harvest with 30% of the transcript lines off-script."""
    return tiny_harvest(tmp_path_factory.mktemp("synth"), corruption_rate=0.3)


class TestHarvestSegments:
    def test_empty_transcript_computes_nothing(self, monkeypatch, caplog):
        def unreachable(*args, **kwargs):
            raise AssertionError("an empty transcript needs no features or search")

        monkeypatch.setattr(segment, "compute_mfcc", unreachable)
        monkeypatch.setattr(segment, "decode", unreachable)
        segments, rep = segment.harvest_segments(
            "rec", np.zeros(16000), [[], []], None, None, HARVEST
        )
        assert segments == []
        assert rep.n_transcript_tokens == 0
        assert rep.word_yield == 0.0
        assert "rec: empty transcript, no segments" in caplog.text

    def test_decode_runs_once_per_chunk(self, harvest):
        assert len(harvest.chunks) >= 3
        assert harvest.decoded == [c.end - c.start for c in harvest.chunks]
        assert harvest.report.n_chunks == len(harvest.chunks)

    def test_chunks_decode_the_training_front_end(self, harvest):
        # the features the model is trained on: the default front end + CMVN
        feats = cmvn(compute_mfcc(harvest.samples))
        assert len(harvest.pieces) == len(harvest.chunks)
        for chunk, piece in zip(harvest.chunks, harvest.pieces):
            assert np.array_equal(piece.frames, feats.frames[chunk.start : chunk.end])

    def test_no_seam_inside_a_spoken_word(self, harvest):
        cuts = [t * harvest.shift for t in seams(harvest.chunks)]
        spoken = [w for utt in harvest.truth for w in utt["words"]]
        assert spoken
        assert not [
            (t, w) for t in cuts for w in spoken if w["start"] < t < w["end"]
        ]

    def test_segments_sorted_disjoint_and_inside_the_recording(self, harvest):
        segs = harvest.segments
        assert segs and segs == harvest.report.accepted
        assert all(0.0 <= s.start < s.end <= harvest.duration for s in segs)
        assert all(a.end <= b.start for a, b in zip(segs, segs[1:]))
        assert all(a.ref_span[1] < b.ref_span[0] for a, b in zip(segs, segs[1:]))

    def test_segment_tokens_are_their_transcript_span(self, harvest):
        for seg in harvest.segments:
            lo, hi = seg.ref_span
            assert seg.tokens == tuple(harvest.ref_tokens[lo : hi + 1])
        rep = harvest.report
        assert rep.n_candidates == (
            rep.n_accepted + rep.rejected_ratio + rep.rejected_short
            + rep.rejected_long
        )

    def test_each_segment_inside_one_transcript_line(self, harvest):
        assert harvest.segments
        for seg in harvest.segments:
            lo, hi = seg.ref_span
            assert harvest.line_of[lo] == harvest.line_of[hi]

    @pytest.mark.slow
    def test_no_segment_touches_an_off_script_line(self, off_script_harvest):
        run = off_script_harvest
        assert run.corrupted and run.segments
        corrupted = set(run.corrupted)
        for seg in run.segments:
            lo, hi = seg.ref_span
            assert not corrupted & set(run.line_of[lo : hi + 1]), seg

    # floors from the harvest as first measured: word yield and the median
    # start and end errors against ground_truth.json, each error rounded
    # up to the next whole ms; never lowered to pass
    @pytest.mark.slow
    @pytest.mark.parametrize("run, min_yield, max_start_ms, max_end_ms", [
        ("harvest", 1.0, 8.0, 6.0),
        ("off_script_harvest", 0.4375, 4.0, 3.0),
    ])
    def test_yield_and_boundaries_against_ground_truth(
        self, request, run, min_yield, max_start_ms, max_end_ms
    ):
        # the benchmark's scorer, importable from the repository root
        from perfbench.truth import load_recording_truth, score_segments

        run = request.getfixturevalue(run)
        truth = load_recording_truth(run.truth_path, run.recording_id, run.lines)
        scored = score_segments(truth, run.segments)
        assert run.report.word_yield >= min_yield
        assert scored.corrupt_accepted == 0
        assert scored.n_starts == scored.n_ends == len(run.segments)
        assert scored.start_err_ms <= max_start_ms
        assert scored.end_err_ms <= max_end_ms


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
