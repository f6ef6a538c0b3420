from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrboot.scoring import MATCH, align_edit, cer, wer


def distance(a, b):
    """Unit-cost edit distance: the ops of `align_edit` that are not MATCH."""
    return sum(op != MATCH for op in align_edit(a, b))


def brute_distance(a, b):
    """Independent oracle: plain recursive unit-cost edit distance."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
        )

    return d(len(a), len(b))


tokens = st.lists(st.sampled_from(["A", "B", "C", "D", "E"]), max_size=10)


class TestAlignEdit:
    def test_identical_zero_edits(self):
        assert align_edit(["A", "B"], ["A", "B"]) == ["match", "match"]

    def test_hand_case(self):
        ops = align_edit(["A", "B", "C"], ["A", "X", "C", "D"])
        assert ops == ["match", "sub", "match", "ins"]

    def test_deletion_only(self):
        assert align_edit(["A"], []) == ["del"]

    def test_insertion_only(self):
        assert align_edit([], ["A", "B"]) == ["ins", "ins"]

    def test_counts_partition_reference(self):
        ref = ["A", "B", "C", "D"]
        hyp = ["A", "C", "X", "Y"]
        ops = align_edit(ref, hyp)
        assert sum(op in ("match", "sub", "del") for op in ops) == len(ref)
        assert sum(op in ("match", "sub", "ins") for op in ops) == len(hyp)

    def test_tie_prefers_substitution(self):
        # "A"->"B" can be sub(1) or del+ins(2); also deeper ties resolve
        assert align_edit(["A"], ["B"]) == ["sub"]

    @pytest.mark.parametrize(
        "ref, hyp, ops",
        [
            ("A", "AA", ["ins", "match"]),
            ("ABA", "BAB", ["del", "match", "match", "ins"]),
        ],
    )
    def test_tie_order_pair_then_ins_then_del(self, ref, hyp, ops):
        # walking back from the end, a tied pair beats an insertion and a
        # tied insertion beats a deletion
        assert align_edit(list(ref), list(hyp)) == ops

    @settings(max_examples=500, deadline=None)
    @given(tokens, tokens)
    def test_matches_brute_force(self, a, b):
        assert distance(a, b) == brute_distance(a, b)

    @settings(max_examples=300, deadline=None)
    @given(tokens, tokens)
    def test_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)

    @settings(max_examples=200, deadline=None)
    @given(tokens, tokens, tokens)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c)

    @settings(max_examples=200, deadline=None)
    @given(tokens, tokens)
    def test_zero_iff_equal(self, a, b):
        assert (distance(a, b) == 0) == (a == b)


class TestWer:
    def test_identical_corpus(self):
        report = wer([(["A", "B"], ["A", "B"])])
        assert report.percent == "0.00"

    def test_hand_percentage(self):
        report = wer([("A B C".split(), "A X C D".split())])
        assert report.percent == "66.67"

    def test_corpus_pooling(self):
        pairs = [
            ("A B".split(), "A".split()),
            ("C D E".split(), "C D E".split()),
        ]
        report = wer(pairs)
        # pooled: 1 edit over 5 ref tokens, not mean(50%, 0%)
        assert report.rate == pytest.approx(0.2)

    def test_pooling_matches_brute_force_sum(self):
        pairs = [
            ("A B C".split(), "A X".split()),
            ("D".split(), "D E F".split()),
            ("G H".split(), "H".split()),
        ]
        report = wer(pairs)
        expected = sum(brute_distance(r, h) for r, h in pairs)
        assert report.errors == expected

    def test_rate_may_exceed_one(self):
        report = wer([(["A"], ["X", "Y", "Z"])])
        assert report.rate > 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wer([([], ["A"])])

    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError):
            wer([])

    @pytest.mark.parametrize("score", [wer, cer])
    @pytest.mark.parametrize("ids", [[], ["u1"], ["u1", "u2", "u3"]])
    def test_ids_of_the_wrong_length_rejected(self, score, ids):
        pairs = [(["A"], ["A"]), (["B"], ["C"])]
        with pytest.raises(ValueError, match=rf"^{len(ids)} ids for 2 \(ref, hyp\) pairs$"):
            score(pairs, ids=ids)

    def test_per_utterance_breakdown(self):
        report = wer([("A B".split(), "A".split())], ids=["u1"])
        assert report.per_utterance[0].id == "u1"
        assert report.per_utterance[0].deletions == 1


class TestCer:
    def test_identical(self):
        assert cer([(["AB"], ["AB"])]).percent == "0.00"

    def test_hand_case(self):
        assert cer([(["AB"], ["AC"])]).percent == "50.00"

    def test_spaces_count(self):
        # ref "A B" = 3 chars; hyp "AB" deletes the space
        report = cer([(["A", "B"], ["AB"])])
        assert report.n_ref_tokens == 3
        assert report.errors == 1

    @settings(max_examples=100, deadline=None)
    @given(tokens.filter(bool), tokens)
    def test_cer_equals_brute_force_on_chars(self, r, h):
        report = cer([(r, h)])
        assert report.errors == brute_distance(" ".join(r), " ".join(h))
