import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import NON_UTF8_LINES, write_with_bad_byte

from asrboot.lm import (
    BIASED_UNK_MASS,
    BOS,
    EOS,
    UNK,
    LmError,
    NGramLM,
    biased_lm,
    ngram_counts,
    perplexity,
    read_arpa,
    train_ngram,
    write_arpa,
)


DATA = Path(__file__).parent / "data"


def sents(text):
    return [tuple(line.split()) for line in text.strip().splitlines()]


class TestCounting:
    def test_mle_bigram_before_smoothing(self):
        counts = ngram_counts(sents("A B A B A"), order=2)
        after_a = counts[1][("A",)]
        total = sum(after_a.values())
        assert after_a["B"] / total == pytest.approx(2 / 3)
        assert after_a[EOS] / total == pytest.approx(1 / 3)

    def test_bos_never_predicted(self):
        counts = ngram_counts(sents("A B"), order=2)
        assert BOS not in counts[0].get((), {})

    @pytest.mark.parametrize("order", [0, 5, True, 2.0, 2.5, "3"])
    def test_order_is_an_integer_from_one_to_four(self, order):
        corpus = sents("A B A B")
        assert train_ngram(corpus, order=np.int64(3)).order == 3
        message = re.escape(f"order must be 1..4, got {order!r}")
        with pytest.raises(LmError, match=message):
            train_ngram(corpus, order=order)


def context_sum(lm, history):
    """Sum of P(w|history) over the full prediction vocabulary."""
    return sum(10.0 ** lm.logp(history, w) for w in lm.vocab)


def random_history(lm, rng, max_len):
    pool = sorted(lm.vocab - {EOS}) + [BOS]
    return tuple(rng.choice(pool) for _ in range(rng.randrange(0, max_len + 1)))


class TestNormalization:
    def test_context_sums(self):
        corpus = sents(
            """
            A B A C A B D
            B C A A E
            D E A B C C
            A B
            """
        )
        lm = train_ngram(corpus, order=3, map_singletons_to_unk=False)
        rng = random.Random(0)
        for _ in range(100):
            history = random_history(lm, rng, 3)
            assert context_sum(lm, history) == pytest.approx(1.0, abs=1e-6)

    def test_order4_sums(self):
        corpus = sents("A B C D A B C E\nB C D A\nA B C D")
        lm = train_ngram(corpus, order=4, map_singletons_to_unk=False)
        rng = random.Random(1)
        for _ in range(50):
            history = random_history(lm, rng, 4)
            assert context_sum(lm, history) == pytest.approx(1.0, abs=1e-6)

    def test_single_word_vocab(self):
        lm = train_ngram([("A",)], order=2, map_singletons_to_unk=False)
        assert context_sum(lm, ("A",)) == pytest.approx(1.0, abs=1e-6)
        assert context_sum(lm, ()) == pytest.approx(1.0, abs=1e-6)


class TestScore:
    def test_unseen_word_scores_via_unk(self):
        lm = train_ngram(sents("A B\nA C"), order=2, map_singletons_to_unk=False)
        assert lm.logp((), "ZZZ") == lm.logp((), UNK)

    def test_empty_history_is_unigram(self):
        lm = train_ngram(sents("A B\nB A"), order=2, map_singletons_to_unk=False)
        assert lm.logp((), "A") == lm.probs[("A",)]

    def test_present_ngram_exact_lookup(self):
        lm = train_ngram(
            sents("A B C D\nA B C D\nA B C E"), order=4,
            map_singletons_to_unk=False,
        )
        assert lm.logp(("A", "B", "C"), "D") == lm.probs[("A", "B", "C", "D")]

    def test_backoff_recursion_by_hand(self):
        lm = train_ngram(sents("A B\nB C"), order=2, map_singletons_to_unk=False)
        # (C, A) bigram unseen: score = bow(C) + P1(A)
        expected = lm.backoffs.get(("C",), 0.0) + lm.probs[("A",)]
        assert lm.logp(("C",), "A") == pytest.approx(expected, abs=1e-12)

    def test_monotone_data_no_unseen(self):
        base = sents("A B\nC D")
        more = base + sents("E F")
        lm = train_ngram(more, order=2, map_singletons_to_unk=False)
        for w in ["A", "B", "C", "D", "E", "F"]:
            assert w in lm.vocab


class TestStep:
    CORPUS = "A B C A\nB C A B\nC A B C\nA C B A"
    HISTORIES = [(), (BOS,), ("A",), (BOS, "A"), ("ZZ",), (BOS, "ZZ"),
                 ("A", "B", "C"), ("ZZ", "YY", "A"), ("A", "ZZ")]
    WORDS = ["A", "B", "C", "ZZ", EOS]

    def trigram(self):
        return train_ngram(sents(self.CORPUS), order=3,
                           map_singletons_to_unk=False)

    def test_score_is_logp(self):
        lm = self.trigram()
        for history in self.HISTORIES:
            for word in self.WORDS:
                assert lm.step(history, word)[0] == lm.logp(history, word)

    def test_next_history_is_the_mapped_suffix(self):
        lm = self.trigram()
        assert lm.step((BOS,), "ZZ")[1] == (BOS, UNK)
        assert lm.step((BOS, "ZZ"), "A")[1] == (UNK, "A")
        assert lm.step(("A", "B", "C"), "YY")[1] == ("C", UNK)
        assert lm.step((), "B")[1] == ("B",)
        for history in self.HISTORIES:
            for word in self.WORDS:
                nxt = lm.step(history, word)[1]
                assert len(nxt) <= lm.order - 1
                assert all(t == BOS or t in lm.vocab for t in nxt)

    def test_unigram_keeps_no_history(self):
        lm = train_ngram(sents(self.CORPUS), order=1)
        assert lm.step((BOS,), "A")[1] == ()

    def test_chained_steps_give_perplexity_total(self):
        lm = self.trigram()
        text = sents("A B ZZ C\nZZ YY\nC C A B A")
        total = 0.0
        for line in text:
            history = (BOS,)
            for word in (*line, EOS):
                logp, history = lm.step(history, word)
                total += logp
        assert perplexity(lm, text).log10_total == total


class TestPerplexity:
    def test_certainty_is_one(self):
        half = math.log10(0.5)
        lm = NGramLM(
            order=2,
            probs={("A",): half, (EOS,): half, (BOS, "A"): 0.0, ("A", EOS): 0.0},
            backoffs={},
            vocab=frozenset({"A", EOS, UNK}),
        )
        report = perplexity(lm, [("A",), ("A",)])
        assert report.n_tokens == 4
        assert report.perplexity == pytest.approx(1.0)

    def test_uniform_is_vocab_size(self):
        v = 8  # seven words and </s>
        p = math.log10(1.0 / v)
        words = [f"W{i}" for i in range(v - 1)]
        lm = NGramLM(
            order=1,
            probs={(w,): p for w in words + [EOS]},
            backoffs={},
            vocab=frozenset(words + [EOS, UNK]),
        )
        text = [tuple(words[:4]), tuple(words[4:])]
        report = perplexity(lm, text)
        assert report.n_tokens == len(words) + 2
        assert report.perplexity == pytest.approx(v)

    def test_matches_bruteforce_chain_rule(self):
        corpus = sents("A B C\nB C A\nC A B")
        lm = train_ngram(corpus, order=3, map_singletons_to_unk=False)
        text = sents("A B C\nC B A")
        report = perplexity(lm, text)
        total = 0.0
        count = 0
        for line in text:
            seq = list(line) + [EOS]
            history = (BOS,)
            for w in seq:
                total += lm.logp(history, w)
                history = history + (w if w in lm.vocab else UNK,)
                count += 1
        assert report.log10_total == pytest.approx(total, abs=1e-12)
        assert report.n_tokens == count

    def test_oov_counted(self):
        lm = train_ngram(sents("A B"), order=2, map_singletons_to_unk=False)
        report = perplexity(lm, [("A", "ZZZ")])
        assert report.n_oov == 1

    def test_empty_text_rejected(self):
        lm = train_ngram(sents("A B"), order=2)
        with pytest.raises(LmError):
            perplexity(lm, [])


class TestArpa:
    def test_write_read_write_fixpoint(self, tmp_path):
        corpus = sents("A B A C\nB C A\nA A B C")
        lm = train_ngram(corpus, order=3, map_singletons_to_unk=False)
        p1, p2 = tmp_path / "a.arpa", tmp_path / "b.arpa"
        write_arpa(lm, p1)
        write_arpa(read_arpa(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_scores_identical(self, tmp_path):
        corpus = sents("A B C D\nD C B A\nA B D C")
        lm = train_ngram(corpus, order=4, map_singletons_to_unk=False)
        path = tmp_path / "m.arpa"
        write_arpa(lm, path)
        back = read_arpa(path)
        rng = random.Random(2)
        for _ in range(200):
            history = random_history(lm, rng, 4)
            word = rng.choice(sorted(lm.vocab))
            assert abs(back.logp(history, word) - lm.logp(history, word)) <= 1e-9

    def test_hand_written_unigram_arpa(self, tmp_path):
        path = tmp_path / "tiny.arpa"
        path.write_text(
            "\\data\\\n"
            "ngram 1=2\n"
            "\n"
            "\\1-grams:\n"
            "-0.30103\tA\n"
            "-0.60206\tB\n"
            "\n"
            "\\end\\\n",
            encoding="utf-8",
        )
        lm = read_arpa(path)
        assert lm.logp((), "A") == pytest.approx(-0.30103)
        assert lm.logp((), "B") == pytest.approx(-0.60206)

    def test_kenlm_unk_scores_oov_words(self, tmp_path):
        path = tmp_path / "kenlm_unk.arpa"
        path.write_text(
            "\\data\\\n"
            "ngram 1=3\n"
            "ngram 2=2\n"
            "\n"
            "\\1-grams:\n"
            "-0.30103\tA\t-0.1\n"
            "-0.60206\t<unk>\t-0.2\n"
            "-0.60206\t</s>\n"
            "\n"
            "\\2-grams:\n"
            "-0.4\tA <unk>\n"
            "-0.5\t<unk> A\n"
            "\n"
            "\\end\\\n",
            encoding="utf-8",
        )
        lm = read_arpa(path)
        assert "<unk>" not in lm.vocab
        assert lm.logp((), "ZZ") == pytest.approx(-0.60206)
        assert lm.logp(("A",), "ZZ") == pytest.approx(-0.4)
        assert lm.logp(("ZZ",), "A") == pytest.approx(-0.5)

    def test_unk_spelled_both_ways_is_a_duplicate(self, tmp_path):
        path = tmp_path / "two_unks.arpa"
        path.write_text(
            "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\t<unk>\n-2.0\t<UNK>\n"
            "\n\\end\\\n",
            encoding="utf-8",
        )
        with pytest.raises(LmError, match=r":6: duplicate n-gram '<UNK>'"):
            read_arpa(path)

    def test_oov_without_unk_unigram_raises_lm_error(self, tmp_path):
        path = tmp_path / "no_unk.arpa"
        path.write_text(
            "\\data\\\n"
            "ngram 1=1\n"
            "\n"
            "\\1-grams:\n"
            "-0.30103\tA\n"
            "\n"
            "\\end\\\n",
            encoding="utf-8",
        )
        lm = read_arpa(path)
        assert lm.logp((), "A") == pytest.approx(-0.30103)
        with pytest.raises(LmError, match=r"'ZZ'.*no unigram '<UNK>'"):
            lm.logp((), "ZZ")

    def test_truncated_file_names_section(self, tmp_path):
        path = tmp_path / "trunc.arpa"
        path.write_text(
            "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1\tA\n", encoding="utf-8"
        )
        with pytest.raises(LmError, match="1-grams"):
            read_arpa(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text(
            "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.1\tA\n\n\\end\\\n",
            encoding="utf-8",
        )
        with pytest.raises(LmError, match="declared 3"):
            read_arpa(path)

    @pytest.mark.parametrize("text, where", [
        ("\\data\\\n\n\\end\\\n", r"bad\.arpa: no n-grams"),
        ("\\data\\\nngram 1\n\n\\1-grams:\n-0.1\tA\n\n\\end\\\n",
         r"bad\.arpa:2: .* in 'ngram 1'"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\nlow\tA\n\n\\end\\\n",
         r"bad\.arpa:5: could not convert .* in 'low\\tA'"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1\tA\tx\n\n\\end\\\n",
         r"bad\.arpa:5: could not convert string to float: 'x'"),
        ("\\data\\\nngram 1=1\n\n\\one-grams:\n-0.1\tA\n\n\\end\\\n",
         r"bad\.arpa:4: .* in '\\\\one-grams:'"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\nnan\tA\n\n\\end\\\n",
         r"bad\.arpa:5: non-finite .* in 'nan\\tA'"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\ninf\tA\n\n\\end\\\n",
         r"bad\.arpa:5: non-finite .* in 'inf\\tA'"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-inf\tA\n\n\\end\\\n",
         r"bad\.arpa:5: non-finite .* in '-inf\\tA'"),
        ("\\data\\\nngram 1=2\n\n\\1-grams:\n-99\t<s>\tinf\n-0.1\tA\n\n\\end\\\n",
         r"bad\.arpa:5: non-finite .* in '-99\\t<s>\\tinf'"),
    ], ids=["empty", "no_count", "bad_prob", "bad_backoff", "bad_section",
            "nan_prob", "inf_prob", "-inf_prob", "inf_backoff"])
    def test_malformed_file_names_its_location(self, tmp_path, text, where):
        path = tmp_path / "bad.arpa"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LmError, match=where):
            read_arpa(path)

    @pytest.mark.parametrize("lineno", NON_UTF8_LINES)
    def test_not_utf8_names_its_line(self, tmp_path, lineno):
        words = [f"W{i:04d}" for i in range(1100)]
        lines = ["\\data\\", f"ngram 1={len(words)}", "", "\\1-grams:"]
        lines += [f"-3.0\t{w}" for w in words] + ["", "\\end\\"]
        path = tmp_path / "m.arpa"
        write_with_bad_byte(path, lines, lineno)
        with pytest.raises(LmError, match=rf"m\.arpa:{lineno}: not UTF-8$"):
            read_arpa(path)


class TestGoldenArpa:
    """``tests/data/lm_*.arpa`` pin the estimator: the models of
    ``lm_corpus.txt`` as `write_arpa` wrote them when the files were made.
    Every probability and backoff weight must come out bit for bit."""

    corpus = [
        tuple(line.split())
        for line in (DATA / "lm_corpus.txt").read_text(encoding="utf-8").splitlines()
    ]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("mapped", [True, False], ids=["unk", "nounk"])
    def test_train_ngram(self, tmp_path, order, mapped):
        lm = train_ngram(self.corpus, order, map_singletons_to_unk=mapped)
        write_arpa(lm, tmp_path / "lm.arpa")
        golden = DATA / f"lm_order{order}_{'unk' if mapped else 'nounk'}.arpa"
        assert (tmp_path / "lm.arpa").read_bytes() == golden.read_bytes()

    def test_biased_lm(self, tmp_path):
        write_arpa(biased_lm(self.corpus), tmp_path / "lm.arpa")
        golden = DATA / "lm_biased.arpa"
        assert (tmp_path / "lm.arpa").read_bytes() == golden.read_bytes()


class TestBiasedLm:
    def test_vocab(self):
        lm = biased_lm(sents("A B"))
        assert lm.vocab == frozenset({"A", "B", EOS, UNK})

    def test_transcript_dominates_unk(self):
        lm = biased_lm(sents("A B\nA B\nA B"))
        assert lm.logp(("A",), "B") > lm.logp(("A",), UNK) + 1.0

    def test_unk_mass_reserved(self):
        lm = biased_lm(sents("A B C D E F"))
        assert 10.0 ** lm.logp((), UNK) >= BIASED_UNK_MASS - 1e-9

    def test_normalized_per_context(self):
        lm = biased_lm(sents("A B C\nB C A"))
        for ctx in [(), ("A",), ("C",), (BOS,), (UNK,)]:
            assert context_sum(lm, ctx) == pytest.approx(1.0, abs=1e-6)

    def test_empty_transcript_rejected(self):
        with pytest.raises(LmError):
            biased_lm([])


class TestUnkEstimation:
    def test_singletons_mapped(self):
        lm = train_ngram(
            sents("A A B A RARE"), order=2, map_singletons_to_unk=True
        )
        assert "RARE" not in lm.vocab
        # the singleton gave <UNK> real mass
        assert 10.0 ** lm.logp((), UNK) > 1e-6

    def test_mapping_can_be_disabled(self):
        lm = train_ngram(
            sents("A A B A RARE"), order=2, map_singletons_to_unk=False
        )
        assert "RARE" in lm.vocab

    def test_empty_corpus_rejected(self):
        with pytest.raises(LmError):
            train_ngram([], order=2)
