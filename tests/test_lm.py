import math
import random

import pytest

from asrboot.lm import (
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
            assert lm.context_sum(history) == pytest.approx(1.0, abs=1e-6)

    def test_order4_sums(self):
        corpus = sents("A B C D A B C E\nB C D A\nA B C D")
        lm = train_ngram(corpus, order=4, map_singletons_to_unk=False)
        rng = random.Random(1)
        for _ in range(50):
            history = random_history(lm, rng, 4)
            assert lm.context_sum(history) == pytest.approx(1.0, abs=1e-6)

    def test_single_word_vocab(self):
        lm = train_ngram([("A",)], order=2, map_singletons_to_unk=False)
        assert lm.context_sum(("A",)) == pytest.approx(1.0, abs=1e-6)
        assert lm.context_sum(()) == pytest.approx(1.0, abs=1e-6)


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


class TestPerplexity:
    def test_certainty_is_one(self):
        lm = NGramLM(
            order=1,
            probs={("A",): 0.0},
            backoffs={},
            vocab=frozenset({"A", EOS, UNK}),
        )
        report = perplexity(lm, [("A", "A", "A")], add_bounds=False)
        assert report.perplexity == pytest.approx(1.0)

    def test_uniform_is_vocab_size(self):
        v = 8
        p = math.log10(1.0 / v)
        words = [f"W{i}" for i in range(v)]
        lm = NGramLM(
            order=1,
            probs={(w,): p for w in words},
            backoffs={},
            vocab=frozenset(words + [EOS, UNK]),
        )
        text = [tuple(words[:4]), tuple(words[4:])]
        report = perplexity(lm, text, add_bounds=False)
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


class TestBiasedLm:
    def test_vocab(self):
        lm = biased_lm(sents("A B"))
        assert lm.vocab == frozenset({"A", "B", EOS, UNK})

    def test_transcript_dominates_unk(self):
        lm = biased_lm(sents("A B\nA B\nA B"))
        assert lm.logp(("A",), "B") > lm.logp(("A",), UNK) + 1.0

    def test_unk_mass_reserved(self):
        lm = biased_lm(sents("A B C D E F"), unk_mass=0.01)
        assert 10.0 ** lm.logp((), UNK) >= 0.01 - 1e-9

    def test_normalized_per_context(self):
        lm = biased_lm(sents("A B C\nB C A"))
        for ctx in [(), ("A",), ("C",), (BOS,), (UNK,)]:
            assert lm.context_sum(ctx) == pytest.approx(1.0, abs=1e-6)

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
