import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrboot.lexicon import (
    Lexicon,
    Wordlist,
    build_wordlist,
    graphemic_lexicon,
    oov_rate,
    read_lexicon,
    supplement,
    write_lexicon,
)


class TestWordlist:
    def test_hand_counts(self):
        wl = build_wordlist(["A", "B", "A"], min_count=1)
        assert dict(wl.entries) == {"A": 2, "B": 1}

    def test_min_count_filter(self):
        wl = build_wordlist(["A", "B", "A"], min_count=2)
        assert dict(wl.entries) == {"A": 2}

    def test_empty_stream(self):
        assert len(build_wordlist([], min_count=1)) == 0

    def test_supplement_new_word(self):
        wl = supplement(Wordlist({"A": 2}), ["B"])
        assert dict(wl.entries) == {"A": 2, "B": 1}

    def test_supplement_no_double_count(self):
        wl = supplement(Wordlist({"A": 2}), ["A"])
        assert dict(wl.entries) == {"A": 2}

    def test_supplement_empty(self):
        assert dict(supplement(Wordlist({}), []).entries) == {}


class TestGraphemicLexicon:
    def test_plain_word(self):
        lex, rejected = graphemic_lexicon(["CAT"])
        assert lex.pron("CAT") == ("C", "A", "T")
        assert rejected == []

    def test_hyphen_dropped_from_pron(self):
        lex, _ = graphemic_lexicon(["MOTHER-IN-LAW"])
        assert lex.pron("MOTHER-IN-LAW") == tuple("MOTHERINLAW")

    def test_apostrophe_dropped_from_pron(self):
        lex, _ = graphemic_lexicon(["O'NEILL"])
        assert lex.pron("O'NEILL") == tuple("ONEILL")

    def test_empty_pron_rejected(self):
        lex, rejected = graphemic_lexicon(["-", "CAT"])
        assert rejected == ["-"]
        assert "-" not in lex.pronunciations

    def test_specials_always_present(self):
        lex, _ = graphemic_lexicon(["CAT"])
        assert "<UNK>" in lex
        assert lex.pron("<UNK>") == ("GBG",)
        phones = lex.phones()
        assert "SIL" in phones and "GBG" in phones

    def test_inventory(self):
        lex, _ = graphemic_lexicon(["AB", "BA"])
        assert lex.phones() == ["A", "B", "GBG", "SIL"]

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ABC-'", min_size=1, max_size=12))
    def test_pron_reconstructs_word(self, word):
        lex, rejected = graphemic_lexicon([word])
        stripped = word.replace("-", "").replace("'", "")
        if not stripped:
            assert rejected == [word]
        else:
            assert "".join(lex.pron(word)) == stripped


class TestOovRate:
    def test_all_known(self):
        lex, _ = graphemic_lexicon(["A", "B"])
        assert oov_rate(lex, ["A", "B", "A"]) == 0.0

    def test_hand_count(self):
        lex, _ = graphemic_lexicon(["A"])
        assert oov_rate(lex, ["A", "B", "B", "B"]) == 0.75

    def test_empty_lexicon(self):
        lex = Lexicon({})
        assert oov_rate(lex, ["A"]) == 1.0

    def test_empty_stream(self):
        lex, _ = graphemic_lexicon(["A"])
        assert oov_rate(lex, []) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=30),
        st.lists(st.sampled_from(["A", "B"]), max_size=5),
    )
    def test_monotone_under_supplement(self, tokens, extra):
        base = build_wordlist(["A", "C"], min_count=1)
        lex_before, _ = graphemic_lexicon(base)
        lex_after, _ = graphemic_lexicon(supplement(base, extra))
        assert oov_rate(lex_after, tokens) <= oov_rate(lex_before, tokens)


class TestFileFormats:
    def test_lexicon_round_trip(self, tmp_path):
        lex, _ = graphemic_lexicon(["CAT", "DOG-HOUSE"])
        path = tmp_path / "lexicon.tsv"
        write_lexicon(lex, path)
        back = read_lexicon(path)
        assert back.pronunciations == dict(lex.pronunciations)

    def test_lexicon_file_shape(self, tmp_path):
        lex, _ = graphemic_lexicon(["AB"])
        path = tmp_path / "lexicon.tsv"
        write_lexicon(lex, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "<UNK>\tGBG"
        assert lines[1] == "AB\tA B"

    def test_bad_lexicon_line(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("CAT\n", encoding="utf-8")
        with pytest.raises(ValueError, match="lexicon.tsv:1"):
            read_lexicon(path)
