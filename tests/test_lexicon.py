import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NON_UTF8_LINES, write_with_bad_byte

from asrboot.lexicon import (
    GARBAGE_PHONE,
    UNK_WORD,
    Lexicon,
    build_wordlist,
    graphemic_lexicon,
    oov_rate,
    read_lexicon,
    supplement,
    write_lexicon,
)


class TestWordlist:
    def test_hand_counts(self):
        assert build_wordlist(["A", "B", "A"], min_count=1) == {"A": 2, "B": 1}

    def test_min_count_filter(self):
        assert build_wordlist(["A", "B", "A"], min_count=2) == {"A": 2}

    def test_empty_stream(self):
        assert build_wordlist([], min_count=1) == {}

    def test_supplement_new_word(self):
        assert supplement({"A": 2}, ["B"]) == {"A": 2, "B": 1}

    def test_supplement_no_double_count(self):
        assert supplement({"A": 2}, ["A"]) == {"A": 2}

    def test_supplement_empty(self):
        assert supplement({}, []) == {}

    def test_supplement_leaves_its_input_alone(self):
        wl = {"A": 2}
        supplement(wl, ["B"])
        assert wl == {"A": 2}


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

    def test_specials_are_constants_not_fields(self):
        assert [f.name for f in dataclasses.fields(Lexicon)] == ["pronunciations"]
        lex = Lexicon({"A": ("A",)})
        assert lex.pron(UNK_WORD) == (GARBAGE_PHONE,)
        assert lex.pron("ZZ") == (GARBAGE_PHONE,)
        assert lex.restricted_to(["A", UNK_WORD]).pronunciations == {"A": ("A",)}

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
        # no tab, an empty word, a word holding whitespace: the last two
        # would match no transcript token
        for text in ["CAT\n", "\tA B\n", "X Y\tA\n"]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match="lexicon.tsv:1"):
                read_lexicon(path)

    def test_duplicate_word_names_line(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("<UNK>\tGBG\nCAT\tC A T\nCAT\tK A T\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"lexicon\.tsv:3: duplicate word 'CAT'"):
            read_lexicon(path)

    @pytest.mark.parametrize("lineno", NON_UTF8_LINES)
    def test_not_utf8_names_its_line(self, tmp_path, lineno):
        path = tmp_path / "lexicon.tsv"
        lines = [f"W{i:04d}\tW {i:04d}" for i in range(1100)]
        write_with_bad_byte(path, lines, lineno)
        with pytest.raises(ValueError, match=rf"lexicon\.tsv:{lineno}: not UTF-8$"):
            read_lexicon(path)
