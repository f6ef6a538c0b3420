from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NON_UTF8_LINES, write_with_bad_byte

from asrboot.corpus import load_manifest
from asrboot.lexicon import read_lexicon
from asrboot.lm import read_arpa
from asrboot.textnorm import (
    EMPTY_NUMERAL_TABLE,
    NumeralTable,
    NumeralTableError,
    fold_diacritics,
    load_numeral_table,
    normalize,
    normalize_lines,
    utf8_lines,
)

DATA = Path(__file__).resolve().parent / "data"


class TestFoldDiacritics:
    @pytest.mark.parametrize(
        "raw,expected",
        [("Ç", "C"), ("É", "E"), ("Ñ", "N")],
    )
    def test_canonical_variants(self, raw, expected):
        assert fold_diacritics(raw) == expected

    def test_ascii_identity(self):
        assert fold_diacritics("ABC") == "ABC"

    def test_mixed(self):
        assert fold_diacritics("Çà fhéïn") == "Ca fhein"


class TestNormalize:
    def test_intra_word_hyphen_kept(self):
        assert normalize("mother-in-law,").tokens == ("MOTHER-IN-LAW",)

    def test_ordered_steps(self):
        # uppercase -> fold -> expand -> strip -> collapse, by hand
        assert normalize("é?  hello ").tokens == ("E", "HELLO")

    def test_numeral_expansion(self):
        table = NumeralTable({3: "THREE"})
        assert normalize("3 cats", table).tokens == ("THREE", "CATS")

    def test_apostrophe_intra_word(self):
        assert normalize("o'neill's").tokens == ("O'NEILL'S",)

    def test_leading_trailing_marks_stripped(self):
        assert normalize("'ello -dash- 'quote'").tokens == ("ELLO", "DASH", "QUOTE")

    def test_hyphen_between_spaces_stripped(self):
        assert normalize("a - b").tokens == ("A", "B")

    def test_embedded_digit_stripped(self):
        assert normalize("A3").tokens == ("A",)

    def test_unmapped_numeral_dropped_with_record(self):
        result = normalize("31 dogs")
        assert result.tokens == ("DOGS",)
        assert result.dropped_numerals == ("31",)

    def test_numeral_with_punctuation(self):
        table = NumeralTable({25: "TWENTY-FIVE"})
        assert normalize("(25)", table).tokens == ("TWENTY-FIVE",)

    def test_punctuation_only_is_empty(self):
        assert normalize("?!... --- ,,,").tokens == ()

    def test_empty_input(self):
        assert normalize("").tokens == ()


@st.composite
def raw_text(draw):
    alphabet = st.sampled_from(
        list("abcDEFgh xyz'-?,.!0123456789éÇñÉÑà  \t")
    )
    return "".join(draw(st.lists(alphabet, max_size=60)))


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(raw_text())
    def test_idempotence(self, text):
        table = NumeralTable({3: "THREE", 12: "TWELVE"})
        once = normalize(text, table).tokens
        twice = normalize(" ".join(once), table).tokens
        assert twice == once

    @settings(max_examples=300, deadline=None)
    @given(raw_text())
    def test_case_insensitivity(self, text):
        assert normalize(text.lower()).tokens == normalize(text.upper()).tokens

    @settings(max_examples=300, deadline=None)
    @given(raw_text())
    def test_token_invariants(self, text):
        table = NumeralTable({0: "ZERO", 30: "THIRTY"})
        for token in normalize(text, table).tokens:
            assert token
            assert not token[0] in "-'" and not token[-1] in "-'"
            for ch in token:
                assert ch.isalpha() or ch in "-'"


class TestNumeralTable:
    def test_load(self, tmp_path):
        path = tmp_path / "numerals.tsv"
        path.write_text("0\tzero\n3\tthree\n", encoding="utf-8")
        table = load_numeral_table(path)
        assert table.get(0) == "ZERO"
        assert table.get(3) == "THREE"

    def test_out_of_range_key(self, tmp_path):
        path = tmp_path / "numerals.tsv"
        path.write_text("31\tx\n", encoding="utf-8")
        with pytest.raises(NumeralTableError, match="31"):
            load_numeral_table(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "numerals.tsv"
        path.write_text("3 three\n", encoding="utf-8")
        with pytest.raises(NumeralTableError, match="numerals.tsv:1"):
            load_numeral_table(path)

    def test_empty_file_gives_noop_table(self, tmp_path):
        path = tmp_path / "numerals.tsv"
        path.write_text("", encoding="utf-8")
        table = load_numeral_table(path)
        assert table.entries == {}
        result = normalize("3 cats", table)
        assert result.tokens == ("CATS",)
        assert result.dropped_numerals == ("3",)

    def test_multiword_form(self, tmp_path):
        path = tmp_path / "numerals.tsv"
        path.write_text("21\ttwenty one\n", encoding="utf-8")
        table = load_numeral_table(path)
        assert normalize("21", table).tokens == ("TWENTY", "ONE")

    def test_direct_construction_validates_range(self):
        with pytest.raises(NumeralTableError):
            NumeralTable({40: "FORTY"})

    @pytest.mark.parametrize("word", ["three", "Fünf!", "TWENTY  ONE"])
    def test_direct_construction_rejects_unstable_word(self, word):
        # normalize would give a table word that re-normalizes differently
        with pytest.raises(NumeralTableError, match=f"{word!r} for numeral 3"):
            NumeralTable({3: word})

    @pytest.mark.parametrize("lineno", NON_UTF8_LINES)
    def test_not_utf8_names_its_line(self, tmp_path, lineno):
        path = tmp_path / "numerals.tsv"
        write_with_bad_byte(path, ["30\tthirty"] * 1100, lineno)
        with pytest.raises(
            NumeralTableError, match=rf"numerals\.tsv:{lineno}: not UTF-8$"
        ):
            load_numeral_table(path)


class TestNormalizeLines:
    def test_lines_that_normalize_to_nothing_dropped_in_order(self):
        lines = ["b a", "", "  ...  ", "c", "(?)", "d-e"]
        assert normalize_lines(lines) == [("B", "A"), ("C",), ("D-E",)]

    def test_numeral_table_applied(self):
        table = NumeralTable({3: "THREE", 21: "TWENTY ONE"})
        lines = ["3 cats", "7", "21"]
        assert normalize_lines(lines, table) == [("THREE", "CATS"), ("TWENTY", "ONE")]


def test_utf8_lines_end_lines_as_text_mode_does(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("a\r\nb\rc\n\n\u00e9\r\r\nd".encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        expected = [(i, line.rstrip("\n")) for i, line in enumerate(fh, start=1)]
    assert list(utf8_lines(path, ValueError)) == expected
    assert [line for _, line in expected] == ["a", "b", "c", "", "\u00e9", "", "d"]


BOM_READERS = {
    "lexicon": (read_lexicon, "<UNK>\tGBG\nAB\tA B\n"),
    "manifest": (load_manifest, '{"id": "u1", "audio": "a.wav", "text": "AB"}\n'),
    "numerals": (load_numeral_table, "3\tthree\n"),
    "arpa": (read_arpa, (DATA / "lm_order2_unk.arpa").read_text(encoding="utf-8")),
}


@pytest.mark.parametrize("name", BOM_READERS)
def test_byte_order_mark_on_line_one_is_dropped(tmp_path, name):
    reader, text = BOM_READERS[name]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert reader(marked) == reader(plain)
