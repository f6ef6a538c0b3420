"""Deterministic transcript normalization, and the one reader of UTF-8
text files.

:func:`normalize` applies a fixed sequence of steps to raw text:
uppercase, diacritic folding, numeral expansion, punctuation stripping,
whitespace collapse.  The steps are ordered so the output is stable under
re-normalization.  It returns a `NormalizedText`: callers read its
``tokens`` and, for the numerals that had no word form, its
``dropped_numerals``.  `normalize_lines` applies it to LM text and keeps
the lines that do not normalize to nothing.  No stage of the pipeline
calls them: the recipe splits text that is already normalized, as
``synth`` writes it, on whitespace.  `utf8_lines` is the one reader of
UTF-8 text files: manifests, lexicons, ARPA files, numeral tables,
transcripts and LM text.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

NUMERAL_MIN = 0
NUMERAL_MAX = 30

_DIGIT_RUN = re.compile(r"[0-9]+")
_WS = re.compile(r"\s+")


class NumeralTableError(ValueError):
    """Raised for malformed or out-of-range numeral table entries."""


def utf8_lines(path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """Number and text of each line of a UTF-8 file, without its line end.

    Lines end at LF, CR or CR LF, as in a text-mode file.  Each line is
    decoded on its own (no UTF-8 character holds either byte), so a line
    that is not UTF-8 raises ``error`` with its own number; a text-mode
    file decodes 8 KB at a time and fails before yielding that line.  A
    byte-order mark at the start of the file is dropped.
    """
    with open(path, "rb") as fh:
        lines = (line for piece in fh for line in piece.splitlines())
        for lineno, raw in enumerate(lines, start=1):
            try:
                text = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
            except UnicodeDecodeError:
                raise error(f"{path}:{lineno}: not UTF-8") from None
            yield lineno, text


@dataclass(frozen=True)
class NumeralTable:
    """Maps small integers to their word forms, e.g. ``{3: "THREE"}``.

    Keys must lie in 0..30 and values must be normalization-stable words.
    """

    entries: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        for key, word in self.entries.items():
            if not NUMERAL_MIN <= key <= NUMERAL_MAX:
                raise NumeralTableError(
                    f"numeral key {key} outside {NUMERAL_MIN}..{NUMERAL_MAX}"
                )
            if not word:
                raise NumeralTableError(f"empty word form for numeral {key}")
            if " ".join(normalize(word).tokens) != word:
                raise NumeralTableError(
                    f"word form {word!r} for numeral {key} changes under "
                    f"normalization"
                )

    def get(self, value: int) -> str | None:
        return self.entries.get(value)


EMPTY_NUMERAL_TABLE = NumeralTable({})


@dataclass(frozen=True)
class NormalizedText:
    """Result of :func:`normalize`: clean uppercase tokens.

    ``dropped_numerals`` records standalone numeral tokens that had no
    table entry; they are removed from the token stream, not an error.
    """

    tokens: tuple[str, ...]
    dropped_numerals: tuple[str, ...] = ()


def fold_diacritics(text: str) -> str:
    """Strip combining marks via NFD decomposition (Ç -> C, É -> E, Ñ -> N).

    Characters without a decomposition pass through unchanged.
    """
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(c for c in decomposed if not unicodedata.combining(c))


def _strip_token(token: str) -> str:
    """Keep letters plus ``-``/``'`` that have a letter on both sides."""
    kept = []
    n = len(token)
    for i, ch in enumerate(token):
        if ch.isalpha():
            kept.append(ch)
        elif ch in "-'":
            if 0 < i < n - 1 and token[i - 1].isalpha() and token[i + 1].isalpha():
                kept.append(ch)
    return "".join(kept)


def _numeral_core(piece: str) -> str | None:
    """Digit core of a standalone numeral token, '' if garbled, None if not one.

    A token counts as a standalone numeral when it contains digits but no
    letters ("3", "(25)", "3,").  Digits embedded in words ("A3") are not
    numerals; they are stripped later with the punctuation.
    """
    if not any(c.isdigit() for c in piece):
        return None
    if any(c.isalpha() for c in piece):
        return None
    runs = _DIGIT_RUN.findall(piece)
    if len(runs) == 1:
        return runs[0]
    return ""


def normalize(raw: str, numerals: NumeralTable = EMPTY_NUMERAL_TABLE) -> NormalizedText:
    """Normalize a line of raw text into clean uppercase tokens.

    Steps, in order: (1) uppercase, (2) fold diacritics, (3) expand
    standalone 0..30 numerals via the table (unmapped numerals are dropped
    and reported), (4) strip punctuation except intra-word ``-``/``'`` and
    strip all digits, (5) collapse whitespace.
    """
    text = fold_diacritics(raw.upper())
    tokens: list[str] = []
    dropped: list[str] = []
    for piece in _WS.split(text):
        if not piece:
            continue
        core = _numeral_core(piece)
        if core is not None:
            word = numerals.get(int(core)) if core else None
            if word is None:
                dropped.append(piece)
            else:
                tokens.extend(word.split())
            continue
        cleaned = _strip_token(piece)
        if cleaned:
            tokens.append(cleaned)
    return NormalizedText(tuple(tokens), tuple(dropped))


def load_numeral_table(path) -> NumeralTable:
    """Load a ``<int><TAB><word>`` numeral table file.

    Word forms are normalized on load and must be stable under
    re-normalization (a word form that normalizes away is rejected).
    """
    entries: dict[int, str] = {}
    for lineno, line in utf8_lines(path, NumeralTableError):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise NumeralTableError(
                f"{path}:{lineno}: expected '<int><TAB><word>', got {line!r}"
            )
        key_text, word_raw = parts
        try:
            key = int(key_text)
        except ValueError:
            raise NumeralTableError(
                f"{path}:{lineno}: non-integer numeral {key_text!r}"
            ) from None
        if not NUMERAL_MIN <= key <= NUMERAL_MAX:
            raise NumeralTableError(
                f"{path}:{lineno}: numeral {key} outside "
                f"{NUMERAL_MIN}..{NUMERAL_MAX}"
            )
        normalized = normalize(word_raw)
        if not normalized.tokens:
            raise NumeralTableError(
                f"{path}:{lineno}: word form {word_raw!r} normalizes to nothing"
            )
        entries[key] = " ".join(normalized.tokens)
    return NumeralTable(entries)


def normalize_lines(
    lines: Iterable[str], numerals: NumeralTable = EMPTY_NUMERAL_TABLE
) -> list[tuple[str, ...]]:
    """Normalize an iterable of raw lines into token tuples (empty kept out)."""
    out = []
    for line in lines:
        tokens = normalize(line, numerals).tokens
        if tokens:
            out.append(tokens)
    return out
