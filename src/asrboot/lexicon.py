"""Frequency wordlists and the Unicode graphemic lexicon.

A wordlist is a plain ``dict`` from word to corpus frequency; iterating
it gives the words, which is all `graphemic_lexicon` reads.  Words map
to their grapheme (character) sequences; no phonemic dictionary is
assumed.  Intra-word hyphens and apostrophes stay in the word label but
are dropped from the pronunciation.  The special symbols are module
constants, not lexicon fields: the silence phone ``SILENCE_PHONE`` and the
word ``UNK_WORD``, which `Lexicon.pron` alone maps to the garbage phone
``GARBAGE_PHONE``.  `lm` imports ``UNK_WORD`` as its ``UNK``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping

from .textnorm import utf8_lines

logger = logging.getLogger(__name__)

SILENCE_PHONE = "SIL"
GARBAGE_PHONE = "GBG"
UNK_WORD = "<UNK>"

PRON_DROP_CHARS = frozenset("-'")


def build_wordlist(tokens: Iterable[str], min_count: int = 2) -> dict[str, int]:
    """Count normalized tokens and keep words with frequency >= min_count."""
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return {w: c for w, c in counts.items() if c >= min_count}


def supplement(wl: Mapping[str, int], extra_words: Iterable[str]) -> dict[str, int]:
    """Add dictionary words missing from the corpus at frequency 1."""
    merged = dict(wl)
    for word in extra_words:
        if word not in merged:
            merged[word] = 1
    return merged


@dataclass(frozen=True)
class Lexicon:
    """Graphemic pronunciation dictionary; <UNK> is always in it."""

    pronunciations: Mapping[str, tuple[str, ...]]

    @property
    def words(self) -> list[str]:
        return sorted(self.pronunciations)

    def phones(self) -> list[str]:
        """Grapheme inventory plus silence and garbage phones, sorted."""
        inventory = set()
        for pron in self.pronunciations.values():
            inventory.update(pron)
        inventory.discard(SILENCE_PHONE)
        inventory.discard(GARBAGE_PHONE)
        return sorted(inventory) + [GARBAGE_PHONE, SILENCE_PHONE]

    def pron(self, word: str) -> tuple[str, ...]:
        """Pronunciation of ``word``, falling back to the garbage phone."""
        if word == UNK_WORD:
            return (GARBAGE_PHONE,)
        return self.pronunciations.get(word, (GARBAGE_PHONE,))

    def __contains__(self, word: str) -> bool:
        return word == UNK_WORD or word in self.pronunciations

    def restricted_to(self, words: Iterable[str]) -> "Lexicon":
        """Sub-lexicon over the given words (unknown words skipped)."""
        kept = {w: self.pronunciations[w] for w in words if w in self.pronunciations}
        return Lexicon(kept)


def grapheme_pronunciation(word: str) -> tuple[str, ...]:
    """Unicode scalar sequence of the word, minus hyphens and apostrophes."""
    return tuple(ch for ch in word if ch not in PRON_DROP_CHARS)


def graphemic_lexicon(words: Iterable[str]) -> tuple[Lexicon, list[str]]:
    """Build the graphemic lexicon; returns (lexicon, rejected words).

    A word is rejected when its pronunciation would be empty (e.g. "-").
    """
    pronunciations: dict[str, tuple[str, ...]] = {}
    rejected: list[str] = []
    for word in words:
        pron = grapheme_pronunciation(word)
        if not pron:
            rejected.append(word)
            continue
        pronunciations[word] = pron
    if rejected:
        logger.warning("rejected %d words with empty pronunciations", len(rejected))
    return Lexicon(pronunciations), rejected


def oov_rate(lex: Lexicon, test_tokens: Iterable[str]) -> float:
    """Token-weighted fraction of test tokens missing from the lexicon."""
    total = 0
    oov = 0
    for token in test_tokens:
        total += 1
        if token not in lex.pronunciations:
            oov += 1
    if total == 0:
        logger.warning("oov_rate over an empty token stream; defining as 0")
        return 0.0
    return oov / total


def write_lexicon(lex: Lexicon, path) -> None:
    """Write ``WORD<TAB>G1 G2 ...`` lines, specials included."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{UNK_WORD}\t{' '.join(lex.pron(UNK_WORD))}\n")
        for word in lex.words:
            fh.write(f"{word}\t{' '.join(lex.pronunciations[word])}\n")


def read_lexicon(path) -> Lexicon:
    """Read `write_lexicon` output; the <UNK> line is implied and skipped."""
    pronunciations: dict[str, tuple[str, ...]] = {}
    for lineno, line in utf8_lines(path, ValueError):
        if not line:
            continue
        parts = line.split("\t")
        # a word is one whitespace-free token, as transcripts split them
        if len(parts) != 2 or parts[0].split() != parts[:1] or not parts[1].strip():
            raise ValueError(f"{path}:{lineno}: expected 'WORD<TAB>G1 G2 ...'")
        word, pron_text = parts
        if word == UNK_WORD:
            continue
        if word in pronunciations:
            raise ValueError(f"{path}:{lineno}: duplicate word {word!r}")
        pronunciations[word] = tuple(pron_text.split())
    return Lexicon(pronunciations)
