"""Frequency wordlists and the Unicode graphemic lexicon.

Words map to their grapheme (character) sequences; no phonemic dictionary
is assumed.  Intra-word hyphens and apostrophes stay in the word label but
are dropped from the pronunciation.  Two special symbols always exist:
the silence phone and ``<UNK>``, which maps to a dedicated garbage phone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping

logger = logging.getLogger(__name__)

SILENCE_PHONE = "SIL"
GARBAGE_PHONE = "GBG"
UNK_WORD = "<UNK>"

PRON_DROP_CHARS = frozenset("-'")


@dataclass(frozen=True)
class Wordlist:
    """Word -> corpus frequency map."""

    entries: Mapping[str, int] = field(default_factory=dict)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def build_wordlist(tokens: Iterable[str], min_count: int = 2) -> Wordlist:
    """Count normalized tokens and keep words with frequency >= min_count."""
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return Wordlist({w: c for w, c in counts.items() if c >= min_count})


def supplement(wl: Wordlist, extra_words: Iterable[str]) -> Wordlist:
    """Add dictionary words missing from the corpus at frequency 1."""
    merged = dict(wl.entries)
    for word in extra_words:
        if word not in merged:
            merged[word] = 1
    return Wordlist(merged)


@dataclass(frozen=True)
class Lexicon:
    """Graphemic pronunciation dictionary plus the special symbols."""

    pronunciations: Mapping[str, tuple[str, ...]]
    silence_phone: str = SILENCE_PHONE
    garbage_phone: str = GARBAGE_PHONE
    unk_word: str = UNK_WORD

    @property
    def words(self) -> list[str]:
        return sorted(self.pronunciations)

    def phones(self) -> list[str]:
        """Grapheme inventory plus silence and garbage phones, sorted."""
        inventory = set()
        for pron in self.pronunciations.values():
            inventory.update(pron)
        inventory.discard(self.silence_phone)
        inventory.discard(self.garbage_phone)
        return sorted(inventory) + [self.garbage_phone, self.silence_phone]

    def pron(self, word: str) -> tuple[str, ...]:
        """Pronunciation of ``word``, falling back to the garbage phone."""
        if word == self.unk_word:
            return (self.garbage_phone,)
        pron = self.pronunciations.get(word)
        if pron is None:
            return (self.garbage_phone,)
        return pron

    def __contains__(self, word: str) -> bool:
        return word == self.unk_word or word in self.pronunciations

    def restricted_to(self, words: Iterable[str]) -> "Lexicon":
        """Sub-lexicon over the given words (unknown words skipped)."""
        kept = {w: self.pronunciations[w] for w in words if w in self.pronunciations}
        return Lexicon(kept, self.silence_phone, self.garbage_phone, self.unk_word)


def grapheme_pronunciation(word: str) -> tuple[str, ...]:
    """Unicode scalar sequence of the word, minus hyphens and apostrophes."""
    return tuple(ch for ch in word if ch not in PRON_DROP_CHARS)


def graphemic_lexicon(words: Wordlist | Iterable[str]) -> tuple[Lexicon, list[str]]:
    """Build the graphemic lexicon; returns (lexicon, rejected words).

    A word is rejected when its pronunciation would be empty (e.g. "-").
    """
    if isinstance(words, Wordlist):
        words = words.entries.keys()
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
        fh.write(f"{lex.unk_word}\t{lex.garbage_phone}\n")
        for word in lex.words:
            fh.write(f"{word}\t{' '.join(lex.pronunciations[word])}\n")


def read_lexicon(path) -> Lexicon:
    pronunciations: dict[str, tuple[str, ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[1].strip():
                raise ValueError(f"{path}:{lineno}: expected 'WORD<TAB>G1 G2 ...'")
            word, pron_text = parts
            if word == UNK_WORD:
                continue
            pronunciations[word] = tuple(pron_text.split())
    return Lexicon(pronunciations)
