"""Backoff n-gram language models (orders 1..4) with ARPA serialization.

Models are estimated in interpolated Witten-Bell form and stored as a
standard backoff model.  Backoff weights are computed as (1 - sum of
stored probs) / (1 - sum of their lower-order probs), which makes every
context distribution sum to one by construction.

Sentence boundaries are implicit: each input line gets <s>/</s>.  Out of
vocabulary words score through <UNK>; an ARPA file's own <unk> (KenLM's
spelling) is read as <UNK>.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

logger = logging.getLogger(__name__)

BOS = "<s>"
EOS = "</s>"
UNK = "<UNK>"

LOG10_PLACEHOLDER = -99.0  # conventional stand-in for the unpredictable <s>

ARPA_UNK = "<unk>"  # KenLM's spelling of the unknown word, read as <UNK>
BIASED_UNK_MASS = 0.01  # unigram mass a biased LM reserves for <UNK>


class LmError(ValueError):
    pass


@dataclass(frozen=True)
class NGramLM:
    """Backoff model: log10 probabilities per n-gram, log10 backoff weights."""

    order: int
    probs: Mapping[tuple[str, ...], float]
    backoffs: Mapping[tuple[str, ...], float]
    vocab: frozenset[str]  # prediction vocabulary: words + </s> + <UNK>

    def map_word(self, word: str) -> str:
        return word if word in self.vocab else UNK

    def logp(self, history: Sequence[str], word: str) -> float:
        """log10 P(word | history) with standard backoff recursion."""
        w = self.map_word(word)
        h = tuple(
            t if (t == BOS or t in self.vocab) else UNK for t in history
        )[max(0, len(history) - (self.order - 1)):]
        total_bow = 0.0
        while h:
            p = self.probs.get(h + (w,))
            if p is not None:
                return total_bow + p
            total_bow += self.backoffs.get(h, 0.0)
            h = h[1:]
        try:
            return total_bow + self.probs[(w,)]
        except KeyError:
            raise LmError(
                f"cannot score {word!r}: the model has no unigram {w!r}"
            ) from None

    def sentence_logp(self, tokens: Sequence[str], add_bounds: bool = True) -> float:
        history: tuple[str, ...] = (BOS,) if add_bounds else ()
        total = 0.0
        seq = list(tokens) + ([EOS] if add_bounds else [])
        for word in seq:
            total += self.logp(history, word)
            history = history + (self.map_word(word),)
        return total

    def context_sum(self, history: Sequence[str]) -> float:
        """Sum of P(w|history) over the full prediction vocabulary."""
        return sum(10.0 ** self.logp(history, w) for w in self.vocab)


@dataclass(frozen=True)
class PerplexityReport:
    log10_total: float
    n_tokens: int
    n_oov: int

    @property
    def perplexity(self) -> float:
        return 10.0 ** (-self.log10_total / self.n_tokens)


# ---------------------------------------------------------------------------
# counting

def ngram_counts(
    sentences: Sequence[Sequence[str]], order: int
) -> list[dict[tuple[str, ...], dict[str, int]]]:
    """Raw counts per order: counts[k][history][word] for (k+1)-grams.

    <s> is never a predicted word, only a context.
    """
    counts: list[dict[tuple[str, ...], dict[str, int]]] = [
        {} for _ in range(order)
    ]
    for tokens in sentences:
        seq = (BOS, *tokens, EOS)
        for n in range(1, order + 1):
            table = counts[n - 1]
            for i in range(len(seq) - n + 1):
                ngram = seq[i : i + n]
                if ngram[-1] == BOS:
                    continue
                history, word = ngram[:-1], ngram[-1]
                bucket = table.setdefault(history, {})
                bucket[word] = bucket.get(word, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# training

def train_ngram(
    sentences: Iterable[Sequence[str]],
    order: int,
    map_singletons_to_unk: bool = True,
    unk_mass: float | None = None,
) -> NGramLM:
    """Estimate a backoff n-gram model from token sentences.

    ``map_singletons_to_unk`` replaces singleton types with <UNK> before
    counting so the unknown word gets a data-driven estimate.
    ``unk_mass``, if set, reserves at least that unigram probability for
    <UNK> by mixing at the unigram level.
    """
    if not 1 <= order <= 4:
        raise LmError(f"order must be 1..4, got {order}")
    sents = [tuple(s) for s in sentences if len(s) > 0]
    if not sents:
        raise LmError("empty corpus")

    if map_singletons_to_unk:
        freq: dict[str, int] = {}
        for s in sents:
            for t in s:
                freq[t] = freq.get(t, 0) + 1
        if any(c > 1 for c in freq.values()):
            sents = [
                tuple(t if freq[t] > 1 else UNK for t in s) for s in sents
            ]

    vocab = {t for s in sents for t in s}
    vocab.update([EOS, UNK])
    if not vocab - {EOS, UNK}:
        logger.warning("vocabulary contains no corpus words, only specials")
    vocab_list = sorted(vocab)

    counts = ngram_counts(sents, order)

    unigram, ngram_probs = _estimate_witten_bell(counts, vocab_list)

    if unk_mass is not None:
        if not 0.0 < unk_mass < 1.0:
            raise LmError(f"unk_mass must be in (0, 1), got {unk_mass}")
        unigram = {
            w: (1.0 - unk_mass) * p + (unk_mass if w == UNK else 0.0)
            for w, p in unigram.items()
        }
        # higher orders re-derived against the mixed unigram
        _, ngram_probs = _estimate_witten_bell(counts, vocab_list, unigram)

    return _to_backoff_model(order, counts, unigram, ngram_probs, vocab)


def _estimate_witten_bell(
    counts, vocab_list, unigram_override: dict[str, float] | None = None
) -> tuple[dict[str, float], dict[tuple[str, ...], float]]:
    uni_counts = counts[0].get((), {})
    total = sum(uni_counts.values())
    n_types = len(uni_counts)
    if total == 0:
        raise LmError("no unigram events counted")
    q = 1.0 / len(vocab_list)
    if unigram_override is None:
        unigram = {
            w: (uni_counts.get(w, 0) + n_types * q) / (total + n_types)
            for w in vocab_list
        }
    else:
        unigram = unigram_override

    ngram_probs: dict[tuple[str, ...], float] = {}
    prev_level: dict[tuple[str, ...], float] = {(w,): p for w, p in unigram.items()}
    for k in range(1, len(counts)):
        level: dict[tuple[str, ...], float] = {}
        for history, words in counts[k].items():
            h_total = sum(words.values())
            h_types = len(words)
            shorter = history[1:]
            for word, count in words.items():
                p_low = prev_level.get(shorter + (word,))
                if p_low is None:
                    p_low = unigram[word]
                level[history + (word,)] = (count + h_types * p_low) / (
                    h_total + h_types
                )
        ngram_probs.update(level)
        prev_level = level
    return unigram, ngram_probs


def _to_backoff_model(
    order, counts, unigram, ngram_probs, vocab
) -> NGramLM:
    probs: dict[tuple[str, ...], float] = {}
    for w, p in unigram.items():
        probs[(w,)] = math.log10(max(p, 1e-99))
    probs[(BOS,)] = LOG10_PLACEHOLDER
    linear: dict[tuple[str, ...], float] = dict(ngram_probs)
    for ngram, p in linear.items():
        probs[ngram] = math.log10(max(p, 1e-99))

    def stored_linear(ngram: tuple[str, ...]) -> float:
        if len(ngram) == 1:
            return unigram.get(ngram[0], 0.0)
        return linear.get(ngram, 0.0)

    backoffs: dict[tuple[str, ...], float] = {}
    for k in range(1, order):
        for history, words in counts[k].items():
            s_here = 0.0
            s_lower = 0.0
            for word in words:
                s_here += stored_linear(history + (word,))
                s_lower += stored_linear(history[1:] + (word,))
            if abs(1.0 - s_lower) < 1e-12 or s_here >= 1.0:
                bow = 1.0
            else:
                bow = (1.0 - s_here) / (1.0 - s_lower)
            if bow <= 0.0:
                bow = 1e-12
            if abs(bow - 1.0) > 1e-15:
                backoffs[history] = math.log10(bow)
    return NGramLM(
        order=order,
        probs=probs,
        backoffs=backoffs,
        vocab=frozenset(vocab),
    )


def biased_lm(
    transcript_sentences: Iterable[Sequence[str]],
    unk_mass: float = BIASED_UNK_MASS,
) -> NGramLM:
    """Bigram model over one recording's transcript with reserved <UNK> mass."""
    sents = [tuple(s) for s in transcript_sentences if len(s) > 0]
    if not sents:
        raise LmError("empty transcript")
    return train_ngram(
        sents,
        order=2,
        map_singletons_to_unk=False,
        unk_mass=unk_mass,
    )


# ---------------------------------------------------------------------------
# evaluation

def perplexity(
    lm: NGramLM, sentences: Iterable[Sequence[str]], add_bounds: bool = True
) -> PerplexityReport:
    log_total = 0.0
    n_tokens = 0
    n_oov = 0
    for tokens in sentences:
        history: tuple[str, ...] = (BOS,) if add_bounds else ()
        seq = list(tokens) + ([EOS] if add_bounds else [])
        for word in seq:
            if word != EOS and word not in lm.vocab:
                n_oov += 1
            log_total += lm.logp(history, word)
            history = history + (lm.map_word(word),)
            n_tokens += 1
    if n_tokens == 0:
        raise LmError("empty text")
    return PerplexityReport(
        log10_total=log_total, n_tokens=n_tokens, n_oov=n_oov
    )


# ---------------------------------------------------------------------------
# ARPA I/O

def write_arpa(lm: NGramLM, path) -> None:
    by_order: list[list[tuple[tuple[str, ...], float]]] = [
        [] for _ in range(lm.order)
    ]
    for ngram, logp in lm.probs.items():
        by_order[len(ngram) - 1].append((ngram, logp))
    for bucket in by_order:
        bucket.sort(key=lambda item: item[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        for n in range(lm.order):
            fh.write(f"ngram {n + 1}={len(by_order[n])}\n")
        for n in range(lm.order):
            fh.write(f"\n\\{n + 1}-grams:\n")
            for ngram, logp in by_order[n]:
                line = f"{logp!r}\t{' '.join(ngram)}"
                bow = lm.backoffs.get(ngram)
                if bow is not None:
                    line += f"\t{bow!r}"
                fh.write(line + "\n")
        fh.write("\n\\end\\\n")


def read_arpa(path) -> NGramLM:
    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    declared: dict[int, int] = {}
    seen: dict[int, int] = {}
    section = None
    got_end = False
    with open(path, encoding="utf-8") as fh:
        lines = iter(enumerate(fh, start=1))
        for lineno, line in lines:
            line = line.strip()
            if not line:
                continue
            if line == "\\data\\":
                section = "data"
                continue
            if line == "\\end\\":
                got_end = True
                break
            if line.endswith("-grams:") and line.startswith("\\"):
                section = int(line[1:].split("-")[0])
                seen.setdefault(section, 0)
                continue
            if section == "data":
                if not line.startswith("ngram "):
                    raise LmError(f"{path}:{lineno}: bad data-section line {line!r}")
                n_text, count_text = line[len("ngram "):].split("=")
                declared[int(n_text)] = int(count_text)
                continue
            if not isinstance(section, int):
                raise LmError(f"{path}:{lineno}: entry outside any section")
            parts = line.split("\t")
            if len(parts) == 1:
                parts = line.split()
                parts = [parts[0], " ".join(parts[1 : 1 + section])] + parts[
                    1 + section :
                ]
            if len(parts) not in (2, 3):
                raise LmError(f"{path}:{lineno}: malformed n-gram line {line!r}")
            ngram = tuple(UNK if w == ARPA_UNK else w for w in parts[1].split())
            if len(ngram) != section:
                raise LmError(
                    f"{path}:{lineno}: {len(ngram)}-gram in \\{section}-grams: section"
                )
            if ngram in probs:
                raise LmError(f"{path}:{lineno}: duplicate n-gram {parts[1]!r}")
            probs[ngram] = float(parts[0])
            if len(parts) == 3:
                backoffs[ngram] = float(parts[2])
            seen[section] += 1
    if not got_end:
        where = f"\\{section}-grams:" if isinstance(section, int) else "header"
        raise LmError(f"{path}: truncated file (no \\end\\ after {where})")
    for n, count in declared.items():
        if seen.get(n, 0) != count:
            raise LmError(
                f"{path}: \\{n}-grams: declared {count} entries, found {seen.get(n, 0)}"
            )
    order = max(declared) if declared else max(len(g) for g in probs)
    vocab = {g[0] for g in probs if len(g) == 1 and g[0] != BOS}
    vocab.update([EOS, UNK])
    return NGramLM(
        order=order,
        probs=probs,
        backoffs=backoffs,
        vocab=frozenset(vocab),
    )
