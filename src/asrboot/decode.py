"""Time-synchronous beam-search decoding over a lexicon prefix tree.

Tokens are plain tuples (tree position, LM history, word start frame,
backpointer, total, acoustic and LM scores) in Python lists: a frame holds
a few dozen tokens, where list indexing costs far less than a numpy call
(numpy catches up at a few hundred tokens per frame).  The search needs no
lexicon: the prefix tree holds the pronunciations and the silence phone is
``lexicon.SILENCE_PHONE``.  An optional silence before each word and after
the last is taken with probability ``am.SIL_PRIOR``, the prior forced
alignment and training use, so `DecodeConfig` holds only the search
settings: beam, token cap and LM scale.  The n-gram LM is applied at word
boundaries, scaled into natural log: `NGramLM.step` gives the score and
the history the next query needs, cached per (history, word), and the
utterance end is one more step, to </s>.

Every frame, frame 0 included (from one empty-history word end), is one
`_Decoder._step` over the last frame's tokens and word ends, then
`_word_ends` over its survivors.  The step holds its candidates against a
running best total as they are made, as Kaldi's ``ProcessEmitting`` does:
one below that best less the beam is never built, and the self-loops are
scored first so the best starts high.  The best only rises, so this cut
drops nothing the beam keeps.  One pass over the candidates then applies
the beam around the frame's best total and recombination: one token per
(position, LM history), picked by `_Decoder._beats`, the one tie rule,
which also picks the utterance end.  The beam may go first because a
key's winner is its highest total.  Of the winners, the `max_active`
highest totals survive, the earlier token winning a tie at the cut.  A NaN
score passes no comparison, so a NaN frame builds no candidate and empties
the beam; a `DecodeError` names the frame whose beam empties.

A word's start frame is the frame its first grapheme is entered, after
any silence: a token leaving the SIL exit takes the current frame as its
word start, so a word's interval never holds the pause before it.

Scores are added in a fixed order, so decoding is deterministic bit for
bit.  When no token reaches an utterance-final state, the best token's
completed words come back as a hypothesis flagged ``partial``.

`decode` keeps its compiled `_Decoder`, one per thread, and builds a new
one only when the model, LM or tree is another object or the config is
not equal, as Kaldi compiles a decoding graph once for many utterances.
The decoder holds what depends on those alone: the flat network and the
model's Gaussian table (`am._emission_table`).  Each utterance starts
afresh with its own backpointer table, LM-history numbering and LM-step
cache, so a kept decoder gives what a new one gives, bit for bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .am import (
    SIL_PRIOR,
    AcousticModel,
    Interval,
    _emission_table,
    state_logliks,
)
from .features import FeatureMatrix, check_count
from .lexicon import SILENCE_PHONE, UNK_WORD, Lexicon
from .lm import BOS, EOS, NGramLM

LN10 = math.log(10.0)


class DecodeError(RuntimeError):
    """Nothing to decode: zero frames, or the beam emptied (a NaN score
    prunes every token).  A search that ends with no token in a final
    state is not an error; it gives a partial hypothesis."""


@dataclass(frozen=True)
class DecodeConfig:
    beam: float = 16.0
    max_active: int = 7000
    lm_scale: float = 12.0

    def __post_init__(self):
        # beam = inf keeps every token; NaN compares false and is rejected
        if not self.beam > 0:
            raise ValueError(f"beam must be > 0, got {self.beam}")
        check_count("max_active", self.max_active)
        if not math.isfinite(self.lm_scale):
            raise ValueError(f"lm_scale must be finite, got {self.lm_scale}")


@dataclass(frozen=True)
class Hypothesis:
    words: tuple[str, ...]
    word_intervals: tuple[Interval, ...]
    acoustic_score: float
    lm_score: float  # log10, unscaled
    total_score: float
    # no token reached an utterance-final state: the words are those the
    # best token had completed and the scores are its own
    partial: bool = False


# ---------------------------------------------------------------------------
# lexicon prefix tree

@dataclass
class LexTree:
    """Trie over pronunciations as flat lists, one entry per node; node 0
    is the root."""

    phones: list[str | None]  # each node's grapheme, None at the root
    children: list[list[int]]  # each node's children, in grapheme order
    words: list[list[str]]  # the words that end at each node, sorted


def build_prefix_tree(lexicon: Lexicon, include_unk: bool = False) -> LexTree:
    """Trie over grapheme pronunciations; nodes carry word identities."""
    if not lexicon.pronunciations and not include_unk:
        raise ValueError("empty lexicon")
    phones: list[str | None] = [None]
    edges: list[dict[str, int]] = [{}]
    words: list[list[str]] = [[]]
    entries = [(w, lexicon.pronunciations[w]) for w in lexicon.words]
    if include_unk:
        entries.append((UNK_WORD, lexicon.pron(UNK_WORD)))
    for word, pron in entries:
        current = 0
        for grapheme in pron:
            nxt = edges[current].get(grapheme)
            if nxt is None:
                nxt = edges[current][grapheme] = len(phones)
                phones.append(grapheme)
                edges.append({})
                words.append([])
            current = nxt
        words[current].append(word)
    return LexTree(
        phones=phones,
        children=[[child for _, child in sorted(e.items())] for e in edges],
        words=[sorted(w) for w in words],
    )


# ---------------------------------------------------------------------------
# token passing
#
# A token is a tuple (position, LM history id, word start frame,
# backpointer, total score, acoustic score, LM score in log10).  The word
# start is the frame the word's first grapheme is entered, after any
# silence.

_POS, _HIST, _BP, _SCORE, _ASCORE = 0, 1, 3, 4, 5


class _Decoder:
    """Token passing over the tree compiled to flat per-position lists.

    Positions are node-major: tree node i >= 1 owns positions (i - 1) *
    n_states onwards, one per state of its phone; the SIL positions come
    last.  An exit (a phone's last state) enters the first positions of its
    node's children, the SIL exit those of the root's, and a word starts at
    a root child (skipping the silence) or at the first SIL position.

    Built once per (model, LM, tree, config) and reused for any number of
    utterances: the network, the transitions and the model's Gaussian
    table are fixed at construction; `_reset`, at the start of every
    `decode`, clears the per-utterance state (backpointers, LM histories
    and the LM-step cache).
    """

    def __init__(self, model, lm, tree, cfg):
        self.model = model
        self.lm = lm
        self.tree = tree
        self.cfg = cfg
        self.lm_w = cfg.lm_scale * LN10
        self.log_skip = math.log(1.0 - SIL_PRIOR)
        n = model.n_states
        self.pos_state = [s for ph in tree.phones[1:] for s in model.states_for(ph)]
        sil_first = len(self.pos_state)
        self.pos_state += model.states_for(SILENCE_PHONE)
        n_pos = len(self.pos_state)
        self.sil_exit = n_pos - 1
        self.is_exit = [p % n == n - 1 for p in range(n_pos)]
        self.succ = [[] if self.is_exit[p] else [p + 1] for p in range(n_pos)]
        self.ends_word: list[list[str]] = [[] for _ in range(n_pos)]
        for node in range(1, len(tree.phones)):
            self.succ[node * n - 1] = [(kid - 1) * n for kid in tree.children[node]]
            self.ends_word[node * n - 1] = tree.words[node]
        self.succ[self.sil_exit] = [(kid - 1) * n for kid in tree.children[0]]
        self.starts = [(p, self.log_skip) for p in self.succ[self.sil_exit]]
        self.starts.append((sil_first, math.log(SIL_PRIOR)))
        # the decoder's states are the columns of its emission matrix
        states, pos_col = np.unique(self.pos_state, return_inverse=True)
        self.states, self.pos_col = states.tolist(), pos_col.tolist()
        log_trans = model.log_transitions()[self.pos_state]
        self.log_self = log_trans[:, 0].tolist()
        self.log_fwd = log_trans[:, 1].tolist()
        self.table = _emission_table(model)
        self._reset()

    def _reset(self) -> None:
        """Start an utterance: an empty backpointer table, and the LM
        histories numbered afresh from <s> with an empty step cache, so
        each utterance's history ids are those of a new decoder."""
        # backpointers: (previous backpointer, word, start frame, end frame)
        self.bp_table: list[tuple[int, str, int, int]] = []
        # LM histories: id -> the context the LM asks for (starting from <s>)
        self.histories: list[tuple[str, ...]] = [(BOS,)]
        self.hist_ids: dict[tuple[str, ...], int] = {(BOS,): 0}
        self.lm_cache: dict[tuple[int, str], tuple[float, int]] = {}

    def lm_step(self, hist_id: int, word: str) -> tuple[float, int]:
        key = (hist_id, word)
        hit = self.lm_cache.get(key)
        if hit is not None:
            return hit
        logp, new_hist = self.lm.step(self.histories[hist_id], word)
        nid = self.hist_ids.get(new_hist)
        if nid is None:
            nid = len(self.histories)
            self.histories.append(new_hist)
            self.hist_ids[new_hist] = nid
        self.lm_cache[key] = (logp, nid)
        return logp, nid

    def decode(self, feats: FeatureMatrix) -> Hypothesis:
        n_frames = feats.n_frames
        if n_frames == 0:
            raise DecodeError("no frames to decode")
        self._reset()
        emis = state_logliks(self.model, feats.frames, self.states, self.table)[0]
        # each frame's row is read through a view of the (T, U) matrix: no
        # T x U Python floats are built, and each read is the stored double
        n_cols = emis.shape[1]
        flat = memoryview(emis.reshape(-1))
        # frame 0 enters the word starts from one empty-history word end
        tokens, ends = [], [(0, 0, 0, -1, 0.0, 0.0, 0.0)]
        for t in range(n_frames):
            tokens = self._step(tokens, ends, t, flat[t * n_cols : (t + 1) * n_cols])
            if not tokens:
                raise DecodeError(f"beam emptied at frame {t}")
            ends = self._word_ends(tokens, t + 1)
        return self._finalize(tokens, ends, feats.frame_shift)

    # -- one frame ---------------------------------------------------------

    def _step(
        self, tokens: list[tuple], ends: list[tuple], t: int, emit: Sequence[float]
    ) -> list[tuple]:
        """Frame t's surviving tokens, in the order they were built.

        The candidates are the self-loops, steps within a phone and phone
        entries of `tokens`, then the word starts entered from the word ends
        `ends`, each scored with frame t's emissions `emit`, a sequence
        indexed by column.  The self-loops go first, so the running best
        `top` starts high; a candidate below `top` less the beam is never
        built, and one built before `top` rose past it is dropped in the
        pass that recombines.  That pass keeps the `_beats` winner per
        (position, LM history); of the winners, the `max_active` highest
        totals survive, the earlier token winning a tie at the cut.
        """
        col, log_self, log_fwd = self.pos_col, self.log_self, self.log_fwd
        is_exit, succ, beam = self.is_exit, self.succ, self.cfg.beam
        sil_exit = self.sil_exit
        cands, inner, exits = [], [], []
        top = -math.inf
        for pos, hist, start, bp, score, ascore, lscore in tokens:
            stay, e = log_self[pos], emit[col[pos]]
            total = score + stay + e
            if total >= top - beam:
                if total > top:
                    top = total
                cands.append((pos, hist, start, bp, total, ascore + stay + e, lscore))
        cut = top - beam
        for pos, hist, start, bp, score, ascore, lscore in tokens:
            fwd = log_fwd[pos]
            moves = exits if is_exit[pos] else inner
            if pos == sil_exit:  # the word after a silence starts now
                start = t
            for nxt in succ[pos]:
                e = emit[col[nxt]]
                total = score + fwd + e
                if total >= cut:
                    if total > top:
                        top = total
                        cut = top - beam
                    moves.append((nxt, hist, start, bp, total, ascore + fwd + e, lscore))
        cands += inner
        cands += exits
        for _, hist, start, bp, score, ascore, lscore in ends:
            for q, prior in self.starts:
                e = emit[col[q]]
                total = score + prior + e
                if total >= cut:
                    if total > top:
                        top = total
                        cut = top - beam
                    cands.append((q, hist, start, bp, total, ascore + prior + e, lscore))
        n_pos = len(self.pos_state)
        best: dict[int, int] = {}
        for i, tok in enumerate(cands):
            if tok[_SCORE] >= cut:
                key = tok[_HIST] * n_pos + tok[_POS]
                j = best.get(key)
                if j is None or self._beats(tok, cands[j]):
                    best[key] = i
        tokens = [cands[i] for i in sorted(best.values())]
        cap = self.cfg.max_active
        if len(tokens) > cap:
            # a stable sort keeps tied tokens in order, also with reverse
            ranked = sorted(range(len(tokens)), key=lambda i: tokens[i][_SCORE],
                            reverse=True)
            tokens = [tokens[i] for i in sorted(ranked[:cap])]
        return tokens

    def _word_ends(self, tokens: list[tuple], t: int) -> list[tuple]:
        """A token per word ending at an exit in `tokens`, closed at frame t.

        Applies the exit transition and the LM step, and records the word's
        backpointer.
        """
        ends = []
        for pos, hist, start, bp, score, ascore, lscore in tokens:
            words = self.ends_word[pos]
            if not words:
                continue
            fwd = self.log_fwd[pos]
            for word in words:
                logp, new_hist = self.lm_step(hist, word)
                ends.append((pos, new_hist, t, len(self.bp_table),
                             score + fwd + self.lm_w * logp, ascore + fwd,
                             lscore + logp))
                self.bp_table.append((bp, word, start, t))
        return ends

    # -- the tie rule --------------------------------------------------------

    def _backtrace(self, bp: int) -> list[tuple[int, str, int, int]]:
        """Backpointer entries of a word sequence, first word first."""
        trace = []
        while bp >= 0:
            trace.append(self.bp_table[bp])
            bp = trace[-1][0]
        return trace[::-1]

    def _beats(self, tok: tuple, cur: tuple) -> bool:
        """Whether `tok` outranks `cur`: a higher total score, then a higher
        acoustic score, then the lexicographically earlier word sequence.
        On a full tie it does not, so the earlier token keeps its place."""
        return tok[_SCORE] > cur[_SCORE] or tok[_SCORE] == cur[_SCORE] and (
            tok[_ASCORE] > cur[_ASCORE] or tok[_ASCORE] == cur[_ASCORE]
            and [entry[1] for entry in self._backtrace(tok[_BP])]
            < [entry[1] for entry in self._backtrace(cur[_BP])]
        )

    # -- finalization --------------------------------------------------------

    def _finalize(
        self, tokens: list[tuple], word_ends: list[tuple], frame_shift: float
    ) -> Hypothesis:
        """Best utterance end: a SIL exit in the last frame's `tokens`, or
        one of its `word_ends`; failing both, the best token as a partial
        hypothesis."""
        # a SIL exit leaves with its forward transition, a word end by
        # skipping the last silence; both then take the LM step to </s>
        ends = [(tok, self.log_fwd[self.sil_exit]) for tok in tokens
                if tok[_POS] == self.sil_exit]
        ends += [(tok, self.log_skip) for tok in word_ends]
        cands = []
        for (pos, hist, start, bp, score, ascore, lscore), leave in ends:
            eos, _ = self.lm_step(hist, EOS)
            cands.append((pos, hist, start, bp, score + leave + self.lm_w * eos,
                          ascore + leave, lscore + eos))
        if not cands:
            cands = tokens  # a partial hypothesis: the open word is dropped
        best = cands[0]
        for tok in cands[1:]:
            if self._beats(tok, best):
                best = tok
        _, _, _, bp, total, ascore, lmscore = best
        trace = self._backtrace(bp)
        return Hypothesis(
            words=tuple(word for _, word, _, _ in trace),
            word_intervals=tuple(
                Interval(word, ws * frame_shift, we * frame_shift)
                for _, word, ws, we in trace
            ),
            acoustic_score=ascore,
            lm_score=lmscore,
            total_score=total,
            partial=not ends,
        )


# the decoder kept between `decode` calls, one per thread
_kept = threading.local()


def decode(
    model: AcousticModel,
    lm: NGramLM,
    tree: LexTree,
    feats: FeatureMatrix,
    cfg: DecodeConfig = DecodeConfig(),
    lexicon: Lexicon | None = None,
) -> Hypothesis:
    """1-best decoding of one utterance.  ``lexicon`` is ignored (the tree
    holds the pronunciations); the benchmark harness still passes it.

    The compiled decoder is kept, one per thread, and reused while
    ``model``, ``lm`` and ``tree`` are the same objects as in the last
    call and ``cfg`` is equal to its config; otherwise a new one is built.
    The three are read, not copied, and the kept decoder holds them until
    a call with others replaces it: changing one of them in place between
    calls is not supported."""
    dec = getattr(_kept, "decoder", None)
    if (dec is None or dec.model is not model or dec.lm is not lm
            or dec.tree is not tree or dec.cfg != cfg):
        dec = _kept.decoder = _Decoder(model, lm, tree, cfg)
    return dec.decode(feats)

