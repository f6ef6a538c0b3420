"""Time-synchronous beam-search decoding over a lexicon prefix tree.

Tokens carry (tree position, HMM state, LM history, scores, backtrace);
the n-gram LM is applied at word boundaries, scaled into natural log.
Pruning is a log-likelihood beam plus a max-active token cap per frame.
Ties break on higher acoustic score, then lexicographically earlier word
sequence, so decoding is deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .am import AcousticModel, Interval, state_logliks
from .features import FeatureMatrix
from .lexicon import Lexicon
from .lm import BOS, EOS, NGramLM

LN10 = math.log(10.0)


class DecodeError(RuntimeError):
    """No surviving tokens: the beam pruned every path."""


@dataclass(frozen=True)
class DecodeConfig:
    beam: float = 16.0
    max_active: int = 7000
    lm_scale: float = 12.0
    word_insertion_penalty: float = 0.0
    sil_prior: float = 0.5

    def __post_init__(self):
        if self.beam <= 0:
            raise ValueError("beam must be > 0")
        if self.max_active < 1:
            raise ValueError("max_active must be >= 1")
        if not 0.0 < self.sil_prior < 1.0:
            raise ValueError(f"sil_prior must be in (0, 1), got {self.sil_prior}")


@dataclass(frozen=True)
class Hypothesis:
    words: tuple[str, ...]
    word_intervals: tuple[Interval, ...]
    acoustic_score: float
    lm_score: float  # log10, unscaled
    total_score: float

    def text(self) -> str:
        return " ".join(self.words)


# ---------------------------------------------------------------------------
# lexicon prefix tree

@dataclass
class LexNode:
    phone: str | None
    parent: int
    children: dict[str, int] = field(default_factory=dict)
    words: list[str] = field(default_factory=list)


@dataclass
class LexTree:
    nodes: list[LexNode]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> LexNode:
        return self.nodes[0]


def build_prefix_tree(lexicon: Lexicon, include_unk: bool = False) -> LexTree:
    """Trie over grapheme pronunciations; leaves carry word identities."""
    if not lexicon.pronunciations and not include_unk:
        raise ValueError("empty lexicon")
    nodes = [LexNode(phone=None, parent=-1)]
    entries = [(w, lexicon.pronunciations[w]) for w in lexicon.words]
    if include_unk:
        entries.append((lexicon.unk_word, (lexicon.garbage_phone,)))
    for word, pron in entries:
        current = 0
        for grapheme in pron:
            nxt = nodes[current].children.get(grapheme)
            if nxt is None:
                nxt = len(nodes)
                nodes.append(LexNode(phone=grapheme, parent=current))
                nodes[current].children[grapheme] = nxt
            current = nxt
        nodes[current].words.append(word)
    for node in nodes:
        node.words.sort()
    return LexTree(nodes)


# ---------------------------------------------------------------------------
# compiled decoding network

@dataclass
class _Network:
    """Flattened (tree node, hmm state) positions plus SIL positions."""

    pos_state: np.ndarray  # model state id per position
    pos_node: np.ndarray  # tree node per position (-1 for SIL)
    is_exit: np.ndarray  # last HMM state of its phone
    ends_word: np.ndarray  # exit of a tree node that carries words
    succ_ptr: np.ndarray  # CSR row offsets into succ_pos, one row per position
    succ_pos: np.ndarray  # first positions an exit enters (empty row if inner)
    starts: np.ndarray  # positions entered at a word start: root children, SIL
    start_prior: np.ndarray  # log prior of skipping / taking the silence
    sil_exit: int


def _resolve_states(
    model: AcousticModel, tree: LexTree, node_index: int, lexicon: Lexicon
) -> tuple[int, ...]:
    """Context-dependent states where the trie makes the context unambiguous."""
    node = tree.nodes[node_index]
    parent = tree.nodes[node.parent]
    left = parent.phone if parent.phone is not None else lexicon.silence_phone
    if not node.children:
        right = lexicon.silence_phone
    elif len(node.children) == 1 and not node.words:
        right = next(iter(node.children))
    else:
        return model.states_for(node.phone)  # ambiguous: monophone fallback
    return model.states_for(node.phone, left, right)


def _compile(
    model: AcousticModel, tree: LexTree, lexicon: Lexicon,
    log_skip: float, log_take: float,
) -> _Network:
    n_states = model.n_states
    pos_state: list[int] = []
    pos_node: list[int] = []
    first_pos: dict[int, int] = {}
    for idx in range(1, tree.n_nodes):
        first_pos[idx] = len(pos_state)
        pos_state.extend(_resolve_states(model, tree, idx, lexicon))
        pos_node.extend([idx] * n_states)
    sil_first = len(pos_state)
    pos_state.extend(model.states_for(lexicon.silence_phone))
    pos_node.extend([-1] * n_states)
    is_exit = np.zeros(len(pos_state), dtype=bool)
    is_exit[n_states - 1 :: n_states] = True

    def entries(node: LexNode) -> list[int]:
        return [first_pos[child] for _, child in sorted(node.children.items())]

    # a phone exit enters its tree children; the SIL exit enters the root's
    rows: list[list[int]] = [[] for _ in pos_state]
    ends_word = np.zeros(len(pos_state), dtype=bool)
    for idx, first in first_pos.items():
        rows[first + n_states - 1] = entries(tree.nodes[idx])
        ends_word[first + n_states - 1] = bool(tree.nodes[idx].words)
    sil_exit = sil_first + n_states - 1
    rows[sil_exit] = entries(tree.root)
    succ_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    succ_ptr[1:] = np.cumsum([len(row) for row in rows])
    starts = rows[sil_exit] + [sil_first]
    return _Network(
        pos_state=np.array(pos_state, dtype=np.int64),
        pos_node=np.array(pos_node, dtype=np.int64),
        is_exit=is_exit,
        ends_word=ends_word,
        succ_ptr=succ_ptr,
        succ_pos=np.array([p for row in rows for p in row], dtype=np.int64),
        starts=np.array(starts, dtype=np.int64),
        start_prior=np.array([log_skip] * (len(starts) - 1) + [log_take]),
        sil_exit=sil_exit,
    )


# ---------------------------------------------------------------------------
# token passing

class _Tokens:
    """Token store, one row per token.

    ``ints`` columns: position, LM history id, word start frame, backpointer.
    ``floats`` columns: total score, acoustic score, LM score (log10).
    """

    __slots__ = ("ints", "floats")

    def __init__(self, ints: np.ndarray, floats: np.ndarray):
        self.ints = ints
        self.floats = floats

    pos = property(lambda self: self.ints[:, 0])
    hist = property(lambda self: self.ints[:, 1])
    bp = property(lambda self: self.ints[:, 3])
    score = property(lambda self: self.floats[:, 0])
    ascore = property(lambda self: self.floats[:, 1])

    def __len__(self):
        return len(self.ints)

    def take(self, idx) -> "_Tokens":
        return _Tokens(self.ints[idx], self.floats[idx])

    def moved(self, idx, pos, step) -> "_Tokens":
        """Tokens `idx` moved to `pos`, with `step` added to total and
        acoustic score; `idx` is an index array or mask, so this copies."""
        ints, floats = self.ints[idx], self.floats[idx]
        ints[:, 0] = pos
        floats[:, :2] += step[:, None]
        return _Tokens(ints, floats)

    @staticmethod
    def concat(parts: Sequence["_Tokens"]) -> "_Tokens":
        return _Tokens(
            np.concatenate([p.ints for p in parts]),
            np.concatenate([p.floats for p in parts]),
        )


class _Decoder:
    def __init__(self, model, lm, tree, lexicon, cfg):
        self.model = model
        self.lm = lm
        self.tree = tree
        self.cfg = cfg
        self.lm_w = cfg.lm_scale * LN10
        self.log_skip = math.log(1.0 - cfg.sil_prior)
        self.net = _compile(
            model, tree, lexicon, self.log_skip, math.log(cfg.sil_prior)
        )
        log_trans = model.log_transitions()
        self.log_self = log_trans[self.net.pos_state, 0]
        self.log_fwd = log_trans[self.net.pos_state, 1]
        # LM histories: id -> truncated word tuple (starting from <s>)
        self.histories: list[tuple[str, ...]] = [(BOS,)]
        self.hist_ids: dict[tuple[str, ...], int] = {(BOS,): 0}
        self.lm_cache: dict[tuple[int, str], tuple[float, int]] = {}
        # backpointers: (previous backpointer, word, start frame, end frame)
        self.bp_table: list[tuple[int, str, int, int]] = []

    def lm_step(self, hist_id: int, word: str) -> tuple[float, int]:
        key = (hist_id, word)
        hit = self.lm_cache.get(key)
        if hit is not None:
            return hit
        history = self.histories[hist_id]
        logp = self.lm.logp(history, word)
        new_hist = (history + (self.lm.map_word(word),))[
            max(0, len(history) + 1 - (self.lm.order - 1)):
        ] if self.lm.order > 1 else ()
        nid = self.hist_ids.get(new_hist)
        if nid is None:
            nid = len(self.histories)
            self.histories.append(new_hist)
            self.hist_ids[new_hist] = nid
        self.lm_cache[key] = (logp, nid)
        return logp, nid

    def eos_logp(self, hist_id: int) -> float:
        return self.lm.logp(self.histories[hist_id], EOS)

    def decode(self, feats: FeatureMatrix) -> Hypothesis:
        net = self.net
        n_frames = feats.n_frames
        if n_frames == 0:
            raise DecodeError("no frames to decode")
        emis, col = state_logliks(self.model, feats.frames, net.pos_state)
        pos_col = np.array([col[int(s)] for s in net.pos_state])
        # frame 0 enters the word starts from one empty-history token
        tokens = self._enter_starts(
            _Tokens(np.array([[0, 0, 0, -1]]), np.zeros((1, 3)))
        )
        for t in range(n_frames):
            if t:
                tokens = self._expand(tokens, t)
                if len(tokens) == 0:
                    raise DecodeError(f"beam emptied at frame {t}")
            tokens.floats[:, :2] += emis[t, pos_col[tokens.pos]][:, None]
            tokens = self._prune(self._recombine(tokens))
        return self._finalize(tokens, n_frames, feats.frame_shift)

    # -- expansion ---------------------------------------------------------

    def _expand(self, tokens: _Tokens, t: int) -> _Tokens:
        """Self-loops, steps within a phone, phone entries, then word starts."""
        net = self.net
        pos = tokens.pos
        n = len(tokens)
        # array methods, not np.* wrappers: with few tokens per frame, call
        # overhead dominates
        inner = (~net.is_exit[pos]).nonzero()[0]
        lo = net.succ_ptr[pos]
        count = net.succ_ptr[pos + 1] - lo
        # the CSR rows of all tokens, flattened in token order
        exit_src = np.arange(n).repeat(count)
        edge = np.arange(len(exit_src)) + (lo - count.cumsum() + count).repeat(count)
        src = np.concatenate([inner, exit_src])
        moved = tokens.moved(
            np.concatenate([np.arange(n), src]),
            np.concatenate([pos, pos[inner] + 1, net.succ_pos[edge]]),
            np.concatenate([self.log_self[pos], self.log_fwd[pos[src]]]),
        )
        ends = self._word_ends(tokens, t)
        if len(ends) == 0:
            return moved
        return _Tokens.concat([moved, self._enter_starts(ends)])

    def _enter_starts(self, tokens: _Tokens) -> _Tokens:
        """Each token enters every word-start position with its silence prior."""
        k = len(self.net.starts)
        ints = tokens.ints.repeat(k, axis=0)
        floats = tokens.floats.repeat(k, axis=0)
        ints.reshape(-1, k, 4)[:, :, 0] = self.net.starts
        floats.reshape(-1, k, 3)[:, :, :2] += self.net.start_prior[:, None]
        return _Tokens(ints, floats)

    def _word_ends(self, tokens: _Tokens, t: int) -> _Tokens:
        """A token per word ending at an exit in `tokens`, closed at frame t.

        Applies the exit transition, the LM step and the insertion penalty,
        and records the word's backpointer.
        """
        net = self.net
        idx = net.ends_word[tokens.pos].nonzero()[0]
        if len(idx) == 0:
            return tokens.take(idx)
        src: list[int] = []
        hist: list[int] = []
        logp: list[float] = []
        bp: list[int] = []
        for i, (p, h, ws, prev) in zip(idx.tolist(), tokens.ints[idx].tolist()):
            for word in self.tree.nodes[net.pos_node[p]].words:
                word_logp, new_hist = self.lm_step(h, word)
                src.append(i)
                hist.append(new_hist)
                logp.append(word_logp)
                bp.append(len(self.bp_table))
                self.bp_table.append((prev, word, ws, t))
        rows = np.array(src, dtype=np.int64)
        pos = tokens.pos[rows]
        ends = tokens.moved(rows, pos, self.log_fwd[pos])
        ends.floats[:, 0] += self.lm_w * np.array(logp)
        ends.floats[:, :2] += self.cfg.word_insertion_penalty
        ends.floats[:, 2] += logp
        ends.ints[:, 1] = hist
        ends.ints[:, 2] = t
        ends.ints[:, 3] = bp
        return ends

    # -- recombination and pruning ------------------------------------------

    def _backtrace(self, bp: int) -> list[tuple[int, str, int, int]]:
        """Backpointer entries of a word sequence, first word first."""
        trace = []
        while bp >= 0:
            trace.append(self.bp_table[bp])
            bp = trace[-1][0]
        return trace[::-1]

    def _best(self, key: np.ndarray, tokens: _Tokens) -> np.ndarray:
        """Index of the best token per key, in key order.

        Higher total score wins, then higher acoustic score, then the
        lexicographically earlier word sequence, then the earlier token.
        """
        order = np.lexsort((-tokens.ascore, -tokens.score, key))
        key, score, ascore = key[order], tokens.score[order], tokens.ascore[order]
        head = np.ones(len(order), dtype=bool)
        head[1:] = key[1:] != key[:-1]
        keep = order[head]
        group = head.cumsum() - 1
        first = head.nonzero()[0][group]
        # tokens tied on both scores with the head of their group
        tied = (~head & (score == score[first]) & (ascore == ascore[first])).nonzero()[0]
        for j in tied:
            g = group[j]
            cand, kept = (
                [e[1] for e in self._backtrace(int(tokens.bp[i]))]
                for i in (order[j], keep[g])
            )
            if cand < kept:
                keep[g] = order[j]
        return keep

    def _recombine(self, tokens: _Tokens) -> _Tokens:
        """Keep the best token per (position, LM history)."""
        key = tokens.pos * (len(self.histories) + 1) + tokens.hist
        return tokens.take(np.sort(self._best(key, tokens)))

    def _prune(self, tokens: _Tokens) -> _Tokens:
        if len(tokens) == 0:
            return tokens
        peak = tokens.score.max()
        inside = tokens.score >= peak - self.cfg.beam
        tokens = tokens.take(inside)
        if len(tokens) > self.cfg.max_active:
            part = np.argpartition(-tokens.score, self.cfg.max_active - 1)
            tokens = tokens.take(np.sort(part[: self.cfg.max_active]))
        return tokens

    # -- finalization --------------------------------------------------------

    def _finalize(
        self, tokens: _Tokens, n_frames: int, frame_shift: float
    ) -> Hypothesis:
        """Best utterance end: a SIL exit, or a word that ends at the last frame."""
        at_sil = (tokens.pos == self.net.sil_exit).nonzero()[0]
        sil = tokens.moved(at_sil, self.net.sil_exit, self.log_fwd[tokens.pos[at_sil]])
        ends = self._word_ends(tokens, n_frames)
        ends.floats[:, :2] += self.log_skip
        cands = _Tokens.concat([sil, ends])
        if len(cands) == 0:
            raise DecodeError("no token reached an utterance-final state")
        eos = np.array([self.eos_logp(h) for h in cands.hist.tolist()])
        cands.floats[:, 0] += self.lm_w * eos
        cands.floats[:, 2] += eos
        (best,) = self._best(np.zeros(len(cands), dtype=np.int64), cands)
        total, ascore, lmscore = cands.floats[best].tolist()
        trace = self._backtrace(int(cands.bp[best]))
        return Hypothesis(
            words=tuple(word for _, word, _, _ in trace),
            word_intervals=tuple(
                Interval(word, ws * frame_shift, we * frame_shift)
                for _, word, ws, we in trace
            ),
            acoustic_score=ascore,
            lm_score=lmscore,
            total_score=total,
        )


def decode(
    model: AcousticModel,
    lm: NGramLM,
    tree: LexTree,
    feats: FeatureMatrix,
    cfg: DecodeConfig = DecodeConfig(),
    lexicon: Lexicon | None = None,
) -> Hypothesis:
    """1-best decoding of one utterance."""
    if lexicon is None:
        lexicon = Lexicon({})
    return _Decoder(model, lm, tree, lexicon, cfg).decode(feats)


@dataclass
class RtfReport:
    audio_seconds: float
    wall_seconds: float

    @property
    def rtf(self) -> float:
        return self.wall_seconds / self.audio_seconds if self.audio_seconds else 0.0


@dataclass
class CorpusDecodeResult:
    hypotheses: list[Hypothesis | None]
    errors: list[tuple[int, str]]
    rtf: RtfReport


def decode_corpus(
    model: AcousticModel,
    lm: NGramLM,
    tree: LexTree,
    batch: Sequence[FeatureMatrix],
    cfg: DecodeConfig = DecodeConfig(),
    lexicon: Lexicon | None = None,
) -> CorpusDecodeResult:
    """Decode a batch in order; per-utterance errors are collected."""
    hypotheses: list[Hypothesis | None] = []
    errors: list[tuple[int, str]] = []
    audio_seconds = 0.0
    started = time.perf_counter()
    for index, feats in enumerate(batch):
        audio_seconds += feats.n_frames * feats.frame_shift
        try:
            hypotheses.append(decode(model, lm, tree, feats, cfg, lexicon))
        except DecodeError as exc:
            hypotheses.append(None)
            errors.append((index, str(exc)))
    wall = time.perf_counter() - started
    return CorpusDecodeResult(
        hypotheses=hypotheses,
        errors=errors,
        rtf=RtfReport(audio_seconds=audio_seconds, wall_seconds=wall),
    )
