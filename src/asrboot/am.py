"""Grapheme GMM-HMM acoustic models: flat start, Viterbi-EM, alignment.

Phones are 3-state left-to-right HMMs (self-loop + forward, no skips)
with one diagonal-covariance GMM per state.  Training starts from the
global data statistics re-estimated once on equal alignments, then
alternates Viterbi forced alignment with closed-form re-estimation;
mixtures grow by splitting the heaviest component at scheduled
iterations.

Every emission score (alignment, accumulation, rescoring and the
decoder) comes from one kernel, ``state_logliks``: the requested
states' columns gathered from the model's table of Gaussian operands
(``_emission_table``) into one matrix and scored with one matmul of the
utterance's [x, x^2] (``_stack``).  The table depends only on the model,
so ``train`` builds it once per model; the stacked frames depend only
on the utterance, so ``train`` stacks them once per iteration and hands
them to both the kernel and the accumulation.  ``flat_start`` scores
nothing: its states have one component each, so every frame's
posterior is 1.  The caller scores: ``force_align``, ``train`` and the
decoder each call ``state_logliks`` once per utterance
and pass the matrix on, and each network maps its nodes to the matrix's
columns once, when it is built (``AlignGraph.node_col``).  Forced
alignment scans the graph node by node: each node's Viterbi scores over
the whole utterance are one running max over prefix sums, and the
backtrace steps over node runs.  A path's total is always its terms
summed in path order, by one routine (``_path_score``).

Training scores each utterance once per iteration: the emission matrix
that aligns it under the re-estimated model also rescores its previous
path for that iteration's post-update total, and accumulation reads the
component scores of that same ``state_logliks`` call.  Only after a split
that grows mixtures, and after the last iteration, is a path rescored
with a matrix of its own.

Training's alignment pass runs on two threads, as Kaldi pipes
``gmm-align-compiled`` into ``gmm-acc-stats-ali``: the package's helper
thread (``threads.helper``), one per ``train`` call, scores utterance
i + 1 (``_stack`` and ``state_logliks``) while the calling thread
rescores and aligns utterance i, and then adds utterance i's statistics
(``_accumulate``), after utterance i - 1's.  The matmuls and the exp
release the GIL, so scoring overlaps the Viterbi scan.
Each thread makes the calls the one-thread loop made, in the same order,
so the model and the trace are that loop's to the bit; ``state_logliks``
runs on one thread at a time.  Scoring is at most one utterance ahead of
alignment, so at most three utterances' scores are alive at once.  The
helper runs each task in a copy of the caller's context, where numpy
keeps its ``errstate``.  ``flat_start``, the rescoring after a growing
split and after the last iteration, and the decoder run on the calling
thread alone.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .features import FeatureMatrix, FrontendConfig, _column_sums, check_count
from .lexicon import SILENCE_PHONE, Lexicon
from .threads import helper

LOG_ZERO = -1e30
# shifted component scores are clamped here before the exp; exp(LOG_TINY)
# is a normal double, far below half an ulp of 1
LOG_TINY = -700.0
N_STATES = 3
VARIANCE_FLOOR = 1e-4
PROB_FLOOR = 1e-300  # weights and transitions are floored here before log
# a model's weights and transition rows sum to 1 within _SUM_TOL, and its
# variances are at least VARIANCE_FLOOR - _FLOOR_TOL
_SUM_TOL = 1e-8
_FLOOR_TOL = 1e-12
# probability of taking an optional silence between words (and at either
# end): alignment, training and the decoder all use this one value
SIL_PRIOR = 0.5

MODEL_MAGIC = b"ABAM"
MODEL_VERSION = 2


# ---------------------------------------------------------------------------
# model

@dataclass
class GmmState:
    """Diagonal-covariance Gaussian mixture for one HMM state."""

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, D)
    variances: np.ndarray  # (K, D)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def copy(self) -> "GmmState":
        return GmmState(
            self.weights.copy(), self.means.copy(), self.variances.copy()
        )


@dataclass
class AcousticModel:
    """Phone inventory and state table: phone ``i`` owns the ``n_states``
    states from ``i * n_states``."""

    phones: tuple[str, ...]
    dim: int
    n_states: int = N_STATES
    states: list[GmmState] = field(default_factory=list)
    transitions: np.ndarray = None  # (n_model_states, 2): [self, forward]

    def __post_init__(self):
        self._phone_index = {p: i for i, p in enumerate(self.phones)}

    @property
    def n_model_states(self) -> int:
        return len(self.states)

    def states_for(self, phone: str) -> tuple[int, ...]:
        """State ids of a phone; ValueError if the model has no such phone."""
        index = self._phone_index.get(phone)
        if index is None:
            raise ValueError(
                f"phone {phone!r} is not in the acoustic model, whose phones "
                f"are {list(self.phones)}"
            )
        base = index * self.n_states
        return tuple(range(base, base + self.n_states))

    def log_transitions(self) -> np.ndarray:
        return np.log(np.maximum(self.transitions, PROB_FLOOR))

    def copy(self) -> "AcousticModel":
        return AcousticModel(
            phones=self.phones,
            dim=self.dim,
            n_states=self.n_states,
            states=[s.copy() for s in self.states],
            transitions=self.transitions.copy(),
        )

    def check_invariants(self) -> None:
        """Raise ValueError("state i: ...") for the first state that
        `_state_fault` rejects, the rule `load_model` applies, or when
        the transitions are not one (self-loop, exit) row per state."""
        if self.transitions.shape != (len(self.states), 2):
            raise ValueError(
                f"transitions of shape {self.transitions.shape}, "
                f"need ({len(self.states)}, 2)"
            )
        for i, state in enumerate(self.states):
            fault = _state_fault(
                state.weights, state.means, state.variances, self.transitions[i]
            )
            if fault:
                raise ValueError(f"state {i}: {fault}")


# ---------------------------------------------------------------------------
# alignment graphs

LANE_KIND = np.array([0, 1, 1])  # transition column per lane: self, forward


@dataclass
class AlignGraph:
    """Linear transcript graph with optional silences, compiled to arrays.

    Layout: SIL_0, the phones of word_0, SIL_1, ..., the phones of
    word_n-1, SIL_n, every phone instance on ``n_states`` consecutive
    nodes, so node ``i`` belongs to instance ``i // n_states``, and
    ``node_word`` is each node's word index, -1 on a SIL.  Lanes at
    each node, in the order argmax breaks ties: lane 0 is the self-loop;
    lane 1 comes from node ``i - 1`` (absent at node 0) and carries
    log(sil_prior) into the first node of every SIL after the first;
    lane 2 exists only on the first node of each word after the first and
    skips the SIL before it, from the previous word's exit, with
    log(1 - sil_prior).  Lanes 1 and 2 take their source state's forward
    transition.

    ``states`` are the graph's model states, sorted and unique: the columns
    of ``state_logliks(model, frames, states)``, the emission matrix every
    function here takes, and ``node_col`` is each node's column in it.
    """

    words: tuple[str, ...]
    node_state: np.ndarray  # (M,) model state id
    node_word: np.ndarray  # (M,) word index, -1 on SIL nodes
    states: np.ndarray  # (U,) sorted unique node_state
    node_col: np.ndarray  # (M,) column of each node's state in ``states``
    lane_src: np.ndarray  # (M, 3) source node, -1 when absent
    lane_prior: np.ndarray  # (M, 3) fixed silence-choice prior
    entry_nodes: np.ndarray
    entry_prior: np.ndarray
    final_nodes: np.ndarray  # exit transition comes from these nodes' states
    final_prior: np.ndarray
    min_frames: int

    def lane_logp(
        self, log_trans: np.ndarray, nodes=slice(None), lanes=slice(None)
    ) -> np.ndarray:
        """Arc log-probs under the current transition table: the (M, 3)
        table, or only the arcs of ``lanes`` into ``nodes`` (two index
        arrays of one length), each the same sum of the same two terms."""
        src = self.lane_src[nodes, lanes]
        logp = log_trans[self.node_state[np.maximum(src, 0)], LANE_KIND[lanes]]
        logp += self.lane_prior[nodes, lanes]
        return np.where(src >= 0, logp, LOG_ZERO)

    def final_logp(self, log_trans: np.ndarray) -> np.ndarray:
        return log_trans[self.node_state[self.final_nodes], 1] + self.final_prior


class GraphError(ValueError):
    pass


def compile_align_graph(
    tokens: Sequence[str],
    lexicon: Lexicon,
    model: AcousticModel,
    sil_prior: float = SIL_PRIOR,
    allow_unk: bool = False,
) -> AlignGraph:
    """Compile a transcript into the alignment graph.

    Optional silence is allowed before the first word, between words, and
    after the last word; choosing or skipping each one costs
    log(sil_prior) / log(1 - sil_prior).
    """
    words = tuple(tokens)
    if not words:
        raise GraphError("empty transcript")
    missing = [w for w in words if w not in lexicon]
    if missing and not allow_unk:
        raise GraphError(f"words not in lexicon: {missing[:5]}")
    if not 0.0 < sil_prior < 1.0:
        raise ValueError(f"sil_prior must be in (0, 1), got {sil_prior}")
    log_take = float(np.log(sil_prior))
    log_skip = float(np.log(1.0 - sil_prior))

    sil_states = model.states_for(SILENCE_PHONE)
    node_state = list(sil_states)
    word_first: list[int] = []
    word_exit: list[int] = []
    for word in words:
        word_first.append(len(node_state))
        for phone in lexicon.pron(word):  # a word not in the lexicon: garbage
            node_state.extend(model.states_for(phone))
        word_exit.append(len(node_state) - 1)
        node_state.extend(sil_states)

    m = len(node_state)
    node_state = np.array(node_state, dtype=np.int64)
    node_word = np.full(m, -1, dtype=np.int64)
    for w_idx, (first, last) in enumerate(zip(word_first, word_exit)):
        node_word[first : last + 1] = w_idx
    states, node_col = np.unique(node_state, return_inverse=True)
    firsts = np.array(word_first[1:], dtype=np.int64)
    exits = np.array(word_exit, dtype=np.int64)
    nodes = np.arange(m, dtype=np.int64)
    lane_src = np.stack([nodes, nodes - 1, np.full(m, -1)], axis=1)
    lane_src[firsts, 2] = exits[:-1]
    lane_prior = np.zeros((m, 3))
    lane_prior[exits + 1, 1] = log_take
    lane_prior[firsts, 2] = log_skip

    return AlignGraph(
        words=words,
        node_state=node_state,
        node_word=node_word,
        states=states,
        node_col=node_col,
        lane_src=lane_src,
        lane_prior=lane_prior,
        entry_nodes=np.array([0, word_first[0]], dtype=np.int64),
        entry_prior=np.array([log_take, log_skip]),
        final_nodes=np.array([word_exit[-1], m - 1], dtype=np.int64),
        final_prior=np.array([log_skip, 0.0]),
        min_frames=m - model.n_states * (len(words) + 1),  # all but the SILs
    )


# ---------------------------------------------------------------------------
# Viterbi

@dataclass(frozen=True)
class Interval:
    label: str
    start: float
    end: float


@dataclass
class AlignmentPath:
    """An utterance's Viterbi alignment: each frame's model state, the
    phone and word intervals in seconds (frame index times
    ``FrontendConfig.frame_shift``) and the path's log-likelihood."""

    words: tuple[str, ...]
    state_ids: np.ndarray  # (T,) model state per frame
    phone_intervals: list[Interval]
    word_intervals: list[Interval]
    loglik: float

    @property
    def n_frames(self) -> int:
        return len(self.state_ids)


@dataclass(frozen=True)
class AlignFailure:
    # no_path (no finite path to a final state) | too_short | oov (a word
    # not in the lexicon) | empty (a transcript of no words)
    reason: str
    detail: str = ""


def _emission_table(
    model: AcousticModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every state's mixture as emission-kernel operands, built once per
    model: the (2D, K, S) linear and quadratic operand, the (K, S)
    constants and the (S,) component counts of all S model states.

    Laid out like Kaldi's ``DiagGmm``: component k of state s is the
    constant gconst + log w - 1/2 sum(mean^2/var) at ``[k, s]``, and its
    linear term mean/var on x and quadratic term -1/2/var on x^2 in
    column ``[:, k, s]``, so an utterance's [x, x^2] times the operand
    scores every component.  States are padded to the model's largest
    component count K; a padded slot has a zero operand and the constant
    ``LOG_ZERO``.
    """
    gmms = model.states
    n_comp = np.array([g.n_components for g in gmms])
    k_max = int(n_comp.max())
    # (state, component) of every real component, in state-major order
    state_idx, comp_idx = np.nonzero(np.arange(k_max) < n_comp[:, None])
    means = np.concatenate([g.means for g in gmms])
    variances = np.concatenate([g.variances for g in gmms])
    weights = np.concatenate([g.weights for g in gmms])
    inv_var = 1.0 / variances
    const = np.full((k_max, len(gmms)), LOG_ZERO)
    const[comp_idx, state_idx] = (
        np.log(np.maximum(weights, PROB_FLOOR))
        - 0.5 * np.log(2.0 * np.pi * variances).sum(axis=1)
        - 0.5 * (means * means * inv_var).sum(axis=1)
    )
    dim = model.dim
    operand = np.zeros((2 * dim, k_max, len(gmms)))
    operand[:dim, comp_idx, state_idx] = (means * inv_var).T
    operand[dim:, comp_idx, state_idx] = (-0.5 * inv_var).T
    return operand, const, n_comp


def _stack(frames: np.ndarray) -> np.ndarray:
    """(T, 2D) [x, x^2]: the frames as the emission kernel and the EM
    accumulation multiply them."""
    return np.hstack([frames, frames * frames])


def state_logliks(
    model: AcousticModel,
    frames: np.ndarray,
    state_ids: Iterable[int],
    table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    stacked: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, U) emission matrix for the U sorted unique states, those state
    ids (column j scores state ``unique[j]``), and the (T, K, U)
    log w + log N(x; mean, var) per frame, component and state it was
    summed from.

    The one emission kernel.  ``table`` is ``_emission_table(model)`` and
    ``stacked`` is ``_stack(frames)``; a caller that scores many
    utterances under one model, or hands the stacked frames on, passes
    them so that neither is built twice (``train`` passes the table it
    builds once per model and the [x, x^2] it hands on to
    ``_accumulate``), and each is built here when absent.  The columns of
    the U sorted unique states are gathered from the table, cut to their
    own largest component count K (a padded component scores
    ``LOG_ZERO``), into one (2D, K * U) matrix, so scoring the utterance is
    one matmul.  The max and the sum over K are one numpy reduction each
    along axis 1 (K - 1 slab operations per reduction measured slower
    over a whole training).  Every search scores through here, so
    frames not of shape (T, model.dim) raise ValueError here.

    The component scores are returned unmodified, so training accumulates
    from the same scores that aligned the utterance.  The mixture
    log-likelihood is a log-sum-exp over them, on a shifted copy whose
    terms are clamped at ``LOG_TINY`` before the exp: exp(LOG_TINY) is a
    normal double, so the exp never takes the slow path for denormal or
    zero results.  The clamp is exact: every sum over K holds the peak's
    exp(0) = 1, and a clamped term is below half an ulp of any partial sum
    that can change it (NaN stays NaN).
    """
    _check_frames(None, frames, model.dim)
    unique = np.unique(np.fromiter(state_ids, dtype=np.int64))
    operand, const, n_comp = _emission_table(model) if table is None else table
    if stacked is None:
        stacked = _stack(frames)
    k = int(n_comp[unique].max())
    comp = stacked @ operand[:, :k, unique].reshape(len(operand), -1)
    comp += const[:k, unique].ravel()
    comp = comp.reshape(len(frames), k, len(unique))
    peak = comp.max(axis=1)
    rel = comp - peak[:, None, :]
    np.maximum(rel, LOG_TINY, out=rel)
    np.exp(rel, out=rel)
    emis = peak + np.log(rel.sum(axis=1))
    return emis, unique, comp


def viterbi_path(
    graph: AlignGraph, log_trans: np.ndarray, emis: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """Best node path and its total, or None if no path reaches a final
    state with a finite score (a NaN or infinite feature gives None).

    ``log_trans`` is the model's ``log_transitions()`` and ``emis`` the
    (T, U) matrix ``state_logliks(model, frames, graph.states)``, whose
    rows are the utterance's frames; both are only read.

    The DP is a scan over graph nodes, not frames.  Nodes are in
    topological order (every lane but the self-loop comes from an earlier
    node), so node ``i``'s scores over all frames follow from rows already
    done: ``d[t] = max(d[t-1] + self, c[t]) + e[t]``, where ``c[t]`` is the
    best entry at ``t`` (the entry prior at frame 0, else lane 1 from node
    ``i - 1`` at ``t - 1`` or, on a word's first node, lane 2 from the
    previous word's exit).  With ``G`` the prefix sum of ``self + e``, this
    is ``d = G + running_max(c + e - G)``: a few whole-row operations and
    one ``np.maximum.accumulate`` per node.

    Ties break as a frame-by-frame argmax over the lanes in order would:
    the self-loop beats an entry, so a node is entered at the earliest
    frame where its running max reaches the value it exits with; lane 1
    beats lane 2, which wins only when strictly greater; the first final
    node beats the second.  The backtrace takes one step per node on the
    path.  The total is the path's terms summed in path order
    (``_path_score``), so rescoring the path gives it exactly.

    Memory is O(M * T) float64 for ``run``, the running maxima of every
    node (a frame loop keeps (T, M) uint8 backpointers instead), plus
    ``slack`` and the prefix sums ``gain`` per state and O(T) scratch.
    ``run`` is the only per-node state: node ``n``'s score at ``t`` is
    ``run[n, t] + gain[col(n), t]``, which the lanes out of ``n`` read, and
    which the backtrace reads to redo the scan's lane-2 comparisons.
    """
    t_frames = emis.shape[0]
    m = len(graph.node_state)
    lane_logp = graph.lane_logp(log_trans)
    entry = np.full(m, LOG_ZERO)
    entry[graph.entry_nodes] = graph.entry_prior
    forward = lane_logp[:, 1].tolist()
    skip_logp = lane_logp[:, 2].tolist()
    skip_src = graph.lane_src[:, 2].tolist()
    cols = graph.node_col.tolist()

    run = np.empty((m, t_frames))
    h = np.empty(t_frames)
    h_tail = h[1:]
    # -inf emissions give -inf - -inf here; such a path is dropped below
    with np.errstate(invalid="ignore"):
        # G and e - G per state, one contiguous row each: the self-loop
        # lane carries no prior, so nodes of one state share them
        slack = emis.T.copy()
        gain = np.cumsum(slack + log_trans[graph.states, :1], axis=1)
        slack -= gain
        for i, j in enumerate(cols):
            h[0] = entry[i]
            if i:  # lane 1: node i - 1's scores at t - 1
                np.add(run[i - 1, :-1], gain[cols[i - 1], :-1], out=h_tail)
                h_tail += forward[i]
            else:
                h_tail[:] = LOG_ZERO  # node 0 has no lane 1
            src = skip_src[i]
            if src >= 0:  # lane 2: the previous word's exit at t - 1
                skip = run[src, :-1] + gain[cols[src], :-1] + skip_logp[i]
                np.copyto(h_tail, skip, where=skip > h_tail)
            h += slack[j]
            np.maximum.accumulate(h, out=run[i])

        finals = graph.final_nodes
        final_scores = run[finals, -1] + gain[graph.node_col[finals], -1]
        final_scores += graph.final_logp(log_trans)
    best_final = int(np.argmax(final_scores))
    best = float(final_scores[best_final])
    if not math.isfinite(best) or best <= LOG_ZERO / 2:
        return None

    def score(n: int, t: int) -> float:  # node n's score at frame t
        return float(run[n, t]) + float(gain[cols[n], t])

    # one step per node on the path, from the last node back to the first
    nodes: list[int] = []
    starts: list[int] = []
    node, end = int(graph.final_nodes[best_final]), t_frames
    while end:
        row = run[node]
        start = int(row.searchsorted(row[end - 1]))  # the earliest entry wins
        nodes.append(node)
        starts.append(start)
        # lane 2 where the scan's comparison, made again, chose it
        src, t = skip_src[node], start - 1
        lane2 = src >= 0 and start and (
            score(src, t) + skip_logp[node] > score(node - 1, t) + forward[node]
        )
        node, end = src if lane2 else node - 1, start
    nodes.reverse()
    starts.reverse()
    path = np.repeat(nodes, np.diff(starts + [t_frames]))
    total = _path_score(graph, path, emis, log_trans)
    if not math.isfinite(total) or total <= LOG_ZERO / 2:
        return None
    return path, total


def _intervals_from_path(
    graph: AlignGraph, path: np.ndarray, model: AcousticModel
) -> tuple[list[Interval], list[Interval]]:
    frame_shift = FrontendConfig.frame_shift
    phone_intervals: list[Interval] = []
    word_frames: dict[int, list[int]] = {}
    inst_path = path // model.n_states
    bounds = [0, *(np.flatnonzero(np.diff(inst_path)) + 1).tolist(), len(path)]
    for t, u in zip(bounds[:-1], bounds[1:]):
        node = path[t]
        phone = model.phones[graph.node_state[node] // model.n_states]
        phone_intervals.append(Interval(phone, t * frame_shift, u * frame_shift))
        word = int(graph.node_word[node])
        if word >= 0:
            word_frames.setdefault(word, []).extend([t, u])
    word_intervals = [
        Interval(
            graph.words[w],
            min(fr) * frame_shift,
            max(fr) * frame_shift,
        )
        for w, fr in sorted(word_frames.items())
    ]
    return phone_intervals, word_intervals


def _best_path(
    graph: AlignGraph, log_trans: np.ndarray, emis: np.ndarray
) -> tuple[np.ndarray, float] | AlignFailure:
    """`viterbi_path` on an utterance (a row of ``emis`` per frame) long enough
    for the graph; a failure is classified here for `force_align` and `train`."""
    if len(emis) < graph.min_frames:
        return AlignFailure(
            "too_short",
            f"{len(emis)} frames < minimum path length {graph.min_frames}",
        )
    result = viterbi_path(graph, log_trans, emis)
    if result is None:
        return AlignFailure("no_path", "no finite path reaches a final state")
    return result


def force_align(
    model: AcousticModel,
    feats: FeatureMatrix,
    tokens: Sequence[str],
    lexicon: Lexicon,
    allow_unk: bool = False,
) -> AlignmentPath | AlignFailure:
    """Viterbi alignment of a transcript to features, with ``SIL_PRIOR``."""
    try:
        graph = compile_align_graph(tokens, lexicon, model, allow_unk=allow_unk)
    except GraphError as exc:
        return AlignFailure("oov" if tokens else "empty", str(exc))
    emis = state_logliks(model, feats.frames, graph.states)[0]
    result = _best_path(graph, model.log_transitions(), emis)
    if isinstance(result, AlignFailure):
        return result
    path, loglik = result
    phone_intervals, word_intervals = _intervals_from_path(graph, path, model)
    return AlignmentPath(
        words=graph.words,
        state_ids=graph.node_state[path],
        phone_intervals=phone_intervals,
        word_intervals=word_intervals,
        loglik=loglik,
    )


# ---------------------------------------------------------------------------
# training

def _check_frames(i: int | None, frames: np.ndarray, dim: int | None) -> None:
    """ValueError unless ``frames`` is 2-D with ``dim`` columns (any number
    of them when ``dim`` is None); the message names utterance ``i`` if it
    is given."""
    if frames.ndim != 2 or (dim is not None and frames.shape[1] != dim):
        raise ValueError(
            ("" if i is None else f"utterance {i}: ")
            + f"frames of shape {frames.shape}, "
            f"expected (T, {'D' if dim is None else dim})"
        )


def _compile_graphs(
    data: Sequence[tuple[FeatureMatrix, Sequence[str]]],
    lexicon: Lexicon,
    model: AcousticModel,
) -> list[AlignGraph]:
    """Each utterance's alignment graph, its frames checked against
    ``model.dim``: the one transcript and frame check of `flat_start` and
    `train`, whose errors begin ``utterance i:``."""
    graphs = []
    for i, (feats, tokens) in enumerate(data):
        try:
            graphs.append(compile_align_graph(tokens, lexicon, model))
        except GraphError as exc:
            raise GraphError(f"utterance {i}: {exc}") from None
        _check_frames(i, feats.frames, model.dim)
    return graphs


@dataclass(frozen=True)
class TrainSchedule:
    n_iters: int = 30
    split_iters: tuple[int, ...] = (4, 8, 12, 16)
    max_gauss: int = 8

    def __post_init__(self):
        check_count("n_iters", self.n_iters)
        check_count("max_gauss", self.max_gauss)
        # a split at an iteration past n_iters is allowed and never runs
        for it in self.split_iters:
            check_count("split_iters entry", it)


@dataclass
class TrainResult:
    model: AcousticModel
    loglik_trace: list[tuple[float, float]]  # (pre-update, post-update) per iter
    # utterances the last iteration could not align, by AlignFailure reason
    failure_reasons: dict[str, int]

    @property
    def n_failures_last_iter(self) -> int:
        return sum(self.failure_reasons.values())


def flat_start(
    data: Sequence[tuple[FeatureMatrix, Sequence[str]]],
    lexicon: Lexicon,
) -> AcousticModel:
    """Monophone model from the global statistics, re-estimated once from
    equal alignments.

    Every state starts at the global mean and variance, every transition
    at 0.5.  Under that model every path scores alike, so a first Viterbi
    pass would be decided by rounding.  Instead each utterance's frames
    are split evenly over its SIL, word, ..., word, SIL states (no
    silence between words) and the model is re-estimated once from those
    alignments, as Kaldi's ``train_mono.sh`` seeds training with
    ``align-equal-compiled``.  An utterance with fewer frames than states
    is skipped; a state no utterance reaches keeps the global statistics.
    An utterance with a non-finite frame is left out of both the global
    statistics and the re-estimation (``train`` counts it as failed).
    Transcripts and frame shapes are checked before any statistics are
    taken, by the check ``train`` runs (``_compile_graphs``).

    The global mean and variance are summed one clip at a time, rows in
    corpus order, so they equal those of the stacked frames to the bit
    without a stacked copy: beyond the model and the caller's clips,
    memory holds one clip's deviations and one utterance's [x, x^2] and
    posteriors.
    """
    if not data:
        raise ValueError("flat_start needs at least one utterance")
    # the first utterance sets the dimension
    _check_frames(0, data[0][0].frames, None)
    phones = tuple(lexicon.phones())
    dim = data[0][0].dim
    # compiling reads only the phones' state layout from the model
    graphs = _compile_graphs(data, lexicon, AcousticModel(phones, dim))
    kept = [
        (feats, graph)
        for (feats, _), graph in zip(data, graphs)
        if np.isfinite(feats.frames).all()
    ]
    if not kept:
        raise ValueError("flat_start needs an utterance whose frames are all finite")
    clips = [feats.frames for feats, _ in kept]
    n_frames = sum(len(frames) for frames in clips)
    mean = _column_sums(clips) / n_frames
    var = _column_sums(np.square(frames - mean) for frames in clips) / n_frames
    var = np.maximum(var, VARIANCE_FLOOR)
    states = [
        GmmState(
            weights=np.array([1.0]),
            means=mean[None, :].copy(),
            variances=var[None, :].copy(),
        )
        for _ in range(len(phones) * N_STATES)
    ]
    transitions = np.full((len(phones) * N_STATES, 2), 0.5)
    model = AcousticModel(
        phones=phones,
        dim=dim,
        states=states,
        transitions=transitions,
    )
    stats = _Stats.zeros(model)
    for feats, graph in kept:
        path = _equal_alignment(graph, model.n_states, feats.n_frames)
        if path is not None:
            # one component per state: each frame's posterior is 1, whatever it scores
            comp = np.zeros((feats.n_frames, 1, len(graph.states)))
            _accumulate(graph, path, _stack(feats.frames), comp, stats)
    return _reestimate(model, stats)


def _equal_alignment(
    graph: AlignGraph, n_states: int, n_frames: int
) -> np.ndarray | None:
    """Node per frame, the frames split evenly over the graph's nodes
    without the SILs between words; None with fewer frames than nodes."""
    keep = graph.node_word >= 0
    keep[:n_states] = keep[-n_states:] = True  # the first and the last SIL
    nodes = np.flatnonzero(keep)
    if n_frames < len(nodes):
        return None
    return nodes[np.arange(n_frames) * len(nodes) // n_frames]


def _path_score(
    graph: AlignGraph, path: np.ndarray, emis: np.ndarray, log_trans: np.ndarray
) -> float:
    """A node path's total: its terms summed one after another in path
    order (entry, then emission and arc per frame, then exit).

    ``emis`` is the full-graph matrix ``state_logliks(model, frames,
    graph.states)`` that ``viterbi_path`` aligns with, also when a path is
    rescored under new parameters: a matmul blocked by shape cannot then
    round a rescored total differently from the aligned one.
    """
    # a step of 0 nodes is lane 0 (self-loop), of 1 lane 1 (the previous
    # node); a skip jumps over a SIL's n_states nodes, so lane 2
    lanes = np.minimum(np.diff(path), 2)
    terms = np.empty(2 * len(path) + 1)
    terms[0] = graph.entry_prior[(graph.entry_nodes == path[0]).argmax()]
    terms[1::2] = emis[np.arange(len(path)), graph.node_col[path]]
    terms[2:-1:2] = graph.lane_logp(log_trans, path[1:], lanes)
    terms[-1] = graph.final_logp(log_trans)[(graph.final_nodes == path[-1]).argmax()]
    return float(np.cumsum(terms)[-1])


@dataclass
class _Stats:
    """Viterbi-EM sufficient statistics, per state padded to the largest
    component count: occupancy, sums of x and x^2, transition counts."""

    gamma: np.ndarray  # (S, K)
    x: np.ndarray  # (S, K, D)
    x2: np.ndarray  # (S, K, D)
    trans: np.ndarray  # (S, 2): [self, forward]

    @classmethod
    def zeros(cls, model: AcousticModel) -> "_Stats":
        k = max(s.n_components for s in model.states)
        shape = (model.n_model_states, k)
        return cls(
            np.zeros(shape), np.zeros((*shape, model.dim)),
            np.zeros((*shape, model.dim)), np.zeros_like(model.transitions),
        )


def _accumulate(
    graph: AlignGraph,
    path: np.ndarray,
    stacked: np.ndarray,
    comp: np.ndarray,
    stats: _Stats,
) -> None:
    """Add one aligned utterance: component posteriors of each frame's
    state, summed per state with one matmul.

    ``stacked`` is the utterance's ``_stack(frames)`` and ``comp`` the
    (T, K, U) component scores over ``graph.states`` under the model that
    aligned ``path`` (the third element of ``state_logliks``), both from
    the call that scored the utterance; they are only read.  The
    posterior has a column per component of every graph state, zero for a
    state the path never visits, so such a state's statistics gain exact
    zeros.

    The matmul's row count is every graph state's components, not only
    the visited ones', so its sums equal those of a posterior over the
    visited states only where the BLAS keeps each output element's
    summation order as that row count changes.  This held on the one
    BLAS it was checked on (OpenBLAS, ``TestAccumulation``); unlike the
    table gather in ``state_logliks``, it is not equal by
    construction.  Where ``TestAccumulation`` fails, take the posterior
    over ``np.unique`` of the path's states instead."""
    state_ids = graph.node_state[path]
    frame_col = graph.node_col[path]
    states = graph.states
    t_frames, k = len(path), comp.shape[1]
    rows = np.arange(t_frames)
    # (T, K): the aligned state's components
    gamma = comp[rows, :, frame_col]
    gamma -= gamma.max(axis=1, keepdims=True)
    np.exp(gamma, out=gamma)
    gamma /= gamma.sum(axis=1, keepdims=True)
    post = np.zeros((t_frames, len(states), k))  # zero off the aligned state
    post[rows, frame_col] = gamma
    post = post.reshape(t_frames, -1)
    sums = (post.T @ stacked).reshape(len(states), k, 2, -1)
    stats.gamma[states, :k] += post.sum(axis=0).reshape(len(states), k)
    stats.x[states, :k] += sums[:, :, 0]
    stats.x2[states, :k] += sums[:, :, 1]
    # transition events: same node = self-loop, different = forward
    src_states = state_ids[:-1]
    self_moves = path[1:] == path[:-1]
    np.add.at(stats.trans[:, 0], src_states[self_moves], 1.0)
    np.add.at(stats.trans[:, 1], src_states[~self_moves], 1.0)
    stats.trans[int(state_ids[-1]), 1] += 1.0  # final exit


def _reestimate(model: AcousticModel, stats: _Stats) -> AcousticModel:
    new = model.copy()
    for sid, state in enumerate(new.states):
        k = state.n_components
        gamma = stats.gamma[sid, :k]
        total = gamma.sum()
        if total < 1e-8:
            continue  # state unseen this iteration: keep old parameters
        state.weights = gamma / total
        seen = gamma >= 1e-6
        occ = gamma[seen, None]
        mu = stats.x[sid, :k][seen] / occ
        state.means[seen] = mu
        state.variances[seen] = np.maximum(
            stats.x2[sid, :k][seen] / occ - mu * mu, VARIANCE_FLOOR
        )
        row = stats.trans[sid]
        if row.sum() > 0:
            new.transitions[sid] = row / row.sum()
    return new


def _split_heaviest(state: GmmState) -> GmmState:
    k = int(np.argmax(state.weights))
    offset = 0.1 * np.sqrt(np.maximum(state.variances[k], VARIANCE_FLOOR))
    weights = np.concatenate([state.weights, [state.weights[k] / 2.0]])
    weights[k] /= 2.0
    means = np.vstack([state.means, state.means[k] + offset])
    means[k] = means[k] - offset
    variances = np.vstack([state.variances, state.variances[k]])
    return GmmState(weights, means, variances)


def grow_mixtures(model: AcousticModel, max_gauss: int) -> AcousticModel:
    """Double each state's component count (capped) by splitting heaviest.

    A model whose every state is already at the cap is returned as is."""
    if all(s.n_components >= max_gauss for s in model.states):
        return model
    new = model.copy()
    for sid, state in enumerate(new.states):
        target = min(2 * state.n_components, max_gauss)
        while state.n_components < target:
            state = _split_heaviest(state)
        new.states[sid] = state
    return new


def _score(
    model: AcousticModel,
    frames: np.ndarray,
    graph: AlignGraph,
    table: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """An utterance's [x, x^2] and its ``state_logliks`` over its graph's
    states, as the alignment pass scores it."""
    stacked = _stack(frames)
    return stacked, state_logliks(model, frames, graph.states, table, stacked)


def _align_pass(
    submit: Callable[..., Future],
    model: AcousticModel,
    data: Sequence[tuple[FeatureMatrix, Sequence[str]]],
    graphs: list[AlignGraph],
    pending: dict[int, np.ndarray],
) -> tuple[_Stats, dict[int, np.ndarray], float, float, dict[str, int]]:
    """One iteration's alignment pass under ``model``: the statistics of
    the aligned utterances, their paths by utterance, the paths' total,
    the total of the ``pending`` paths rescored, and the failures by
    reason.

    The helper (``submit``) scores utterance i + 1 while this thread
    rescores utterance i's pending path and aligns it; then utterance i's
    statistics are added on the helper, after utterance i - 1's.  So at
    most three utterances' [x, x^2] and component scores are alive at
    once: the one being accumulated, the one being aligned and the one
    being scored."""
    stats = _Stats.zeros(model)
    paths: dict[int, np.ndarray] = {}
    pre_total = pending_post = 0.0
    reasons: dict[str, int] = {}
    log_trans = model.log_transitions()
    table = _emission_table(model)
    scored = submit(_score, model, data[0][0].frames, graphs[0], table)
    accumulated = None
    for idx, graph in enumerate(graphs):
        stacked, (emis, _, comp) = scored.result()
        if idx + 1 < len(graphs):
            scored = submit(
                _score, model, data[idx + 1][0].frames, graphs[idx + 1], table
            )
        if idx in pending:
            pending_post += _path_score(graph, pending[idx], emis, log_trans)
        result = _best_path(graph, log_trans, emis)
        if isinstance(result, AlignFailure):
            reasons[result.reason] = reasons.get(result.reason, 0) + 1
            continue
        path, loglik = result
        pre_total += loglik
        paths[idx] = path
        if accumulated is not None:
            accumulated.result()  # raises here what the helper raised
        accumulated = submit(_accumulate, graph, path, stacked, comp, stats)
    if accumulated is not None:
        accumulated.result()
    return stats, paths, pre_total, pending_post, reasons


def train(
    model: AcousticModel,
    data: Sequence[tuple[FeatureMatrix, Sequence[str]]],
    lexicon: Lexicon,
    schedule: TrainSchedule = TrainSchedule(),
) -> TrainResult:
    """Viterbi-EM: align, re-estimate, optionally grow mixtures.

    An iteration's post-update total rescores its paths under the
    re-estimated model.  Each utterance is scored once per iteration, and
    when the next iteration aligns under that same model (no split, or a
    split that grows nothing), its matrix serves both: it rescores the
    utterance's previous path, then aligns it.  Otherwise each path is
    rescored with a matrix of its own.  The totals are summed in utterance
    order either way.

    The alignment pass runs on two threads (``_align_pass``): the
    package's helper thread (``threads.helper``), made for this call,
    scores the next utterance and adds each aligned utterance's
    statistics, in utterance order, while this thread rescores and
    aligns.  The emission and accumulation matmuls and the exp release
    the GIL, so the scoring overlaps the Viterbi scan; the output is the
    one-thread loop's to the bit.  At most three utterances' scores are
    alive at once.  Helper tasks run in the
    caller's context, so a caller's ``np.errstate`` holds on the helper
    too.  The rescoring after a growing split and after the last
    iteration runs on this thread alone.  No thread outlives the call,
    and an exception raised on the helper reaches the caller as raised.
    """
    if not data:
        raise ValueError("train needs at least one utterance")
    model = model.copy()
    graphs = _compile_graphs(data, lexicon, model)
    trace: list[tuple[float, float]] = []
    # the previous iteration's pre-update total and its paths by utterance,
    # still to be rescored under ``model``
    pending_pre, pending = 0.0, {}
    with helper() as submit:
        for iteration in range(1, schedule.n_iters + 1):
            stats, paths, pre_total, pending_post, reasons = _align_pass(
                submit, model, data, graphs, pending
            )
            if pending:
                trace.append((pending_pre, pending_post))
            if not paths:
                raise RuntimeError(
                    f"iteration {iteration}: every utterance failed alignment "
                    f"({reasons})"
                )
            reestimated = model = _reestimate(model, stats)
            if iteration in schedule.split_iters:
                model = grow_mixtures(model, schedule.max_gauss)
            if model is reestimated and iteration < schedule.n_iters:
                # the next iteration's alignment pass rescores these paths
                pending_pre, pending = pre_total, paths
            else:
                log_trans = reestimated.log_transitions()
                table = _emission_table(reestimated)
                post_total = 0.0
                for idx, path in paths.items():
                    graph = graphs[idx]
                    emis = state_logliks(
                        reestimated, data[idx][0].frames, graph.states, table
                    )[0]
                    post_total += _path_score(graph, path, emis, log_trans)
                trace.append((pre_total, post_total))
                pending = {}
    return TrainResult(model=model, loglik_trace=trace, failure_reasons=reasons)


# ---------------------------------------------------------------------------
# serialization

def save_model(model: AcousticModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<H", MODEL_VERSION))
        fh.write(struct.pack("<IIII", len(model.phones), model.n_states,
                             model.dim, model.n_model_states))
        for phone in model.phones:
            raw = phone.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
        fh.write(model.transitions.astype("<f8").tobytes())
        for state in model.states:
            fh.write(struct.pack("<I", state.n_components))
            fh.write(state.weights.astype("<f8").tobytes())
            fh.write(state.means.astype("<f8").tobytes())
            fh.write(state.variances.astype("<f8").tobytes())


def _state_fault(
    weights: np.ndarray, means: np.ndarray, variances: np.ndarray, trans: np.ndarray
) -> str | None:
    """Why a state, with its transition row, would score NaN or is not a
    distribution (weights or transitions off 1, a variance below the
    floor), or None if neither: the one validity rule of
    `AcousticModel.check_invariants` and `load_model`."""
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        return "weights must be finite and >= 0"
    if not np.isfinite(means).all():
        return "means must be finite"
    if not (np.isfinite(variances).all() and (variances > 0).all()):
        return "variances must be finite and > 0"
    if not (np.isfinite(trans).all() and (trans >= 0).all()):
        return "transitions must be finite and >= 0"
    if abs(weights.sum() - 1.0) > _SUM_TOL:
        return f"weights sum to {float(weights.sum())!r}, need 1 within {_SUM_TOL}"
    if abs(trans.sum() - 1.0) > _SUM_TOL:
        return f"transitions sum to {float(trans.sum())!r}, need 1 within {_SUM_TOL}"
    if (variances < VARIANCE_FLOOR - _FLOOR_TOL).any():
        return f"variances must be >= the floor {VARIANCE_FLOOR}"
    return None


def load_model(path) -> AcousticModel:
    """Read a ``save_model`` file; ValueError names the path and the fault.

    A model that would score NaN or match nothing is a fault too: a
    feature dimension of 0, a state of 0 components (it scores
    ``LOG_ZERO`` on every frame) and a phone named twice.  So is every
    state that `AcousticModel.check_invariants` rejects: a weight, mean,
    variance or transition that is not finite, a negative weight or
    transition, a variance that is not positive or is below the floor,
    and weights or a transition row that do not sum to 1 within 1e-8.  A
    flipped bit that leaves a mean finite still loads: the format has no
    checksum."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, name: str) -> bytes:
            # checked before reading: a corrupted count must not ask for
            # more memory than the file holds
            left = size - fh.tell()
            if n > left:
                raise ValueError(
                    f"{path}: truncated model file: {name} needs {n} bytes, "
                    f"{left} left"
                )
            return fh.read(n)

        if read(4, "magic") != MODEL_MAGIC:
            raise ValueError(f"{path}: not an acoustic model file")
        (version,) = struct.unpack("<H", read(2, "version"))
        if version != MODEL_VERSION:
            raise ValueError(
                f"{path}: model file version {version}, but this program "
                f"reads only version {MODEL_VERSION}"
            )
        n_phones, n_states, dim, n_model_states = struct.unpack(
            "<IIII", read(16, "header")
        )
        if dim < 1:
            raise ValueError(f"{path}: feature dimension {dim}, need >= 1")
        if n_states < 1:
            raise ValueError(f"{path}: {n_states} states per phone, need >= 1")
        if n_model_states != n_phones * n_states:
            raise ValueError(
                f"{path}: {n_model_states} states, but {n_phones} phones of "
                f"{n_states} states need {n_phones * n_states}"
            )
        phones = []
        for _ in range(n_phones):
            (length,) = struct.unpack("<H", read(2, "phone name length"))
            raw = read(length, "phone name")
            try:
                phone = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{path}: phone name {raw!r} is not UTF-8 ({exc.reason})"
                ) from None
            if phone in phones:
                # states_for would map it to its last copy's states only
                raise ValueError(f"{path}: phone {phone!r} appears twice")
            phones.append(phone)
        transitions = np.frombuffer(
            read(n_model_states * 2 * 8, "transitions"), dtype="<f8"
        ).reshape(n_model_states, 2).copy()
        states = []
        for i in range(n_model_states):
            (k,) = struct.unpack("<I", read(4, f"state {i} component count"))
            if k < 1:
                raise ValueError(f"{path}: state {i}: 0 components, need >= 1")
            weights = np.frombuffer(
                read(k * 8, f"state {i} weights"), dtype="<f8"
            ).copy()
            means = np.frombuffer(
                read(k * dim * 8, f"state {i} means"), dtype="<f8"
            ).reshape(k, dim).copy()
            variances = np.frombuffer(
                read(k * dim * 8, f"state {i} variances"), dtype="<f8"
            ).reshape(k, dim).copy()
            fault = _state_fault(weights, means, variances, transitions[i])
            if fault:
                raise ValueError(f"{path}: state {i}: {fault}")
            states.append(GmmState(weights, means, variances))
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last state")
    return AcousticModel(
        phones=tuple(phones),
        dim=dim,
        n_states=n_states,
        states=states,
        transitions=transitions,
    )
