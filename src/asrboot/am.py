"""Grapheme GMM-HMM acoustic models: flat start, Viterbi-EM, alignment.

Phones are 3-state left-to-right HMMs (self-loop + forward, no skips)
with one diagonal-covariance GMM per state.  Training alternates Viterbi
forced alignment with closed-form re-estimation; mixtures grow by
splitting the heaviest component at scheduled iterations.  Triphone
refinement gives dedicated states to contexts with enough aligned frames
and falls back to the monophone state elsewhere.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .features import FeatureMatrix
from .lexicon import Lexicon

logger = logging.getLogger(__name__)

LOG_ZERO = -1e30
N_STATES = 3
VARIANCE_FLOOR = 1e-4
PROB_FLOOR = 1e-300  # weights and transitions are floored here before log

MONOPHONE = "monophone"
TRIPHONE = "triphone"

MODEL_MAGIC = b"ABAM"
MODEL_VERSION = 1


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

    def component_loglik(self, frames: np.ndarray) -> np.ndarray:
        """(T, K) per-component log densities."""
        t, d = frames.shape
        out = np.empty((t, self.n_components))
        for k in range(self.n_components):
            var = self.variances[k]
            gconst = -0.5 * np.log(2.0 * np.pi * var).sum()
            diff = frames - self.means[k]
            diff *= diff
            diff /= var
            out[:, k] = gconst - 0.5 * diff.sum(axis=1)
        return out

    def loglik(self, frames: np.ndarray) -> np.ndarray:
        """(T,) log p(x) under the mixture."""
        comp = self.component_loglik(frames)
        logw = np.log(np.maximum(self.weights, PROB_FLOOR))
        shifted = comp + logw
        peak = shifted.max(axis=1, keepdims=True)
        return (peak + np.log(np.exp(shifted - peak).sum(axis=1, keepdims=True)))[
            :, 0
        ]

    def responsibilities(self, frames: np.ndarray) -> np.ndarray:
        """(T, K) posterior component weights per frame."""
        comp = self.component_loglik(frames) + np.log(
            np.maximum(self.weights, PROB_FLOOR)
        )
        peak = comp.max(axis=1, keepdims=True)
        lin = np.exp(comp - peak)
        return lin / lin.sum(axis=1, keepdims=True)


@dataclass
class AcousticModel:
    """Phone inventory, shared state table, and the phone -> states map."""

    phones: tuple[str, ...]
    dim: int
    kind: str = MONOPHONE
    n_states: int = N_STATES
    states: list[GmmState] = field(default_factory=list)
    transitions: np.ndarray = None  # (n_model_states, 2): [self, forward]
    tri_map: dict[tuple[str, str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        self._phone_index = {p: i for i, p in enumerate(self.phones)}

    @property
    def n_model_states(self) -> int:
        return len(self.states)

    def mono_base(self, phone: str) -> int:
        return self._phone_index[phone] * self.n_states

    def states_for(
        self, phone: str, left: str | None = None, right: str | None = None
    ) -> tuple[int, ...]:
        """State ids for a phone in context; total via monophone fallback."""
        if left is not None and right is not None:
            base = self.tri_map.get((phone, left, right))
            if base is not None:
                return tuple(range(base, base + self.n_states))
        base = self.mono_base(phone)
        return tuple(range(base, base + self.n_states))

    def log_transitions(self) -> np.ndarray:
        return np.log(np.maximum(self.transitions, PROB_FLOOR))

    def copy(self) -> "AcousticModel":
        return AcousticModel(
            phones=self.phones,
            dim=self.dim,
            kind=self.kind,
            n_states=self.n_states,
            states=[s.copy() for s in self.states],
            transitions=self.transitions.copy(),
            tri_map=dict(self.tri_map),
        )

    def check_invariants(self) -> None:
        for state in self.states:
            assert abs(state.weights.sum() - 1.0) <= 1e-8
            assert np.all(state.variances >= VARIANCE_FLOOR - 1e-12)
            assert np.all(np.isfinite(state.means))
        row_sums = self.transitions.sum(axis=1)
        assert np.max(np.abs(row_sums - 1.0)) <= 1e-8


# ---------------------------------------------------------------------------
# alignment graphs

SELF_LANE, FWD_LANE, CROSS_LANE = 0, 1, 2
MAX_LANES = 3


@dataclass
class PhoneInstance:
    phone: str
    word_index: int | None  # None for silences
    left: str | None = None
    right: str | None = None


@dataclass
class AlignGraph:
    """Linear transcript graph with optional silences, compiled to arrays."""

    words: tuple[str, ...]
    instances: list[PhoneInstance]
    node_state: np.ndarray  # (M,) model state id
    node_instance: np.ndarray  # (M,) phone-instance index
    lane_src: np.ndarray  # (M, 3) source node, -1 when absent
    lane_state: np.ndarray  # (M, 3) state whose transition the lane uses
    lane_kind: np.ndarray  # (M, 3) 0 self / 1 forward
    lane_prior: np.ndarray  # (M, 3) fixed silence-choice prior
    entry_nodes: np.ndarray
    entry_prior: np.ndarray
    final_nodes: np.ndarray
    final_state: np.ndarray  # exit transition comes from this state
    final_prior: np.ndarray
    min_frames: int

    def lane_logp(self, log_trans: np.ndarray) -> np.ndarray:
        """(M, 3) arc log-probs under the current transition table."""
        safe_state = np.maximum(self.lane_state, 0)
        logp = log_trans[safe_state, np.minimum(self.lane_kind, 1)] + self.lane_prior
        return np.where(self.lane_src >= 0, logp, LOG_ZERO)

    def final_logp(self, log_trans: np.ndarray) -> np.ndarray:
        return log_trans[self.final_state, 1] + self.final_prior


class GraphError(ValueError):
    pass


def _word_contexts(word: str, lexicon: Lexicon) -> list[tuple[str, str, str]]:
    """(phone, left, right) per phone of a word, SIL at the word edges.

    Contexts are static and word-internal; a word missing from the
    lexicon takes the unknown word's pronunciation.
    """
    pron = lexicon.pron(word if word in lexicon else lexicon.unk_word)
    padded = (lexicon.silence_phone, *pron, lexicon.silence_phone)
    return list(zip(pron, padded[:-2], padded[2:]))


def compile_align_graph(
    tokens: Sequence[str],
    lexicon: Lexicon,
    model: AcousticModel,
    sil_prior: float = 0.5,
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
    sil = lexicon.silence_phone

    # phone instances with static triphone contexts
    instances: list[PhoneInstance] = []
    word_start_instance: list[int] = []
    word_end_instance: list[int] = []
    for w_idx, word in enumerate(words):
        word_start_instance.append(len(instances))
        instances.extend(
            PhoneInstance(phone, w_idx, left, right)
            for phone, left, right in _word_contexts(word, lexicon)
        )
        word_end_instance.append(len(instances) - 1)

    n_states = model.n_states
    sil_instances: list[int] = []
    all_instances = list(instances)
    node_state: list[int] = []
    node_instance: list[int] = []

    def add_phone_nodes(inst_index: int, inst: PhoneInstance) -> int:
        base = len(node_state)
        if inst.word_index is None:
            ids = model.states_for(inst.phone)
        else:
            ids = model.states_for(inst.phone, inst.left, inst.right)
        node_state.extend(ids)
        node_instance.extend([inst_index] * n_states)
        return base

    # layout: word phones first, then one optional SIL per boundary
    word_node_base: list[int] = []
    for i, inst in enumerate(instances):
        word_node_base.append(add_phone_nodes(i, inst))
    n_boundaries = len(words) + 1
    sil_node_base: list[int] = []
    for b in range(n_boundaries):
        inst = PhoneInstance(sil, None)
        idx = len(all_instances)
        all_instances.append(inst)
        sil_instances.append(idx)
        sil_node_base.append(add_phone_nodes(idx, inst))

    m = len(node_state)
    lane_src = np.full((m, MAX_LANES), -1, dtype=np.int64)
    lane_state = np.full((m, MAX_LANES), -1, dtype=np.int64)
    lane_kind = np.zeros((m, MAX_LANES), dtype=np.int64)
    lane_prior = np.zeros((m, MAX_LANES))

    log_take = float(np.log(sil_prior))
    log_skip = float(np.log(1.0 - sil_prior))

    def set_lane(dst: int, lane: int, src: int, state: int, kind: int, prior: float):
        lane_src[dst, lane] = src
        lane_state[dst, lane] = state
        lane_kind[dst, lane] = kind
        lane_prior[dst, lane] = prior

    # intra-phone lanes: self-loop (lane 0) and forward (lane 1)
    for base in word_node_base + sil_node_base:
        for s in range(n_states):
            node = base + s
            set_lane(node, SELF_LANE, node, node_state[node], 0, 0.0)
            if s > 0:
                set_lane(node, FWD_LANE, node - 1, node_state[node - 1], 1, 0.0)

    # chain within each word
    for w_idx in range(len(words)):
        for i in range(word_start_instance[w_idx], word_end_instance[w_idx]):
            src = word_node_base[i] + n_states - 1
            dst = word_node_base[i + 1]
            set_lane(dst, FWD_LANE, src, node_state[src], 1, 0.0)

    # boundaries: previous exit -> [SIL ->] next word
    for b in range(n_boundaries):
        prev_exit = None
        if b > 0:
            prev_exit = word_node_base[word_end_instance[b - 1]] + n_states - 1
        sil_first = sil_node_base[b]
        sil_last = sil_node_base[b] + n_states - 1
        next_first = (
            word_node_base[word_start_instance[b]] if b < len(words) else None
        )
        if prev_exit is not None:
            set_lane(
                sil_first, CROSS_LANE, prev_exit, node_state[prev_exit], 1, log_take
            )
            if next_first is not None:
                set_lane(
                    next_first,
                    CROSS_LANE,
                    prev_exit,
                    node_state[prev_exit],
                    1,
                    log_skip,
                )
        if next_first is not None:
            # silence exit continues into the word (lane 1 is free there)
            set_lane(
                next_first, FWD_LANE, sil_last, node_state[sil_last], 1, 0.0
            )

    entry_nodes = np.array(
        [sil_node_base[0], word_node_base[word_start_instance[0]]], dtype=np.int64
    )
    entry_prior = np.array([log_take, log_skip])

    last_word_exit = word_node_base[word_end_instance[-1]] + n_states - 1
    final_sil_exit = sil_node_base[-1] + n_states - 1
    final_nodes = np.array([last_word_exit, final_sil_exit], dtype=np.int64)
    final_state = np.array(
        [node_state[last_word_exit], node_state[final_sil_exit]], dtype=np.int64
    )
    final_prior = np.array([log_skip, 0.0])

    min_frames = n_states * len(instances)
    return AlignGraph(
        words=words,
        instances=all_instances,
        node_state=np.array(node_state, dtype=np.int64),
        node_instance=np.array(node_instance, dtype=np.int64),
        lane_src=lane_src,
        lane_state=lane_state,
        lane_kind=lane_kind,
        lane_prior=lane_prior,
        entry_nodes=entry_nodes,
        entry_prior=entry_prior,
        final_nodes=final_nodes,
        final_state=final_state,
        final_prior=final_prior,
        min_frames=min_frames,
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
    words: tuple[str, ...]
    state_ids: np.ndarray  # (T,) model state per frame
    node_path: np.ndarray  # (T,) graph node per frame
    phone_intervals: list[Interval]
    word_intervals: list[Interval]
    loglik: float
    frame_shift: float

    @property
    def n_frames(self) -> int:
        return len(self.state_ids)


@dataclass(frozen=True)
class AlignFailure:
    reason: str  # no_path (no final state reached) | too_short | oov
    detail: str = ""


def state_logliks(
    model: AcousticModel, frames: np.ndarray, state_ids: Iterable[int]
) -> tuple[np.ndarray, dict[int, int]]:
    """(T, U) emission matrix for the unique states, plus id -> column map."""
    unique = np.unique(np.fromiter(state_ids, dtype=np.int64)).tolist()
    emis = np.empty((frames.shape[0], len(unique)))
    col = {}
    for j, sid in enumerate(unique):
        emis[:, j] = model.states[sid].loglik(frames)
        col[sid] = j
    return emis, col


def viterbi_path(
    graph: AlignGraph,
    model: AcousticModel,
    frames: np.ndarray,
) -> tuple[np.ndarray, float] | None:
    """Best node path through the graph, or None if none reaches a final state."""
    t_frames = frames.shape[0]
    emis, col = state_logliks(model, frames, graph.node_state)
    # (T, M): the emission of every graph node on every frame
    node_emis = emis[:, [col[s] for s in graph.node_state.tolist()]]
    log_trans = model.log_transitions()
    lane_logp = graph.lane_logp(log_trans)
    m = len(graph.node_state)

    dp = np.full(m, LOG_ZERO)
    dp[graph.entry_nodes] = graph.entry_prior + node_emis[0, graph.entry_nodes]
    lanes = np.zeros((t_frames, m), dtype=np.uint8)
    safe_src = np.maximum(graph.lane_src, 0)
    rows = np.arange(m)
    for t in range(1, t_frames):
        cand = dp.take(safe_src)
        cand += lane_logp
        best_lane = cand.argmax(axis=1)
        lanes[t] = best_lane
        dp = cand[rows, best_lane]
        dp += node_emis[t]

    final_scores = dp[graph.final_nodes] + graph.final_logp(log_trans)
    best_final = int(np.argmax(final_scores))
    total = float(final_scores[best_final])
    if total <= LOG_ZERO / 2:
        return None

    path = np.empty(t_frames, dtype=np.int64)
    node = int(graph.final_nodes[best_final])
    for t in range(t_frames - 1, 0, -1):
        path[t] = node
        node = int(graph.lane_src[node, lanes[t, node]])
    path[0] = node
    return path, total


def _intervals_from_path(
    graph: AlignGraph, path: np.ndarray, frame_shift: float
) -> tuple[list[Interval], list[Interval]]:
    phone_intervals: list[Interval] = []
    word_frames: dict[int, list[int]] = {}
    inst_path = graph.node_instance[path]
    t = 0
    while t < len(path):
        u = t
        while u < len(path) and inst_path[u] == inst_path[t]:
            u += 1
        inst = graph.instances[int(inst_path[t])]
        phone_intervals.append(
            Interval(inst.phone, t * frame_shift, u * frame_shift)
        )
        if inst.word_index is not None:
            word_frames.setdefault(inst.word_index, []).extend([t, u])
        t = u
    word_intervals = [
        Interval(
            graph.words[w],
            min(fr) * frame_shift,
            max(fr) * frame_shift,
        )
        for w, fr in sorted(word_frames.items())
    ]
    return phone_intervals, word_intervals


def force_align(
    model: AcousticModel,
    feats: FeatureMatrix,
    tokens: Sequence[str],
    lexicon: Lexicon,
    sil_prior: float = 0.5,
    allow_unk: bool = False,
) -> AlignmentPath | AlignFailure:
    """Viterbi alignment of a transcript to features."""
    try:
        graph = compile_align_graph(
            tokens, lexicon, model, sil_prior=sil_prior, allow_unk=allow_unk
        )
    except GraphError as exc:
        return AlignFailure("oov", str(exc))
    if feats.n_frames < graph.min_frames:
        return AlignFailure(
            "too_short",
            f"{feats.n_frames} frames < minimum path length {graph.min_frames}",
        )
    result = viterbi_path(graph, model, feats.frames)
    if result is None:
        return AlignFailure("no_path", "no path reaches a final state")
    path, loglik = result
    phone_intervals, word_intervals = _intervals_from_path(
        graph, path, feats.frame_shift
    )
    return AlignmentPath(
        words=graph.words,
        state_ids=graph.node_state[path],
        node_path=path,
        phone_intervals=phone_intervals,
        word_intervals=word_intervals,
        loglik=loglik,
        frame_shift=feats.frame_shift,
    )


@dataclass
class AlignCorpusResult:
    alignments: list[AlignmentPath | AlignFailure]
    success_rate: float
    failure_reasons: dict[str, int]


def align_corpus(
    model: AcousticModel,
    data: Sequence[tuple[FeatureMatrix, Sequence[str]]],
    lexicon: Lexicon,
    sil_prior: float = 0.5,
    allow_unk: bool = False,
) -> AlignCorpusResult:
    alignments: list[AlignmentPath | AlignFailure] = []
    reasons: dict[str, int] = {}
    n_ok = 0
    for feats, tokens in data:
        result = force_align(
            model, feats, tokens, lexicon, sil_prior=sil_prior,
            allow_unk=allow_unk,
        )
        alignments.append(result)
        if isinstance(result, AlignmentPath):
            n_ok += 1
        else:
            reasons[result.reason] = reasons.get(result.reason, 0) + 1
    if not data:
        logger.warning("align_corpus on an empty corpus; rate defined as 0")
        return AlignCorpusResult([], 0.0, {})
    return AlignCorpusResult(alignments, n_ok / len(data), reasons)


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainSchedule:
    n_iters: int = 30
    split_iters: tuple[int, ...] = (4, 8, 12, 16)
    max_gauss: int = 8
    sil_prior: float = 0.5


@dataclass
class TrainResult:
    model: AcousticModel
    loglik_trace: list[tuple[float, float]]  # (pre-update, post-update) per iter
    n_failures_last_iter: int


def flat_start(
    data: Sequence[tuple[FeatureMatrix, Sequence[str]]],
    lexicon: Lexicon,
) -> AcousticModel:
    """Monophone model with every state at the global data statistics."""
    if not data:
        raise ValueError("flat_start needs at least one utterance")
    for _, tokens in data:
        missing = [w for w in tokens if w not in lexicon]
        if missing:
            raise ValueError(f"words not coverable by lexicon: {missing[:5]}")
    stacked = np.vstack([feats.frames for feats, _ in data])
    mean = stacked.mean(axis=0)
    var = np.maximum(stacked.var(axis=0), VARIANCE_FLOOR)
    phones = tuple(lexicon.phones())
    dim = stacked.shape[1]
    states = [
        GmmState(
            weights=np.array([1.0]),
            means=mean[None, :].copy(),
            variances=var[None, :].copy(),
        )
        for _ in range(len(phones) * N_STATES)
    ]
    transitions = np.full((len(phones) * N_STATES, 2), 0.5)
    return AcousticModel(
        phones=phones,
        dim=dim,
        kind=MONOPHONE,
        states=states,
        transitions=transitions,
    )


def _rescore_path(
    model: AcousticModel,
    graph: AlignGraph,
    path: np.ndarray,
    frames: np.ndarray,
) -> float:
    """Path log-likelihood under the model (same path, possibly new params).

    Only the aligned state is scored on each frame.  The terms are summed
    one after another in path order (entry, then emission and arc per
    frame, then exit), the order in which ``viterbi_path`` adds them.
    """
    state_ids = graph.node_state[path]
    emis = np.empty(len(path))
    for sid in np.unique(state_ids).tolist():
        rows = state_ids == sid
        emis[rows] = model.states[sid].loglik(frames[rows])
    log_trans = model.log_transitions()
    # the first lane whose source is the previous node
    lanes = (graph.lane_src[path[1:]] == path[:-1, None]).argmax(axis=1)
    terms = np.empty(2 * len(path) + 1)
    terms[0] = graph.entry_prior[(graph.entry_nodes == path[0]).argmax()]
    terms[1::2] = emis
    terms[2:-1:2] = graph.lane_logp(log_trans)[path[1:], lanes]
    terms[-1] = graph.final_logp(log_trans)[(graph.final_nodes == path[-1]).argmax()]
    return float(np.cumsum(terms)[-1])


def _accumulate(
    model: AcousticModel,
    graph: AlignGraph,
    path: np.ndarray,
    frames: np.ndarray,
    acc_gamma,
    acc_x,
    acc_x2,
    acc_trans,
) -> None:
    state_ids = graph.node_state[path]
    for sid in np.unique(state_ids).tolist():
        rows = frames[state_ids == sid]
        gamma = model.states[sid].responsibilities(rows)
        acc_gamma[sid] += gamma.sum(axis=0)
        acc_x[sid] += gamma.T @ rows
        acc_x2[sid] += gamma.T @ (rows * rows)
    # transition events: same node = self-loop, different = forward
    src_states = state_ids[:-1]
    self_moves = path[1:] == path[:-1]
    np.add.at(acc_trans[:, 0], src_states[self_moves], 1.0)
    np.add.at(acc_trans[:, 1], src_states[~self_moves], 1.0)
    acc_trans[int(state_ids[-1]), 1] += 1.0  # final exit


def _reestimate(
    model: AcousticModel,
    acc_gamma,
    acc_x,
    acc_x2,
    acc_trans,
) -> AcousticModel:
    new = model.copy()
    for sid, state in enumerate(new.states):
        gamma = acc_gamma[sid]
        total = gamma.sum()
        if total < 1e-8:
            continue  # state unseen this iteration: keep old parameters
        weights = gamma / total
        means = state.means.copy()
        variances = state.variances.copy()
        for k in range(state.n_components):
            if gamma[k] < 1e-6:
                continue
            mu = acc_x[sid][k] / gamma[k]
            var = acc_x2[sid][k] / gamma[k] - mu * mu
            means[k] = mu
            variances[k] = np.maximum(var, VARIANCE_FLOOR)
        state.weights = weights
        state.means = means
        state.variances = variances
        row = acc_trans[sid]
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
    """Double each state's component count (capped) by splitting heaviest."""
    new = model.copy()
    for sid, state in enumerate(new.states):
        target = min(2 * state.n_components, max_gauss)
        while state.n_components < target:
            state = _split_heaviest(state)
        new.states[sid] = state
    return new


def train(
    model: AcousticModel,
    data: Sequence[tuple[FeatureMatrix, Sequence[str]]],
    lexicon: Lexicon,
    schedule: TrainSchedule = TrainSchedule(),
) -> TrainResult:
    """Viterbi-EM: align, re-estimate, optionally grow mixtures."""
    model = model.copy()
    graphs = [
        compile_align_graph(
            tokens, lexicon, model, sil_prior=schedule.sil_prior
        )
        for _, tokens in data
    ]
    trace: list[tuple[float, float]] = []
    n_fail = 0
    for iteration in range(1, schedule.n_iters + 1):
        acc_gamma = [np.zeros(s.n_components) for s in model.states]
        acc_x = [np.zeros_like(s.means) for s in model.states]
        acc_x2 = [np.zeros_like(s.variances) for s in model.states]
        acc_trans = np.zeros_like(model.transitions)
        pre_total = 0.0
        paths: list[tuple[int, np.ndarray]] = []
        n_fail = 0
        for idx, ((feats, _), graph) in enumerate(zip(data, graphs)):
            if feats.n_frames < graph.min_frames:
                n_fail += 1
                continue
            result = viterbi_path(graph, model, feats.frames)
            if result is None:
                n_fail += 1
                continue
            path, loglik = result
            pre_total += loglik
            paths.append((idx, path))
            _accumulate(
                model, graph, path, feats.frames,
                acc_gamma, acc_x, acc_x2, acc_trans,
            )
        if not paths:
            raise RuntimeError(
                f"iteration {iteration}: every utterance failed alignment"
            )
        model = _reestimate(model, acc_gamma, acc_x, acc_x2, acc_trans)
        post_total = sum(
            _rescore_path(model, graphs[idx], path, data[idx][0].frames)
            for idx, path in paths
        )
        trace.append((pre_total, post_total))
        if iteration in schedule.split_iters:
            model = grow_mixtures(model, schedule.max_gauss)
    return TrainResult(model=model, loglik_trace=trace, n_failures_last_iter=n_fail)


# ---------------------------------------------------------------------------
# triphones

def triphone_context_sequence(
    tokens: Sequence[str], lexicon: Lexicon
) -> list[tuple[str, str, str]]:
    """Static word-internal contexts; SIL stands in at word boundaries."""
    return [ctx for word in tokens for ctx in _word_contexts(word, lexicon)]


def count_context_occupancy(
    data: Sequence[tuple[FeatureMatrix, Sequence[str]]],
    alignments: Sequence[AlignmentPath | AlignFailure],
    lexicon: Lexicon,
) -> dict[tuple[str, str, str], int]:
    """Aligned frames per (phone, left, right) context."""
    occupancy: dict[tuple[str, str, str], int] = {}
    sil = lexicon.silence_phone
    for (_, tokens), ali in zip(data, alignments):
        if not isinstance(ali, AlignmentPath):
            continue
        contexts = triphone_context_sequence(tokens, lexicon)
        speech = [
            iv for iv in ali.phone_intervals if iv.label != sil
        ]
        if len(speech) != len(contexts):
            continue  # silence-only words would desynchronize; skip
        for iv, ctx in zip(speech, contexts):
            frames = int(round((iv.end - iv.start) / ali.frame_shift))
            occupancy[ctx] = occupancy.get(ctx, 0) + frames
    return occupancy


def train_triphone(
    mono: AcousticModel,
    data: Sequence[tuple[FeatureMatrix, Sequence[str]]],
    lexicon: Lexicon,
    tie_min_count: int = 100,
    schedule: TrainSchedule = TrainSchedule(n_iters=10, split_iters=()),
) -> TrainResult:
    """Context-dependent refinement bootstrapped from monophone alignments.

    Contexts with at least ``tie_min_count`` aligned frames get dedicated
    states cloned from the center monophone; everything else stays tied
    to the monophone state.  With no qualifying context the monophone
    model is returned unchanged (marked triphone) with a warning.
    """
    corpus = align_corpus(mono, data, lexicon, sil_prior=schedule.sil_prior)
    occupancy = count_context_occupancy(data, corpus.alignments, lexicon)
    qualifying = sorted(
        ctx for ctx, frames in occupancy.items() if frames >= tie_min_count
    )
    model = mono.copy()
    model.kind = TRIPHONE
    if not qualifying:
        logger.warning(
            "no triphone context reached %d frames; returning the monophone "
            "model unchanged", tie_min_count,
        )
        return TrainResult(model=model, loglik_trace=[], n_failures_last_iter=0)
    for ctx in qualifying:
        phone = ctx[0]
        base = len(model.states)
        mono_base = model.mono_base(phone)
        for s in range(model.n_states):
            model.states.append(model.states[mono_base + s].copy())
        model.transitions = np.vstack(
            [model.transitions,
             model.transitions[mono_base : mono_base + model.n_states]]
        )
        model.tri_map[ctx] = base
    return train(model, data, lexicon, schedule)


# ---------------------------------------------------------------------------
# serialization

def save_model(model: AcousticModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<HH", MODEL_VERSION, 1 if model.kind == TRIPHONE else 0))
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
        fh.write(struct.pack("<I", len(model.tri_map)))
        phone_index = {p: i for i, p in enumerate(model.phones)}
        for (phone, left, right), base in sorted(model.tri_map.items()):
            fh.write(struct.pack(
                "<IIII", phone_index[phone], phone_index[left],
                phone_index[right], base,
            ))


def load_model(path) -> AcousticModel:
    with open(path, "rb") as fh:

        def read(n: int) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise ValueError(f"{path}: truncated model file")
            return data

        if read(4) != MODEL_MAGIC:
            raise ValueError(f"{path}: not an acoustic model file")
        version, is_tri = struct.unpack("<HH", read(4))
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        n_phones, n_states, dim, n_model_states = struct.unpack("<IIII", read(16))
        phones = []
        for _ in range(n_phones):
            (length,) = struct.unpack("<H", read(2))
            phones.append(read(length).decode("utf-8"))
        transitions = np.frombuffer(
            read(n_model_states * 2 * 8), dtype="<f8"
        ).reshape(n_model_states, 2).copy()
        states = []
        for _ in range(n_model_states):
            (k,) = struct.unpack("<I", read(4))
            weights = np.frombuffer(read(k * 8), dtype="<f8").copy()
            means = np.frombuffer(read(k * dim * 8), dtype="<f8").reshape(k, dim).copy()
            variances = np.frombuffer(read(k * dim * 8), dtype="<f8").reshape(k, dim).copy()
            states.append(GmmState(weights, means, variances))
        (n_tri,) = struct.unpack("<I", read(4))
        tri_map = {}
        for _ in range(n_tri):
            p, l, r, base = struct.unpack("<IIII", read(16))
            tri_map[(phones[p], phones[l], phones[r])] = base
    return AcousticModel(
        phones=tuple(phones),
        dim=dim,
        kind=TRIPHONE if is_tri else MONOPHONE,
        n_states=n_states,
        states=states,
        transitions=transitions,
        tri_map=tri_map,
    )
