"""Shared helpers: tiny hand-built models and model-sampled features."""

import math
import os

import numpy as np

from asrboot import am
from asrboot.am import LOG_ZERO, PROB_FLOOR, AcousticModel, GmmState
from asrboot.decode import _HIST, _POS, _SCORE, DecodeError, _Decoder
from asrboot.features import (
    ENERGY_FLOOR,
    FeatureMatrix,
    FrontendConfig,
    _deltas,
    dct_basis,
    frame_count,
    mel_filterbank,
)

DIM = 2


def set_usable_cpus(monkeypatch, n):
    """The process reports ``n`` usable CPUs, so ``compute_mfcc`` splits a
    long track between two threads (n >= 2) or not (n == 1) on any
    machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


# a text-mode file decodes 8 KB at a time: a bad byte past them fails late
NON_UTF8_LINES = [2, 1000]


def write_with_bad_byte(path, lines, lineno):
    """Write ``lines`` as UTF-8, one per line, with a 0xff byte ending line
    ``lineno`` (counted from 1); line 1000 of the tests' files starts past
    the first 8 KB."""
    data = [line.encode("utf-8") for line in lines]
    assert lineno < 3 or len(b"\n".join(data[: lineno - 1])) > 8192
    data[lineno - 1] += b"\xff"
    path.write_bytes(b"\n".join(data) + b"\n")


def toy_model(phones=("A", "B"), n_states=3, spread=8.0):
    """Model whose states have well-separated means for easy generation."""
    all_phones = tuple(sorted(set(phones))) + ("GBG", "SIL")
    states = []
    for i in range(len(all_phones) * n_states):
        mean = np.array([spread * i, -spread * i], dtype=float)
        states.append(
            GmmState(
                weights=np.array([1.0]),
                means=mean[None, :],
                variances=np.full((1, DIM), 0.25),
            )
        )
    transitions = np.full((len(all_phones) * n_states, 2), 0.5)
    return AcousticModel(
        phones=all_phones, dim=DIM, n_states=n_states,
        states=states, transitions=transitions,
    )


def gmm_loglik(state, frames):
    """(T,) log p(x) of one state's mixture, straight from the formula, one
    component at a time: the reference the emission kernel is held to."""
    comp = np.empty((len(frames), state.n_components))
    for k in range(state.n_components):
        var = state.variances[k]
        gconst = -0.5 * np.log(2.0 * np.pi * var).sum()
        comp[:, k] = gconst - 0.5 * ((frames - state.means[k]) ** 2 / var).sum(axis=1)
    comp += np.log(np.maximum(state.weights, PROB_FLOOR))
    peak = comp.max(axis=1)
    return peak + np.log(np.exp(comp - peak[:, None]).sum(axis=1))


def state_logliks_reference(model, frames, state_ids):
    """(emis, comp) of ``am.state_logliks`` with the requested states'
    operand assembled for the call from their ``GmmState`` lists: the
    reference the columns gathered from ``am._emission_table`` are held
    to."""
    unique = np.unique(np.fromiter(state_ids, dtype=np.int64)).tolist()
    gmms = [model.states[sid] for sid in unique]
    n_comp = np.array([g.n_components for g in gmms])
    k_max = int(n_comp.max())
    state_idx, comp_idx = np.nonzero(np.arange(k_max) < n_comp[:, None])
    slot = comp_idx * len(gmms) + state_idx
    means = np.concatenate([g.means for g in gmms])
    variances = np.concatenate([g.variances for g in gmms])
    weights = np.concatenate([g.weights for g in gmms])
    inv_var = 1.0 / variances
    const = np.full(k_max * len(gmms), LOG_ZERO)
    const[slot] = (
        np.log(np.maximum(weights, PROB_FLOOR))
        - 0.5 * np.log(2.0 * np.pi * variances).sum(axis=1)
        - 0.5 * (means * means * inv_var).sum(axis=1)
    )
    dim = frames.shape[1]
    params = np.zeros((2 * dim, k_max * len(gmms)))
    params[:dim, slot] = (means * inv_var).T
    params[dim:, slot] = (-0.5 * inv_var).T
    scores = np.hstack([frames, frames * frames]) @ params
    scores += const
    comp = scores.reshape(frames.shape[0], k_max, len(gmms))
    peak = comp.max(axis=1)
    rel = comp - peak[:, None, :]
    np.maximum(rel, am.LOG_TINY, out=rel)
    np.exp(rel, out=rel)
    return peak + np.log(rel.sum(axis=1)), comp


def accumulate_reference(graph, path, frames, comp, stats):
    """``am._accumulate`` with the posterior over only the states the
    path visits (``np.unique`` of its states): the reference the
    posterior over every graph state is held to."""
    state_ids = graph.node_state[path]
    states, frame_col = np.unique(state_ids, return_inverse=True)
    t_frames, k = len(path), comp.shape[1]
    rows = np.arange(t_frames)
    gamma = comp[rows, :, graph.node_col[path]]
    gamma -= gamma.max(axis=1, keepdims=True)
    np.exp(gamma, out=gamma)
    gamma /= gamma.sum(axis=1, keepdims=True)
    post = np.zeros((t_frames, len(states), k))
    post[rows, frame_col] = gamma
    post = post.reshape(t_frames, -1)
    sums = (post.T @ np.hstack([frames, frames * frames])).reshape(
        len(states), k, 2, -1
    )
    stats.gamma[states, :k] += post.sum(axis=0).reshape(len(states), k)
    stats.x[states, :k] += sums[:, :, 0]
    stats.x2[states, :k] += sums[:, :, 1]
    src_states = state_ids[:-1]
    self_moves = path[1:] == path[:-1]
    np.add.at(stats.trans[:, 0], src_states[self_moves], 1.0)
    np.add.at(stats.trans[:, 1], src_states[~self_moves], 1.0)
    stats.trans[int(state_ids[-1]), 1] += 1.0


def feats_from(frames):
    frames = np.asarray(frames, dtype=float)
    return FeatureMatrix(frames=frames, log_energy=np.zeros(len(frames)))


def generate_utterance(model, lexicon, tokens, frames_per_state=4, seed=0,
                       leading_sil=2, trailing_sil=2, gap_sil=0):
    """Sample features from the model's own Gaussians along the transcript.

    Returns (features, word boundary frames) where boundaries are
    (start_frame, end_frame) per word.
    """
    rng = np.random.default_rng(seed)
    rows = []
    boundaries = []

    def emit_phone(phone, count=frames_per_state):
        ids = model.states_for(phone)
        for sid in ids:
            state = model.states[sid]
            for _ in range(count):
                rows.append(
                    rng.normal(state.means[0], np.sqrt(state.variances[0]))
                )

    if leading_sil:
        emit_phone("SIL", leading_sil)
    for w_idx, word in enumerate(tokens):
        if w_idx > 0 and gap_sil:
            emit_phone("SIL", gap_sil)
        start = len(rows)
        for phone in lexicon.pron(word):
            emit_phone(phone)
        boundaries.append((start, len(rows)))
    if trailing_sil:
        emit_phone("SIL", trailing_sil)
    return feats_from(np.array(rows)), boundaries


def viterbi_reference(graph, model, frames):
    """Best (node path, total) by the frame-by-frame DP, or None: the
    reference the node-major ``am.viterbi_path`` is held to.  Each frame
    takes an argmax over every node's lanes (self, previous node, skip),
    so ties go to the lowest lane; the total is the DP's own sum.  The
    emissions come from ``am.state_logliks`` looked up at call time, so a
    test that patches it patches both."""
    t_frames = frames.shape[0]
    emis, unique = am.state_logliks(model, frames, graph.node_state)[:2]
    # (T, M): the emission of every graph node on every frame
    node_emis = emis[:, np.searchsorted(unique, graph.node_state)]
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
    if not math.isfinite(total) or total <= LOG_ZERO / 2:
        return None

    path = np.empty(t_frames, dtype=np.int64)
    node = int(graph.final_nodes[best_final])
    for t in range(t_frames - 1, 0, -1):
        path[t] = node
        node = int(graph.lane_src[node, lanes[t, node]])
    path[0] = node
    return path, total


def log_mel_reference(samples):
    """(log mel rows, log_energy) of the whole signal in one pass, every
    frame gathered at once."""
    cfg = FrontendConfig()
    x = np.asarray(samples, dtype=np.float64)
    n_frames = frame_count(len(x), cfg)
    window, shift = cfg.window_samples, cfg.shift_samples
    raw = x[np.arange(window)[None, :] + shift * np.arange(n_frames)[:, None]]

    log_energy = np.log(np.maximum(np.sum(raw**2, axis=1), ENERGY_FLOOR))
    emphasized = raw.copy()
    emphasized[:, 1:] -= cfg.preemphasis * raw[:, :-1]
    emphasized[:, 0] -= cfg.preemphasis * raw[:, 0]
    windowed = emphasized * np.hamming(window)

    power = np.abs(np.fft.rfft(windowed, cfg.n_fft)) ** 2 / cfg.n_fft
    return np.log(np.maximum(power @ mel_filterbank().T, ENERGY_FLOOR)), log_energy


def band_order_dct(log_mel):
    """The cepstra of (T, n_mels) rows: the front end's DCT basis summed
    band by band in band order, as ``compute_mfcc`` sums it."""
    basis = dct_basis()
    ceps = log_mel[:, :1] * basis[0]
    for j in range(1, len(basis)):
        ceps += log_mel[:, j : j + 1] * basis[j]
    return ceps


def mfcc_reference(samples):
    """(frames, log_energy) of the whole signal in one pass, every frame
    gathered at once: the reference the block-wise ``compute_mfcc`` is
    held to."""
    log_mel, log_energy = log_mel_reference(samples)
    ceps = band_order_dct(log_mel)
    ceps[:, 0] = log_energy
    d1 = _deltas(ceps)
    return np.hstack([ceps, d1, _deltas(d1)]), log_energy


def decode_reference(model, lm, tree, feats, cfg, survivors=None):
    """Hypothesis by the expand -> recombine -> prune loop: every candidate
    of a frame is built, the best per (position, LM history) is kept by the
    decoder's `_beats` rule, then the beam around the best total and the
    `max_active` cap apply.  The reference the decoder's cut while
    building candidates (and its beam before recombining) is held to.  The
    network, the LM steps, the word ends and the final step are the
    decoder's; a token leaving the SIL exit starts its word at the current
    frame, as in the decoder.
    Each frame's surviving tokens are appended to ``survivors`` if given."""
    dec = _Decoder(model, lm, tree, cfg)
    n_frames = feats.n_frames
    if n_frames == 0:
        raise DecodeError("no frames to decode")
    dec.bp_table = []
    emis, unique = am.state_logliks(model, feats.frames, dec.pos_state)[:2]
    dec.pos_col = pos_col = np.searchsorted(unique, dec.pos_state).tolist()
    n_pos = len(dec.pos_state)

    def enter_starts(ends, emit):
        return [
            (q, hist, start, bp, score + prior + emit[pos_col[q]],
             ascore + prior + emit[pos_col[q]], lscore)
            for _, hist, start, bp, score, ascore, lscore in ends
            for q, prior in dec.starts
        ]

    def expand(tokens, t, emit):
        loops, inner, exits = [], [], []
        for pos, hist, start, bp, score, ascore, lscore in tokens:
            stay, e = dec.log_self[pos], emit[pos_col[pos]]
            loops.append((pos, hist, start, bp, score + stay + e, ascore + stay + e, lscore))
            fwd = dec.log_fwd[pos]
            moves = exits if dec.is_exit[pos] else inner
            if pos == dec.sil_exit:  # the word after a silence starts now
                start = t
            for nxt in dec.succ[pos]:
                e = emit[pos_col[nxt]]
                moves.append((nxt, hist, start, bp, score + fwd + e, ascore + fwd + e, lscore))
        return loops + inner + exits + enter_starts(dec._word_ends(tokens, t), emit)

    def recombine_prune(tokens):
        best = {}
        for i, tok in enumerate(tokens):
            key = tok[_HIST] * n_pos + tok[_POS]
            if key not in best or dec._beats(tok, tokens[best[key]]):
                best[key] = i
        tokens = [tokens[i] for i in sorted(best.values())]
        floor = max(tok[_SCORE] for tok in tokens) - cfg.beam
        tokens = [tok for tok in tokens if tok[_SCORE] >= floor]
        if len(tokens) > cfg.max_active:
            ranked = sorted(range(len(tokens)), key=lambda i: tokens[i][_SCORE],
                            reverse=True)
            tokens = [tokens[i] for i in sorted(ranked[: cfg.max_active])]
        if survivors is not None:
            survivors.append(tokens)
        return tokens

    tokens = recombine_prune(enter_starts([(0, 0, 0, -1, 0.0, 0.0, 0.0)], emis[0].tolist()))
    for t in range(1, n_frames):
        if not tokens:
            raise DecodeError(f"beam emptied at frame {t - 1}")
        tokens = recombine_prune(expand(tokens, t, emis[t].tolist()))
    if not tokens:
        raise DecodeError(f"beam emptied at frame {n_frames - 1}")
    return dec._finalize(tokens, dec._word_ends(tokens, n_frames))
