import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    DIM,
    accumulate_reference,
    feats_from,
    generate_utterance,
    gmm_loglik,
    state_logliks_reference,
    toy_model,
    viterbi_reference,
)

from asrboot import am
from asrboot.am import (
    VARIANCE_FLOOR,
    AlignFailure,
    AlignmentPath,
    GmmState,
    GraphError,
    TrainSchedule,
    _path_score,
    compile_align_graph,
    flat_start,
    force_align,
    grow_mixtures,
    load_model,
    save_model,
    train,
    viterbi_path,
)
from asrboot.lexicon import graphemic_lexicon


@pytest.fixture
def ab_lexicon():
    lex, _ = graphemic_lexicon(["AB", "BA", "A", "B", "ABA"])
    return lex


def equal_alignment_frames(model, lexicon, data):
    """Frames per state when each utterance's frames are cut into equal
    runs over SIL, the words' phones, SIL (every length divides evenly)."""
    by_state = {}
    for feats, tokens in data:
        phones = ["SIL", *(p for w in tokens for p in lexicon.pron(w)), "SIL"]
        state_ids = [sid for ph in phones for sid in model.states_for(ph)]
        run, rest = divmod(feats.n_frames, len(state_ids))
        assert rest == 0
        for i, sid in enumerate(state_ids):
            by_state.setdefault(sid, []).append(feats.frames[i * run:(i + 1) * run])
    return {sid: np.vstack(runs) for sid, runs in by_state.items()}


class TestFlatStart:
    def test_each_mean_is_the_mean_of_its_equal_alignment_frames(self, ab_lexicon):
        rng = np.random.default_rng(0)
        # SIL A B SIL and SIL A B A SIL: 12 and 15 states, 2 frames each
        data = [
            (feats_from(rng.standard_normal((24, DIM))), ("AB",)),
            (feats_from(rng.standard_normal((30, DIM))), ("AB", "A")),
        ]
        model = flat_start(data, ab_lexicon)
        expected = equal_alignment_frames(model, ab_lexicon, data)
        for sid, frames in expected.items():
            state = model.states[sid]
            assert np.allclose(state.means[0], frames.mean(axis=0), rtol=0, atol=1e-12)
            assert np.allclose(
                state.variances[0], np.maximum(frames.var(axis=0), 1e-4),
                rtol=0, atol=1e-12,
            )
        model.check_invariants()

    def test_state_without_frames_keeps_global_statistics(self, ab_lexicon):
        rng = np.random.default_rng(1)
        data = [(feats_from(rng.standard_normal((24, DIM))), ("BA",))]
        model = flat_start(data, ab_lexicon)
        frames = data[0][0].frames
        seen = set(equal_alignment_frames(model, ab_lexicon, data))
        unseen = set(range(model.n_model_states)) - seen
        assert unseen == set(model.states_for("GBG"))
        for sid in unseen:
            assert np.allclose(model.states[sid].means[0], frames.mean(axis=0))
            assert np.allclose(model.states[sid].variances[0], frames.var(axis=0))
            assert model.transitions[sid].tolist() == [0.5, 0.5]

    def test_utterance_shorter_than_its_states_is_skipped(self, ab_lexicon):
        rng = np.random.default_rng(2)
        long = (feats_from(rng.standard_normal((24, DIM))), ("AB",))
        short = (feats_from(5.0 + rng.standard_normal((11, DIM))), ("BA",))
        model = flat_start([long, short], ab_lexicon)
        expected = equal_alignment_frames(model, ab_lexicon, [long])
        for sid, frames in expected.items():
            assert np.allclose(model.states[sid].means[0], frames.mean(axis=0))

    def test_training_from_flat_start_is_deterministic(self, ab_lexicon):
        model = toy_model()
        data = [
            (generate_utterance(model, ab_lexicon, ("AB", "A"), seed=i)[0],
             ("AB", "A"))
            for i in range(3)
        ]
        schedule = TrainSchedule(n_iters=4, split_iters=(2,))
        r1 = train(flat_start(data, ab_lexicon), data, ab_lexicon, schedule)
        r2 = train(flat_start(data, ab_lexicon), data, ab_lexicon, schedule)
        assert r1.loglik_trace == r2.loglik_trace

    def test_uncoverable_word_rejected(self, ab_lexicon):
        data = [(feats_from(np.zeros((10, DIM))), ("ZZ",))]
        with pytest.raises(ValueError, match="coverable"):
            flat_start(data, ab_lexicon)

    def test_empty_data_rejected(self, ab_lexicon):
        with pytest.raises(ValueError):
            flat_start([], ab_lexicon)

    @pytest.mark.parametrize(
        "tokens, error, message",
        [
            ((), GraphError, "utterance 1: empty transcript"),
            (("ZZ",), ValueError,
             r"utterance 1: words not coverable by lexicon: \['ZZ'\]"),
        ],
    )
    def test_bad_transcript_names_its_utterance(
        self, ab_lexicon, tokens, error, message
    ):
        frames = feats_from(np.zeros((24, DIM)))
        with pytest.raises(error, match=message):
            flat_start([(frames, ("AB",)), (frames, tokens)], ab_lexicon)

    def test_clip_with_a_nan_frame_is_left_out(self, ab_lexicon):
        model = toy_model()
        data = [
            (generate_utterance(model, ab_lexicon, ("AB",), seed=i)[0], ("AB",))
            for i in range(3)
        ]
        data[1][0].frames[4, 1] = np.nan
        start = flat_start(data, ab_lexicon)
        clean = flat_start([data[0], data[2]], ab_lexicon)
        for state, expected in zip(start.states, clean.states):
            assert np.array_equal(state.means, expected.means)
            assert np.array_equal(state.variances, expected.variances)
        result = train(
            start, data, ab_lexicon, TrainSchedule(n_iters=2, split_iters=())
        )
        assert result.n_failures_last_iter == 1
        assert all(np.isfinite(s.means).all() for s in result.model.states)
        result.model.check_invariants()

    def test_no_finite_clip_rejected(self, ab_lexicon):
        data = [(feats_from(np.full((24, DIM), np.nan)), ("AB",))]
        with pytest.raises(ValueError, match="finite"):
            flat_start(data, ab_lexicon)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_global_statistics_equal_the_stacked_reference(
        self, ab_lexicon, monkeypatch, seed
    ):
        # re-estimation skipped: every state holds the global statistics
        monkeypatch.setattr(am, "_reestimate", lambda model, stats: model)
        rng = np.random.default_rng(seed)
        dim = 39
        loc = rng.uniform(-50.0, 50.0, dim)
        lengths = [1, *rng.integers(2, 600, 12).tolist()]
        clips = [loc + 10.0 * rng.standard_normal((n, dim)) for n in lengths]
        clips[5][3, 7] = np.nan
        data = [(feats_from(frames), ("AB",)) for frames in clips]
        model = flat_start(data, ab_lexicon)
        stacked = np.vstack([frames for i, frames in enumerate(clips) if i != 5])
        mean = stacked.mean(axis=0)
        var = np.maximum(stacked.var(axis=0), VARIANCE_FLOOR)
        for state in model.states:
            assert state.means[0].tobytes() == mean.tobytes()
            assert state.variances[0].tobytes() == var.tobytes()

    def test_memory_is_far_below_the_corpus(self, ab_lexicon):
        # the global statistics are summed clip by clip, not over a stack
        rng = np.random.default_rng(3)
        clips = [rng.standard_normal((400, 39)) for _ in range(30)]
        data = [(feats_from(frames), ("AB", "BA")) for frames in clips]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            flat_start(data, ab_lexicon)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * sum(frames.nbytes for frames in clips)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            # the first utterance sets the dimension
            ((24, DIM), (24, 13), f"1: frames of shape (24, 13), expected (T, {DIM})"),
            ((24, DIM), (24,), f"1: frames of shape (24,), expected (T, {DIM})"),
            ((24,), (24, DIM), "0: frames of shape (24,), expected (T, D)"),
        ],
    )
    def test_frame_shape_names_its_utterance(
        self, ab_lexicon, first, second, message
    ):
        data = [(feats_from(np.zeros(shape)), ("AB",)) for shape in (first, second)]
        with pytest.raises(ValueError, match=re.escape("utterance " + message)):
            flat_start(data, ab_lexicon)


class TestForceAlign:
    def test_three_grapheme_word_alignable_at_9_frames(self, ab_lexicon):
        model = toy_model()
        feats, _ = generate_utterance(
            model, ab_lexicon, ("ABA",), frames_per_state=1,
            leading_sil=0, trailing_sil=0,
        )
        assert feats.n_frames == 9
        result = force_align(model, feats, ("ABA",), ab_lexicon)
        assert isinstance(result, AlignmentPath)

    def test_too_short_fails(self, ab_lexicon):
        model = toy_model()
        result = force_align(
            model, feats_from(np.zeros((5, DIM))), ("AB",), ab_lexicon
        )
        assert isinstance(result, AlignFailure)
        assert result.reason == "too_short"

    def test_oov_fails(self, ab_lexicon):
        model = toy_model()
        result = force_align(
            model, feats_from(np.zeros((30, DIM))), ("ZZ",), ab_lexicon
        )
        assert isinstance(result, AlignFailure)
        assert result.reason == "oov"

    def test_no_path_when_no_final_state_is_reached(self, ab_lexicon, monkeypatch):
        model = toy_model()
        feats, _ = generate_utterance(model, ab_lexicon, ("AB",), seed=0)

        def impossible(model, frames, state_ids):
            unique = np.unique(state_ids).tolist()
            col = {sid: j for j, sid in enumerate(unique)}
            return np.full((frames.shape[0], len(unique)), -np.inf), col

        monkeypatch.setattr(am, "state_logliks", impossible)
        result = force_align(model, feats, ("AB",), ab_lexicon)
        assert isinstance(result, AlignFailure)
        assert result.reason == "no_path"

    def test_viterbi_path_none_below_minimum_length(self, ab_lexicon):
        model = toy_model()
        graph = compile_align_graph(("ABA",), ab_lexicon, model)
        frames = np.zeros((graph.min_frames - 1, DIM))
        emis = am.state_logliks(model, frames, graph.states)[0]
        assert viterbi_path(graph, model.log_transitions(), emis) is None

    def test_generated_boundaries_recovered(self, ab_lexicon):
        model = toy_model()
        feats, truth = generate_utterance(
            model, ab_lexicon, ("AB", "BA"), frames_per_state=4, seed=1,
            leading_sil=3, trailing_sil=3, gap_sil=3,
        )
        result = force_align(model, feats, ("AB", "BA"), ab_lexicon)
        assert isinstance(result, AlignmentPath)
        assert result.words == ("AB", "BA")
        for iv, (start, end) in zip(result.word_intervals, truth):
            assert abs(iv.start / 0.01 - start) <= 2
            assert abs(iv.end / 0.01 - end) <= 2

    def test_phone_intervals_tile_utterance(self, ab_lexicon):
        model = toy_model()
        feats, _ = generate_utterance(model, ab_lexicon, ("ABA",), seed=2)
        result = force_align(model, feats, ("ABA",), ab_lexicon)
        assert result.phone_intervals[0].start == 0.0
        assert result.phone_intervals[-1].end == pytest.approx(
            feats.n_frames * 0.01
        )
        for prev, nxt in zip(result.phone_intervals, result.phone_intervals[1:]):
            assert prev.end == pytest.approx(nxt.start)

    def test_single_word_infinite_beam_feasible(self, ab_lexicon):
        model = toy_model()
        feats = feats_from(np.random.default_rng(3).standard_normal((7, DIM)))
        result = force_align(model, feats, ("AB",), ab_lexicon)
        assert isinstance(result, AlignmentPath)

    def test_nan_feature_is_no_path(self, ab_lexicon):
        model = toy_model()
        feats, _ = generate_utterance(model, ab_lexicon, ("AB",), seed=0)
        feats.frames[5, 0] = np.nan
        result = force_align(model, feats, ("AB",), ab_lexicon)
        assert isinstance(result, AlignFailure)
        assert result.reason == "no_path"

    @pytest.mark.parametrize("sil_prior", [0.0, 1.0, 1.5])
    def test_sil_prior_outside_open_unit_interval_raises(self, ab_lexicon, sil_prior):
        feats = feats_from(np.zeros((30, DIM)))
        with pytest.raises(ValueError, match=r"sil_prior must be in \(0, 1\)"):
            force_align(toy_model(), feats, ("AB",), ab_lexicon, sil_prior=sil_prior)

    @pytest.mark.parametrize("shape", [(50, 13), (50,)])
    def test_frame_shape_rejected(self, ab_lexicon, shape):
        message = f"frames of shape {shape}, expected (T, {DIM})"
        with pytest.raises(ValueError, match=re.escape(message)):
            force_align(toy_model(), feats_from(np.zeros(shape)), ("AB",), ab_lexicon)

    def test_loglik_finite(self, ab_lexicon):
        model = toy_model()
        feats, _ = generate_utterance(model, ab_lexicon, ("AB",), seed=4)
        result = force_align(model, feats, ("AB",), ab_lexicon)
        assert math.isfinite(result.loglik)

    def test_lexicon_phone_missing_from_model_raises(self):
        lexicon, _ = graphemic_lexicon(["AC"])
        feats = feats_from(np.zeros((30, DIM)))
        with pytest.raises(ValueError, match=r"phone 'C' is not in the acoustic model"):
            force_align(toy_model(), feats, ("AC",), lexicon)


def exhaustive_best_path(model, lexicon, tokens, frames, sil_prior=0.5):
    """Independent maximizer: enumerate silence choices, durations, states."""
    log_take = math.log(sil_prior)
    log_skip = math.log(1.0 - sil_prior)
    t_total = len(frames)
    prons = [lexicon.pron(w) for w in tokens]
    n_boundaries = len(tokens) + 1
    best = -math.inf
    for choice in itertools.product([False, True], repeat=n_boundaries):
        phones = []
        prior = 0.0
        for b in range(n_boundaries):
            prior += log_take if choice[b] else log_skip
            if choice[b]:
                phones.append("SIL")
            if b < len(tokens):
                phones.extend(prons[b])
        state_ids = []
        for i, phone in enumerate(phones):
            state_ids.extend(model.states_for(phone))
        n = len(state_ids)
        if n > t_total:
            continue
        emis = {
            sid: gmm_loglik(model.states[sid], frames) for sid in set(state_ids)
        }
        log_trans = model.log_transitions()
        for cuts in itertools.combinations(range(1, t_total), n - 1):
            edges = [0, *cuts, t_total]
            score = prior
            for i, sid in enumerate(state_ids):
                d = edges[i + 1] - edges[i]
                score += emis[sid][edges[i]:edges[i + 1]].sum()
                score += (d - 1) * log_trans[sid, 0] + log_trans[sid, 1]
            best = max(best, score)
    return best


# (tokens, frames, sil_prior) per seed.  Seeds 8 and up hold several words,
# from the minimum length up, so the between-word silence lanes (take
# and skip, with unequal priors) meet the oracle.
OPTIMALITY_CASES = [
    ((["A"], ["B"], ["AB"])[seed % 3], 3 + seed % 4, 0.5) for seed in range(8)
] + [
    (tokens, t_frames, 0.3)
    for tokens, shortest in ((("A", "B"), 6), (("AB", "A"), 9), (("A", "B", "A"), 9))
    for t_frames in range(shortest, shortest + 5)
]


class TestViterbiOptimality:
    @pytest.mark.parametrize("seed", range(len(OPTIMALITY_CASES)))
    def test_matches_exhaustive_enumeration(self, seed, ab_lexicon):
        tokens, t_frames, sil_prior = OPTIMALITY_CASES[seed]
        rng = np.random.default_rng(seed)
        model = toy_model(spread=2.0)
        # perturb transitions so ties do not mask ordering bugs
        model.transitions = rng.uniform(0.2, 0.8, size=model.transitions.shape)
        model.transitions[:, 1] = 1.0 - model.transitions[:, 0]
        frames = rng.standard_normal((t_frames, DIM))
        result = force_align(
            model, feats_from(frames), tokens, ab_lexicon, sil_prior=sil_prior
        )
        if t_frames < 3 * sum(len(ab_lexicon.pron(w)) for w in tokens):
            assert isinstance(result, AlignFailure)
            return
        oracle = exhaustive_best_path(model, ab_lexicon, tokens, frames, sil_prior)
        assert result.loglik == pytest.approx(oracle, abs=1e-9)


def scan_case(seed):
    """Random toy alignment problem: 1-4 words (so the skip lanes are
    used), sil_prior 0.3/0.5/0.7, random transitions, 1 or 2 components,
    from the minimum length to 40 frames over it."""
    rng = np.random.default_rng(seed)
    words = ["AB", "BA", "A", "B", "ABA"]
    lexicon, _ = graphemic_lexicon(words)
    model = toy_model(spread=2.0)
    if seed % 2:
        model = grow_mixtures(model, max_gauss=2)
    model.transitions[:, 0] = rng.uniform(0.05, 0.95, len(model.transitions))
    model.transitions[:, 1] = 1.0 - model.transitions[:, 0]
    tokens = tuple(rng.choice(words, rng.integers(1, 5)))
    graph = compile_align_graph(
        tokens, lexicon, model, sil_prior=(0.3, 0.5, 0.7)[seed % 3]
    )
    t_frames = graph.min_frames + int(rng.integers(0, 41))
    return model, graph, 3.0 * rng.standard_normal((t_frames, DIM))


def patch_emissions(monkeypatch, table):
    """Make ``am.state_logliks`` return the first T rows of a fixed
    (frames, states) table, one column per requested state."""

    def fake(model, frames, state_ids):
        unique = np.unique(np.fromiter(state_ids, dtype=np.int64)).tolist()
        emis = table[: len(frames), unique]
        return emis, {sid: j for j, sid in enumerate(unique)}

    monkeypatch.setattr(am, "state_logliks", fake)


class TestNodeMajorScan:
    """``viterbi_path`` against the frame-by-frame DP of ``conftest``."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_frame_by_frame_reference(self, seed):
        model, graph, frames = scan_case(seed)
        emis = am.state_logliks(model, frames, graph.states)[0]
        path, total = viterbi_path(graph, model.log_transitions(), emis)
        ref_path, ref_total = viterbi_reference(graph, model, frames)
        assert np.array_equal(path, ref_path)
        assert total == ref_total

    @pytest.mark.parametrize("seed", range(30))
    def test_graph_maps_each_node_to_its_emission_column(self, seed):
        _, graph, _ = scan_case(seed)
        states = np.asarray(graph.states)
        assert np.array_equal(states[graph.node_col], graph.node_state)
        assert np.array_equal(states, np.unique(states))  # sorted, unique

    @pytest.mark.parametrize("seed", range(12))
    def test_ties_break_like_the_reference(self, seed, monkeypatch):
        # integer scores and zero arcs: every sum is exact, so every tie
        # is a true tie and only the tie rule decides the path
        model, graph, _ = scan_case(seed)
        model.transitions[:] = 1.0
        graph.lane_prior[:] = 0.0
        graph.entry_prior[:] = 0.0
        graph.final_prior[:] = 0.0
        rng = np.random.default_rng(100 + seed)
        n_max = graph.min_frames + 40
        table = rng.integers(-2, 1, (n_max, model.n_model_states)).astype(float)
        patch_emissions(monkeypatch, table)
        for t_frames in range(graph.min_frames, n_max + 1):
            frames = np.zeros((t_frames, DIM))
            emis = am.state_logliks(model, frames, graph.states)[0]
            path, total = viterbi_path(graph, model.log_transitions(), emis)
            ref_path, ref_total = viterbi_reference(graph, model, frames)
            assert np.array_equal(path, ref_path), t_frames
            assert total == ref_total

    def test_long_utterance_at_real_scale(self, ab_lexicon, monkeypatch):
        model = toy_model()
        tokens = ("AB", "BA", "ABA", "A", "B", "AB")
        graph = compile_align_graph(tokens, ab_lexicon, model)
        rng = np.random.default_rng(0)
        t_frames = 4000
        table = rng.normal(-60.0, 5.0, (t_frames, model.n_model_states))
        patch_emissions(monkeypatch, table)
        frames = np.zeros((t_frames, DIM))
        emis = am.state_logliks(model, frames, graph.states)[0]
        path, total = viterbi_path(graph, model.log_transitions(), emis)
        _, ref_total = viterbi_reference(graph, model, frames)
        rescored = _path_score(
            graph, path, am.state_logliks(model, frames, graph.states)[0],
            model.log_transitions(),
        )
        assert rescored == total
        assert rescored >= ref_total - 1e-9 * abs(ref_total)

    @pytest.mark.parametrize(
        "case, tokens, sil_prior, extra",
        [
            ("one word, no lane 2", ("ABA",), 0.5, 9),
            ("T = min_frames", ("AB", "BA", "A"), 0.5, 0),
            ("ends on the last word's exit", ("AB", "BA", "A"), 0.02, 12),
        ],
    )
    def test_rolling_rows_edge_cases(self, ab_lexicon, case, tokens, sil_prior, extra):
        model = toy_model(spread=2.0)
        graph = compile_align_graph(tokens, ab_lexicon, model, sil_prior=sil_prior)
        frames = 3.0 * np.random.default_rng(7).standard_normal(
            (graph.min_frames + extra, DIM)
        )
        emis = am.state_logliks(model, frames, graph.states)[0]
        path, total = viterbi_path(graph, model.log_transitions(), emis)
        ref_path, ref_total = viterbi_reference(graph, model, frames)
        assert np.array_equal(path, ref_path)
        assert total == ref_total
        if len(tokens) == 1:
            assert (graph.lane_src[:, 2] < 0).all()
        if sil_prior < 0.5:
            assert path[-1] == graph.final_nodes[0]

    def test_nan_frame_matches_the_reference(self, ab_lexicon):
        model = toy_model()
        graph = compile_align_graph(("AB", "BA"), ab_lexicon, model)
        frames = np.random.default_rng(8).standard_normal((graph.min_frames + 10, DIM))
        frames[graph.min_frames // 2, 1] = np.nan
        emis = am.state_logliks(model, frames, graph.states)[0]
        assert viterbi_path(graph, model.log_transitions(), emis) is None
        assert viterbi_reference(graph, model, frames) is None

    def test_memory_is_one_node_by_frame_table(self, ab_lexicon, monkeypatch):
        # the backtrace reads every node's running max; a node's scores
        # are kept only while a later node reads them
        model = toy_model()
        tokens = ("AB", "BA", "ABA", "A", "B") * 12
        graph = compile_align_graph(tokens, ab_lexicon, model)
        t_frames = 2000
        rng = np.random.default_rng(9)
        table = rng.normal(-60.0, 5.0, (t_frames, model.n_model_states))
        patch_emissions(monkeypatch, table)
        emis = am.state_logliks(model, np.zeros((t_frames, DIM)), graph.states)[0]
        log_trans = model.log_transitions()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = viterbi_path(graph, log_trans, emis)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert result is not None
        assert peak < 1.25 * 8 * len(graph.node_state) * t_frames


class TestTraining:
    def test_single_state_mle_matches_sample_mean(self):
        lex, _ = graphemic_lexicon(["A"])
        model = toy_model(phones=("A",), n_states=1)
        rng = np.random.default_rng(0)
        true_mean = np.array([3.0, -1.0])
        frames = rng.normal(true_mean, 1.0, size=(400, DIM))
        data = [(feats_from(frames), ("A",))]
        schedule = TrainSchedule(n_iters=1, split_iters=(), sil_prior=1e-9)
        result = train(model, data, lex, schedule)
        sid = result.model.states_for("A")[0]
        learned = result.model.states[sid].means[0]
        assert np.allclose(learned, frames.mean(axis=0), atol=1e-9)
        assert np.all(np.abs(learned - true_mean) < 3.0 / math.sqrt(400))

    def test_loglik_non_decreasing_at_fixed_alignment(self, ab_lexicon):
        model = toy_model(spread=1.0)
        rng = np.random.default_rng(1)
        data = []
        for i in range(4):
            feats, _ = generate_utterance(
                model, ab_lexicon, ("AB", "BA"), seed=i, frames_per_state=3
            )
            noisy = feats.frames + 0.5 * rng.standard_normal(feats.frames.shape)
            data.append((feats_from(noisy), ("AB", "BA")))
        result = train(
            model, data, ab_lexicon,
            TrainSchedule(n_iters=6, split_iters=(3,)),
        )
        for pre, post in result.loglik_trace:
            assert post >= pre - 1e-6

    def test_invariants_after_every_iteration(self, ab_lexicon):
        model = toy_model()
        data = [
            generate_utterance(model, ab_lexicon, ("AB",), seed=i)[0]
            for i in range(3)
        ]
        data = [(f, ("AB",)) for f in data]
        for n in range(1, 5):
            result = train(
                model, data, ab_lexicon,
                TrainSchedule(n_iters=n, split_iters=(2,)),
            )
            result.model.check_invariants()

    def test_mixture_growth_at_most_doubles(self):
        model = toy_model()
        before = sum(s.n_components for s in model.states)
        grown = grow_mixtures(model, max_gauss=8)
        after = sum(s.n_components for s in grown.states)
        assert before < after <= 2 * before
        capped = grown
        for _ in range(4):
            capped = grow_mixtures(capped, max_gauss=8)
        assert all(s.n_components <= 8 for s in capped.states)

    def test_deterministic_training(self, ab_lexicon, tmp_path):
        model = toy_model()
        data = [
            (generate_utterance(model, ab_lexicon, ("AB", "A"), seed=i)[0],
             ("AB", "A"))
            for i in range(3)
        ]
        schedule = TrainSchedule(n_iters=5, split_iters=(2, 4))
        r1 = train(model, data, ab_lexicon, schedule)
        r2 = train(model, data, ab_lexicon, schedule)
        p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        save_model(r1.model, p1)
        save_model(r2.model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_data_rejected(self, ab_lexicon):
        with pytest.raises(ValueError, match="at least one utterance"):
            train(toy_model(), [], ab_lexicon)

    @pytest.mark.parametrize(
        "tokens, message",
        [
            ((), "utterance 1: empty transcript"),
            (("ZZ",), r"utterance 1: words not in lexicon: \['ZZ'\]"),
        ],
    )
    def test_bad_transcript_names_its_utterance(self, ab_lexicon, tokens, message):
        frames = feats_from(np.zeros((24, DIM)))
        with pytest.raises(GraphError, match=message):
            train(toy_model(), [(frames, ("AB",)), (frames, tokens)], ab_lexicon)

    @pytest.mark.parametrize("shape", [(50, 13), (50,)])
    def test_frame_shape_names_its_utterance(self, ab_lexicon, shape):
        good = feats_from(np.zeros((24, DIM)))
        message = f"utterance 1: frames of shape {shape}, expected (T, {DIM})"
        with pytest.raises(ValueError, match=re.escape(message)):
            train(toy_model(), [(good, ("AB",)), (feats_from(np.zeros(shape)), ("AB",))],
                  ab_lexicon)

    @pytest.mark.parametrize(
        "field, value",
        [("n_iters", 0), ("n_iters", -3), ("n_iters", 2.0), ("n_iters", True),
         ("max_gauss", 0), ("max_gauss", 1.5), ("max_gauss", True)],
    )
    def test_schedule_counts_are_integers_from_one(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            TrainSchedule(**{field: value})

    @pytest.mark.parametrize("entry", [0, -1, 2.5, 2.0, True])
    def test_split_iters_entries_are_integers_from_one(self, entry):
        TrainSchedule(n_iters=3, split_iters=(2, np.int64(3), 7))  # 7: never runs
        message = f"split_iters entry must be an integer >= 1, got {entry!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainSchedule(n_iters=3, split_iters=(2, entry))

    def test_nan_clip_counts_as_failed(self, ab_lexicon):
        model = toy_model()
        data = [
            (generate_utterance(model, ab_lexicon, ("AB",), seed=i)[0], ("AB",))
            for i in range(3)
        ]
        data[1][0].frames[4, 1] = np.nan
        result = train(
            model, data, ab_lexicon, TrainSchedule(n_iters=2, split_iters=())
        )
        assert result.n_failures_last_iter == 1
        assert result.failure_reasons == {"no_path": 1}
        assert all(math.isfinite(x) for pair in result.loglik_trace for x in pair)
        result.model.check_invariants()

    def test_all_failures_is_an_error(self, ab_lexicon):
        model = toy_model()
        data = [(feats_from(np.zeros((4, DIM))), ("ABA",))]
        with pytest.raises(RuntimeError, match=r"failed alignment \({'too_short': 1}\)"):
            train(model, data, ab_lexicon, TrainSchedule(n_iters=1))


def rescore_frame_by_frame(model, graph, path, frames):
    """Reference path score: emissions from the call `viterbi_path` makes,
    added one frame at a time in the order entry, (arc, emission) per
    frame, exit."""
    emis, col = am.state_logliks(model, frames, graph.node_state)[:2]
    log_trans = model.log_transitions()
    lane_logp = graph.lane_logp(log_trans)
    total = 0.0
    total += graph.entry_prior[list(graph.entry_nodes).index(path[0])]
    total += emis[0, col[graph.node_state[path[0]]]]
    for t in range(1, len(path)):
        dst, src = int(path[t]), int(path[t - 1])
        total += lane_logp[dst, list(graph.lane_src[dst]).index(src)]
        total += emis[t, col[graph.node_state[dst]]]
    total += graph.final_logp(log_trans)[list(graph.final_nodes).index(path[-1])]
    return float(total)


# iteration 1 no split, 2 a split that grows (K 1 -> 2), 3 a split at the
# cap that grows nothing, 4 the last
HANDOVER_SCHEDULE = TrainSchedule(n_iters=4, split_iters=(2, 3), max_gauss=2)


def train_reference(model, data, lexicon, schedule):
    """(pre, post) trace of Viterbi-EM as a plain loop: align every
    utterance, re-estimate, rescore every aligned path frame by frame under
    the aligning and the re-estimated model, then grow mixtures."""
    graphs = [
        compile_align_graph(tokens, lexicon, model, sil_prior=schedule.sil_prior)
        for _, tokens in data
    ]
    trace = []
    for iteration in range(1, schedule.n_iters + 1):
        stats = am._Stats.zeros(model)
        aligned = []
        for (feats, _), graph in zip(data, graphs):
            emis, _, comp = am.state_logliks(model, feats.frames, graph.states)
            result = viterbi_path(graph, model.log_transitions(), emis)
            if result is not None:
                aligned.append((graph, result[0], feats.frames))
                am._accumulate(graph, result[0], am._stack(feats.frames), comp, stats)
        pre = sum(rescore_frame_by_frame(model, *a) for a in aligned)
        model = am._reestimate(model, stats)
        post = sum(rescore_frame_by_frame(model, *a) for a in aligned)
        trace.append((pre, post))
        if iteration in schedule.split_iters:
            model = am.grow_mixtures(model, schedule.max_gauss)
    return trace


def noisy_data(model, lexicon, tokens, n, seed):
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n):
        feats, _ = generate_utterance(
            model, lexicon, tokens, seed=seed + i, frames_per_state=3, gap_sil=2
        )
        noisy = feats.frames + 2.0 * rng.standard_normal(feats.frames.shape)
        data.append((feats_from(noisy), tokens))
    return data


class TestRescoring:
    @pytest.mark.parametrize("seed", range(4))
    def test_best_path_rescores_to_viterbi_total(self, seed, ab_lexicon):
        model = toy_model(spread=2.0)
        rng = np.random.default_rng(seed)
        model.transitions[:, 0] = rng.uniform(0.2, 0.8, len(model.transitions))
        model.transitions[:, 1] = 1.0 - model.transitions[:, 0]
        tokens = ("AB", "BA", "ABA")
        ((feats, _),) = noisy_data(model, ab_lexicon, tokens, 1, seed)
        graph = compile_align_graph(tokens, ab_lexicon, model)
        emis = am.state_logliks(model, feats.frames, graph.states)[0]
        path, total = viterbi_path(graph, model.log_transitions(), emis)
        rescored = _path_score(
            graph, path, am.state_logliks(model, feats.frames, graph.states)[0],
            model.log_transitions(),
        )
        assert rescored == total

    @pytest.mark.parametrize("n_states", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_rescored_total_on_paths_that_skip_a_silence(
        self, ab_lexicon, n_states, seed
    ):
        model = toy_model(n_states=n_states, spread=2.0)
        tokens = ("AB", "BA", "ABA")
        feats, _ = generate_utterance(model, ab_lexicon, tokens, seed=seed)
        graph = compile_align_graph(tokens, ab_lexicon, model, sil_prior=0.1)
        log_trans = model.log_transitions()
        emis = am.state_logliks(model, feats.frames, graph.states)[0]
        path, total = viterbi_path(graph, log_trans, emis)
        steps = np.diff(path)
        assert (steps == n_states + 1).any()  # lane 2, over a SIL
        # the lanes by source node: the first lane that leaves path[t - 1]
        lanes = (graph.lane_src[path[1:]] == path[:-1, None]).argmax(axis=1)
        assert np.array_equal(np.minimum(steps, 2), lanes)
        assert _path_score(graph, path, emis, log_trans) == total
        assert rescore_frame_by_frame(model, graph, path, feats.frames) == total

    def test_trace_post_matches_frame_by_frame_rescoring(self, ab_lexicon):
        model = toy_model(spread=2.0)
        tokens = ("AB", "A", "BA")
        data = noisy_data(model, ab_lexicon, tokens, 3, seed=7)
        result = train(model, data, ab_lexicon, HANDOVER_SCHEDULE)
        assert result.failure_reasons == {}
        assert {s.n_components for s in result.model.states} == {2}
        expected = train_reference(model, data, ab_lexicon, HANDOVER_SCHEDULE)
        assert len(expected) == HANDOVER_SCHEDULE.n_iters
        assert result.loglik_trace == expected

    @pytest.mark.parametrize("fail_under", ["first", "grown"])
    def test_failed_utterance_left_out_of_its_iteration(
        self, ab_lexicon, monkeypatch, fail_under
    ):
        # one utterance scores -inf under one model, which aligns one
        # iteration and rescores none: the first model (iteration 1) or the
        # one the split at 2 grows (iteration 3).  The next iteration aligns
        # it again, with no iteration-i path of its own to rescore.
        model = toy_model(spread=2.0)
        data = noisy_data(model, ab_lexicon, ("AB", "A", "BA"), 3, seed=7)
        bad = data[1][0].frames
        real_logliks, real_grow = am.state_logliks, am.grow_mixtures
        models = {}  # "first" and "grown" model of the current run

        def grow(m, max_gauss):
            grown = real_grow(m, max_gauss)
            if grown is not m:
                models.setdefault("grown", grown)
            return grown

        def logliks(m, frames, state_ids, *inputs):
            models.setdefault("first", m)
            emis, col, comp = real_logliks(m, frames, state_ids, *inputs)
            if frames is bad and m is models.get(fail_under):
                emis = np.full_like(emis, -np.inf)
            return emis, col, comp

        monkeypatch.setattr(am, "grow_mixtures", grow)
        monkeypatch.setattr(am, "state_logliks", logliks)
        failures = []
        real_best_path = am._best_path

        def best_path(graph, *args):
            result = real_best_path(graph, *args)
            failures.append(isinstance(result, AlignFailure))
            return result

        monkeypatch.setattr(am, "_best_path", best_path)
        result = train(model, data, ab_lexicon, HANDOVER_SCHEDULE)
        fail_iter = 1 if fail_under == "first" else 3
        expected_failures = [False] * 3 * HANDOVER_SCHEDULE.n_iters
        expected_failures[3 * (fail_iter - 1) + 1] = True
        assert failures == expected_failures
        assert result.failure_reasons == {}
        assert all(math.isfinite(x) for pair in result.loglik_trace for x in pair)
        models.clear()
        expected = train_reference(model, data, ab_lexicon, HANDOVER_SCHEDULE)
        assert result.loglik_trace == expected

    def test_each_utterance_scored_once_per_iteration(self, ab_lexicon, monkeypatch):
        model = toy_model(spread=2.0)
        data = noisy_data(model, ab_lexicon, ("AB", "A", "BA"), 3, seed=7)
        calls = dict.fromkeys(("state_logliks", "viterbi_path"), 0)
        for name in calls:

            def counted(*args, _real=getattr(am, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(am, name, counted)
        result = train(model, data, ab_lexicon, HANDOVER_SCHEDULE)
        assert result.failure_reasons == {}
        n, n_iters = len(data), HANDOVER_SCHEDULE.n_iters
        growing_splits = 1  # at 2; at 3 every state is already at max_gauss
        # one score per utterance per iteration, plus the separate rescoring
        # after the growing split and after the last iteration
        assert calls == {
            "state_logliks": n * (n_iters + growing_splits + 1),
            "viterbi_path": n * n_iters,
        }


    def test_accumulation_reads_the_aligning_component_scores(
        self, ab_lexicon, monkeypatch
    ):
        model = toy_model(spread=2.0)
        data = noisy_data(model, ab_lexicon, ("AB", "A", "BA"), 3, seed=7)
        calls = dict.fromkeys(("state_logliks", "_component_logliks"), 0)
        for name in calls:

            def counted(*args, _real=getattr(am, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(am, name, counted)
        result = train(model, data, ab_lexicon, HANDOVER_SCHEDULE)
        assert result.failure_reasons == {}
        assert calls["state_logliks"] > 0
        assert calls["_component_logliks"] == calls["state_logliks"]


class TestEmissionKernel:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_per_component_formula(self, seed):
        rng = np.random.default_rng(seed)
        dim = 39
        model = mixed_k_model(rng, dim)  # padded slots in every call
        frames = 3.0 * rng.standard_normal((301, dim))
        state_ids = [5, 0, 7, 5, 2, 9, 11]  # unsorted, with a repeat
        emis, col = am.state_logliks(model, frames, state_ids)[:2]
        assert sorted(col) == sorted(set(state_ids))
        assert emis.shape == (len(frames), len(col))
        for sid, j in col.items():
            ref = gmm_loglik(model.states[sid], frames)
            np.testing.assert_allclose(emis[:, j], ref, rtol=1e-9, atol=0)


    @pytest.mark.parametrize("seed", range(3))
    def test_clamp_before_the_exp_leaves_the_mixture_sum_exact(self, seed):
        rng = np.random.default_rng(seed)
        dim = 39
        model = toy_model()
        model.dim = dim
        for sid in range(model.n_model_states):
            k = (1, 2, 4)[sid % 3]  # mixed K: LOG_ZERO padding in the sum
            model.states[sid] = GmmState(
                weights=rng.dirichlet(np.ones(k)),
                means=8.0 * rng.standard_normal((k, dim)),  # tens of sigma apart
                variances=rng.uniform(0.2, 2.0, (k, dim)),
            )
        frames = 3.0 * rng.standard_normal((301, dim))
        frames[17, 4] = np.nan
        state_ids = [5, 0, 7, 5, 2, 9, 11]
        emis, _, comp = am.state_logliks(model, frames, state_ids)

        unique = sorted(set(state_ids))
        expected_comp = am._component_logliks(model, frames, unique)
        assert np.array_equal(comp, expected_comp, equal_nan=True)
        # the unclamped log-sum-exp: terms below -745 are 0, above denormal
        peak = expected_comp.max(axis=1)
        rel = expected_comp - peak[:, None, :]
        expected = peak + np.log(np.exp(rel).sum(axis=1))
        assert np.array_equal(emis, expected, equal_nan=True)
        assert np.isnan(emis[17]).all()
        assert np.isfinite(np.delete(emis, 17, axis=0)).all()

        assert np.any(comp == am.LOG_ZERO)  # padded slots
        shifted = rel[(comp > am.LOG_ZERO / 2) & np.isfinite(rel)]  # real terms
        assert np.mean(shifted < -745.0) > 0.1  # exp gives 0
        assert np.any((shifted > -745.0) & (shifted < am.LOG_TINY))  # denormal

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "case, state_ids",
        [
            ("every state, K 1/2/4", list(range(12))),
            ("largest K 2 of the model's 4", [0, 1, 3, 4, 10]),
            ("unsorted, with a repeat", [5, 0, 7, 5, 2, 9, 11]),
            ("NaN frame", [5, 0, 7, 5, 2, 9, 11]),
        ],
    )
    def test_model_table_equals_the_per_call_assembly(self, seed, case, state_ids):
        rng = np.random.default_rng(seed)
        model = mixed_k_model(rng, dim=39)
        frames = 3.0 * rng.standard_normal((301, 39))
        if case == "NaN frame":
            frames[17, 4] = np.nan
        ref_emis, ref_comp = state_logliks_reference(model, frames, state_ids)
        k_cut = max(model.states[sid].n_components for sid in state_ids)
        assert ref_comp.shape[1] == k_cut
        table = am._emission_table(model)
        stacked = am._stack(frames)
        for inputs in ((), (table,), (table, stacked)):
            emis, _, comp = am.state_logliks(model, frames, state_ids, *inputs)
            assert np.array_equal(comp, ref_comp, equal_nan=True)
            assert np.array_equal(emis, ref_emis, equal_nan=True)


def mixed_k_model(rng, dim):
    """``toy_model`` of dimension ``dim`` whose state ``sid`` has
    (1, 2, 4)[sid % 3] random components."""
    model = toy_model()
    model.dim = dim
    for sid in range(model.n_model_states):
        k = (1, 2, 4)[sid % 3]
        model.states[sid] = GmmState(
            weights=rng.dirichlet(np.ones(k)),
            means=rng.standard_normal((k, dim)),
            variances=rng.uniform(0.2, 2.0, (k, dim)),
        )
    return model


class TestAccumulation:
    @pytest.mark.parametrize("seed", range(4))
    def test_posterior_over_every_graph_state_equals_the_visited_ones(
        self, ab_lexicon, seed
    ):
        # every path skips each optional silence, so the SIL columns of
        # the posterior are never visited and hold zeros
        rng = np.random.default_rng(seed)
        dim = 39
        model = mixed_k_model(rng, dim)
        stats, ref_stats = am._Stats.zeros(model), am._Stats.zeros(model)
        for tokens in (("AB", "BA"), ("ABA", "A", "B"), ("B",)):
            graph = compile_align_graph(tokens, ab_lexicon, model)
            in_word = [inst.word_index is not None for inst in graph.instances]
            nodes = np.flatnonzero(np.repeat(in_word, model.n_states))
            t_frames = len(nodes) + int(rng.integers(0, 60))
            path = nodes[np.arange(t_frames) * len(nodes) // t_frames]
            frames = 3.0 * rng.standard_normal((t_frames, dim))
            stacked = am._stack(frames)
            _, _, comp = am.state_logliks(model, frames, graph.states)
            visited = np.isin(graph.states, graph.node_state[path])
            assert not visited.all()
            am._accumulate(graph, path, stacked, comp, stats)
            accumulate_reference(graph, path, frames, comp, ref_stats)
        for name in ("gamma", "x", "x2", "trans"):
            assert np.array_equal(getattr(stats, name), getattr(ref_stats, name)), name


class TestSerialization:
    def test_round_trip(self, ab_lexicon, tmp_path):
        model = toy_model()
        data = [
            (generate_utterance(model, ab_lexicon, ("AB",), seed=0)[0], ("AB",))
        ]
        trained = train(
            model, data, ab_lexicon, TrainSchedule(n_iters=2, split_iters=(1,))
        ).model
        path = tmp_path / "model.bin"
        save_model(trained, path)
        back = load_model(path)
        assert back.phones == trained.phones
        assert np.array_equal(back.transitions, trained.transitions)
        for a, b in zip(back.states, trained.states):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.means, b.means)
            assert np.array_equal(a.variances, b.variances)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE1234")
        with pytest.raises(ValueError, match="not an acoustic model"):
            load_model(path)

    def test_truncated_file_at_every_offset(self, tmp_path):
        model = toy_model(n_states=1)
        full = tmp_path / "model.bin"
        save_model(model, full)
        raw = full.read_bytes()
        cut = tmp_path / "cut.bin"
        for offset in range(len(raw)):
            cut.write_bytes(raw[:offset])
            with pytest.raises(ValueError, match="truncated model file"):
                load_model(cut)


class TestMalformedModelFile:
    @pytest.fixture
    def raw(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(toy_model(), path)
        return path.read_bytes()

    def write(self, tmp_path, raw):
        path = tmp_path / "bad.bin"
        path.write_bytes(raw)
        return path

    def test_version_1_file_rejected(self, tmp_path, raw):
        path = self.write(tmp_path, raw[:4] + (1).to_bytes(2, "little") + raw[6:])
        with pytest.raises(ValueError, match=r"bad\.bin: model file version 1.*version 2"):
            load_model(path)

    def test_zero_states_per_phone_rejected(self, tmp_path, raw):
        # header after magic and version: phones, states per phone, dim, states
        path = self.write(tmp_path, raw[:10] + bytes(4) + raw[14:])
        with pytest.raises(ValueError, match=r"bad\.bin: 0 states per phone"):
            load_model(path)

    def test_state_count_other_than_phones_times_states_rejected(self, tmp_path):
        model = toy_model()
        del model.states[-3:]
        model.transitions = model.transitions[:-3]
        path = tmp_path / "bad.bin"
        save_model(model, path)
        with pytest.raises(ValueError, match=r"bad\.bin: 9 states, but 4 phones"):
            load_model(path)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("zero components", r"bad\.bin: state 4: 0 components, need >= 1"),
            ("dimension 0", r"bad\.bin: feature dimension 0, need >= 1"),
            ("negative variance", r"bad\.bin: state 2: variances must be finite and > 0"),
            ("zero variance", r"bad\.bin: state 2: variances must be finite and > 0"),
            ("NaN weight", r"bad\.bin: state 1: weights must be finite and >= 0"),
            ("negative weight", r"bad\.bin: state 1: weights must be finite and >= 0"),
            ("infinite mean", r"bad\.bin: state 3: means must be finite"),
            ("NaN transition", r"bad\.bin: state 5: transitions must be finite and >= 0"),
        ],
    )
    def test_model_that_would_score_nan_or_match_nothing_rejected(
        self, tmp_path, fault, message
    ):
        model = toy_model()
        if fault == "zero components":
            model.states[4] = GmmState(np.zeros(0), np.zeros((0, DIM)), np.zeros((0, DIM)))
        elif fault == "dimension 0":
            model.dim = 0
            for state in model.states:
                state.means, state.variances = np.zeros((1, 0)), np.zeros((1, 0))
        elif fault == "negative variance":
            model.states[2].variances[0, 1] = -0.25
        elif fault == "zero variance":
            model.states[2].variances[0, 0] = 0.0
        elif fault == "NaN weight":
            model.states[1].weights[0] = np.nan
        elif fault == "negative weight":
            model.states[1].weights[0] = -1.0
        elif fault == "infinite mean":
            model.states[3].means[0, 0] = np.inf
        else:
            model.transitions[5, 0] = np.nan
        path = tmp_path / "bad.bin"
        save_model(model, path)
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_phone_named_twice_rejected(self, tmp_path):
        # states_for("A") would give the last copy's states, 9-11, and
        # states 0-8 could never be reached
        model = toy_model()
        model.phones = ("A", "A", "A", "A")
        path = tmp_path / "bad.bin"
        save_model(model, path)
        with pytest.raises(ValueError, match=r"bad\.bin: phone 'A' appears twice"):
            load_model(path)

    def test_count_past_the_end_of_the_file_rejected(self, tmp_path, raw):
        # magic, version and header, the phone names, the transitions, then
        # state 0's component count; before, it asked for a 34 GB read
        model = toy_model()
        offset = 22 + sum(2 + len(p.encode()) for p in model.phones)
        offset += model.transitions.nbytes
        assert raw[offset:offset + 4] == (1).to_bytes(4, "little")
        huge = (0xFFFFFFFF).to_bytes(4, "little")
        path = self.write(tmp_path, raw[:offset] + huge + raw[offset + 4:])
        left = len(raw) - offset - 4
        message = (rf"bad\.bin: truncated model file: state 0 weights needs "
                   rf"34359738360 bytes, {left} left")
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path, raw):
        path = self.write(tmp_path, raw + b"\0")
        with pytest.raises(ValueError, match=r"bad\.bin: trailing bytes"):
            load_model(path)
