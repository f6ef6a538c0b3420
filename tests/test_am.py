import itertools
import math

import numpy as np
import pytest

from conftest import DIM, feats_from, generate_utterance, toy_model

from asrboot import am
from asrboot.am import (
    AlignFailure,
    AlignmentPath,
    GmmState,
    TrainSchedule,
    _rescore_path,
    align_corpus,
    compile_align_graph,
    count_context_occupancy,
    flat_start,
    force_align,
    grow_mixtures,
    load_model,
    save_model,
    train,
    train_triphone,
    viterbi_path,
)
from asrboot.lexicon import graphemic_lexicon


@pytest.fixture
def ab_lexicon():
    lex, _ = graphemic_lexicon(["AB", "BA", "A", "B", "ABA"])
    return lex


class TestFlatStart:
    def test_all_means_equal_global_mean(self, ab_lexicon):
        rng = np.random.default_rng(0)
        data = [
            (feats_from(rng.standard_normal((20, DIM))), ("AB",)),
            (feats_from(rng.standard_normal((15, DIM))), ("BA",)),
        ]
        model = flat_start(data, ab_lexicon)
        stacked = np.vstack([f.frames for f, _ in data])
        for state in model.states:
            assert np.allclose(state.means[0], stacked.mean(axis=0))
        model.check_invariants()

    def test_uncoverable_word_rejected(self, ab_lexicon):
        data = [(feats_from(np.zeros((10, DIM))), ("ZZ",))]
        with pytest.raises(ValueError, match="coverable"):
            flat_start(data, ab_lexicon)

    def test_empty_data_rejected(self, ab_lexicon):
        with pytest.raises(ValueError):
            flat_start([], ab_lexicon)


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
        assert viterbi_path(graph, model, frames) is None

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

    def test_loglik_finite(self, ab_lexicon):
        model = toy_model()
        feats, _ = generate_utterance(model, ab_lexicon, ("AB",), seed=4)
        result = force_align(model, feats, ("AB",), ab_lexicon)
        assert math.isfinite(result.loglik)


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
            sid: model.states[sid].loglik(frames) for sid in set(state_ids)
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


class TestViterbiOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_enumeration(self, seed, ab_lexicon):
        rng = np.random.default_rng(seed)
        model = toy_model(spread=2.0)
        # perturb transitions so ties do not mask ordering bugs
        model.transitions = rng.uniform(0.2, 0.8, size=model.transitions.shape)
        model.transitions[:, 1] = 1.0 - model.transitions[:, 0]
        tokens = (["A"], ["B"], ["AB"])[seed % 3]
        t_frames = 3 + (seed % 4)
        frames = rng.standard_normal((t_frames, DIM))
        result = force_align(model, feats_from(frames), tokens, ab_lexicon)
        if t_frames < 3 * sum(len(ab_lexicon.pron(w)) for w in tokens):
            assert isinstance(result, AlignFailure)
            return
        oracle = exhaustive_best_path(model, ab_lexicon, tokens, frames)
        assert result.loglik == pytest.approx(oracle, abs=1e-9)


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
        sid = result.model.mono_base("A")
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

    def test_all_failures_is_an_error(self, ab_lexicon):
        model = toy_model()
        data = [(feats_from(np.zeros((4, DIM))), ("ABA",))]
        with pytest.raises(RuntimeError, match="failed alignment"):
            train(model, data, ab_lexicon, TrainSchedule(n_iters=1))


def rescore_frame_by_frame(model, graph, path, frames):
    """Reference path score: every state over every frame, one frame at
    a time, in the order entry, (arc, emission) per frame, exit."""
    emis = {
        sid: model.states[sid].loglik(frames)
        for sid in set(graph.node_state[path].tolist())
    }
    log_trans = model.log_transitions()
    lane_logp = graph.lane_logp(log_trans)
    total = 0.0
    total += graph.entry_prior[list(graph.entry_nodes).index(path[0])]
    total += emis[graph.node_state[path[0]]][0]
    for t in range(1, len(path)):
        dst, src = int(path[t]), int(path[t - 1])
        total += lane_logp[dst, list(graph.lane_src[dst]).index(src)]
        total += emis[graph.node_state[dst]][t]
    total += graph.final_logp(log_trans)[list(graph.final_nodes).index(path[-1])]
    return float(total)


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
        path, total = viterbi_path(graph, model, feats.frames)
        assert _rescore_path(model, graph, path, feats.frames) == total

    def test_trace_post_matches_frame_by_frame_rescoring(self, ab_lexicon):
        model = grow_mixtures(toy_model(spread=2.0), max_gauss=2)
        tokens = ("AB", "A", "BA")
        data = noisy_data(model, ab_lexicon, tokens, 3, seed=7)
        graphs = [compile_align_graph(tokens, ab_lexicon, model) for _ in data]
        start = model
        for n in range(1, 4):
            result = train(
                model, data, ab_lexicon, TrainSchedule(n_iters=n, split_iters=())
            )
            paths = [
                viterbi_path(g, start, f.frames)[0] for (f, _), g in zip(data, graphs)
            ]
            expected = sum(
                rescore_frame_by_frame(result.model, g, p, f.frames)
                for (f, _), g, p in zip(data, graphs, paths)
            )
            assert result.loglik_trace[-1][1] == expected
            start = result.model

    @pytest.mark.parametrize("seed", range(3))
    def test_loglik_rows_are_independent(self, seed):
        rng = np.random.default_rng(seed)
        k, dim = 4, 39
        state = GmmState(
            weights=rng.dirichlet(np.ones(k)),
            means=rng.standard_normal((k, dim)),
            variances=rng.uniform(0.2, 2.0, (k, dim)),
        )
        frames = 3.0 * rng.standard_normal((301, dim))
        rows = rng.random(len(frames)) < 0.3
        assert (
            state.loglik(frames[rows]).tobytes()
            == state.loglik(frames)[rows].tobytes()
        )


class TestAlignCorpus:
    def test_synthetic_corpus_rate_one(self, ab_lexicon):
        model = toy_model()
        data = [
            (generate_utterance(model, ab_lexicon, ("AB",), seed=i)[0], ("AB",))
            for i in range(5)
        ]
        result = align_corpus(model, data, ab_lexicon)
        assert result.success_rate == 1.0

    def test_empty_corpus_rate_zero(self, ab_lexicon):
        result = align_corpus(toy_model(), [], ab_lexicon)
        assert result.success_rate == 0.0

    def test_one_short_utterance(self, ab_lexicon):
        model = toy_model()
        data = [
            (generate_utterance(model, ab_lexicon, ("AB",), seed=i)[0], ("AB",))
            for i in range(4)
        ]
        data.append((feats_from(np.zeros((3, DIM))), ("ABA",)))
        result = align_corpus(model, data, ab_lexicon)
        assert result.success_rate == pytest.approx(4 / 5)
        assert result.failure_reasons == {"too_short": 1}


class TestTriphone:
    def make_data(self, model, lexicon, n=6):
        return [
            (generate_utterance(model, lexicon, ("AB", "BA"), seed=i,
                                frames_per_state=6)[0], ("AB", "BA"))
            for i in range(n)
        ]

    def test_infinite_threshold_equals_monophone(self, ab_lexicon):
        model = toy_model()
        data = self.make_data(model, ab_lexicon)
        result = train_triphone(
            model, data, ab_lexicon, tie_min_count=10**9,
        )
        assert result.model.kind == "triphone"
        assert result.model.tri_map == {}
        feats = data[0][0]
        mono_ali = force_align(model, feats, ("AB", "BA"), ab_lexicon)
        tri_ali = force_align(result.model, feats, ("AB", "BA"), ab_lexicon)
        assert tri_ali.loglik == pytest.approx(mono_ali.loglik, abs=1e-9)

    def test_frequent_context_gets_dedicated_states(self, ab_lexicon):
        model = toy_model()
        data = self.make_data(model, ab_lexicon, n=8)
        result = train_triphone(model, data, ab_lexicon, tie_min_count=40)
        # "A" with left SIL and right B occurs in every "AB"
        assert ("A", "SIL", "B") in result.model.tri_map
        assert result.model.n_model_states > model.n_model_states

    def test_unseen_context_falls_back_to_monophone(self, ab_lexicon):
        model = toy_model()
        data = self.make_data(model, ab_lexicon)
        result = train_triphone(model, data, ab_lexicon, tie_min_count=40)
        tri = result.model
        assert tri.states_for("A", "B", "B") == tuple(
            range(tri.mono_base("A"), tri.mono_base("A") + 3)
        )

    def test_occupancy_counts(self, ab_lexicon):
        model = toy_model()
        data = self.make_data(model, ab_lexicon, n=2)
        corpus = align_corpus(model, data, ab_lexicon)
        occ = count_context_occupancy(data, corpus.alignments, ab_lexicon)
        assert occ[("A", "SIL", "B")] > 0
        assert occ[("B", "A", "SIL")] > 0


class TestSerialization:
    def test_round_trip(self, ab_lexicon, tmp_path):
        model = toy_model()
        data = [
            (generate_utterance(model, ab_lexicon, ("AB",), seed=0)[0], ("AB",))
        ]
        trained = train(
            model, data, ab_lexicon, TrainSchedule(n_iters=2, split_iters=(1,))
        ).model
        trained.tri_map[("A", "SIL", "B")] = 0
        path = tmp_path / "model.bin"
        save_model(trained, path)
        back = load_model(path)
        assert back.phones == trained.phones
        assert back.kind == trained.kind
        assert np.array_equal(back.transitions, trained.transitions)
        for a, b in zip(back.states, trained.states):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.means, b.means)
            assert np.array_equal(a.variances, b.variances)
        assert back.tri_map == trained.tri_map

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE1234")
        with pytest.raises(ValueError, match="not an acoustic model"):
            load_model(path)

    def test_truncated_file_at_every_offset(self, tmp_path):
        model = toy_model(n_states=1)
        model.tri_map[("A", "SIL", "B")] = 0
        full = tmp_path / "model.bin"
        save_model(model, full)
        raw = full.read_bytes()
        cut = tmp_path / "cut.bin"
        for offset in range(len(raw)):
            cut.write_bytes(raw[:offset])
            with pytest.raises(ValueError, match="truncated model file"):
                load_model(cut)
