import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest
from conftest import (
    DIM,
    decode_reference,
    feats_from,
    generate_utterance,
    gmm_loglik,
    toy_model,
)

from asrboot import decode as decode_module
from asrboot.am import SIL_PRIOR
from asrboot.decode import (
    DecodeConfig,
    DecodeError,
    _Decoder,
    build_prefix_tree,
    decode,
)
from asrboot.lexicon import graphemic_lexicon
from asrboot.lm import BOS, EOS, NGramLM, train_ngram

LN10 = math.log(10.0)


def uniform_lm(words, logp=None):
    vocab = sorted(set(words)) + [EOS]
    p = logp if logp is not None else math.log10(1.0 / len(vocab))
    return NGramLM(
        order=1,
        probs={(w,): p for w in vocab},
        backoffs={},
        vocab=frozenset(vocab + ["<UNK>"]),
    )


@pytest.fixture
def ab_lexicon():
    lex, _ = graphemic_lexicon(["A", "B"])
    return lex


def child_phones(tree, node):
    return [tree.phones[kid] for kid in tree.children[node]]


def child(tree, node, grapheme):
    (kid,) = [k for k in tree.children[node] if tree.phones[k] == grapheme]
    return kid


class TestPrefixTree:
    def test_shared_prefix_shape(self):
        lex, _ = graphemic_lexicon(["AB", "AC"])
        tree = build_prefix_tree(lex)
        assert tree.phones[0] is None
        assert child_phones(tree, 0) == ["A"]
        a_node = child(tree, 0, "A")
        assert child_phones(tree, a_node) == ["B", "C"]
        for g in ["B", "C"]:
            leaf = child(tree, a_node, g)
            assert tree.words[leaf] == [f"A{g}"]
            assert tree.children[leaf] == []

    def test_single_word_is_chain(self):
        lex, _ = graphemic_lexicon(["ABBA"])
        tree = build_prefix_tree(lex)
        assert len(tree.phones) == len(tree.children) == len(tree.words) == 5
        node = 0
        while tree.children[node]:
            assert len(tree.children[node]) == 1
            node = tree.children[node][0]
        assert tree.words[node] == ["ABBA"]

    def test_node_count_bound(self):
        words = ["AB", "ABA", "BA", "BAB", "A"]
        lex, _ = graphemic_lexicon(words)
        tree = build_prefix_tree(lex)
        assert len(tree.phones) <= sum(len(w) for w in words) + 1

    def test_word_on_internal_node(self):
        lex, _ = graphemic_lexicon(["A", "AB"])
        tree = build_prefix_tree(lex)
        a_node = child(tree, 0, "A")
        assert tree.words[a_node] == ["A"]
        assert "B" in child_phones(tree, a_node)

    def test_unk_included_on_request(self):
        lex, _ = graphemic_lexicon(["A"])
        tree = build_prefix_tree(lex, include_unk=True)
        assert "GBG" in child_phones(tree, 0)


class TestDecodeGeneration:
    def test_recovers_generated_words(self, ab_lexicon):
        model = toy_model()
        lm = uniform_lm(["A", "B"])
        tree = build_prefix_tree(ab_lexicon)
        feats, _ = generate_utterance(
            model, ab_lexicon, ("A", "B"), frames_per_state=4, seed=0,
            gap_sil=3,
        )
        hyp = decode(model, lm, tree, feats, DecodeConfig(beam=50.0),
                     lexicon=ab_lexicon)
        assert hyp.words == ("A", "B")

    def test_word_intervals_ordered_within_bounds(self, ab_lexicon):
        model = toy_model()
        lm = uniform_lm(["A", "B"])
        tree = build_prefix_tree(ab_lexicon)
        feats, _ = generate_utterance(
            model, ab_lexicon, ("B", "A", "B"), frames_per_state=4, seed=1,
            gap_sil=3,
        )
        hyp = decode(model, lm, tree, feats, DecodeConfig(beam=50.0),
                     lexicon=ab_lexicon)
        duration = feats.n_frames * feats.frame_shift
        prev_end = 0.0
        for iv in hyp.word_intervals:
            assert prev_end - 1e-9 <= iv.start < iv.end <= duration + 1e-9
            prev_end = iv.end

    @pytest.mark.parametrize("gap_sil", [1, 3])
    def test_word_after_a_pause_starts_at_the_sil_exit_frame(self, gap_sil, ab_lexicon):
        # the first word follows the leading silence, the others a pause;
        # no interval holds the silence before its word
        model = toy_model()
        lm = uniform_lm(["A", "B"])
        tree = build_prefix_tree(ab_lexicon)
        feats, truth = generate_utterance(
            model, ab_lexicon, ("A", "B", "A"), frames_per_state=4, seed=2,
            gap_sil=gap_sil,
        )
        hyp = decode(model, lm, tree, feats, DecodeConfig(beam=50.0))
        assert hyp.words == ("A", "B", "A")
        frames = [
            (round(iv.start / feats.frame_shift), round(iv.end / feats.frame_shift))
            for iv in hyp.word_intervals
        ]
        assert frames == truth

    def test_silence_only_audio_gives_empty_hypothesis(self, ab_lexicon):
        model = toy_model()
        lm = uniform_lm(["A", "B"])
        tree = build_prefix_tree(ab_lexicon)
        feats, _ = generate_utterance(
            model, ab_lexicon, (), frames_per_state=4,
            leading_sil=8, trailing_sil=0,
        )
        hyp = decode(model, lm, tree, feats, DecodeConfig(beam=50.0),
                     lexicon=ab_lexicon)
        assert hyp.words == ()


def exhaustive_decode_score(model, lexicon, lm, vocab, frames, cfg):
    """Independent maximizer over word sequences, silences, and durations."""
    t_total = len(frames)
    n_states = model.n_states
    log_trans = model.log_transitions()
    log_take = math.log(SIL_PRIOR)
    log_skip = math.log(1.0 - SIL_PRIOR)
    lm_w = cfg.lm_scale * LN10

    def seq_score(state_ids, prior, lm_total):
        n = len(state_ids)
        if n > t_total:
            return -math.inf
        emis = {sid: gmm_loglik(model.states[sid], frames) for sid in set(state_ids)}
        best = -math.inf
        for cuts in itertools.combinations(range(1, t_total), n - 1):
            edges = [0, *cuts, t_total]
            score = prior + lm_w * lm_total
            for i, sid in enumerate(state_ids):
                d = edges[i + 1] - edges[i]
                score += emis[sid][edges[i]:edges[i + 1]].sum()
                score += (d - 1) * log_trans[sid, 0] + log_trans[sid, 1]
            best = max(best, score)
        return best

    best = -math.inf
    max_words = t_total // n_states
    for length in range(0, max_words + 1):
        for words in itertools.product(vocab, repeat=length):
            history = (BOS,)
            lm_total = 0.0
            for w in words:
                lm_total += lm.logp(history, w)
                history = (history + (w,))[-(max(lm.order - 1, 1)):]
            lm_total += lm.logp(history, EOS)
            for sils in itertools.product([False, True], repeat=length + 1):
                if length == 0 and not sils[0]:
                    continue  # a path must occupy some state
                phones = []
                prior = 0.0
                for b in range(length + 1):
                    prior += log_take if sils[b] else log_skip
                    if sils[b]:
                        phones.append("SIL")
                    if b < length:
                        phones.extend(lexicon.pron(words[b]))
                if length == 0:
                    prior = log_take  # lone-silence path has one choice only
                state_ids = []
                for ph in phones:
                    state_ids.extend(model.states_for(ph))
                best = max(best, seq_score(state_ids, prior, lm_total))
    return best


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_micro_instances(self, seed, ab_lexicon):
        rng = np.random.default_rng(seed)
        n_states = 1 if seed % 2 else 3
        model = toy_model(n_states=n_states, spread=2.0)
        model.transitions = rng.uniform(0.3, 0.7, size=model.transitions.shape)
        model.transitions[:, 1] = 1.0 - model.transitions[:, 0]
        lm = train_ngram(
            [("A", "B"), ("B", "A"), ("A", "A")], order=2,
            map_singletons_to_unk=False,
        )
        t_frames = int(rng.integers(max(n_states, 2), 7))
        frames = rng.standard_normal((t_frames, DIM))
        cfg = DecodeConfig(beam=1e9, max_active=10**9, lm_scale=1.0)
        tree = build_prefix_tree(ab_lexicon)
        try:
            hyp = decode(model, lm, tree, feats_from(frames), cfg,
                         lexicon=ab_lexicon)
            got = hyp.total_score
        except DecodeError:
            got = -math.inf
        oracle = exhaustive_decode_score(
            model, ab_lexicon, lm, ["A", "B"], frames, cfg
        )
        if math.isinf(oracle):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(oracle, abs=1e-9)


class TestTieRule:
    def test_homophones_tie_to_earlier_word(self):
        lex, _ = graphemic_lexicon(["AB", "A-B", "B"])
        assert lex.pron("AB") == lex.pron("A-B")
        model = toy_model()
        lm = uniform_lm(["AB", "A-B", "B"])
        tree = build_prefix_tree(lex)
        feats, _ = generate_utterance(
            model, lex, ("AB", "B"), frames_per_state=4, seed=0, gap_sil=3,
        )
        hyp = decode(model, lm, tree, feats, DecodeConfig(beam=50.0),
                     lexicon=lex)
        assert hyp.words == ("A-B", "B")

    def test_tie_below_the_best_does_not_win(self, ab_lexicon):
        # group 0 scores [-100, -110, -110]: the tied pair sits below the
        # best and has the earlier word sequences; group 1 ties at the top
        dec = _Decoder(toy_model(), uniform_lm(["A", "B"]),
                       build_prefix_tree(ab_lexicon),
                       DecodeConfig())
        dec.bp_table = [(-1, "B", 0, 5), (-1, "A", 0, 5), (1, "A", 5, 9)]
        bp = [0, 2, 1, 0, 1]
        scores = [(-100.0, -90.0), (-110.0, -95.0), (-110.0, -95.0),
                  (-50.0, -40.0), (-50.0, -40.0)]
        tokens = [(0, 0, 0, b, total, ascore, 0.0)
                  for b, (total, ascore) in zip(bp, scores)]

        def winner(group):
            best = group[0]
            for tok in group[1:]:
                if dec._beats(tok, best):
                    best = tok
            return best

        assert winner(tokens[:3]) is tokens[0]
        assert winner(tokens[3:]) is tokens[4]

    def test_full_tie_keeps_the_earlier_token(self, ab_lexicon):
        # one key, equal totals, acoustic scores and (empty) word sequences:
        # the tokens differ only in their word starts
        dec = _Decoder(toy_model(), uniform_lm(["A", "B"]),
                       build_prefix_tree(ab_lexicon), DecodeConfig())
        assert step_survivors(dec, [0, 0], [(-1.0, -1.0)] * 2) == [0]


def step_survivors(dec, keys, rows):
    """Row indices of `_step`'s survivors from one token per row (total,
    acoustic score), each at tree position 0 under the LM history id its
    key gives and with its row index as its word start.  Position 0's
    column emits 0.0 and every other column -inf, so each token's
    self-loop is its only candidate."""
    hist = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    tokens = [(0, hist[key], i, -1, total, ascore, 0.0)
              for i, (key, (total, ascore)) in enumerate(zip(keys, rows))]
    emit = [-math.inf] * len(dec.states)
    emit[dec.pos_col[0]] = 0.0
    return [tok[2] for tok in dec._step(tokens, [], 1, emit)]


class TestPrune:
    @pytest.mark.parametrize("cap, kept", [(2, [0, 3]), (3, [0, 1, 3])])
    def test_cap_keeps_highest_totals_earlier_wins_ties(self, cap, kept, ab_lexicon):
        dec = _Decoder(toy_model(), uniform_lm(["A", "B"]),
                       build_prefix_tree(ab_lexicon),
                       DecodeConfig(beam=50.0, max_active=cap))
        rows = [(total, total) for total in [-1.0, -3.0, -3.0, -2.0]]
        assert step_survivors(dec, range(4), rows) == kept

    def test_beam_drops_tokens_below_the_best(self, ab_lexicon):
        dec = _Decoder(toy_model(), uniform_lm(["A", "B"]),
                       build_prefix_tree(ab_lexicon),
                       DecodeConfig(beam=1.5))
        rows = [(total, total) for total in [-1.0, -3.0, -2.5, -2.0]]
        assert step_survivors(dec, range(4), rows) == [0, 2, 3]

    def test_recombines_survivors_then_caps(self, ab_lexicon):
        dec = _Decoder(toy_model(), uniform_lm(["A", "B"]),
                       build_prefix_tree(ab_lexicon),
                       DecodeConfig(beam=1.5, max_active=2))
        # (position, history) keys with (total, acoustic) rows: key (0, 0)
        # ties at the top and the higher acoustic score wins; (0, 1) is
        # another key; (2, 0)'s best is below the beam
        keys = [(0, 0), (0, 0), (0, 1), (2, 0), (1, 0), (1, 0)]
        rows = [(-1.0, -5.0), (-1.0, -4.0), (-2.0, -4.0), (-3.0, -3.0),
                (-2.4, -2.0), (-2.6, -1.0)]
        assert step_survivors(dec, keys, rows) == [1, 2]
        assert step_survivors(dec, keys[:2] + keys[3:], rows[:2] + rows[3:]) == [1, 3]


def hypothesis_bits(fn, *args):
    """A hypothesis with every float as hex, or the error's message."""
    try:
        hyp = fn(*args)
    except DecodeError as exc:
        return "DecodeError: " + str(exc)
    return (
        hyp.words,
        [(iv.label, iv.start.hex(), iv.end.hex()) for iv in hyp.word_intervals],
        hyp.acoustic_score.hex(), hyp.lm_score.hex(), hyp.total_score.hex(),
        hyp.partial,
    )


class TestMatchesReferenceLoop:
    """`_step`'s cut while building candidates and its beam before
    recombining give the hypotheses of the expand -> recombine -> prune
    loop, bit for bit."""

    @pytest.fixture(scope="class")
    def cases(self):
        lex, _ = graphemic_lexicon(["AB", "A-B", "B", "BA", "A"])
        model = toy_model(spread=1.5)
        lm = train_ngram(
            [["AB", "B"], ["B", "A-B", "A"], ["BA", "A"], ["A", "B", "B"]],
            order=2, map_singletons_to_unk=False,
        )
        rng = np.random.default_rng(7)
        utts = [feats_from(rng.standard_normal((n, DIM))) for n in (1, 5, 17, 40)]
        for seed, words in enumerate([("AB", "B"), ("BA", "A", "B"), ("A-B",)]):
            feats, _ = generate_utterance(model, lex, words, frames_per_state=3,
                                          seed=seed, gap_sil=seed)
            utts.append(feats)
            # cut inside the last word: a partial ending
            utts.append(feats_from(feats.frames[: feats.n_frames - 5]))
        nan_mid = utts[-1].frames.copy()
        nan_mid[4] = np.nan
        utts += [feats_from(nan_mid), feats_from(np.full((1, DIM), np.nan)),
                 feats_from(np.full((5, DIM), np.nan))]
        return model, lm, build_prefix_tree(lex), utts

    @pytest.mark.parametrize("cap", [1, 2, 3, 10**9])
    @pytest.mark.parametrize("beam", [0.5, 2.0, 8.0, 60.0, 1e9])
    def test_bitwise_equal(self, beam, cap, cases, monkeypatch):
        model, lm, tree, utts = cases
        got, expected = [], []
        step = _Decoder._step

        def recording_step(dec, tokens, ends, t, emit):
            got.append(step(dec, tokens, ends, t, emit))
            return got[-1]

        monkeypatch.setattr(_Decoder, "_step", recording_step)
        for lm_scale in (1.0, 0.0):
            cfg = DecodeConfig(beam=beam, max_active=cap, lm_scale=lm_scale)
            for feats in utts:
                assert hypothesis_bits(decode, model, lm, tree, feats, cfg) == \
                    hypothesis_bits(decode_reference, model, lm, tree, feats, cfg,
                                    expected)
                # every frame keeps the same tokens, not only the best path
                assert got == expected

    def test_cases_reach_ties_partials_and_errors(self, cases):
        model, lm, tree, utts = cases
        cfg = DecodeConfig(beam=60.0, lm_scale=0.0)
        got = [hypothesis_bits(decode, model, lm, tree, f, cfg) for f in utts]
        assert any(isinstance(g, str) for g in got)
        assert any(not isinstance(g, str) and g[-1] for g in got)
        # under lm_scale 0 the homophones AB and A-B tie; A-B is earlier
        assert any(not isinstance(g, str) and "A-B" in g[0] for g in got)


def fresh_decode(model, lm, tree, feats, cfg):
    return _Decoder(model, lm, tree, cfg).decode(feats)


class TestKeptDecoder:
    """`decode` keeps one compiled decoder per thread, while the model, LM
    and tree are the same objects and the config is equal, and gives what
    a new decoder gives."""

    @pytest.fixture(scope="class")
    def cases(self):
        lex, _ = graphemic_lexicon(["AB", "B", "BA", "A"])
        model = toy_model(spread=1.5)
        lm = train_ngram([["AB", "B"], ["BA", "A"], ["A", "B", "B"]], order=2,
                         map_singletons_to_unk=False)
        utts = []
        for seed, words in enumerate([("AB", "B"), ("BA", "A", "B")]):
            feats, _ = generate_utterance(model, lex, words, frames_per_state=3,
                                          seed=seed, gap_sil=2)
            utts.append(feats)
        # cut inside the last word: a partial ending
        utts.append(feats_from(utts[1].frames[: utts[1].n_frames - 4]))
        nan_mid = utts[0].frames.copy()
        nan_mid[6] = np.nan  # the beam empties at frame 6
        utts.append(feats_from(nan_mid))
        return model, lm, build_prefix_tree(lex), utts

    @pytest.mark.parametrize(
        "changed, builds",
        [
            ("model", [True, False, True, True]),
            ("lm", [True, False, True, True]),
            ("tree", [True, False, True, True]),
            ("cfg", [True, False, True, True]),
            ("equal cfg", [True, False, False, False]),
        ],
    )
    def test_built_exactly_when_an_argument_changes(
        self, changed, builds, ab_lexicon, monkeypatch
    ):
        built = []
        init = _Decoder.__init__

        def counting_init(dec, *args):
            built.append(args)
            init(dec, *args)

        monkeypatch.setattr(_Decoder, "__init__", counting_init)
        monkeypatch.setattr(decode_module, "_kept", threading.local())
        a = dict(model=toy_model(), lm=uniform_lm(["A", "B"]),
                 tree=build_prefix_tree(ab_lexicon), cfg=DecodeConfig())
        other = dict(model=toy_model(), lm=uniform_lm(["A", "B"]),
                     tree=build_prefix_tree(ab_lexicon), cfg=DecodeConfig(beam=15.0))
        other["equal cfg"] = DecodeConfig()
        b = {**a, changed.split()[-1]: other[changed]}
        feats, _ = generate_utterance(a["model"], ab_lexicon, ("A", "B"))
        got = []
        for args in (a, a, b, a):
            before = len(built)
            decode(feats=feats, **args)
            got.append(len(built) > before)
        assert got == builds

    def test_interleaved_calls_match_a_new_decoder(self, cases):
        model, lm, tree, utts = cases
        good, other, partial, nan = utts
        model_b = toy_model(spread=2.0)
        lm_b = uniform_lm(["AB", "B", "BA", "A"])
        cfg, cfg_b = DecodeConfig(beam=60.0), DecodeConfig(beam=8.0, max_active=3)
        calls = [
            (model, lm, tree, good, cfg),
            (model, lm, tree, nan, cfg),
            (model, lm, tree, other, cfg),
            (model, lm_b, tree, other, cfg),
            (model, lm, tree, partial, cfg),
            (model_b, lm, tree, good, cfg),
            (model, lm, tree, good, cfg_b),
            (model, lm, tree, good, cfg),
            (model, lm, tree, other, cfg),
        ]
        got = [hypothesis_bits(decode, *args) for args in calls]
        assert got == [hypothesis_bits(fresh_decode, *args) for args in calls]
        assert got[1] == "DecodeError: beam emptied at frame 6"
        assert got[4][-1]  # partial
        assert got[0] == got[7] and got[2] == got[8]

    def test_threads_keep_their_own_decoder(self, cases):
        model, lm, tree, utts = cases
        models = [model, toy_model(spread=2.0)]
        cfg = DecodeConfig(beam=60.0)
        expected = [
            [hypothesis_bits(fresh_decode, m, lm, tree, f, cfg) for f in utts] * 3
            for m in models
        ]
        assert expected[0] != expected[1]
        results = {}

        def work(i):
            m = models[i % 2]
            results[i] = [hypothesis_bits(decode, m, lm, tree, f, cfg)
                          for _ in range(3) for f in utts]

        # more threads than cores, switching as often as the interpreter can
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: expected[i % 2] for i in range(4)}


class TestLmScaleZero:
    def test_output_independent_of_lm(self, ab_lexicon):
        model = toy_model()
        tree = build_prefix_tree(ab_lexicon)
        feats, _ = generate_utterance(
            model, ab_lexicon, ("A", "B", "A"), frames_per_state=3, seed=2,
            gap_sil=3,
        )
        cfg = DecodeConfig(beam=60.0, lm_scale=0.0)
        lm_a = uniform_lm(["A", "B"])
        lm_b = train_ngram(
            [("B", "B", "B")], order=2, map_singletons_to_unk=False
        )
        hyp_a = decode(model, lm_a, tree, feats, cfg, lexicon=ab_lexicon)
        hyp_b = decode(model, lm_b, tree, feats, cfg, lexicon=ab_lexicon)
        assert hyp_a.words == hyp_b.words


class TestBeamWidening:
    def test_wider_beam_never_lowers_score(self, ab_lexicon):
        model = toy_model(spread=1.5)
        lm = uniform_lm(["A", "B"])
        tree = build_prefix_tree(ab_lexicon)
        rng = np.random.default_rng(3)
        feats = feats_from(rng.standard_normal((12, DIM)))
        scores = []
        for beam in [0.5, 2.0, 8.0, 32.0]:
            cfg = DecodeConfig(beam=beam, max_active=10**9)
            try:
                scores.append(
                    decode(model, lm, tree, feats, cfg, lexicon=ab_lexicon
                           ).total_score
                )
            except DecodeError:
                scores.append(-math.inf)
        assert scores == sorted(scores)


class TestDecodeErrors:
    def test_too_few_frames_raises(self, ab_lexicon):
        model = toy_model()
        lm = uniform_lm(["A", "B"])
        tree = build_prefix_tree(ab_lexicon)
        with pytest.raises(DecodeError, match="no frames"):
            decode(model, lm, tree, feats_from(np.zeros((0, DIM))),
                   lexicon=ab_lexicon)

    @pytest.mark.parametrize("n_frames", [1, 5, 9])
    def test_nan_frames_empty_the_beam(self, n_frames, ab_lexicon):
        model = toy_model()
        with pytest.raises(DecodeError, match="^beam emptied at frame 0$"):
            decode(model, uniform_lm(["A", "B"]), build_prefix_tree(ab_lexicon),
                   feats_from(np.full((n_frames, DIM), np.nan)),
                   lexicon=ab_lexicon)

    @pytest.mark.parametrize("nan_frame", [4, 6, 11])
    def test_error_names_the_nan_frame(self, nan_frame, ab_lexicon):
        # the frames before it keep the beam alive, so it empties there
        frames = np.zeros((12, DIM))
        frames[nan_frame] = np.nan
        with pytest.raises(DecodeError, match=f"^beam emptied at frame {nan_frame}$"):
            decode(toy_model(), uniform_lm(["A", "B"]),
                   build_prefix_tree(ab_lexicon), feats_from(frames),
                   lexicon=ab_lexicon)

    def test_two_frames_give_a_flagged_partial(self, ab_lexicon):
        # a phone takes three frames, so no token can reach a final state
        model = toy_model()
        hyp = decode(model, uniform_lm(["A", "B"]), build_prefix_tree(ab_lexicon),
                     feats_from(np.zeros((2, DIM))), lexicon=ab_lexicon)
        assert hyp.partial
        assert hyp.words == () and hyp.word_intervals == ()
        assert math.isfinite(hyp.total_score)

    def test_partial_keeps_completed_words_and_drops_the_open_one(self, ab_lexicon):
        model = toy_model()
        lm = uniform_lm(["A", "B"])
        tree = build_prefix_tree(ab_lexicon)
        feats, _ = generate_utterance(
            model, ab_lexicon, ("A", "B"), frames_per_state=4, seed=0,
            gap_sil=3, trailing_sil=0,
        )
        full = decode(model, lm, tree, feats, DecodeConfig(beam=50.0),
                      lexicon=ab_lexicon)
        assert full.words == ("A", "B") and not full.partial
        # cut inside B: A is complete, B is still open at the last frame
        cut = feats_from(feats.frames[: feats.n_frames - 6])
        hyp = decode(model, lm, tree, cut, DecodeConfig(beam=50.0),
                     lexicon=ab_lexicon)
        assert hyp.partial
        assert hyp.words == ("A",)
        assert hyp.word_intervals == full.word_intervals[:1]

    def test_lexicon_phone_missing_from_model_raises(self):
        lexicon, _ = graphemic_lexicon(["AC"])
        with pytest.raises(ValueError, match=r"phone 'C' is not in the acoustic model"):
            decode(toy_model(), uniform_lm(["AC"]), build_prefix_tree(lexicon),
                   feats_from(np.zeros((30, DIM))), lexicon=lexicon)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam=0.0)
        with pytest.raises(ValueError):
            DecodeConfig(max_active=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beam", math.nan),
            ("max_active", 2.5),
            ("max_active", True),
            ("max_active", "7"),
            ("lm_scale", math.nan),
            ("lm_scale", math.inf),
        ],
    )
    def test_values_that_break_the_search_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DecodeConfig(**{field: value})

    @pytest.mark.parametrize("shape", [(50, 13), (50,)])
    def test_frame_shape_rejected(self, shape, ab_lexicon):
        message = f"frames of shape {shape}, expected (T, {DIM})"
        with pytest.raises(ValueError, match=re.escape(message)):
            decode(toy_model(), uniform_lm(["A", "B"]), build_prefix_tree(ab_lexicon),
                   feats_from(np.zeros(shape)))

    def test_infinite_beam_allowed(self):
        assert DecodeConfig(beam=math.inf).beam == math.inf
