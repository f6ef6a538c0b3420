"""The recipe's decode and score stages on the toy model.  The golden tiny
run (``tests/test_golden.py``) covers the whole chain with no failed
utterance; here one utterance fails."""

from conftest import generate_utterance, toy_model

from asrboot import decode as decode_module
from asrboot import recipe
from asrboot.decode import DecodeConfig, DecodeError, Hypothesis
from asrboot.lexicon import graphemic_lexicon
from asrboot.lm import train_ngram

REFS = [("AB", "B"), ("BA", "A", "B"), ("A",)]


def test_a_failed_utterance_keeps_its_error_and_scores_as_deletions(monkeypatch):
    model = toy_model()
    lex = graphemic_lexicon(["A", "B", "AB", "BA"])[0]
    lm = train_ngram(REFS, order=2, map_singletons_to_unk=False)
    test = [
        (generate_utterance(model, lex, ref, seed=i, gap_sil=2)[0], ref)
        for i, ref in enumerate(REFS)
    ]
    failure = DecodeError("beam emptied at frame 0")
    real_decode = decode_module.decode
    calls = []

    def failing_second(model, lm, tree, feats, cfg):
        calls.append(feats)
        if len(calls) == 2:
            raise failure
        return real_decode(model, lm, tree, feats, cfg)

    # the recipe calls decode through the module attribute
    monkeypatch.setattr(decode_module, "decode", failing_second)
    cfg = DecodeConfig(beam=60.0, max_active=20000, lm_scale=2.0)
    hyps = recipe.decode_test(model, lm, lex, test, cfg)

    assert len(calls) == 3
    assert all(got is feats for got, (feats, _) in zip(calls, test))
    assert hyps[1] is failure
    assert all(isinstance(hyps[i], Hypothesis) for i in (0, 2))
    assert [hyps[0].words, hyps[2].words] == [REFS[0], REFS[2]]
    wer, cer = recipe.score(test, hyps)
    assert (wer.n_ref_tokens, wer.deletions, wer.errors) == (6, 3, 3)
    # characters with the spaces between words: "AB B", "BA A B", "A"
    assert (cer.n_ref_tokens, cer.deletions, cer.errors) == (11, 6, 6)
