"""The bootstrap recipe as plain functions: short-form clips → features →
graphemic lexicon → flat start + Viterbi-EM → decode the test set →
WER/CER → harvest a long-form recording.

A caller synthesizes or reads its corpus, trains its LM and chooses its
decode and harvest settings; these functions chain the stages between.
Each stage is called through its module attribute (`features.compute_mfcc`,
`am.train`, `decode.decode`, `segment.harvest_segments`), so a wrapper put
on one of those names sees every call the recipe makes.
"""

from __future__ import annotations

from typing import Sequence

from . import am, corpus, decode, features, lexicon, scoring, segment
from .lm import NGramLM
from .synth import LongFormTruth, SynthCorpus
from .textnorm import utf8_lines

Clip = tuple[features.FeatureMatrix, tuple[str, ...]]


def read_lines(path) -> list[list[str]]:
    """The whitespace-split lines of a UTF-8 text file (a transcript or LM
    text); a line that is not UTF-8 raises ``ValueError`` naming the path
    and the line, as `textnorm.utf8_lines` reads it."""
    return [line.split() for _, line in utf8_lines(path, ValueError)]


def clip_features(manifest) -> list[Clip]:
    """(CMVN'd MFCCs of the whole audio file, tokens) per manifest line."""
    return [
        (features.cmvn(features.compute_mfcc(corpus.read_wav(utt.audio)[1])),
         utt.tokens())
        for utt in corpus.load_manifest(manifest)
    ]


def corpus_lexicon(corp: SynthCorpus) -> lexicon.Lexicon:
    """The one lexicon rule: every vocabulary word, spelled as it sounds.
    Training tokens are drawn from the vocabulary, so no word is lost."""
    return lexicon.graphemic_lexicon(corp.vocabulary)[0]


def train_model(
    clips: Sequence[Clip], lex: lexicon.Lexicon, schedule: am.TrainSchedule
) -> am.TrainResult:
    """Viterbi-EM from a flat start."""
    return am.train(am.flat_start(clips, lex), clips, lex, schedule)


def decode_test(
    model: am.AcousticModel,
    lm: NGramLM,
    lex: lexicon.Lexicon,
    test: Sequence[Clip],
    cfg: decode.DecodeConfig,
) -> list[decode.Hypothesis | decode.DecodeError]:
    """Each test utterance decoded over one prefix tree of ``lex``; an
    utterance that fails keeps its `DecodeError` in its slot."""
    tree = decode.build_prefix_tree(lex)
    hyps: list[decode.Hypothesis | decode.DecodeError] = []
    for feats, _ in test:
        try:
            hyps.append(decode.decode(model, lm, tree, feats, cfg))
        except decode.DecodeError as exc:
            hyps.append(exc)
    return hyps


def score(
    test: Sequence[Clip], hyps: Sequence[decode.Hypothesis | decode.DecodeError]
) -> tuple[scoring.WerReport, scoring.WerReport]:
    """(WER, CER) of ``decode_test``'s output; a failed utterance counts
    its reference as deletions."""
    pairs = [
        (ref, () if isinstance(hyp, decode.DecodeError) else hyp.words)
        for (_, ref), hyp in zip(test, hyps)
    ]
    return scoring.wer(pairs), scoring.cer(pairs)


def harvest(
    rec: LongFormTruth,
    model: am.AcousticModel,
    lex: lexicon.Lexicon,
    cfg: segment.HarvestConfig,
) -> tuple[list[segment.SegmentCandidate], segment.SegmentReport]:
    """Segments cut from a long-form recording against its transcript."""
    return segment.harvest_segments(
        rec.recording_id, corpus.read_wav(rec.audio)[1], read_lines(rec.transcript),
        model, lex, cfg,
    )
