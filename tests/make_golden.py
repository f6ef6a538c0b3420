"""A golden tiny run: train, decode and harvest on a small seeded corpus.

`tiny_model` trains on 20 clips of a seed-0 corpus with a one-minute
recording, through ``asrboot.recipe`` as every stage here is;
``tests/test_segment.py`` harvests that recording at `HARVEST` (12 s
chunks) with the same model for its ``harvest`` fixture.  The run here
harvests it alike and decodes a few test clips at `DECODE` with the corpus
trigram LM.  The ``corpus`` section pins what ``synth_corpus`` writes that
no sine or BLAS call touches: the vocabulary, the manifests, the
transcripts, the ground-truth times, the LM text and each WAV's length.
The outputs live under ``tests/data/golden`` and ``tests/test_golden.py``
holds every run to them: discrete values exactly, floats to a relative
1e-9 (BLAS kernels differ between machines).

    PYTHONPATH=src python tests/make_golden.py            # list moved fields
    PYTHONPATH=src python tests/make_golden.py --write    # rewrite the files

A change that moves a field regenerates the files and names the field in
CHANGES.md; never regenerate to hide a change.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import wave
from pathlib import Path

from asrboot import recipe
from asrboot.am import TrainResult, TrainSchedule
from asrboot.corpus import load_manifest
from asrboot.decode import DecodeConfig, DecodeError
from asrboot.features import FrontendConfig
from asrboot.lexicon import Lexicon
from asrboot.lm import train_ngram
from asrboot.segment import HarvestConfig
from asrboot.synth import SynthCorpus, SynthSpec, synth_corpus

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
SECTIONS = ("corpus", "train", "decode", "harvest")
RTOL = 1e-9
N_TEST = 6
# the golden decode and harvest point; lm_scale 2 as the benchmark's
DECODE = DecodeConfig(beam=60.0, max_active=20000, lm_scale=2.0)
HARVEST = HarvestConfig(chunk_len=12.0, decode=DECODE)


def _n_samples(path) -> int:
    with wave.open(str(path), "rb") as wf:
        return wf.getnframes()


def _corpus_section(corp) -> dict:
    truth = json.loads(Path(corp.ground_truth_path()).read_text(encoding="utf-8"))
    return {
        "vocabulary": corp.vocabulary,
        "manifests": {
            name: [[utt.id, utt.text] for utt in load_manifest(manifest)]
            for name, manifest in (("short", corp.short_manifest),
                                   ("test", corp.test_manifest))
        },
        "longform": [
            {
                "recording_id": rec["recording_id"],
                "transcript": Path(rec["transcript"]).read_text(
                    encoding="utf-8").splitlines(),
                "corrupted_line_indices": rec["corrupted_line_indices"],
                "utterances": rec["utterances"],
            }
            for rec in truth["longform"]
        ],
        "lm_text": Path(corp.lm_text).read_text(encoding="utf-8").splitlines(),
        "wav_samples": {
            path.name: _n_samples(path)
            for path in sorted((Path(corp.out_dir) / "audio").glob("*.wav"))
        },
    }


def tiny_model(
    work_dir, corruption_rate: float = 0.0
) -> tuple[SynthCorpus, Lexicon, TrainResult]:
    """The seed-0 tiny corpus (20 clips, a one-minute recording, a
    vocabulary of 10, `N_TEST` test clips), its graphemic lexicon, and a
    brief training on the clips' features from a flat start.  The test
    clips are drawn after the recording, so they change no clip and no
    recording."""
    corp = synth_corpus(
        SynthSpec(seed=0), Path(work_dir), n_shortform=20,
        longform_minutes=1.0, longform_recording_minutes=1.0, n_test=N_TEST,
        vocabulary_size=10, corruption_rate=corruption_rate,
    )
    lexicon = recipe.corpus_lexicon(corp)
    schedule = TrainSchedule(n_iters=7, split_iters=(3, 6), max_gauss=2)
    return corp, lexicon, recipe.train_model(
        recipe.clip_features(corp.short_manifest), lexicon, schedule
    )


def tiny_run(work_dir) -> dict:
    """Every pinned output of one run, as JSON-ready sections."""
    corp, lexicon, trained = tiny_model(work_dir)
    model = trained.model
    lm = train_ngram(recipe.read_lines(corp.lm_text), order=3)
    test = recipe.clip_features(corp.test_manifest)
    errors, hypotheses = [], []
    shift = FrontendConfig.frame_shift
    for index, ((_, ref), hyp) in enumerate(
        zip(test, recipe.decode_test(model, lm, lexicon, test, DECODE))
    ):
        if isinstance(hyp, DecodeError):
            errors.append([index, str(hyp)])
            hypotheses.append(None)
            continue
        hypotheses.append({
            "ref": list(ref),
            "words": list(hyp.words),
            "frames": [[round(iv.start / shift), round(iv.end / shift)]
                       for iv in hyp.word_intervals],
            "scores": [hyp.acoustic_score, hyp.lm_score, hyp.total_score],
            "partial": hyp.partial,
        })

    (rec,) = corp.longform
    segments, report = recipe.harvest(rec, model, lexicon, HARVEST)
    return {
        "corpus": _corpus_section(corp),
        "train": {
            "loglik_trace": [list(pair) for pair in trained.loglik_trace],
            "failure_reasons": dict(sorted(trained.failure_reasons.items())),
        },
        "decode": {"errors": errors, "hypotheses": hypotheses},
        "harvest": {
            "segments": [
                {"start": s.start, "end": s.end, "tokens": list(s.tokens),
                 "match_ratio": s.match_ratio, "ref_span": list(s.ref_span)}
                for s in segments
            ],
            "report": report.as_dict(),
        },
    }


def differences(expected, got, path="") -> list[str]:
    """Each field where ``got`` departs from ``expected``: floats beyond a
    relative `RTOL`, anything else by inequality."""
    if isinstance(expected, float) and isinstance(got, float):
        if math.isclose(expected, got, rel_tol=RTOL):
            return []
    elif isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() == got.keys():
            return [d for key in expected
                    for d in differences(expected[key], got[key], f"{path}.{key}")]
    elif isinstance(expected, list) and isinstance(got, list):
        if len(expected) == len(got):
            return [d for i, (e, g) in enumerate(zip(expected, got))
                    for d in differences(e, g, f"{path}[{i}]")]
    elif type(expected) is type(got) and expected == got:
        return []
    return [f"{path or '.'}: {expected!r} -> {got!r}"]


def load_golden() -> dict:
    return {
        name: json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        for name in SECTIONS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the golden files from this run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        run = tiny_run(work)
    if args.write:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for name in SECTIONS:
            (GOLDEN_DIR / f"{name}.json").write_text(
                json.dumps(run[name], indent=1) + "\n", encoding="utf-8"
            )
        print(f"wrote {', '.join(SECTIONS)} under {GOLDEN_DIR}")
        return 0
    moved = [d for name in SECTIONS
             for d in differences(load_golden()[name], run[name], name)]
    print("\n".join(moved) if moved else "no field moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
