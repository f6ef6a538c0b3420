"""One SHA-256 per seed over the benchmark's outputs, to show that a change
leaves them equal to the bit.

The pipeline runs through ``asrboot.recipe`` at the benchmark's sizes
(``perfbench.harness.BASELINE``), on the corpus ``harness.synthesize``
writes; each seed is synthesized once.  For each seed the digest covers,
with every float written as ``float.hex``:

- ``train_em``: ``flat_start`` + ``train`` on the seed's short-form clips;
  the loglik trace, ``failure_reasons`` and every model array;
- ``decode_harvest``: the seed's test set decoded with the model trained
  on the ``model_seed`` clips, as the benchmark's set-up trains it; the
  hypotheses (``None`` for a failed utterance), WER and CER, the harvested
  segments and ``SegmentReport.as_dict()``.

    python3 tests/output_digest.py --seeds 0-9
    python3 tests/output_digest.py --seeds 0-9 --dump DIR

Run from the root of a source tree: asrboot is imported from ``src/``
there.  Equal digests from two trees at one seed, on one machine, mean
equal outputs there; BLAS kernels differ between machines.

``--dump DIR`` also writes each seed's outputs to ``DIR/seed<N>.json``,
with floats as JSON numbers, which read back as the floats written.  Two
trees' dumps of one seed are compared field by field with
``make_golden.differences``: discrete values exactly, floats to a relative
1e-9, for a change that moves last bits and so every digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``0-9``, ``0,3,4`` or a mix: the seeds in the order given."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def canonical(value, floats=float.hex):
    """JSON-ready copy of ``value``: floats through ``floats`` (by default
    ``float.hex``), dataclasses as their fields in order, arrays and
    tuples as lists."""
    import numpy as np

    if isinstance(value, np.ndarray):
        value = value.tolist()
    elif isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return floats(value)
    if dataclasses.is_dataclass(value):
        return {
            f.name: canonical(getattr(value, f.name), floats)
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): canonical(v, floats) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v, floats) for v in value]
    return value


def write_dump(path: Path, outputs) -> None:
    """``outputs`` as JSON at ``path``, every float a number."""
    path.write_text(json.dumps(canonical(outputs, float)), encoding="utf-8")


def trained_corpus(sizes, seed: int, out_dir: Path):
    """The seed's full corpus, its lexicon and the model trained on its
    short-form clips: the clips, to the byte, of the short-only corpus
    that ``train_em`` trains on."""
    from asrboot import recipe
    from perfbench.harness import synthesize

    corp = synthesize(sizes, seed, out_dir, short_only=False)
    lex = recipe.corpus_lexicon(corp)
    clips = recipe.clip_features(corp.short_manifest)
    return corp, lex, recipe.train_model(clips, lex, sizes.schedule)


def seed_outputs(sizes, run, reference) -> dict:
    """The seed's outputs of both workloads, as the digest covers them."""
    from asrboot import recipe
    from asrboot.decode import DecodeError
    from asrboot.lm import train_ngram
    from asrboot.segment import HarvestConfig

    corp, lex, trained = run
    test = recipe.clip_features(corp.test_manifest)
    lm = train_ngram(recipe.read_lines(corp.lm_text), order=sizes.lm_order)
    hyps = recipe.decode_test(reference, lm, lex, test, sizes.decode_cfg)
    (rec,) = corp.longform
    segments, report = recipe.harvest(
        rec, reference, lex, HarvestConfig(decode=sizes.decode_cfg)
    )
    return {
        "train_em": [trained.loglik_trace, trained.failure_reasons, trained.model],
        "decode_harvest": [
            [None if isinstance(hyp, DecodeError) else hyp for hyp in hyps],
            recipe.score(test, hyps), segments, report.as_dict(),
        ],
    }


def digest(outputs) -> str:
    """SHA-256 of ``outputs`` with every float as ``float.hex``."""
    text = json.dumps(canonical(outputs), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,4")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each seed's outputs to DIR/seed<N>.json")
    args = parser.parse_args(argv)
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import BLAS_THREAD_VARS

    # one BLAS thread, as the benchmark runs; set before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from perfbench.harness import BASELINE as sizes

    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        work = Path(tmp)
        model_run = trained_corpus(sizes, sizes.model_seed, work / "model")
        reference = model_run[2].model
        for seed in parse_seeds(args.seeds):
            out = work / f"seed{seed}"
            run = (model_run if seed == sizes.model_seed
                   else trained_corpus(sizes, seed, out))
            outputs = seed_outputs(sizes, run, reference)
            if args.dump:
                write_dump(args.dump / f"seed{seed}.json", outputs)
            print(f"seed {seed} {digest(outputs)}", flush=True)
            shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
