"""One SHA-256 per seed over the benchmark's outputs, to show that a change
leaves them equal to the bit.

Inputs come from ``perfbench.harness`` exactly as the benchmark builds
them.  For each seed the digest covers, with every float written as
``float.hex``:

- ``train_em``: ``flat_start`` + ``train`` on the seed's short-form clips;
  the loglik trace, ``failure_reasons`` and every model array;
- ``decode_harvest``: the seed's test set decoded with the model trained
  on the ``model_seed`` clips, as the benchmark's set-up trains it; the
  hypotheses, WER and CER, the harvested segments and
  ``SegmentReport.as_dict()``.

    python3 tests/output_digest.py --seeds 0-9

Run from the root of a source tree: asrboot is imported from ``src/``
there.  Equal digests from two trees at one seed, on one machine, mean
equal outputs there; BLAS kernels differ between machines.
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


def canonical(value):
    """JSON-ready copy of ``value``: floats as ``float.hex``, dataclasses
    as their fields in order, arrays and tuples as lists."""
    import numpy as np

    if isinstance(value, np.ndarray):
        value = value.tolist()
    elif isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def seed_digest(harness, recipe, seed: int, reference, work: Path) -> str:
    train = harness.train_model(
        recipe, harness.training_inputs(recipe, seed, work / "train")
    )
    inputs = harness.decoding_inputs(recipe, seed, work / "decode")
    inputs.model = reference
    hyps, scores, segments, report = harness.DecodeHarvest().unit(recipe, inputs, [])
    outputs = {
        "train_em": [train.loglik_trace, train.failure_reasons, train.model],
        "decode_harvest": [hyps, scores, segments, report.as_dict()],
    }
    text = json.dumps(canonical(outputs), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,4")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import BLAS_THREAD_VARS

    # one BLAS thread, as the benchmark runs; set before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from perfbench import harness

    recipe = harness.BASELINE
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        work = Path(tmp)
        reference = harness.train_model(
            recipe,
            harness.training_inputs(recipe, recipe.model_seed, work / "model"),
        ).model
        for seed in parse_seeds(args.seeds):
            out = work / f"seed{seed}"
            print(f"seed {seed} {seed_digest(harness, recipe, seed, reference, out)}",
                  flush=True)
            shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
