"""One SHA-256 per seed over every file ``synth_corpus`` writes at the
benchmark's recipe, to show that a change leaves the corpus equal to the
byte.

The corpus is the one ``perfbench.harness.synthesize`` writes for the
``decode_harvest`` workload (``harness.BASELINE``, ``short_only=False``):
short-form clips, test clips, the long-form recording and its
transcript, manifests, LM text and ``ground_truth.json``.  The digest
covers each file's path relative to the output directory and its bytes,
in sorted path order, with the output directory's path replaced by
``<out>`` wherever the manifests and the ground truth record it.

    python3 tests/corpus_digest.py --seeds 0-9
    python3 tests/corpus_digest.py --seeds 0 --out DIR

Run from the root of a source tree: asrboot is imported from ``src/``
there.  ``--out DIR`` writes seed N's corpus to ``DIR/seed<N>`` and
keeps it; by default each corpus goes to a temporary directory.  Two
runs into two directories print the same lines.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from output_digest import parse_seeds

ROOT = Path(__file__).resolve().parent.parent


def corpus_digest(out_dir: Path) -> str:
    """SHA-256 over every file under ``out_dir``: its relative path, its
    length and its bytes with ``out_dir`` replaced by ``<out>``."""
    prefix = str(out_dir).encode()
    sha = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes().replace(prefix, b"<out>")
        name = path.relative_to(out_dir).as_posix().encode()
        sha.update(b"%d:%s:%d:" % (len(name), name, len(data)))
        sha.update(data)
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,4")
    parser.add_argument("--out", type=Path, metavar="DIR",
                        help="write seed N's corpus to DIR/seed<N> and keep it")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import BASELINE, synthesize

    with tempfile.TemporaryDirectory(prefix="corpus-digest-") as tmp:
        root = (args.out or Path(tmp)).resolve()
        for seed in parse_seeds(args.seeds):
            out = root / f"seed{seed}"
            synthesize(BASELINE, seed, out, short_only=False)
            print(f"seed {seed} {corpus_digest(out)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
