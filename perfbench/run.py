"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_em --seed 0 --seconds 10 --trace 0

Run from the root of a source tree: asrboot is imported from ``src/``
there, never from an installed copy.  The corpus is written under
``.perfbench_work/`` in that tree and removed on exit.  Standard output
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
``metrics`` that BENCHMARK.json lists (end-to-end ones untraced,
per-layer ones with ``--trace 1``).  The lines before it give every
metric of the workload with its unit, the output checks and the
environment.  A failed output check exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(
        os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                     "numpy.libs", "libscipy_openblas*")
    )
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one BLAS thread, set before numpy loads: the closed loop is one
    # process, and a shared box measures more steadily without contention
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    if not (ROOT / "src" / "asrboot" / "__init__.py").is_file():
        print(f"no asrboot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    spec = _benchmark_spec()
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
    try:
        result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    shown = result.per_layer if args.trace else result.metrics
    print(f"workload {args.workload}  seed {args.seed}  units {result.units}")
    for name, (value, unit) in {**result.metrics, **result.per_layer}.items():
        print(f"  {name:40s} {value!s:>24} {unit}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "report": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "units": result.units,
            "environment": environment(),
            "problems": result.problems,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in result.per_layer.items()},
        }
    }))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": shown[name][0], "unit": shown[name][1]}
            for name in wanted
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
