"""Alternating benchmark pairs of two source trees, summarized per metric.

    python3 tests/bench_pairs.py --parent DIR --change DIR --workload train_em --seeds 0-9

For each seed, ``perfbench/run.py --workload W --seed S --seconds 10
--trace 0`` runs once in each tree: the parent first on even seeds, the
change first on odd ones, so that a drift in the machine's speed falls on
both sides alike.  Each run's end-to-end metrics are printed as it ends.
At the end, each metric gets the median and quartiles of each side and
the number of pairs the change won, in the direction ``BENCHMARK.json``
gives (a tie wins nothing), then a verdict by the rule `verdict` states.
A run whose result line reads
``"correct": false``, or that prints no result line, stops the script
with exit code 1.

Each tree must be a source tree with ``perfbench/`` and ``src/`` at its
root, such as a ``git archive`` of the commit to compare.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from output_digest import parse_seeds

SECONDS = 10


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The result line of one untraced benchmark run in ``tree``;
    ValueError if the run printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not {"correct", "metrics"} <= result.keys():
        raise ValueError(
            f"{tree}: seed {seed}: no result line (exit code {proc.returncode})\n"
            f"{proc.stderr[-2000:]}"
        )
    return result


def summarize(
    pairs: list[tuple[int, dict[str, float], dict[str, float]]],
    better: dict[str, str],
) -> list[dict]:
    """One row per metric of ``better`` over ``(seed, parent, change)``
    pairs of metric values: each side's 25th, 50th and 75th percentiles
    and the pairs in which the change is better (``better[name]`` is
    "higher" or "lower"; a tie is no win)."""
    rows = []
    for name, direction in better.items():
        parent = np.array([p[name] for _, p, _ in pairs], dtype=float)
        change = np.array([c[name] for _, _, c in pairs], dtype=float)
        won = change > parent if direction == "higher" else change < parent
        rows.append({
            "metric": name,
            "better": direction,
            "parent": np.percentile(parent, [25, 50, 75]).tolist(),
            "change": np.percentile(change, [25, 50, 75]).tolist(),
            "won": int(won.sum()),
            "pairs": len(pairs),
        })
    return rows


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """One metric's verdict over paired runs (``parent[i]`` with
    ``change[i]``), ``better`` "higher" or "lower", ``bound`` the metric's
    relative bound from ``BENCHMARK.json``.  The spread is the distance
    between the parent's quartiles.

    - "gain": the change won at least 0.9 of the pairs (a tie wins
      nothing) and its median beats the parent's by more than the spread;
    - "worse": the change's median is worse than the parent's by more
      than ``bound`` times the parent's median;
    - "unresolved": the spread is wider than ``bound`` times the parent's
      median, and not every change run beats every parent run;
    - "within bound": every other case.
    """
    # signed so that larger is better on both sides
    sign = 1.0 if better == "higher" else -1.0
    parent = sign * np.asarray(parent, dtype=float)
    change = sign * np.asarray(change, dtype=float)
    p25, p50, p75 = np.percentile(parent, [25, 50, 75])
    gap = np.median(change) - p50
    spread = p75 - p25
    won = int(np.sum(change > parent))
    if won >= 0.9 * len(parent) and gap > spread:
        return "gain"
    if -gap > bound * abs(p50):
        return "worse"
    if spread > bound * abs(p50) and not change.min() > parent.max():
        return "unresolved"
    return "within bound"


def format_summary(rows: list[dict]) -> str:
    """The rows of ``summarize`` as a table: median [quartiles] per side."""

    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    lines = ["metric (better)  parent median [quartiles]  ->  change  won"]
    for row in rows:
        lines.append(
            f"{row['metric']} ({row['better']})  {side(row['parent'])}  ->  "
            f"{side(row['change'])}  {row['won']}/{row['pairs']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,4")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}

    pairs = []
    for seed in parse_seeds(args.seeds):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        metrics = {}
        for name in order:
            result = run_once(trees[name], args.workload, seed)
            metrics[name] = {k: m["value"] for k, m in result["metrics"].items()}
            shown = "  ".join(f"{k} {v:.6g}" for k, v in metrics[name].items())
            print(f"seed {seed} {name:6s} correct {result['correct']}  {shown}",
                  flush=True)
            if not result["correct"]:
                return 1
        pairs.append((seed, metrics["parent"], metrics["change"]))
    print(format_summary(summarize(pairs, better)))
    for name, direction in better.items():
        parent = [p[name] for _, p, _ in pairs]
        change = [c[name] for _, _, c in pairs]
        print(f"{name}: {verdict(parent, change, direction, bounds[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
