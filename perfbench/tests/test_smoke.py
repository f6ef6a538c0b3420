"""Whole-harness smoke run on a tiny corpus with a short schedule."""

import functools
import json
import shutil
import subprocess
import sys

import pytest

from asrboot import decode, segment
from asrboot.am import TrainSchedule
from perfbench import harness, run
from perfbench.interpose import Interposer, Stats

TINY = harness.Recipe(
    n_shortform=6,
    longform_minutes=0.25,
    n_test=4,
    vocabulary_size=10,
    schedule=TrainSchedule(n_iters=2, split_iters=(1,), max_gauss=2),
    setup_reps=2,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_listed_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(harness, "run", functools.partial(harness.run, recipe=TINY))
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert code == 0, report["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert set(report["environment"]) >= {
        "nproc", "python", "numpy", "scipy", "blas_threads", "git_commit"
    }


def test_quality_repeats_at_the_same_seed(tmp_path):
    first = harness.run("decode_harvest", 5, 0.0, False, tmp_path / "a", TINY)
    second = harness.run("decode_harvest", 5, 0.0, False, tmp_path / "b", TINY)
    for name in ("wer_pct", "cer_pct", "word_yield", "corrupt_accepted", "failed_frac"):
        assert first.metrics[name] == second.metrics[name]


def test_interposer_restores_every_binding():
    original = decode.decode
    with Interposer(Stats(), timed=True) as ip:
        harness.install_timers(ip)
        assert segment.decode is not original
        assert segment.decode.__wrapped__ is decode.decode.__wrapped__
    assert decode.decode is original and segment.decode is original


def test_missing_entry_point_fails_loudly():
    with Interposer(Stats(), timed=False) as ip, pytest.raises(LookupError):
        ip.function("segment", "no_such_function")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_em",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
