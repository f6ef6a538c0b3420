"""The golden tiny run: outputs pinned under ``tests/data/golden`` (written
by ``tests/make_golden.py --write``), and two in-process runs alike."""

import pytest
from make_golden import SECTIONS, differences, load_golden, tiny_run


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return [tiny_run(tmp_path_factory.mktemp(f"run{i}")) for i in range(2)]


@pytest.mark.parametrize("section", SECTIONS)
def test_outputs_match_the_golden_files(runs, section):
    assert differences(load_golden()[section], runs[0][section], section) == []


def test_two_runs_are_bitwise_equal(runs):
    assert runs[0] == runs[1]


def test_differences_names_each_moved_field():
    expected = {"a": [1.0, 2], "b": {"c": "x"}, "d": [True]}
    got = {"a": [1.0 + 1e-12, 3], "b": {"c": "y"}, "d": [1]}
    assert differences(expected, got) == [
        ".a[1]: 2 -> 3", ".b.c: 'x' -> 'y'", ".d[0]: True -> 1",
    ]
