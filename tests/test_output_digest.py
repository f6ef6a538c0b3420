import json
import math
from dataclasses import dataclass

import numpy as np
from make_golden import differences
from output_digest import canonical, digest, parse_seeds, write_dump


def test_seed_ranges_and_single_seeds_in_the_order_given():
    assert parse_seeds("0-2,5") == [0, 1, 2, 5]
    assert parse_seeds("7,3-4") == [7, 3, 4]


def test_floats_and_numpy_scalars_are_written_as_float_hex():
    after = math.nextafter(0.1, 1.0)
    assert canonical(0.1) == (0.1).hex()
    assert canonical(np.float64(0.1)) == (0.1).hex()
    assert canonical(np.float32(0.5)) == (0.5).hex()
    assert canonical(0.1) != canonical(after) == after.hex()
    assert canonical(np.int64(3)) == 3


@dataclass
class Pair:
    second: tuple
    first: np.ndarray


def test_containers_become_lists_and_dicts_with_string_keys():
    value = {1: (0.5, np.array([1, 2])), "x": Pair((2,), np.array([[0.25]]))}
    assert canonical(value) == {
        "1": [(0.5).hex(), [1, 2]],
        "x": {"second": [2], "first": [[(0.25).hex()]]},
    }
    # a dataclass keeps its field order, not the names' sorted order
    assert list(canonical(Pair((), np.zeros(0)))) == ["second", "first"]


def test_a_dump_reads_back_equal_and_shows_what_moved(tmp_path):
    # floats as numbers read back as the floats written; the digest sees
    # a last-bit move, differences only a move beyond a relative 1e-9
    after = math.nextafter(0.1, 1.0)
    outputs = {"trace": [(0.1, -2.5e-300)], "pair": Pair((3, "a"), np.array([0.25, -1e30])),
               "count": np.int64(7), "none": None}
    last_bit = {**outputs, "trace": [(after, -2.5e-300)]}
    moved = {**outputs, "pair": Pair((3, "a"), np.array([0.25, -1.01e30])), "count": 8}
    for name, value in (("a", outputs), ("b", last_bit), ("c", moved)):
        write_dump(tmp_path / f"{name}.json", value)
    a, b, c = (json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))
               for name in "abc")
    assert a == canonical(outputs, float)
    assert a["trace"][0][0] == 0.1 and a["pair"]["first"][1] == -1e30
    assert digest(last_bit) != digest(outputs)
    assert differences(a, b) == []
    assert differences(a, c) == [".pair.first[1]: -1e+30 -> -1.01e+30", ".count: 7 -> 8"]
