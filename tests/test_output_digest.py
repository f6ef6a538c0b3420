import math
from dataclasses import dataclass

import numpy as np
from output_digest import canonical, parse_seeds


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
