import pytest
from bench_pairs import format_summary, summarize, verdict

BETTER = {"setup_s": "lower", "frames_per_s": "higher"}


def pair(seed, parent, change):
    return (
        seed,
        {"setup_s": parent[0], "frames_per_s": parent[1]},
        {"setup_s": change[0], "frames_per_s": change[1]},
    )


def test_summary_has_each_sides_quartiles_and_the_pairs_won():
    pairs = [
        pair(0, (1.0, 100.0), (0.9, 110.0)),
        pair(1, (2.0, 200.0), (2.0, 190.0)),  # setup_s tied: no win
        pair(2, (3.0, 300.0), (3.5, 330.0)),
        pair(3, (4.0, 400.0), (3.0, 440.0)),
        pair(4, (5.0, 500.0), (4.0, 500.0)),  # frames_per_s tied: no win
    ]
    setup, fps = summarize(pairs, BETTER)
    assert setup == {
        "metric": "setup_s", "better": "lower",
        "parent": [2.0, 3.0, 4.0], "change": [2.0, 3.0, 3.5],
        "won": 3, "pairs": 5,
    }
    assert fps["metric"] == "frames_per_s"
    assert fps["parent"] == [200.0, 300.0, 400.0]
    assert fps["change"] == [190.0, 330.0, 440.0]
    assert fps["won"] == 3


def test_quartiles_interpolate_between_runs():
    pairs = [pair(s, (1.0, float(v)), (1.0, float(v))) for s, v in enumerate((4, 1, 3, 2))]
    (_, fps) = summarize(pairs, BETTER)
    assert fps["parent"] == [1.75, 2.5, 3.25]
    assert fps["won"] == 0


def test_table_shows_median_quartiles_and_wins():
    rows = summarize([pair(0, (1.0, 100.0), (0.5, 120.0))], BETTER)
    lines = format_summary(rows).splitlines()
    assert lines[1] == "setup_s (lower)  1 [1, 1]  ->  0.5 [0.5, 0.5]  1/1"
    assert lines[2] == "frames_per_s (higher)  100 [100, 100]  ->  120 [120, 120]  1/1"


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        # won 10/10, median 110 against 100 with quartiles 99.825..100.175
        ([p + 10.0 for p in PARENT], "higher", "gain"),
        ([p - 10.0 for p in PARENT], "lower", "gain"),
        # a tie wins nothing: 9 won of 10 is a gain, 8 is not
        ([p + 10.0 for p in PARENT[:9]] + [100.0], "higher", "gain"),
        ([p + 10.0 for p in PARENT[:8]] + PARENT[8:], "higher", "within bound"),
        # won 10/10, but the medians are 0.1 apart within a 0.35 spread
        ([p + 0.1 for p in PARENT], "higher", "within bound"),
        # the median 30% worse against a 25% bound, in either direction
        ([p * 0.7 for p in PARENT], "higher", "worse"),
        ([p * 1.3 for p in PARENT], "lower", "worse"),
        ([p * 0.8 for p in PARENT], "higher", "within bound"),
    ],
)
def test_verdict_on_hand_built_pairs(change, better, expected):
    assert verdict(PARENT, change, better, 0.25) == expected


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound():
    # quartiles 0 and 100 around a median of 50: a spread of 2 x the median
    parent = [0.0] * 5 + [100.0] * 5
    assert verdict(parent, [50.0] * 10, "higher", 0.25) == "unresolved"
    # unless every change run beats every parent run
    assert verdict(parent, [101.0] * 10, "higher", 0.25) == "within bound"
    assert verdict(parent, [-1.0] * 10, "lower", 0.25) == "within bound"
