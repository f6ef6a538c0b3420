from bench_pairs import format_summary, summarize

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
