"""Ground-truth scorer on a hand-built truth file."""

import json
from types import SimpleNamespace

import pytest

from perfbench.truth import TruthError, load_recording_truth, score_segments

# transcript lines; line 1 is off-script (no audio)
LINES = [["AB", "BA"], ["XX", "YY"], ["AB", "AB", "BA"]]
# global tokens: 0 AB, 1 BA, 2 XX, 3 YY, 4 AB, 5 AB, 6 BA


def _word(word, start, end):
    return {"word": word, "start": start, "end": end}


def _write_truth(path, utterances, corrupted=(1,)):
    path.write_text(json.dumps({
        "longform": [{
            "recording_id": "long000",
            "audio": "long000.wav",
            "transcript": "long000.txt",
            "utterances": utterances,
            "corrupted_line_indices": list(corrupted),
        }],
        "vocabulary": ["AB", "BA", "XX", "YY"],
    }))
    return path


UTTERANCES = [
    {"tokens": ["AB", "BA"], "start": 1.0, "end": 1.8,
     "words": [_word("AB", 1.0, 1.2), _word("BA", 1.5, 1.8)]},
    {"tokens": ["AB", "AB", "BA"], "start": 3.0, "end": 4.3,
     "words": [_word("AB", 3.0, 3.2), _word("AB", 3.5, 3.7), _word("BA", 4.0, 4.3)]},
]


def _seg(start, end, lo, hi):
    return SimpleNamespace(start=start, end=end, ref_span=(lo, hi))


def test_tokens_map_to_word_times_and_skip_corrupted_line(tmp_path):
    truth = load_recording_truth(
        _write_truth(tmp_path / "gt.json", UTTERANCES), "long000", LINES
    )
    assert truth.times == (
        (1.0, 1.2), (1.5, 1.8), None, None, (3.0, 3.2), (3.5, 3.7), (4.0, 4.3)
    )
    assert truth.corrupted == (False, False, True, True, False, False, False)


def test_edge_errors_and_corrupt_segments(tmp_path):
    truth = load_recording_truth(
        _write_truth(tmp_path / "gt.json", UTTERANCES), "long000", LINES
    )
    score = score_segments(truth, [
        _seg(0.9, 1.85, 0, 1),  # clean: start 100 ms early, end 50 ms late
        _seg(1.4, 3.25, 1, 4),  # spans the off-script line
        _seg(2.0, 3.2, 3, 4),  # starts inside it: start edge not scored
        _seg(3.4, 4.3, 5, 6),  # clean: start 100 ms early, end exact
    ])
    assert score.corrupt_accepted == 2
    assert (score.n_starts, score.n_ends) == (3, 4)
    assert score.start_err_ms == pytest.approx(100.0)
    assert score.end_err_ms == pytest.approx(25.0)


def test_no_segments_scores_no_edges(tmp_path):
    truth = load_recording_truth(
        _write_truth(tmp_path / "gt.json", UTTERANCES), "long000", LINES
    )
    score = score_segments(truth, [])
    assert (score.start_err_ms, score.end_err_ms, score.corrupt_accepted) == (None, None, 0)


def test_transcript_that_disagrees_with_truth_is_rejected(tmp_path):
    path = _write_truth(tmp_path / "gt.json", UTTERANCES, corrupted=())
    with pytest.raises(TruthError):
        load_recording_truth(path, "long000", LINES)
    with pytest.raises(TruthError):
        load_recording_truth(path, "long001", LINES)
