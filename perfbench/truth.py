"""Score harvested segments against ``ground_truth.json``.

``synth_corpus`` writes, per long-form recording, the word times of each
spoken utterance and the indices of the transcript lines that are
off-script (text with no audio).  The transcript interleaves the two, so
global transcript token ``j`` maps to a word time only when its line is
spoken; tokens of corrupted lines map to no time.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence


class TruthError(ValueError):
    """The ground-truth file does not match the transcript it describes."""


@dataclass(frozen=True)
class RecordingTruth:
    times: tuple[tuple[float, float] | None, ...]  # per global token
    corrupted: tuple[bool, ...]  # per global token


@dataclass(frozen=True)
class BoundaryScore:
    start_err_ms: float | None  # median |segment start - truth start|
    end_err_ms: float | None  # median |segment end - truth end|
    corrupt_accepted: int  # segments whose ref_span covers an off-script line
    n_starts: int
    n_ends: int


def load_recording_truth(
    truth_path, recording_id: str, transcript_lines: Sequence[Sequence[str]]
) -> RecordingTruth:
    """Map each global transcript token to its spoken word's times."""
    with open(truth_path, encoding="utf-8") as fh:
        truth = json.load(fh)
    records = [r for r in truth["longform"] if r["recording_id"] == recording_id]
    if len(records) != 1:
        raise TruthError(f"{recording_id}: {len(records)} ground-truth records")
    record = records[0]
    corrupted_lines = set(record["corrupted_line_indices"])
    spoken = iter(record["utterances"])
    times: list[tuple[float, float] | None] = []
    corrupted: list[bool] = []
    for index, line in enumerate(transcript_lines):
        if index in corrupted_lines:
            times.extend([None] * len(line))
            corrupted.extend([True] * len(line))
            continue
        utt = next(spoken, None)
        if utt is None:
            raise TruthError(f"{recording_id}: line {index} has no utterance")
        words = utt["words"]
        if list(line) != list(utt["tokens"]) or len(words) != len(line):
            raise TruthError(
                f"{recording_id}: line {index} {list(line)} does not match "
                f"utterance {utt['tokens']}"
            )
        times.extend((w["start"], w["end"]) for w in words)
        corrupted.extend([False] * len(line))
    if next(spoken, None) is not None:
        raise TruthError(f"{recording_id}: more utterances than transcript lines")
    return RecordingTruth(tuple(times), tuple(corrupted))


def score_segments(truth: RecordingTruth, segments: Iterable) -> BoundaryScore:
    """Edge errors and off-script coverage of segments with a ``ref_span``.

    An edge is scored only when its transcript token was spoken; a
    segment counts as corrupt when any token of its span is off-script.
    """
    start_errs: list[float] = []
    end_errs: list[float] = []
    corrupt = 0
    for seg in segments:
        lo, hi = seg.ref_span
        if any(truth.corrupted[lo : hi + 1]):
            corrupt += 1
        if truth.times[lo] is not None:
            start_errs.append(abs(seg.start - truth.times[lo][0]) * 1000.0)
        if truth.times[hi] is not None:
            end_errs.append(abs(seg.end - truth.times[hi][1]) * 1000.0)
    return BoundaryScore(
        start_err_ms=statistics.median(start_errs) if start_errs else None,
        end_err_ms=statistics.median(end_errs) if end_errs else None,
        corrupt_accepted=corrupt,
        n_starts=len(start_errs),
        n_ends=len(end_errs),
    )
