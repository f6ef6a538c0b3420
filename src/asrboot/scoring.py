"""Sequence alignment core and WER/CER scoring.

One dynamic-programming fill (``align_fill``) and one traceback
(``align_trace``) serve both alignments in the package: global unit-cost
edit distance here (``align_edit``) and local Smith-Waterman alignment in
``segment.smith_waterman``.  Both put hyp tokens on the rows and ref
tokens on the columns, and both label steps with the ops below: MATCH or
SUB for a pair, INS for a hyp token alone, DEL for a ref token alone.

Corpus-level rates pool edit counts over utterances (sum of edits divided
by sum of reference tokens), not the mean of per-utterance rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

MATCH, SUB, INS, DEL = "match", "sub", "ins", "del"


@dataclass(frozen=True)
class EditOp:
    op: str
    ref: str | None
    hyp: str | None


@dataclass(frozen=True)
class EditScript:
    ops: tuple[EditOp, ...]

    @property
    def substitutions(self) -> int:
        return sum(1 for o in self.ops if o.op == SUB)

    @property
    def insertions(self) -> int:
        return sum(1 for o in self.ops if o.op == INS)

    @property
    def deletions(self) -> int:
        return sum(1 for o in self.ops if o.op == DEL)

    @property
    def matches(self) -> int:
        return sum(1 for o in self.ops if o.op == MATCH)

    @property
    def cost(self) -> int:
        return self.substitutions + self.insertions + self.deletions


@dataclass(frozen=True)
class UtteranceScore:
    id: str
    n_ref: int
    substitutions: int
    deletions: int
    insertions: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions


@dataclass(frozen=True)
class WerReport:
    n_ref_tokens: int
    substitutions: int
    deletions: int
    insertions: int
    per_utterance: tuple[UtteranceScore, ...] = ()

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def rate(self) -> float:
        return self.errors / self.n_ref_tokens

    @property
    def percent(self) -> str:
        return f"{100.0 * self.rate:.2f}"

    def as_dict(self) -> dict:
        return {
            "n_ref_tokens": self.n_ref_tokens,
            "substitutions": self.substitutions,
            "deletions": self.deletions,
            "insertions": self.insertions,
            "error_rate_percent": self.percent,
        }


def substitution_matrix(
    rows: Sequence[str], cols: Sequence[str], match: float, mismatch: float
) -> np.ndarray:
    """(len(rows), len(cols)) pair scores: ``match`` where tokens agree."""
    same = np.array(rows, dtype=str)[:, None] == np.array(cols, dtype=str)
    return np.where(same, float(match), float(mismatch))


def align_fill(sub: np.ndarray, gap: float, local: bool) -> np.ndarray:
    """Best-score matrix H (n+1, m+1) aligning n rows to m columns.

    H[i, j] is the best score of rows[:i] against cols[:j]: a pair scores
    ``sub[i-1, j-1]``, a row or column on its own scores ``gap`` (<= 0).
    ``local`` floors every cell at 0 (Smith-Waterman); otherwise the
    alignment is global and the edges are gap runs.
    """
    n, m = sub.shape
    h = np.zeros((n + 1, m + 1))
    ramp = np.arange(m + 1) * gap
    if not local:
        h[0] = ramp
    for i in range(1, n + 1):
        row = h[i]
        np.maximum(h[i - 1, :-1] + sub[i - 1], h[i - 1, 1:] + gap, out=row[1:])
        if local:
            np.maximum(row, 0.0, out=row)
        else:
            row[0] = i * gap
        # left chain: running max of (candidate - j*gap), then + j*gap
        np.maximum(row, np.maximum.accumulate(row - ramp) + ramp, out=row)
    return h


def align_trace(
    h: np.ndarray, sub: np.ndarray, gap: float, i: int, j: int, local: bool
) -> list[tuple[int | None, int | None]]:
    """Steps of the best alignment ending at cell (i, j) of ``align_fill``.

    A step is (row, column) for a pair, (row, None) or (None, column) for
    a lone row or column.  Each step goes back to the best predecessor;
    ties prefer a pair, then a lone row, then a lone column.  A global
    walk ends at (0, 0), a local one at the first cell scoring <= 0.
    """
    steps: list[tuple[int | None, int | None]] = []
    while (i or j) and not (local and h[i, j] <= 0):
        pair = h[i - 1, j - 1] + sub[i - 1, j - 1] if i and j else -np.inf
        lone_row = h[i - 1, j] + gap if i else -np.inf
        lone_col = h[i, j - 1] + gap if j else -np.inf
        if pair >= lone_row and pair >= lone_col:
            i -= 1
            j -= 1
            steps.append((i, j))
        elif lone_row >= lone_col:
            i -= 1
            steps.append((i, None))
        else:
            j -= 1
            steps.append((None, j))
    steps.reverse()
    return steps


def step_op(
    hyp: Sequence[str], ref: Sequence[str], i: int | None, j: int | None
) -> str:
    """Op of a step with hyp as rows and ref as columns."""
    if j is None:
        return INS
    if i is None:
        return DEL
    return MATCH if hyp[i] == ref[j] else SUB


def align_edit(ref: Sequence[str], hyp: Sequence[str]) -> EditScript:
    """Minimal unit-cost edit script; ties prefer sub over ins over del."""
    sub = substitution_matrix(hyp, ref, 0.0, -1.0)
    h = align_fill(sub, -1.0, local=False)
    steps = align_trace(h, sub, -1.0, len(hyp), len(ref), local=False)
    return EditScript(
        tuple(
            EditOp(
                step_op(hyp, ref, i, j),
                None if j is None else ref[j],
                None if i is None else hyp[i],
            )
            for i, j in steps
        )
    )


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    return align_edit(a, b).cost


def _score_pairs(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    ids: Sequence[str] | None,
) -> WerReport:
    if not pairs:
        raise ValueError("need at least one (ref, hyp) pair")
    per_utt = []
    total_ref = total_s = total_d = total_i = 0
    for k, (ref, hyp) in enumerate(pairs):
        script = align_edit(list(ref), list(hyp))
        utt_id = ids[k] if ids else f"utt{k}"
        per_utt.append(
            UtteranceScore(
                id=utt_id,
                n_ref=len(ref),
                substitutions=script.substitutions,
                deletions=script.deletions,
                insertions=script.insertions,
            )
        )
        total_ref += len(ref)
        total_s += script.substitutions
        total_d += script.deletions
        total_i += script.insertions
    if total_ref == 0:
        raise ValueError("reference is empty across all pairs")
    return WerReport(
        n_ref_tokens=total_ref,
        substitutions=total_s,
        deletions=total_d,
        insertions=total_i,
        per_utterance=tuple(per_utt),
    )


def wer(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    ids: Sequence[str] | None = None,
) -> WerReport:
    """Word error rate over (ref tokens, hyp tokens) pairs."""
    return _score_pairs(
        [(tuple(r), tuple(h)) for r, h in pairs], ids
    )


def cer(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    ids: Sequence[str] | None = None,
) -> WerReport:
    """Character error rate; inter-word spaces count as characters."""
    char_pairs = [
        (tuple(" ".join(r)), tuple(" ".join(h))) for r, h in pairs
    ]
    return _score_pairs(char_pairs, ids)
