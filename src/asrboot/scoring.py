"""Levenshtein alignment and WER/CER scoring.

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


def align_edit(ref: Sequence[str], hyp: Sequence[str]) -> EditScript:
    """Minimal unit-cost edit script; ties prefer sub over ins over del."""
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int32)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    hyp_arr = np.asarray(hyp)
    cols = np.arange(m + 1)
    for i in range(1, n + 1):
        sub_cost = dist[i - 1, :-1] + (hyp_arr != ref[i - 1])
        up = dist[i - 1, 1:] + 1
        cand = np.concatenate(([i], np.minimum(sub_cost, up)))
        # left chain: running min of (candidate - j), then + j
        dist[i] = np.minimum.accumulate(cand - cols) + cols

    ops: list[EditOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (
            ref[i - 1] != hyp[j - 1]
        ):
            op = MATCH if ref[i - 1] == hyp[j - 1] else SUB
            ops.append(EditOp(op, ref[i - 1], hyp[j - 1]))
            i -= 1
            j -= 1
        elif j > 0 and dist[i, j] == dist[i, j - 1] + 1:
            ops.append(EditOp(INS, None, hyp[j - 1]))
            j -= 1
        else:
            ops.append(EditOp(DEL, ref[i - 1], None))
            i -= 1
    ops.reverse()
    return EditScript(tuple(ops))


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


def format_report(report: WerReport, label: str = "WER") -> str:
    lines = [
        f"{label}: {report.percent}%  "
        f"[S={report.substitutions} D={report.deletions} "
        f"I={report.insertions} N={report.n_ref_tokens}]"
    ]
    return "\n".join(lines)


def per_utterance_tsv(report: WerReport) -> str:
    lines = ["id\tn_ref\tsub\tdel\tins"]
    for u in report.per_utterance:
        lines.append(
            f"{u.id}\t{u.n_ref}\t{u.substitutions}\t{u.deletions}\t{u.insertions}"
        )
    return "\n".join(lines) + "\n"
