"""Long-form segmentation: biased decoding plus Smith-Waterman alignment.

A long recording is decoded in overlapping chunks with a bigram model
trained on its own transcript; the decoded word stream is locally aligned
to the transcript, matched regions are cut at silence gaps, and pieces
that are long enough, short enough, and clean enough become utterance
segments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .am import AcousticModel
from .decode import DecodeConfig, DecodeError, build_prefix_tree, decode
from .features import (
    FrontendConfig,
    cmvn,
    compute_mfcc,
    silence_mask,
    silence_runs,
    slice_frames,
)
from .lexicon import Lexicon
from .lm import biased_lm
from .scoring import (
    MATCH,
    align_fill,
    align_trace,
    step_op,
    substitution_matrix,
)

logger = logging.getLogger(__name__)

SUCCESS_RATE_WARN_BELOW = 0.7


# ---------------------------------------------------------------------------
# chunking

@dataclass(frozen=True)
class Chunk:
    recording_id: str
    start: float
    end: float

    @property
    def center(self) -> float:
        return 0.5 * (self.start + self.end)


def chunk_spans(
    duration: float, chunk_len: float = 30.0, overlap: float = 5.0
) -> list[tuple[float, float]]:
    """Consecutive overlapping spans covering [0, duration]."""
    if duration <= 0:
        return []
    stride = chunk_len - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than chunk_len")
    starts = [0.0]
    k = 1
    while k * stride < duration - overlap:
        starts.append(k * stride)
        k += 1
    return [(s, min(s + chunk_len, duration)) for s in starts]


def chunk_recording(
    recording_id: str, duration: float, chunk_len: float = 30.0,
    overlap: float = 5.0,
) -> list[Chunk]:
    return [
        Chunk(recording_id, s, e)
        for s, e in chunk_spans(duration, chunk_len, overlap)
    ]


# ---------------------------------------------------------------------------
# Smith-Waterman

@dataclass(frozen=True)
class SWConfig:
    match: float = 2.0
    mismatch: float = -1.0
    gap: float = -1.0
    min_island: int = 3  # words; min region score = min_island * match

    def __post_init__(self):
        if not (self.match > 0 >= self.mismatch and 0 >= self.gap):
            raise ValueError("need match > 0 >= mismatch and 0 >= gap")

    @property
    def min_score(self) -> float:
        return self.min_island * self.match


@dataclass
class AlignedRegion:
    score: float
    # (hyp idx, ref idx, scoring op: MATCH, SUB, INS hyp only, DEL ref only)
    pairs: list[tuple[int | None, int | None, str]]

    @property
    def hyp_span(self) -> tuple[int, int]:
        idx = [h for h, _, _ in self.pairs if h is not None]
        return (min(idx), max(idx))

    @property
    def ref_span(self) -> tuple[int, int]:
        idx = [r for _, r, _ in self.pairs if r is not None]
        return (min(idx), max(idx))

    @property
    def n_matches(self) -> int:
        return sum(1 for _, _, lab in self.pairs if lab == MATCH)


def smith_waterman(
    hyp: Sequence[str], ref: Sequence[str], cfg: SWConfig = SWConfig()
) -> list[AlignedRegion]:
    """All maximal local alignments with score >= min, by iterated masking.

    Each region's hyp and ref words are masked out of the pair scores, so
    no later region pairs them again.
    """
    hyp = list(hyp)
    ref = list(ref)
    if not hyp or not ref:
        return []
    sub = substitution_matrix(hyp, ref, cfg.match, cfg.mismatch)
    regions: list[AlignedRegion] = []
    while True:
        h = align_fill(sub, cfg.gap, local=True)
        i, j = np.unravel_index(int(np.argmax(h)), h.shape)
        best = float(h[i, j])
        if best < cfg.min_score:
            break
        steps = align_trace(h, sub, cfg.gap, int(i), int(j), local=True)
        if not steps:
            break
        regions.append(
            AlignedRegion(
                score=best,
                pairs=[(hi, ri, step_op(hyp, ref, hi, ri)) for hi, ri in steps],
            )
        )
        sub[[hi for hi, _ in steps if hi is not None], :] = -np.inf
        sub[:, [ri for _, ri in steps if ri is not None]] = -np.inf
    regions.sort(key=lambda r: r.hyp_span)
    return regions


# ---------------------------------------------------------------------------
# harvesting

@dataclass(frozen=True)
class SegmentCandidate:
    recording_id: str
    start: float
    end: float
    tokens: tuple[str, ...]
    match_ratio: float
    ref_span: tuple[int, int]  # global transcript token indices

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SegmentReport:
    recording_id: str
    n_transcript_tokens: int
    n_hyp_words: int
    n_regions: int
    n_candidates: int
    accepted: list[SegmentCandidate] = field(default_factory=list)
    rejected_ratio: int = 0
    rejected_short: int = 0
    rejected_long: int = 0

    @property
    def n_accepted(self) -> int:
        return len(self.accepted)

    @property
    def word_yield(self) -> float:
        if self.n_transcript_tokens == 0:
            return 0.0
        covered = sum(len(c.tokens) for c in self.accepted)
        return covered / self.n_transcript_tokens

    def as_dict(self) -> dict:
        return {
            "recording_id": self.recording_id,
            "n_transcript_tokens": self.n_transcript_tokens,
            "n_hyp_words": self.n_hyp_words,
            "n_regions": self.n_regions,
            "n_candidates": self.n_candidates,
            "n_accepted": self.n_accepted,
            "word_yield": round(self.word_yield, 4),
            "rejected": {
                "match_ratio": self.rejected_ratio,
                "too_short": self.rejected_short,
                "too_long": self.rejected_long,
            },
        }


@dataclass(frozen=True)
class HarvestConfig:
    chunk_len: float = 30.0
    overlap: float = 5.0
    sw: SWConfig = SWConfig()
    min_dur: float = 1.0
    max_dur: float = 20.0
    accept_ratio: float = 0.9
    silence_gap: float = 0.15  # seconds of silence that cut a region
    margin_db: float = 10.0
    unk_mass: float = 0.01
    decode: DecodeConfig = DecodeConfig(beam=14.0, max_active=2000)
    frontend: FrontendConfig = FrontendConfig()


@dataclass(frozen=True)
class TimedWord:
    word: str
    start: float
    end: float


def _decode_chunks(
    model, lm, tree, lexicon, feats_full, chunks, cfg: HarvestConfig
) -> list[TimedWord]:
    """Decode each chunk; overlap words resolved by nearest chunk center."""
    shift = cfg.frontend.frame_shift
    all_words: list[tuple[TimedWord, float]] = []  # (word, chunk center)
    for chunk in chunks:
        lo = int(round(chunk.start / shift))
        hi = min(int(round(chunk.end / shift)), feats_full.n_frames)
        if hi - lo < 3:
            continue
        piece = slice_frames(feats_full, lo, hi)
        try:
            hyp = decode(model, lm, tree, piece, cfg.decode, lexicon=lexicon)
        except DecodeError as exc:
            logger.warning(
                "%s chunk [%.1f, %.1f]: %s",
                chunk.recording_id, chunk.start, chunk.end, exc,
            )
            continue
        for iv in hyp.word_intervals:
            timed = TimedWord(
                iv.label, iv.start + chunk.start, iv.end + chunk.start
            )
            all_words.append((timed, chunk.center))
    if not all_words:
        return []
    centers = sorted(set(c for _, c in all_words))
    kept = []
    for timed, center in all_words:
        mid = 0.5 * (timed.start + timed.end)
        nearest = min(centers, key=lambda c: (abs(mid - c), c))
        if nearest == center:
            kept.append(timed)
    kept.sort(key=lambda w: (w.start, w.end, w.word))
    return kept


def _silence_cut_points(
    mask: np.ndarray, shift: float, min_gap: float
) -> list[tuple[float, float]]:
    min_frames = max(1, int(round(min_gap / shift)))
    return [
        (start * shift, end * shift)
        for start, end in silence_runs(mask)
        if end - start >= min_frames
    ]


def _split_region(
    region: AlignedRegion,
    hyp_words: list[TimedWord],
    gaps: list[tuple[float, float]],
) -> list[list[tuple[int | None, int | None, str]]]:
    """Split a region's pairs wherever a silence gap separates hyp words."""
    pieces: list[list] = [[]]
    prev_hyp: int | None = None
    for pair in region.pairs:
        hi = pair[0]
        if hi is not None and prev_hyp is not None:
            gap_lo = hyp_words[prev_hyp].end
            gap_hi = hyp_words[hi].start
            if any(
                gs < gap_hi and ge > gap_lo and (min(ge, gap_hi) - max(gs, gap_lo)) > 0
                for gs, ge in gaps
            ):
                pieces.append([])
        pieces[-1].append(pair)
        if hi is not None:
            prev_hyp = hi
    return [p for p in pieces if any(pair[0] is not None for pair in p)]


def harvest_segments(
    recording_id: str,
    samples: np.ndarray,
    transcript_lines: Sequence[Sequence[str]],
    model: AcousticModel,
    lexicon: Lexicon,
    cfg: HarvestConfig = HarvestConfig(),
) -> tuple[list[SegmentCandidate], SegmentReport]:
    """Chunk, decode with a transcript-biased LM, align, and cut segments."""
    ref_tokens: list[str] = [t for line in transcript_lines for t in line]
    report = SegmentReport(
        recording_id=recording_id,
        n_transcript_tokens=len(ref_tokens),
        n_hyp_words=0,
        n_regions=0,
        n_candidates=0,
    )
    if not ref_tokens:
        logger.warning("%s: empty transcript, no segments", recording_id)
        return [], report

    feats_full = cmvn(compute_mfcc(samples, cfg.frontend))
    mask = silence_mask(feats_full, margin_db=cfg.margin_db)
    gaps = _silence_cut_points(mask, cfg.frontend.frame_shift, cfg.silence_gap)
    duration = len(samples) / cfg.frontend.sample_rate
    chunks = chunk_recording(recording_id, duration, cfg.chunk_len, cfg.overlap)

    lm = biased_lm(transcript_lines, unk_mass=cfg.unk_mass)
    sub_lex = lexicon.restricted_to(set(ref_tokens))
    tree = build_prefix_tree(sub_lex, include_unk=True)

    hyp_words = _decode_chunks(
        model, lm, tree, sub_lex, feats_full, chunks, cfg
    )
    report.n_hyp_words = len(hyp_words)
    if not hyp_words:
        return [], report

    regions = smith_waterman([w.word for w in hyp_words], ref_tokens, cfg.sw)
    report.n_regions = len(regions)

    candidates: list[SegmentCandidate] = []
    for region in regions:
        for piece in _split_region(region, hyp_words, gaps):
            candidates.extend(
                _pieces_to_candidates(
                    piece, hyp_words, ref_tokens, recording_id, gaps, cfg,
                    report,
                )
            )
    candidates.sort(key=lambda c: c.start)
    report.n_candidates = (
        len(candidates) + report.rejected_short + report.rejected_long
    )
    accepted = [
        c for c in candidates if c.match_ratio >= cfg.accept_ratio
    ]
    report.rejected_ratio = len(candidates) - len(accepted)
    # decoder time jitter at chunk seams can leave epsilon overlaps; clip
    cleaned: list[SegmentCandidate] = []
    prev_end = 0.0
    for cand in accepted:
        if cand.start < prev_end:
            cand = SegmentCandidate(
                recording_id=cand.recording_id,
                start=prev_end,
                end=cand.end,
                tokens=cand.tokens,
                match_ratio=cand.match_ratio,
                ref_span=cand.ref_span,
            )
            if cand.duration < cfg.min_dur:
                report.rejected_short += 1
                continue
        cleaned.append(cand)
        prev_end = cand.end
    report.accepted = cleaned
    return cleaned, report


def _pieces_to_candidates(
    piece, hyp_words, ref_tokens, recording_id, gaps, cfg, report
) -> list[SegmentCandidate]:
    hyp_idx = [p[0] for p in piece if p[0] is not None]
    ref_idx = [p[1] for p in piece if p[1] is not None]
    if not hyp_idx or not ref_idx:
        return []
    start = hyp_words[hyp_idx[0]].start
    end = hyp_words[hyp_idx[-1]].end
    duration = end - start
    if duration < cfg.min_dur:
        report.rejected_short += 1
        return []
    if duration > cfg.max_dur:
        # split at the widest internal silence gap and recurse
        internal = [
            (ge - gs, gs, ge) for gs, ge in gaps if gs > start and ge < end
        ]
        best_cut = None
        widest = 0.0
        for width, gs, ge in internal:
            cut = 0.5 * (gs + ge)
            if width > widest and any(
                hyp_words[h].end <= cut for h in hyp_idx
            ) and any(hyp_words[h].start >= cut for h in hyp_idx):
                widest = width
                best_cut = cut
        if best_cut is None:
            report.rejected_long += 1
            return []
        left = [
            p for p in piece
            if p[0] is None or hyp_words[p[0]].end <= best_cut
        ]
        right = [p for p in piece if p not in left]
        out = []
        out.extend(
            _pieces_to_candidates(
                left, hyp_words, ref_tokens, recording_id, gaps, cfg, report
            )
        )
        out.extend(
            _pieces_to_candidates(
                right, hyp_words, ref_tokens, recording_id, gaps, cfg, report
            )
        )
        return out
    n_matches = sum(1 for p in piece if p[2] == MATCH)
    ratio = n_matches / len(piece)
    j_lo, j_hi = min(ref_idx), max(ref_idx)
    return [
        SegmentCandidate(
            recording_id=recording_id,
            start=start,
            end=end,
            tokens=tuple(ref_tokens[j_lo : j_hi + 1]),
            match_ratio=ratio,
            ref_span=(j_lo, j_hi),
        )
    ]


# ---------------------------------------------------------------------------
# success rate

@dataclass(frozen=True)
class SuccessRate:
    recording_rate: float
    word_yield: float
    n_recordings: int
    warning: str | None

    def as_dict(self) -> dict:
        return {
            "recording_rate": round(self.recording_rate, 4),
            "word_yield": round(self.word_yield, 4),
            "n_recordings": self.n_recordings,
            "warning": self.warning,
        }


def success_rate(reports: Sequence[SegmentReport]) -> SuccessRate:
    """Per-recording and word-level alignment success across reports."""
    if not reports:
        raise ValueError("need at least one report")
    with_segments = sum(1 for r in reports if r.n_accepted > 0)
    rate = with_segments / len(reports)
    total_tokens = sum(r.n_transcript_tokens for r in reports)
    covered = sum(
        len(c.tokens) for r in reports for c in r.accepted
    )
    word_yield = covered / total_tokens if total_tokens else 0.0
    warning = None
    if rate < SUCCESS_RATE_WARN_BELOW:
        warning = (
            f"alignment success rate {rate:.2f} is below "
            f"{SUCCESS_RATE_WARN_BELOW}; check transcripts for "
            "missing or incomplete text"
        )
        logger.warning("%s", warning)
    return SuccessRate(
        recording_rate=rate,
        word_yield=word_yield,
        n_recordings=len(reports),
        warning=warning,
    )
