"""Long-form segmentation: biased decoding plus Smith-Waterman alignment.

A long recording is decoded in disjoint chunks, cut inside silences, with
a bigram model trained on its own transcript; the decoded word stream is
aligned to the transcript by order-preserving Smith-Waterman (the best
local alignment anchors, then each gap it leaves is aligned on its own),
so matched regions share no hyp or transcript word and come in the same
order in both.  Regions are cut at transcript line ends, and pieces that
are long enough (``_MIN_DUR``), short enough (``_MAX_DUR``), and clean
enough (``_ACCEPT_RATIO``) become utterance segments; a piece longer than
``_MAX_DUR`` is split at its widest internal silence.

The features are the front end's with CMVN, as the model's
training features are; the silence threshold is `features.silence_mask`'s
and the Smith-Waterman scores are the module constants ``_SW_MATCH``,
``_SW_MISMATCH`` and ``_SW_GAP``.  `HarvestConfig` holds only what a
harvest varies: its chunk length and its decoder's search.  Seconds are
frame indices times ``FrontendConfig.frame_shift``.  A `Chunk` is a
frame range of the one recording a `harvest_segments` call holds; the
recording's id is carried by the report and the segments alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .am import AcousticModel, Interval
from .decode import DecodeConfig, DecodeError, build_prefix_tree, decode
from .features import (
    FrontendConfig,
    check_count,
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

# Smith-Waterman scores; a region needs a score of _MIN_ISLAND matches
_SW_MATCH = 2.0
_SW_MISMATCH = -1.0
_SW_GAP = -1.0
_MIN_ISLAND = 3  # words

# seconds; a piece (one transcript line's share of a region) shorter than
# _MIN_DUR is rejected, one longer than _MAX_DUR is split at its widest
# internal silence, or rejected when it has none
_MIN_DUR = 1.0
_MAX_DUR = 20.0
_ACCEPT_RATIO = 0.9  # least share of a piece's pairs that match


# ---------------------------------------------------------------------------
# chunking

@dataclass(frozen=True)
class Chunk:
    """A half-open frame range [start, end) of one recording."""

    start: int
    end: int


def chunk_recording(
    runs: Sequence[tuple[int, int]], n_frames: int, max_frames: int
) -> list[Chunk]:
    """Disjoint chunks of at most ``max_frames`` (an integer >= 2) covering
    the frames [0, n_frames) of the recording the caller holds.

    Each seam is the middle frame of the longest silence run (``runs``, as
    ``features.silence_runs`` gives them) in the second half of the chunk
    it ends, the earliest of equally long ones, else that chunk's end.
    The window stops half a chunk before the recording ends, so the last
    chunk is at least half a chunk long.
    """
    if not max_frames >= 2:  # below 2 the seam never moves past lo
        raise ValueError(f"max_frames must be >= 2, got {max_frames}")
    check_count("max_frames", max_frames)  # chunk bounds are frame indices
    chunks = []
    lo = 0
    while n_frames - lo > max_frames:
        win_lo = lo + max_frames // 2
        win_hi = min(lo + max_frames, n_frames - (max_frames + 1) // 2)
        seam, longest = win_hi, 0
        for run_lo, run_hi in runs:
            a, b = max(run_lo, win_lo), min(run_hi, win_hi)
            if b - a > longest:
                seam, longest = (a + b) // 2, b - a
        chunks.append(Chunk(lo, seam))
        lo = seam
    if lo < n_frames:
        chunks.append(Chunk(lo, n_frames))
    return chunks


# ---------------------------------------------------------------------------
# Smith-Waterman

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


def smith_waterman(hyp: Sequence[str], ref: Sequence[str]) -> list[AlignedRegion]:
    """Order-preserving local alignments scoring at least ``_MIN_ISLAND``
    matches, sorted by hyp_span.

    Steps score ``_SW_MATCH``, ``_SW_MISMATCH`` and ``_SW_GAP``.  Anchor
    then recurse (Moreno et al., ICSLP 1998): the best local alignment of
    the whole pair is taken first, then the same search runs inside each
    gap it leaves (hyp and ref before its spans, and hyp and ref after
    them) until no cell reaches ``_MIN_ISLAND * _SW_MATCH``.  So regions
    share no hyp or ref index, paired or lone, and are in the same order
    in hyp and ref; of two islands that cross, only the better is found.
    """
    hyp = list(hyp)
    ref = list(ref)
    min_score = _MIN_ISLAND * _SW_MATCH
    sub = substitution_matrix(hyp, ref, _SW_MATCH, _SW_MISMATCH)
    regions: list[AlignedRegion] = []
    # half-open (hyp lo, hyp hi, ref lo, ref hi) blocks left to search; an
    # explicit stack, so many small islands cannot hit the recursion limit
    todo = [(0, len(hyp), 0, len(ref))]
    while todo:
        h_lo, h_hi, r_lo, r_hi = todo.pop()
        block = sub[h_lo:h_hi, r_lo:r_hi]
        h = align_fill(block, _SW_GAP, local=True)
        i, j = np.unravel_index(int(np.argmax(h)), h.shape)
        best = float(h[i, j])
        if best < min_score:  # min_score > 0: a region holds a match
            continue
        pairs = []
        for hi, ri in align_trace(h, block, _SW_GAP, int(i), int(j), local=True):
            hi = None if hi is None else hi + h_lo
            ri = None if ri is None else ri + r_lo
            pairs.append((hi, ri, step_op(hyp, ref, hi, ri)))
        regions.append(AlignedRegion(score=best, pairs=pairs))
        h_first, h_last = regions[-1].hyp_span
        r_first, r_last = regions[-1].ref_span
        todo += [(h_lo, h_first, r_lo, r_first), (h_last + 1, h_hi, r_last + 1, r_hi)]
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
    n_chunks: int = 0
    chunk_failures: int = 0  # chunks whose decode raised DecodeError
    partial_chunks: int = 0  # chunks decoded to a partial hypothesis

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
            "n_chunks": self.n_chunks,
            "chunk_failures": self.chunk_failures,
            "partial_chunks": self.partial_chunks,
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
    """What a harvest varies; the features are the front end's
    (`features.FrontendConfig`), as the model's training features are."""

    decode: DecodeConfig  # each chunk's search
    chunk_len: float = 30.0  # seconds; the longest chunk decoded at once

    def __post_init__(self):
        # NaN fails each comparison; an infinite length has no frame count
        if not 2 * FrontendConfig.frame_shift <= self.chunk_len < math.inf:
            raise ValueError(
                "chunk_len must be finite and at least two frame shifts, "
                f"got {self.chunk_len}"
            )


def _decode_chunks(
    model, lm, tree, feats_full, chunks, decode_cfg: DecodeConfig,
    report: SegmentReport,
) -> list[Interval]:
    """Decode each chunk; a chunk whose decode fails is counted and skipped,
    a partial hypothesis is counted and its words kept.

    Chunks are disjoint and in time order, so their words come out in order.
    """
    shift = FrontendConfig.frame_shift
    words: list[Interval] = []
    for chunk in chunks:
        offset = chunk.start * shift
        piece = slice_frames(feats_full, chunk.start, chunk.end)
        try:
            hyp = decode(model, lm, tree, piece, decode_cfg)
        except DecodeError as exc:
            report.chunk_failures += 1
            logger.warning(
                "%s chunk [%.2f, %.2f] s: %s",
                report.recording_id, offset, chunk.end * shift, exc,
            )
            continue
        report.partial_chunks += hyp.partial
        words.extend(
            Interval(iv.label, iv.start + offset, iv.end + offset)
            for iv in hyp.word_intervals
        )
    return words


def _split_region(
    region: AlignedRegion, line_of: Sequence[int]
) -> list[list[tuple[int | None, int | None, str]]]:
    """Split a region's pairs where their transcript tokens cross a line end.

    ``line_of`` gives the transcript line of each global ref index.  A pair
    with no ref token (an inserted hyp word) stays with the piece before
    it; a piece with no hyp word is dropped.
    """
    pieces: list[list] = [[]]
    line: int | None = None
    for pair in region.pairs:
        ri = pair[1]
        if ri is not None:
            if line is not None and line_of[ri] != line:
                pieces.append([])
            line = line_of[ri]
        pieces[-1].append(pair)
    return [p for p in pieces if any(pair[0] is not None for pair in p)]


def harvest_segments(
    recording_id: str,
    samples: np.ndarray,
    transcript_lines: Sequence[Sequence[str]],
    model: AcousticModel,
    lexicon: Lexicon,
    cfg: HarvestConfig,
) -> tuple[list[SegmentCandidate], SegmentReport]:
    """Chunk, decode with a transcript-biased LM, align, and cut segments
    at transcript line ends.  ``samples`` are float and mono at
    `corpus.CANONICAL_RATE`, as `corpus.read_wav` returns them (float32
    for 16-bit audio, read without a float64 copy): the samples the
    front end reads.

    A piece is kept when it lasts from ``_MIN_DUR`` to ``_MAX_DUR``
    seconds (a longer one is split at a silence first) and at least
    ``_ACCEPT_RATIO`` of its pairs match; a transcript with no tokens
    gives no segments, and nothing is computed."""
    ref_tokens: list[str] = [t for line in transcript_lines for t in line]
    line_of = [i for i, line in enumerate(transcript_lines) for _ in line]
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

    feats_full = cmvn(compute_mfcc(samples))
    shift = FrontendConfig.frame_shift
    runs = silence_runs(silence_mask(feats_full))
    silences = [(lo * shift, hi * shift) for lo, hi in runs]
    chunks = chunk_recording(runs, feats_full.n_frames, round(cfg.chunk_len / shift))
    report.n_chunks = len(chunks)

    lm = biased_lm(transcript_lines)
    tree = build_prefix_tree(
        lexicon.restricted_to(set(ref_tokens)), include_unk=True
    )

    hyp_words = _decode_chunks(
        model, lm, tree, feats_full, chunks, cfg.decode, report
    )
    report.n_hyp_words = len(hyp_words)
    if not hyp_words:
        return [], report

    regions = smith_waterman([w.label for w in hyp_words], ref_tokens)
    report.n_regions = len(regions)

    candidates: list[SegmentCandidate] = []
    for region in regions:
        for piece in _split_region(region, line_of):
            candidates.extend(
                _pieces_to_candidates(
                    piece, hyp_words, ref_tokens, recording_id, silences, report
                )
            )
    report.n_candidates = (
        len(candidates) + report.rejected_short + report.rejected_long
    )
    accepted = [c for c in candidates if c.match_ratio >= _ACCEPT_RATIO]
    report.rejected_ratio = len(candidates) - len(accepted)
    report.accepted = accepted
    return accepted, report


def _pieces_to_candidates(
    piece, hyp_words, ref_tokens, recording_id, silences, report
) -> list[SegmentCandidate]:
    hyp_idx = [p[0] for p in piece if p[0] is not None]
    ref_idx = [p[1] for p in piece if p[1] is not None]
    if not hyp_idx or not ref_idx:
        return []
    start = hyp_words[hyp_idx[0]].start
    end = hyp_words[hyp_idx[-1]].end
    duration = end - start
    if duration < _MIN_DUR:
        report.rejected_short += 1
        return []
    if duration > _MAX_DUR:
        # split at the widest internal silence run, however short, with
        # hyp words on both sides, and recurse
        best_cut = None
        widest = 0.0
        for gs, ge in silences:
            cut = 0.5 * (gs + ge)
            if (
                gs > start and ge < end and ge - gs > widest
                and hyp_words[hyp_idx[0]].end <= cut
                and any(hyp_words[h].start >= cut for h in hyp_idx)
            ):
                widest = ge - gs
                best_cut = cut
        if best_cut is None:
            report.rejected_long += 1
            return []
        # one cut in pair order, before the first hyp word that ends after
        # it, so a deleted ref word stays between its neighbours
        k = next(
            i for i, (h, _, _) in enumerate(piece)
            if h is not None and hyp_words[h].end > best_cut
        )
        return [
            cand
            for part in (piece[:k], piece[k:])
            for cand in _pieces_to_candidates(
                part, hyp_words, ref_tokens, recording_id, silences, report
            )
        ]
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
