"""Workloads, output checks and metrics of the asrboot benchmark.

Every run builds its inputs from one seed: ``synth_corpus`` writes a
synthetic language (short-form training clips, a held-out test set, one
long-form recording with a transcript that has off-script lines, LM
text and ``ground_truth.json``).  The program sees only those files.

Workloads (a run is a closed loop: one utterance or chunk at a time)
------------------------------------------------------------------
``train_em``
    Timed: ``flat_start`` + ``train`` on the seed's short-form clips.
    Pure acoustic-model work (emission, Viterbi, accumulation,
    rescoring); it never touches the decoder or the segmenter, so a
    decoder or harvest change must show no change here.
``decode_harvest``
    Set-up trains a reference model on the ``model_seed`` clips, the
    same work as one ``train_em`` unit.  Timed: one round decodes every
    test utterance of the seed's corpus with its trigram LM and full
    lexicon, scores WER/CER, then harvests the long-form recording
    (raw-audio MFCC, 30 s chunks decoded against a transcript-biased
    bigram, Smith-Waterman, segmentation).  Decoder, LM, segmenter and
    front-end changes show here.

A timed phase repeats whole units (one training, one round) until
``seconds`` have passed; a unit is never cut short.  Every unit must
reproduce the first one, so ``attempted`` and ``failed`` count each
input once, whatever the number of units: they depend on the seed only.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

from asrboot import am, corpus, features, lexicon, lm, scoring, segment, synth
from asrboot import decode as decoder

from .interpose import Interposer, Stats
from .truth import RecordingTruth, load_recording_truth, score_segments

@dataclass(frozen=True)
class Recipe:
    """Corpus sizes and model settings; ``BASELINE`` is the benchmark's."""

    n_shortform: int = 60
    longform_minutes: float = 5.0  # one recording of this length
    n_test: int = 120
    vocabulary_size: int = 60
    corruption_rate: float = 0.1
    lm_order: int = 3
    schedule: am.TrainSchedule = am.TrainSchedule(
        n_iters=12, split_iters=(3, 6, 9), max_gauss=4
    )
    # lm_scale 2 is the measured working point on the synthetic language;
    # the library default (12) is tuned for real speech
    decode_cfg: decoder.DecodeConfig = decoder.DecodeConfig(
        beam=60.0, max_active=20000, lm_scale=2.0
    )
    setup_reps: int = 3  # set-up repeats; setup_s is their median
    # decode_harvest decodes with a model trained on this seed's clips
    model_seed: int = 0


BASELINE = Recipe()


# ---------------------------------------------------------------------------
# set-up

@dataclass
class LongForm:
    recording_id: str
    samples: object  # float samples as read_wav returns them
    lines: list[list[str]]
    truth: RecordingTruth
    n_frames: int
    duration: float


@dataclass
class TrainInputs:
    train: list  # (features, tokens) per short-form clip
    lexicon: lexicon.Lexicon


@dataclass
class DecodeInputs:
    lexicon: lexicon.Lexicon
    test: list  # (features, tokens) per test utterance
    lm: lm.NGramLM
    recording: LongForm
    model: am.AcousticModel | None = None


def synthesize(recipe: Recipe, seed: int, out_dir: Path, short_only: bool):
    """The seeded corpus.  Short-form clips are drawn right after the
    vocabulary, so a short-only corpus has the same clips as a full one."""
    return synth.synth_corpus(
        synth.SynthSpec(seed=seed),
        out_dir,
        n_shortform=recipe.n_shortform,
        longform_minutes=0.0 if short_only else recipe.longform_minutes,
        longform_recording_minutes=recipe.longform_minutes,
        n_test=0 if short_only else recipe.n_test,
        vocabulary_size=recipe.vocabulary_size,
        corruption_rate=recipe.corruption_rate,
    )


def _features(manifest) -> list:
    data = []
    for utt in corpus.load_manifest(manifest):
        _, samples = corpus.read_wav(utt.audio)
        data.append((features.cmvn(features.compute_mfcc(samples)), utt.tokens()))
    return data


def _lexicon(train_tokens, vocabulary) -> lexicon.Lexicon:
    wordlist = lexicon.supplement(
        lexicon.build_wordlist(train_tokens, min_count=1), vocabulary
    )
    return lexicon.graphemic_lexicon(wordlist)[0]


def _read_lines(path) -> list[list[str]]:
    return [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()]


def training_inputs(recipe: Recipe, seed: int, out_dir: Path) -> TrainInputs:
    corp = synthesize(recipe, seed, out_dir, short_only=True)
    train = _features(corp.short_manifest)
    return TrainInputs(
        train, _lexicon((w for _, toks in train for w in toks), corp.vocabulary)
    )


def decoding_inputs(recipe: Recipe, seed: int, out_dir: Path) -> DecodeInputs:
    corp = synthesize(recipe, seed, out_dir, short_only=False)
    train_tokens = (
        w for utt in corpus.load_manifest(corp.short_manifest) for w in utt.tokens()
    )
    (rec,) = corp.longform
    rate, samples = corpus.read_wav(rec.audio)
    lines = _read_lines(rec.transcript)
    return DecodeInputs(
        lexicon=_lexicon(train_tokens, corp.vocabulary),
        test=_features(corp.test_manifest),
        lm=lm.train_ngram(_read_lines(corp.lm_text), order=recipe.lm_order),
        recording=LongForm(
            recording_id=rec.recording_id,
            samples=samples,
            lines=lines,
            truth=load_recording_truth(corp.ground_truth_path(), rec.recording_id, lines),
            n_frames=features.frame_count(len(samples), features.FrontendConfig()),
            duration=len(samples) / rate,
        ),
    )


def train_model(recipe: Recipe, inputs: TrainInputs) -> am.TrainResult:
    model = am.flat_start(inputs.train, inputs.lexicon)
    return am.train(model, inputs.train, inputs.lexicon, recipe.schedule)


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Pass:
    """What one timed phase did and produced."""

    units: int
    elapsed: float
    cpu: float  # process CPU time over the same span
    outputs: object  # first unit's outputs
    latencies: list[float]  # per test utterance, every unit
    counters: Stats  # from the counting wrappers
    problems: list[str]  # failed output checks


class TrainEm:
    name = "train_em"
    # functions the timed phase must reach; zero calls means a renamed entry
    counted = ("am.viterbi_path",)
    traced = (
        "synth.synth_corpus", "corpus.read_wav", "features.compute_mfcc",
        "am.train", "am.viterbi_path", "am.state_logliks",
    )

    def prepare(self, recipe, seed, out_dir) -> TrainInputs:
        return training_inputs(recipe, seed, out_dir)

    def set_up(self, recipe, inputs, setup_times, work):
        return inputs, statistics.median(setup_times)

    def install_counters(self, ip: Interposer) -> None:
        ip.function("am", "viterbi_path")

    def unit(self, recipe, inputs, latencies) -> am.TrainResult:
        return train_model(recipe, inputs)

    def same(self, a: am.TrainResult, b: am.TrainResult) -> bool:
        return a.loglik_trace == b.loglik_trace

    def frames(self, inputs) -> int:
        return sum(f.n_frames for f, _ in inputs.train)

    def evaluate(self, recipe, inputs, run: Pass) -> dict:
        result: am.TrainResult = run.outputs
        n_utts = len(inputs.train)
        n_iters = recipe.schedule.n_iters
        n_frames = self.frames(inputs)
        trace = result.loglik_trace
        problems = run.problems
        if len(trace) != n_iters:
            problems.append(f"loglik trace has {len(trace)} of {n_iters} iterations")
        for it, (pre, post) in enumerate(trace, start=1):
            if not (math.isfinite(pre) and math.isfinite(post)):
                problems.append(f"iteration {it}: non-finite loglik {pre}, {post}")
            elif post < pre - 1e-9 * abs(pre):
                problems.append(f"iteration {it}: post {post} < pre {pre}")
        for sid, state in enumerate(result.model.states):
            if not all(
                math.isfinite(float(a.sum()))
                for a in (state.weights, state.means, state.variances)
            ):
                problems.append(f"state {sid}: non-finite parameters")
        # every utterance is aligned or counted as failed in each iteration
        calls = run.counters.calls("am.viterbi_path")
        per_iter, rest = divmod(calls, n_iters * run.units)
        if rest or per_iter + result.n_failures_last_iter < n_utts:
            problems.append(
                f"{calls} alignments over {run.units} trainings of {n_iters} "
                f"iterations with {result.n_failures_last_iter} failures "
                f"do not cover {n_utts} utterances"
            )
        return {
            "attempted": n_utts,
            "failed": result.n_failures_last_iter,
            "frames_per_s": (n_frames * n_iters * run.units / run.elapsed, "frames/s"),
            "loglik_per_frame": (trace[-1][1] / n_frames, "nat/frame"),
        }


class DecodeHarvest:
    name = "decode_harvest"
    counted = ("segment.decode", "segment.chunk_recording")
    traced = TrainEm.traced + (
        "lm.train_ngram", "lm.biased_lm", "lm.logp", "decode.decode",
        "segment.harvest_segments", "segment.smith_waterman",
        "scoring.wer", "scoring.cer",
    )

    def prepare(self, recipe, seed, out_dir) -> DecodeInputs:
        return decoding_inputs(recipe, seed, out_dir)

    def set_up(self, recipe, inputs, setup_times, work):
        """Train the reference model once, from the ``model_seed`` clips.

        Every grapheme sounds the same under every seed, so the model
        decodes any seed's words; search effort then follows the inputs,
        not whether EM converged on that seed's clips.
        """
        started = perf_counter()
        data = training_inputs(recipe, recipe.model_seed, work / "model")
        inputs.model = train_model(recipe, data).model
        missing = set(inputs.lexicon.phones()) - set(inputs.model.phones)
        if missing:
            raise ValueError(f"reference model lacks phones {sorted(missing)}")
        return inputs, statistics.median(setup_times) + perf_counter() - started

    def install_counters(self, ip: Interposer) -> None:
        # harvest failures are counted here, not read from log records
        ip.function(
            "segment", "decode", errors=(decoder.DecodeError,), everywhere=False
        )
        ip.function("segment", "chunk_recording", on_return=_count_chunks)

    def unit(self, recipe, inputs, latencies):
        tree = decoder.build_prefix_tree(inputs.lexicon)
        hyps = []
        for feats, _ in inputs.test:
            started = perf_counter()
            try:
                hyps.append(decoder.decode(
                    inputs.model, inputs.lm, tree, feats, recipe.decode_cfg,
                    lexicon=inputs.lexicon,
                ))
            except decoder.DecodeError:
                hyps.append(None)
            latencies.append(perf_counter() - started)
        # a failed utterance scores as all deletions
        pairs = [
            (ref, hyp.words if hyp else ())
            for (_, ref), hyp in zip(inputs.test, hyps)
        ]
        scores = (scoring.wer(pairs), scoring.cer(pairs))
        rec = inputs.recording
        segments, report = segment.harvest_segments(
            rec.recording_id, rec.samples, rec.lines, inputs.model,
            inputs.lexicon, segment.HarvestConfig(decode=recipe.decode_cfg),
        )
        return hyps, scores, segments, report

    def same(self, a, b) -> bool:
        return a[0] == b[0] and a[2] == b[2]

    def frames(self, inputs) -> int:
        return sum(f.n_frames for f, _ in inputs.test) + inputs.recording.n_frames

    def evaluate(self, recipe, inputs, run: Pass) -> dict:
        hyps, (wer, cer), segments, report = run.outputs
        rec = inputs.recording
        problems = run.problems
        for hyp in hyps:
            if hyp is not None and not all(
                math.isfinite(s)
                for s in (hyp.acoustic_score, hyp.lm_score, hyp.total_score)
            ):
                problems.append(f"non-finite hypothesis score: {hyp}")
        problems.extend(_segment_problems(segments, rec))
        chunks = run.counters.get("segment.chunk_recording", "chunks")
        chunk_calls = run.counters.calls("segment.decode")
        if chunk_calls != chunks:
            problems.append(f"{chunks:.0f} chunks given, {chunk_calls} decoded")
        decode_failures = sum(h is None for h in hyps)
        # every unit harvests the same chunks with the same failures
        n_chunks, rest = divmod(int(chunks), run.units)
        errors = int(run.counters.get("segment.decode", "errors"))
        chunk_failures, errors_rest = divmod(errors, run.units)
        if rest or errors_rest:
            problems.append(
                f"{chunks:.0f} chunks with {errors} failures do not repeat "
                f"over {run.units} rounds"
            )
        bounds = score_segments(rec.truth, segments)
        lat_ms = sorted(1000.0 * x for x in run.latencies)
        p50, p90 = (statistics.quantiles(lat_ms, n=10, method="inclusive")[i] for i in (4, 8))
        return {
            "attempted": len(hyps) + n_chunks,
            "failed": decode_failures + chunk_failures,
            "frames_per_s": (self.frames(inputs) * run.units / run.elapsed, "frames/s"),
            "utt_latency_p50_ms": (p50, "ms"),
            "utt_latency_p90_ms": (p90, "ms"),
            "wer_pct": (100.0 * wer.rate, "%"),
            "cer_pct": (100.0 * cer.rate, "%"),
            "word_yield": (report.word_yield, "ratio"),
            "boundary_start_err_ms": (bounds.start_err_ms, "ms"),
            "boundary_end_err_ms": (bounds.end_err_ms, "ms"),
            "corrupt_accepted": (bounds.corrupt_accepted, "count"),
            "decode_failures": (decode_failures, "count"),
            "chunk_failures": (chunk_failures, "count"),
            "segments": (len(segments), "count"),
        }


def _count_chunks(counters, args, kwargs, result) -> None:
    if result is not None:
        counters["chunks"] += len(result)


def _segment_problems(segments, rec: LongForm) -> list[str]:
    """Harvested segments are sorted, disjoint, in range and match the text."""
    ref_tokens = [t for line in rec.lines for t in line]
    problems = []
    prev_end = 0.0
    for seg in segments:
        lo, hi = seg.ref_span
        if not (prev_end <= seg.start < seg.end <= rec.duration + 1e-6):
            problems.append(
                f"segment [{seg.start}, {seg.end}] after {prev_end} "
                f"breaks order or leaves [0, {rec.duration}]"
            )
        if not (0 <= lo <= hi < len(ref_tokens)) or (
            tuple(ref_tokens[lo : hi + 1]) != tuple(seg.tokens)
        ):
            problems.append(f"segment tokens differ from transcript at {seg.ref_span}")
        prev_end = seg.end
    return problems


WORKLOAD_CLASSES = {cls.name: cls for cls in (TrainEm, DecodeHarvest)}
WORKLOADS = tuple(WORKLOAD_CLASSES)


# ---------------------------------------------------------------------------
# tracing

def install_timers(ip: Interposer) -> None:
    """Timing wrappers for every layer the per-layer metrics name."""
    ip.function("synth", "synth_corpus")
    ip.function("corpus", "read_wav")
    ip.function("features", "compute_mfcc", on_return=_count_mfcc)
    ip.function("lm", "train_ngram")
    ip.function("lm", "biased_lm")
    ip.method("lm", "NGramLM", "logp")
    ip.function("am", "state_logliks", on_return=_count_gauss)
    ip.function("am", "viterbi_path", on_return=_count_cells)
    ip.function("am", "train")
    ip.function("decode", "decode", on_return=_count_decode,
                errors=(decoder.DecodeError,))
    ip.function("segment", "harvest_segments")
    ip.function("segment", "smith_waterman", on_return=_count_sw)
    ip.function("scoring", "wer")
    ip.function("scoring", "cer")


def _count_mfcc(counters, args, kwargs, result) -> None:
    if result is not None:
        counters["frames"] += result.n_frames


def _count_gauss(counters, args, kwargs, result) -> None:
    if result is not None:
        model, frames = args[0], args[1]
        counters["gauss"] += frames.shape[0] * sum(
            model.states[sid].n_components for sid in result[1]
        )


def _count_cells(counters, args, kwargs, result) -> None:
    graph, frames = args[0], args[2]
    counters["cells"] += frames.shape[0] * len(graph.node_state)


def _count_decode(counters, args, kwargs, result) -> None:
    feats = args[3] if len(args) > 3 else kwargs["feats"]
    counters["frames"] += feats.n_frames


def _count_sw(counters, args, kwargs, result) -> None:
    if result is not None:
        hyp, ref = args[0], args[1]
        counters["cells"] += (len(result) + 1) * len(hyp) * len(ref)


def per_layer(timers: Stats, counters: Stats, overhead: float) -> dict:
    """Per-layer metrics, name -> (value, unit); an unreached layer reads 0.

    ``s`` is span time, ``self_s`` span time minus wrapped children.
    Chunk counts come from the counting wrappers on ``segment``.
    """
    get = timers.get

    def rate(name, quantity, busy):
        return get(name, quantity) / get(name, busy) if get(name, busy) > 0 else 0.0

    return {
        "synth.synth_corpus.s": (get("synth.synth_corpus", "s"), "s"),
        "corpus.read_wav.s": (get("corpus.read_wav", "s"), "s"),
        "features.compute_mfcc.s": (get("features.compute_mfcc", "s"), "s"),
        "features.compute_mfcc.frames_per_s": (
            rate("features.compute_mfcc", "frames", "s"), "frames/s"),
        "lm.train_ngram.s": (get("lm.train_ngram", "s"), "s"),
        "lm.biased_lm.s": (get("lm.biased_lm", "s"), "s"),
        "lm.logp.calls": (timers.calls("lm.logp"), "count"),
        "lm.logp.self_s": (get("lm.logp", "self_s"), "s"),
        "am.state_logliks.calls": (timers.calls("am.state_logliks"), "count"),
        "am.state_logliks.self_s": (get("am.state_logliks", "self_s"), "s"),
        "am.state_logliks.gauss_per_s": (
            rate("am.state_logliks", "gauss", "self_s"), "gauss/s"),
        "am.viterbi_path.calls": (timers.calls("am.viterbi_path"), "count"),
        "am.viterbi_path.self_s": (get("am.viterbi_path", "self_s"), "s"),
        "am.viterbi_path.cells_per_s": (
            rate("am.viterbi_path", "cells", "self_s"), "cells/s"),
        "am.train.self_s": (get("am.train", "self_s"), "s"),
        "decode.decode.calls": (timers.calls("decode.decode"), "count"),
        "decode.decode.self_s": (get("decode.decode", "self_s"), "s"),
        "decode.decode.frames_per_s": (
            rate("decode.decode", "frames", "s"), "frames/s"),
        "decode.decode.errors": (get("decode.decode", "errors"), "count"),
        "segment.harvest_segments.self_s": (
            get("segment.harvest_segments", "self_s"), "s"),
        "segment.smith_waterman.self_s": (
            get("segment.smith_waterman", "self_s"), "s"),
        "segment.smith_waterman.cells": (
            get("segment.smith_waterman", "cells"), "count"),
        "segment.chunks": (counters.get("segment.chunk_recording", "chunks"), "count"),
        "segment.chunk_failures": (counters.get("segment.decode", "errors"), "count"),
        "scoring.wer.s": (get("scoring.wer", "s"), "s"),
        "scoring.cer.s": (get("scoring.cer", "s"), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


# ---------------------------------------------------------------------------
# one run

@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit): every metric this workload has
    per_layer: dict  # name -> (value, unit), empty unless traced
    problems: list[str]
    units: int


def _measure(wl, recipe, inputs, seconds: float) -> Pass:
    counters = Stats()
    latencies: list[float] = []
    with Interposer(counters, timed=False) as ip:
        wl.install_counters(ip)
        started, cpu_started = perf_counter(), process_time()
        first = wl.unit(recipe, inputs, latencies)
        units = 1
        problems = []
        while perf_counter() - started < seconds:
            if not wl.same(first, wl.unit(recipe, inputs, latencies)):
                problems.append(f"unit {units + 1} differs from unit 1")
            units += 1
        elapsed, cpu = perf_counter() - started, process_time() - cpu_started
    problems.extend(
        f"{name} was never called" for name in wl.counted
        if counters.calls(name) == 0
    )
    return Pass(units, elapsed, cpu, first, latencies, counters, problems)


def _set_up(wl, recipe, seed, work: Path, reps: int):
    times = []
    for rep in range(reps):
        out = work / f"rep{rep}"
        started = perf_counter()
        inputs = wl.prepare(recipe, seed, out)
        times.append(perf_counter() - started)
        if rep + 1 < reps:
            shutil.rmtree(out)
    return wl.set_up(recipe, inputs, times, work)


def run(
    workload: str, seed: int, seconds: float, trace: bool, work: Path,
    recipe: Recipe = BASELINE,
) -> RunResult:
    """Set up, measure and check one workload.

    Untraced, the timed phase runs for ``seconds``.  Traced, set-up runs
    once under timing wrappers, then one unit runs untraced (it gives the
    end-to-end metrics) and one traced (the per-layer metrics); their
    wall-time ratio gives ``trace.overhead_frac``.
    """
    wl = WORKLOAD_CLASSES[workload]()
    timers = Stats()
    layers = {}
    if not trace:
        inputs, setup_s = _set_up(wl, recipe, seed, work, recipe.setup_reps)
        measured = _measure(wl, recipe, inputs, seconds)
    else:
        with Interposer(timers, timed=True) as ip:
            install_timers(ip)
            inputs, setup_s = _set_up(wl, recipe, seed, work, 1)
        measured = _measure(wl, recipe, inputs, 0.0)
        with Interposer(timers, timed=True) as ip:
            install_timers(ip)
            traced = _measure(wl, recipe, inputs, 0.0)
        measured.problems.extend(traced.problems)
        if not wl.same(measured.outputs, traced.outputs):
            measured.problems.append("traced outputs differ from untraced outputs")
        measured.problems.extend(
            f"{name} was never traced" for name in wl.traced
            if timers.calls(name) == 0
        )
        layers = per_layer(
            timers, traced.counters, traced.elapsed / measured.elapsed - 1.0
        )
    quality = wl.evaluate(recipe, inputs, measured)
    attempted, failed = quality.pop("attempted"), quality.pop("failed")
    metrics = {
        "setup_s": (setup_s, "s"),
        "frames_per_s": quality.pop("frames_per_s"),
        "failed_frac": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # below 1 when other processes took the CPU during the timed phase
        "timed_cpu_frac": (measured.cpu / measured.elapsed, "ratio"),
        **quality,
    }
    return RunResult(
        correct=not measured.problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        per_layer=layers,
        problems=measured.problems,
        units=measured.units,
    )
