#!/usr/bin/env python3
"""Replay benchmark: host cost of each scheduling decision, end to end and by layer.

    python3 bench/run.py --workload static-17 --seed 1 --seconds 30 --trace 0

One run is one process, single-threaded. It writes the workload's clip
traces from ``--seed`` in a child process, then makes the calls
``percsched compare`` makes: ``read_trace``, ``RunConfig.pipeline``,
``run_offline`` and ``extract_keyframes`` (set-up, repeated and reported as
a median), then passes of ``parallel``, ``oracle`` and ``scheduled`` over
every clip, each policy run followed by ``RunLog.write``, ``RunLog.read``
and ``build_report``. Frames are stepped back to back (closed loop, one
caller); passes repeat until ``--seconds`` would be exceeded. Every policy
run is checked (see checks.py). Recall and keyframe accuracy come from
``scheduled`` runs over the guard clips, which do not depend on ``--seed``
(see inputs.py). ``--trace 1`` alternates untraced and traced
passes and reports per-layer numbers instead of end-to-end ones. Host times
are scaled to a fixed host speed measured around every run (see
reference.py); the raw medians are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one thread of numeric work, set before numpy is loaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

import numpy  # noqa: F401  - loaded before timing so every set-up imports only percsched

import checks
import inputs
import reference
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

POLICIES = ("parallel", "oracle", "scheduled")
MODULES = ("yolo", "pose")
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "compare_s": "s",
    "sched_frames_per_s": "1/s",
    "sched_step_p50_ms": "ms",
    "sched_step_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "virtual_latency_ms": "ms",
    "yolo_recall": "share",
    "pose_recall": "share",
    "yolo_keyframe_acc": "share",
    "pose_keyframe_acc": "share",
}

# functions whose calls and ms are reported per traced pass
TIMED_SPANS = (
    "engine.runlog_to_jsonl",
    "engine.runlog_from_jsonl",
    "tracker.predict",
    "tracker.update",
    "tracker.inflate_process_noise",
    "tracker.init_track",
    "tracker.measurement_covariance",
    "scene.carry_forward",
    "change_detect.grayscale_diff",
    "change_detect.rgb_histograms",
    "change_detect.chi_square_shift",
    "rewards.detection_info_gain",
    "rewards.pre_execution_entropy",
    "rewards.post_execution_entropy",
    "rewards.extrapolated",
    "rewards.sigma_table_loads",
    "scheduler.select",
    "toolkit.simulate_detection",
    "toolkit.simulate_pose",
    "metrics.build_report",
)

PER_LAYER = {
    "traces.read_trace.ms": "ms",
    "traces.trace_bytes": "bytes",
    **{f"engine.step.{p}.ms": "ms" for p in POLICIES},
    "engine.step.calls": "calls",
    "engine.self_ms": "ms",
    "engine.runlog_bytes": "bytes",
    "engine.run_offline.ms": "ms",
    **{f"engine.dropped.{m}": "count" for m in MODULES},
    **{f"{name}.{kind}": kind for name in TIMED_SPANS for kind in ("calls", "ms")},
    "change_detect.composition_triggers": "count",
    **{f"toolkit.useful_activation_share.{m}": "share" for m in MODULES},
    "metrics.extract_keyframes.ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "share",
}


@dataclass
class Clip:
    trace: object
    pipeline: object
    gt: object


@dataclass
class Setup:
    engine: object
    metrics: object
    change_detect: object
    rewards: object
    config: object
    clips: List[Clip]
    phase_ns: Dict[str, int]


@dataclass
class PolicyRun:
    """One policy over one clip; ``error`` holds what made it fail.

    Host times are raw nanoseconds; ``scale`` converts them to the
    reference host speed (see reference.py).
    """

    clip: int
    policy: str
    log: object = None
    report: object = None
    log_bytes: int = 0
    error: Optional[str] = None
    call_ns: int = 0  # engine run, log write, log read and report
    engine_ns: int = 0  # engine run alone
    step_ns: List[int] = field(default_factory=list)
    scale: float = 1.0


@dataclass
class Pass:
    runs: List[PolicyRun]
    scale: float
    wall_ns: int
    spans: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return sum(pr.call_ns * pr.scale for pr in self.runs) / 1e9

    @property
    def raw_seconds(self) -> float:
        return sum(pr.call_ns for pr in self.runs) / 1e9


def import_percsched():
    """Import the package afresh, so each set-up pays its import cost."""
    for name in [n for n in sys.modules if n == "percsched" or n.startswith("percsched.")]:
        del sys.modules[name]
    importlib.import_module("percsched")
    names = ("engine", "metrics", "change_detect", "rewards", "config", "traces")
    return {n: sys.modules[f"percsched.{n}"] for n in names}


def set_up(paths: List[Path], seed: int) -> Setup:
    """Everything before the first policy's first frame."""
    t0 = perf_counter_ns()
    mods = import_percsched()
    t1 = perf_counter_ns()
    traces = [mods["traces"].read_trace(p) for p in paths]
    t2 = perf_counter_ns()
    cfg = mods["config"].RunConfig(seed=seed)
    pipelines = [cfg.pipeline(t.header) for t in traces]
    t3 = perf_counter_ns()
    offline = [mods["engine"].run_offline(t, p) for t, p in zip(traces, pipelines)]
    t4 = perf_counter_ns()
    gts = [mods["metrics"].extract_keyframes(o, cfg.keyframes) for o in offline]
    t5 = perf_counter_ns()
    return Setup(
        engine=mods["engine"],
        metrics=mods["metrics"],
        change_detect=mods["change_detect"],
        rewards=mods["rewards"],
        config=cfg,
        clips=[Clip(t, p, g) for t, p, g in zip(traces, pipelines, gts)],
        phase_ns={
            "total": t5 - t0,
            "read_trace": t2 - t1,
            "run_offline": t4 - t3,
            "extract_keyframes": t5 - t4,
        },
    )


def compare_pass(s: Setup, work: Path, tracer: Optional[tracing.Tracer], time_steps: bool) -> Pass:
    """One ``compare`` over every clip, a reference unit timed around each run."""
    engine, metrics = s.engine, s.metrics
    runs: List[PolicyRun] = []
    start = perf_counter_ns()
    refs = [reference.time_reference()]
    for ci, clip in enumerate(s.clips):
        for policy in POLICIES:
            kind = engine.PolicyKind(policy)
            if tracer is not None:
                tracer.policy = policy
            pr = PolicyRun(ci, policy)
            path = work / f"clip{ci}-{policy}.runlog.jsonl"
            try:
                t0 = perf_counter_ns()
                if kind is engine.PolicyKind.SCHEDULED and time_steps:
                    sim = engine.SimEngine(clip.trace, kind, clip.pipeline)
                    step, samples = sim.step, pr.step_ns

                    def timed_step(frame, step=step, samples=samples):
                        t = perf_counter_ns()
                        record = step(frame)
                        samples.append(perf_counter_ns() - t)
                        return record

                    sim.step = timed_step
                    log = sim.run()
                else:
                    oracle_kf = clip.gt.required if kind is engine.PolicyKind.ORACLE else None
                    log = engine.run(clip.trace, kind, clip.pipeline, oracle_keyframes=oracle_kf)
                pr.engine_ns = perf_counter_ns() - t0
                log.write(path)
                pr.log = engine.RunLog.read(path)
                pr.report = metrics.build_report(pr.log, clip.gt, s.config.latency_denominator)
                pr.call_ns = perf_counter_ns() - t0
            except Exception:  # noqa: BLE001 - a failing policy run is counted, not fatal
                pr.error = traceback.format_exc()
            refs.append(reference.time_reference())
            pr.scale = 2 * reference.NOMINAL_NS / (refs[-2] + refs[-1])
            runs.append(pr)
    return Pass(runs, reference.NOMINAL_NS / statistics.median(refs), perf_counter_ns() - start)


def check_pass(p: Pass, s: Setup, work: Path, digests: Dict[str, str]) -> None:
    """Run the output checks; the first pass fixes the reference digests."""
    parts: Dict[str, List[str]] = {policy: [] for policy in POLICIES}
    for pr in p.runs:
        if pr.error is not None:
            continue
        text = (work / f"clip{pr.clip}-{pr.policy}.runlog.jsonl").read_text(encoding="utf-8")
        pr.log_bytes = len(text.encode("utf-8"))
        errors = checks.check_policy_run(pr.policy, pr.log, text, pr.report, s.clips[pr.clip].gt)
        if errors:
            pr.error = "\n".join(errors)
        parts[pr.policy].append(checks.vectors_digest(pr.log))
    for policy, clip_digests in parts.items():
        if len(clip_digests) != len(s.clips):
            continue
        digest = checks.combined_digest(clip_digests)
        if digests.setdefault(policy, digest) != digest:
            for pr in p.runs:
                if pr.policy == policy and pr.error is None:
                    pr.error = f"{policy}: vectors digest differs from the first pass"


def median(values) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def virtual_latency_ms(reports) -> Optional[float]:
    """Virtual latency pooled over all clips.

    Latency is averaged over activated frames, the config's default
    denominator, so each clip weighs by its activated-frame count.
    """
    activated = sum(r.counts["activated_frames"] for r in reports)
    total_ms = sum(r.latency_ms * r.counts["activated_frames"] for r in reports if r.latency_ms)
    return total_ms / activated if activated else None


def recall_numbers(reports) -> Dict[str, Optional[float]]:
    """Recall and keyframe accuracy pooled over all clips."""
    out: Dict[str, Optional[float]] = {}
    for m in MODULES:
        required = sum(r.counts["required"][m] for r in reports)
        recalled = sum(r.counts["recalled"][m] for r in reports)
        decided = sum(r.counts["decided_on_required"][m] for r in reports)
        out[f"{m}_recall"] = recalled / required if required else None
        out[f"{m}_keyframe_acc"] = decided / required if required else None
    return out


def step_percentiles(passes: List[Pass]) -> Tuple[Optional[float], Optional[float], int]:
    """p50 and p99 over frames of the scheduled step time, in ms, and the frame count.

    Each frame's time is its median over the passes. Every pass steps the
    same frames in the same order, so a burst of host noise that hits some
    frames in one pass does not set the tail; a frame that is slow in every
    pass does.
    """
    per_frame: Dict[Tuple[int, int], List[float]] = {}
    for p in passes:
        for pr in p.runs:
            if pr.policy == "scheduled":
                for i, ns in enumerate(pr.step_ns):
                    per_frame.setdefault((pr.clip, i), []).append(ns * pr.scale)
    samples = [statistics.median(v) for v in per_frame.values()]
    if len(samples) < 2:
        return None, None, len(samples)
    q = statistics.quantiles(samples, n=100, method="inclusive")
    return q[49] / 1e6, q[98] / 1e6, len(samples)


def end_to_end_metrics(
    passes: List[Pass], setups: List[Dict[str, float]], guard: List[PolicyRun],
    frames: int, attempted: int, failed: int,
) -> Tuple[Dict[str, Optional[float]], int]:
    p50, p99, samples = step_percentiles(passes)
    sched_ns = [
        sum(pr.engine_ns * pr.scale for pr in p.runs if pr.policy == "scheduled") for p in passes
    ]
    first_reports = [
        pr.report for pr in passes[0].runs if pr.policy == "scheduled" and pr.error is None
    ]
    values = {
        "setup_s": median(ph["total"] for ph in setups) / 1e9,
        "compare_s": median(p.seconds for p in passes),
        "sched_frames_per_s": median(frames * 1e9 / ns for ns in sched_ns if ns),
        "sched_step_p50_ms": p50,
        "sched_step_p99_ms": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (attempted - failed) / attempted,
        "virtual_latency_ms": virtual_latency_ms(first_reports),
        **recall_numbers([pr.report for pr in guard if pr.error is None]),
    }
    return values, samples


def per_layer_metrics(
    untraced: List[Pass], traced: List[Pass], s: Setup,
    setups: List[Dict[str, float]], trace_bytes: int,
) -> Dict[str, Optional[float]]:
    first = traced[0].spans

    def span_ms(name: str) -> Optional[float]:
        return median(p.spans["total_ns"].get(name, 0) * p.scale / 1e6 for p in traced)

    values: Dict[str, Optional[float]] = {
        "traces.read_trace.ms": median(ph["read_trace"] for ph in setups) / 1e6,
        "traces.trace_bytes": trace_bytes,
        "engine.run_offline.ms": median(ph["run_offline"] for ph in setups) / 1e6,
        "metrics.extract_keyframes.ms": median(ph["extract_keyframes"] for ph in setups) / 1e6,
    }
    steps = [f"engine.step.{p}" for p in POLICIES]
    for name in steps:
        values[f"{name}.ms"] = span_ms(name)
    values["engine.step.calls"] = sum(first["calls"].get(n, 0) for n in steps)
    values["engine.self_ms"] = median(
        sum(p.spans["total_ns"].get(n, 0) - p.spans["child_ns"].get(n, 0) for n in steps)
        * p.scale / 1e6
        for p in traced
    )
    for name in TIMED_SPANS:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
        values[f"{name}.ms"] = span_ms(name)
    values["change_detect.composition_triggers"] = first["truthy"].get(
        "change_detect.composition_trigger", 0
    )

    runs = traced[0].runs
    values["engine.runlog_bytes"] = sum(pr.log_bytes for pr in runs)
    sched = [(pr.log, s.clips[pr.clip].gt) for pr in runs if pr.policy == "scheduled" and pr.log]
    for m in MODULES:
        values[f"engine.dropped.{m}"] = sum(
            bool(r.dropped[m]) for log, _ in sched for r in log.records
        )
        honored = [(r.index, gt) for log, gt in sched for r in log.records if r.honored[m]]
        useful = sum(1 for index, gt in honored if index in gt.required.get(m, frozenset()))
        values[f"toolkit.useful_activation_share.{m}"] = useful / len(honored) if honored else None

    plain = median(p.seconds for p in untraced)
    with_spans = median(p.seconds for p in traced)
    values["trace.overhead_ms"] = (with_spans - plain) * 1e3
    values["trace.overhead_share"] = (with_spans - plain) / plain
    return values


def reconcile(traced: List[Pass], s: Setup) -> Tuple[List[str], List[str]]:
    """Compare traced call counts with the engine's structure.

    Returns (errors, notes). Errors break the benchmark's own accounting:
    every frame stepped once per policy, the same counts on every traced
    pass. Notes compare counts with today's engine structure; a change that
    removes work (one scene rebuild instead of two, a cached sigma table) or
    writes the log another way is expected to move them, so they are
    printed, not failed.
    """
    first = traced[0].spans
    calls = first["calls"]
    clips = len(s.clips)
    frames = sum(len(c.trace.frames) for c in s.clips)
    policies = len(POLICIES)
    errors = []
    for p in traced[1:]:
        if p.spans["calls"] != calls or p.spans["truthy"] != first["truthy"]:
            errors.append("call counts differ between traced passes")
    steps = sum(calls.get(f"engine.step.{p}", 0) for p in POLICIES)
    if steps != policies * frames:
        errors.append(f"engine.step.calls is {steps}, expected {policies * frames}")

    header = s.clips[0].trace.header
    # the first raster of a run only seeds the frame difference
    pixel_frames = sum(
        sum(1 for f in c.trace.frames[1:] if f.pixels is not None) for c in s.clips
    )
    per_pixel_frame = "pixel frames after the first, x policies"
    honored = {
        m: sum(bool(r.honored[m]) for pr in traced[0].runs if pr.log for r in pr.log.records)
        for m in MODULES
    }
    expected = {
        "engine.runlog_to_jsonl": (policies * clips, "one per policy run"),
        "engine.runlog_from_jsonl": (policies * clips, "one per policy run"),
        "scheduler.select": (policies * frames, "frames x policies"),
        "scene.carry_forward": (2 * policies * frames, "2 x frames x policies"),
        "change_detect.composition_trigger": (policies * frames, "frames x policies"),
        "rewards.detection_info_gain": (frames, "scheduled frames"),
        "rewards.pre_execution_entropy": (frames, "scheduled frames"),
        "rewards.post_execution_entropy": (frames, "scheduled frames"),
        "rewards.sigma_table_loads": (
            frames if header.keypoint_count == 133 else 0,
            "scheduled frames at 133 keypoints, else 0",
        ),
        "rewards.extrapolated": (
            calls.get("tracker.measurement_covariance", 0),
            "one per human track per scheduled frame, as measurement_covariance",
        ),
        "toolkit.simulate_detection": (honored["yolo"], "honored yolo activations"),
        "toolkit.simulate_pose": (honored["pose"], "honored pose activations"),
        "change_detect.grayscale_diff": (policies * pixel_frames, per_pixel_frame),
        "change_detect.chi_square_shift": (policies * pixel_frames, per_pixel_frame),
        "change_detect.rgb_histograms": (2 * policies * pixel_frames, "2 x " + per_pixel_frame),
    }
    notes = []
    for name, (want, rule) in expected.items():
        seen = calls.get(name, 0)
        verdict = "ok" if seen == want else "differs"
        notes.append(f"reconcile {name}.calls = {seen}, expected {want} ({rule}): {verdict}")
    return errors, notes


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def write_inputs(workload: str, seed: int, frames: int, out: Path) -> List[Path]:
    """Write the clip traces of ``seed`` in a child process; return their paths."""
    subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", workload,
            "--seed", str(seed), "--frames", str(frames), "--out", str(out),
        ],
        check=True,
        timeout=170,
    )
    return [inputs.clip_path(out, c) for c in range(inputs.CLIPS)]


def guard_runs(paths: List[Path]) -> List[PolicyRun]:
    """Checked ``scheduled`` runs over the guard clips, untimed."""
    s = set_up(paths, inputs.GUARD_SEED)
    runs = []
    for ci, clip in enumerate(s.clips):
        pr = PolicyRun(ci, "scheduled")
        try:
            text = s.engine.run(clip.trace, s.engine.PolicyKind.SCHEDULED, clip.pipeline).to_jsonl()
            pr.log = s.engine.RunLog.from_jsonl(text)
            pr.report = s.metrics.build_report(pr.log, clip.gt, s.config.latency_denominator)
            errors = checks.check_policy_run(pr.policy, pr.log, text, pr.report, clip.gt)
            pr.error = "\n".join(errors) or None
        except Exception:  # noqa: BLE001 - a failing policy run is counted, not fatal
            pr.error = traceback.format_exc()
        runs.append(pr)
    return runs


def run_benchmark(args: argparse.Namespace, work: Path) -> int:
    guard_paths = write_inputs(args.workload, inputs.GUARD_SEED, args.frames, work / "guard")
    paths = write_inputs(args.workload, args.seed, args.frames, work / "traces")
    trace_bytes = sum(p.stat().st_size for p in paths)

    guard = guard_runs(guard_paths)
    failed = sum(pr.error is not None for pr in guard)
    attempted = len(guard)
    for pr in guard:
        if pr.error is not None:
            print(f"FAILED guard clip {pr.clip} {pr.policy}:\n{pr.error}", file=sys.stderr)

    setups: List[Dict[str, float]] = []  # phase times at the reference host speed
    raw_setup_ns: List[int] = []
    s: Optional[Setup] = None
    for _ in range(SETUP_REPEATS):
        s = None  # release the previous set-up before timing the next
        gc.collect()
        before = reference.time_reference()
        s = set_up(paths, args.seed)
        scale = 2 * reference.NOMINAL_NS / (before + reference.time_reference())
        setups.append({phase: ns * scale for phase, ns in s.phase_ns.items()})
        raw_setup_ns.append(s.phase_ns["total"])
    frames = sum(len(c.trace.frames) for c in s.clips)

    tracer = tracing.Tracer() if args.trace else None
    targets = (
        tracing.layer_targets(s.engine, s.change_detect, s.rewards, s.metrics) if tracer else []
    )
    untraced: List[Pass] = []
    traced: List[Pass] = []
    digests: Dict[str, str] = {}
    deadline_ns = args.seconds * 1e9
    start = perf_counter_ns()
    while True:
        with_spans = tracer is not None and len(untraced) > len(traced)
        gc.collect()
        if with_spans:
            tracer.reset()
            tracer.install(targets)
        try:
            p = compare_pass(s, work, tracer if with_spans else None, time_steps=not args.trace)
        finally:
            if tracer is not None:
                tracer.uninstall()
        check_pass(p, s, work, digests)
        for pr in p.runs:
            attempted += 1
            if pr.error is not None:
                failed += 1
                print(f"FAILED clip {pr.clip} {pr.policy}:\n{pr.error}", file=sys.stderr)
        if with_spans:
            p.spans = {
                "calls": dict(tracer.calls),
                "total_ns": dict(tracer.total_ns),
                "child_ns": dict(tracer.child_ns),
                "truthy": dict(tracer.truthy),
            }
        same_kind = traced if with_spans else untraced
        if same_kind:
            # only the first pass of each kind keeps its logs, so memory
            # does not grow with the number of passes
            for pr in p.runs:
                pr.log = pr.report = None
        same_kind.append(p)
        elapsed = perf_counter_ns() - start
        enough = bool(untraced) and (tracer is None or bool(traced))
        if enough and elapsed + p.wall_ns > deadline_ns:
            break

    passes = untraced + traced
    print(f"workload {args.workload} seed {args.seed}: {inputs.CLIPS} clips x {args.frames} frames "
          f"= {frames} frames, {len(untraced)} untraced and {len(traced)} traced passes")
    for policy in POLICIES:
        print(f"digest {policy} {digests.get(policy, 'n/a')}")
    if not any(pr.error for pr in guard):
        guard_digest = checks.combined_digest([checks.vectors_digest(pr.log) for pr in guard])
        print(f"digest guard-scheduled {guard_digest} (seed {inputs.GUARD_SEED})")
    print(f"src_lines {src_line_count()} (context, not gated)")
    unit_ms = reference.NOMINAL_NS / median(p.scale for p in passes) / 1e6
    print(f"host speed: the reference unit took {unit_ms:.3f} ms (median); host times "
          f"below are scaled to {reference.NOMINAL_NS / 1e6:.3f} ms")
    print(f"raw setup_s {median(raw_setup_ns) / 1e9:.6f}, "
          f"raw compare_s {median(p.raw_seconds for p in untraced):.6f}")
    if tracer is None:
        metrics, samples = end_to_end_metrics(untraced, setups, guard, frames, attempted, failed)
        overhead = s.clips[0].pipeline.engine.scheduling_overhead_ms
        print(f"sched_step: {samples} frames, each the median of {len(untraced)} passes; "
              f"modeled scheduling_overhead_ms {overhead}")
        correct = failed == 0
        units = END_TO_END
    else:
        errors, notes = reconcile(traced, s)
        for line in notes:
            print(line)
        for line in errors:
            print(f"reconcile error: {line}", file=sys.stderr)
        metrics = per_layer_metrics(untraced, traced, s, setups, trace_bytes)
        correct = failed == 0 and not errors
        units = PER_LAYER
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--frames", type=int, default=inputs.FRAMES_PER_CLIP, help="frames per clip"
    )
    args = parser.parse_args(argv)
    if not (SRC / "percsched" / "__init__.py").is_file():
        print(f"error: no percsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return run_benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
