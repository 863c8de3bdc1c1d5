"""Command-line entry point: trace generation, runs and policy comparisons.

Exit codes: 0 success, 2 config error, 3 trace error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

from .config import POLICIES, ConfigError, RunConfig
from .engine import PipelineConfig, PolicyKind, RunLog, run, run_offline
from .metrics import (
    GroundTruthKeyframes,
    KeyframeThresholds,
    build_report,
    extract_keyframes,
    format_comparison,
    format_report,
    report_to_dict,
)
from .traces import ARCHETYPES, MAX_FRAME_PERIOD_MS, Trace, TraceError, generate_trace
from .traces import read_trace, write_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRACE = 3
EXIT_RUNTIME = 4


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run config; flags override its fields")
    parser.add_argument("--trace", help="trace file (JSON Lines)")
    parser.add_argument("--seed", type=int, default=None, help="run seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--lambda",
        dest="lambda_info_per_ms",
        type=float,
        default=None,
        help="information value of one millisecond of inference (nats/ms)",
    )
    parser.add_argument("--cost-yolo-ms", type=float, default=None)
    parser.add_argument("--cost-pose-ms", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="percsched",
        description="Schedule perception modules by trading information gain against cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-trace", help="generate a synthetic scene trace")
    gen.add_argument("--archetype", choices=ARCHETYPES, required=True)
    gen.add_argument("--frames", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output trace path")
    gen.add_argument("--keypoints", type=int, default=17, help="keypoints per human")
    gen.add_argument("--fps", type=float, default=30.0)

    runp = sub.add_parser("run", help="run one policy over a trace and report metrics")
    _add_override_flags(runp)
    runp.add_argument("--policy", choices=POLICIES, default=None)

    comp = sub.add_parser("compare", help="run several policies over the same trace")
    _add_override_flags(comp)
    comp.add_argument(
        "--policies",
        nargs="+",
        choices=POLICIES,
        default=["parallel", "oracle", "scheduled"],
    )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {
        "trace": args.trace,
        "seed": args.seed,
        "out_dir": args.out,
        "lambda_info_per_ms": args.lambda_info_per_ms,
        "cost_yolo_ms": args.cost_yolo_ms,
        "cost_pose_ms": args.cost_pose_ms,
    }
    if getattr(args, "policy", None) is not None:
        overrides["policy"] = args.policy
    cfg = cfg.with_overrides(**overrides)
    if not cfg.trace:
        raise ConfigError("no trace given (use --trace or a config file)")
    return cfg


def _ground_truth(
    trace: Trace, pipeline: PipelineConfig, thresholds: KeyframeThresholds
) -> GroundTruthKeyframes:
    return extract_keyframes(run_offline(trace, pipeline), thresholds)


def _run_one(
    trace: Trace, policy: str, pipeline: PipelineConfig, gt: GroundTruthKeyframes
) -> RunLog:
    kind = PolicyKind(policy)
    oracle_kf = gt.required if kind is PolicyKind.ORACLE else None
    return run(trace, kind, pipeline, oracle_keyframes=oracle_kf)


def cmd_gen_trace(args: argparse.Namespace) -> int:
    if args.frames < 2:
        raise ConfigError(f"--frames must be at least 2, got {args.frames}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.keypoints < 1:
        raise ConfigError(f"--keypoints must be at least 1, got {args.keypoints}")
    period_ms = 1000.0 / args.fps if args.fps > 0 else math.nan
    if not 0.0 < period_ms <= MAX_FRAME_PERIOD_MS:  # NaN fails too
        lowest = 1000.0 / MAX_FRAME_PERIOD_MS
        raise ConfigError(f"--fps must be finite and at least {lowest:g}, got {args.fps}")
    trace = generate_trace(
        archetype=args.archetype,
        frames=args.frames,
        seed=args.seed,
        frame_period_ms=period_ms,
        keypoint_count=args.keypoints,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_trace(out, trace)
    print(f"wrote {len(trace.frames)} frames to {out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    trace = read_trace(cfg.trace)
    pipeline = cfg.pipeline(trace.header)
    gt = _ground_truth(trace, pipeline, cfg.keyframes)
    log = _run_one(trace, cfg.policy, pipeline, gt)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / f"{cfg.policy}-seed{cfg.seed}.runlog.jsonl"
    log.write(log_path)
    report = build_report(RunLog.read(log_path), gt, cfg.latency_denominator)
    report_path = out_dir / f"{cfg.policy}-seed{cfg.seed}.metrics.json"
    report_path.write_text(json.dumps(report_to_dict(report), indent=2) + "\n")
    print(format_report(report))
    print(f"run log: {log_path}")
    print(f"metrics: {report_path}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if len(args.policies) < 2:
        raise ConfigError("compare needs at least two policies")
    trace = read_trace(cfg.trace)
    pipeline = cfg.pipeline(trace.header)
    gt = _ground_truth(trace, pipeline, cfg.keyframes)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for policy in args.policies:
        log = _run_one(trace, policy, pipeline, gt)
        log_path = out_dir / f"{policy}-seed{cfg.seed}.runlog.jsonl"
        log.write(log_path)
        reports.append(build_report(RunLog.read(log_path), gt, cfg.latency_denominator))
    comparison_path = out_dir / f"comparison-seed{cfg.seed}.json"
    comparison_path.write_text(
        json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"
    )
    print(format_comparison(reports))
    print(f"metrics: {comparison_path}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    # the subparsers are required, so parse_args admits no other command
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-trace":
            return cmd_gen_trace(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_compare(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
