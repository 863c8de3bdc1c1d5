"""Evaluation: ground-truth keyframes, activation recall, keyframe accuracy
and per-run latency.

Ground truth comes from an exhaustive offline pass (both modules on every
frame, instant and exact outputs), which outputs the trace's own frames: a
frame requires detection when its set of non-background entities changes or
a relevant box center has drifted beyond a threshold since the last
required frame; it requires pose when the human set changes or a relevant
human's keypoint has drifted likewise. Recall counts honored activations on
required frames; keyframe accuracy counts decisions regardless of whether
the busy module could honor them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Literal, Mapping, Optional, Sequence, Tuple, get_args

import numpy as np

from .engine import RunLog
from .scene import DETECTION, POSE, EntityKind, ModuleId
from .schema import NonNegative, check_fields
from .traces import TraceFrame

LatencyDenominator = Literal["activated", "total"]
LATENCY_DENOMINATORS = get_args(LatencyDenominator)


@dataclass(frozen=True)
class KeyframeThresholds:
    tau_box_px: NonNegative = 10.0
    tau_kp_px: NonNegative = 15.0

    __post_init__ = check_fields


@dataclass(frozen=True)
class GroundTruthKeyframes:
    """Frames that genuinely require each module, per the trace's ground
    truth."""

    required: Mapping[ModuleId, frozenset]

    def count(self, module: ModuleId) -> int:
        return len(self.required.get(module, frozenset()))


@dataclass(frozen=True)
class MetricsReport:
    """Per module, ``recall`` is the share of required frames on which it
    executed, and ``keyframe_accuracy`` the share on which the decision was
    to activate it, independent of busy drops."""

    policy: str
    latency_ms: Optional[float]
    recall: Mapping[ModuleId, Optional[float]]
    keyframe_accuracy: Mapping[ModuleId, Optional[float]]
    counts: Mapping[str, object] = field(default_factory=dict)


def extract_keyframes(
    frames: Sequence[TraceFrame],
    thresholds: KeyframeThresholds = KeyframeThresholds(),
) -> GroundTruthKeyframes:
    """Walk the ground-truth frames that
    :func:`~percsched.engine.run_offline` gives and mark the frames that
    require each module."""
    det_required: set = set()
    pose_required: set = set()
    ref_centers: Dict[str, Tuple[float, float]] = {}
    ref_ids: Optional[frozenset] = None
    ref_kps: Mapping[str, np.ndarray] = {}
    ref_humans: Optional[frozenset] = None

    for frame in frames:
        entities = [e for e in frame.entities if e.kind is not EntityKind.BACKGROUND]
        ids = frozenset(e.id for e in entities)
        relevant_centers = {e.id: e.region.center for e in entities if e.relevance > 0.0}
        humans = [e for e in entities if e.kind is EntityKind.HUMAN]
        human_ids = frozenset(e.id for e in humans)
        kps = {e.id: frame.keypoints[e.id] for e in humans if e.id in frame.keypoints}

        if ref_ids is None:
            det_needed = True
        else:
            det_needed = ids != ref_ids or any(
                eid in ref_centers
                and _dist(center, ref_centers[eid]) > thresholds.tau_box_px
                for eid, center in relevant_centers.items()
            )
        if det_needed:
            det_required.add(frame.index)
            ref_ids = ids
            ref_centers = relevant_centers

        if ref_humans is None:
            pose_needed = bool(human_ids)
        else:
            pose_needed = human_ids != ref_humans or any(
                e.relevance > 0.0
                and e.id in kps
                and e.id in ref_kps
                and _max_kp_shift(kps[e.id], ref_kps[e.id]) > thresholds.tau_kp_px
                for e in humans
            )
        if pose_needed:
            pose_required.add(frame.index)
            ref_humans = human_ids
            ref_kps = kps
        elif ref_humans is None:
            ref_humans = human_ids

    return GroundTruthKeyframes(
        required={DETECTION: frozenset(det_required), POSE: frozenset(pose_required)}
    )


def _dist(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _max_kp_shift(current: np.ndarray, reference: np.ndarray) -> float:
    """The farthest any keypoint moved between two (K, 2) arrays; numpy's
    float64 differences are the ones Python would take, and ``math.hypot``
    measures each. Frames that repeat a keypoint block share its array, and
    coordinates are bounded finite floats, so an array shifts 0.0 from
    itself."""
    if current is reference:
        return 0.0
    if len(current) != len(reference):
        return math.inf
    dx, dy = (current - reference).T.tolist()
    return max(map(math.hypot, dx, dy), default=0.0)


def _required_hits(run: RunLog, gt: GroundTruthKeyframes, flag: str) -> Dict[ModuleId, int]:
    """Per module, the required frames whose record has ``flag`` (``honored``
    or ``decided``) true for that module."""
    out: Dict[ModuleId, int] = {}
    for module in sorted(run.header.module_costs):
        required = gt.required.get(module, frozenset())
        out[module] = sum(
            1 for rec in run.records if rec.index in required and getattr(rec, flag).get(module)
        )
    return out


def _share_of_required(
    hits: Mapping[ModuleId, int], gt: GroundTruthKeyframes
) -> Dict[ModuleId, Optional[float]]:
    return {m: hits[m] / gt.count(m) if gt.count(m) else None for m in hits}


def latency(run: RunLog, denominator: str = "activated") -> Optional[float]:
    """Average scheduling-plus-inference time per frame, in ms.

    ``denominator`` selects frames-with-any-honored-activation (default) or
    all frames. Returns None when the denominator is zero.
    """
    if denominator not in LATENCY_DENOMINATORS:
        raise ValueError(f"denominator must be one of {LATENCY_DENOMINATORS}")
    costs = run.header.module_costs
    total = 0.0
    activated_frames = 0
    for rec in run.records:
        total += rec.decision_time_ms
        any_honored = False
        for module, cost in costs.items():
            if rec.honored.get(module):
                total += cost
                any_honored = True
        if any_honored:
            activated_frames += 1
    denom = activated_frames if denominator == "activated" else len(run.records)
    if denom == 0:
        return None
    return total / denom


def build_report(
    run: RunLog,
    gt: GroundTruthKeyframes,
    denominator: str = "activated",
) -> MetricsReport:
    recalled = _required_hits(run, gt, "honored")
    decided_on_required = _required_hits(run, gt, "decided")
    modules = sorted(run.header.module_costs)
    counts = {
        "frames": len(run.records),
        "required": {m: gt.count(m) for m in modules},
        "honored": {
            m: sum(1 for rec in run.records if rec.honored.get(m)) for m in modules
        },
        "decided": {
            m: sum(1 for rec in run.records if rec.decided.get(m)) for m in modules
        },
        "recalled": recalled,
        "decided_on_required": decided_on_required,
        "activated_frames": sum(
            1 for rec in run.records if any(rec.honored.get(m) for m in modules)
        ),
    }
    return MetricsReport(
        policy=run.header.policy,
        latency_ms=latency(run, denominator),
        recall=_share_of_required(recalled, gt),
        keyframe_accuracy=_share_of_required(decided_on_required, gt),
        counts=counts,
    )


def report_to_dict(report: MetricsReport) -> dict:
    """JSON-ready view of a report, module maps sorted for stable output."""
    return {
        "policy": report.policy,
        "latency_ms": report.latency_ms,
        "recall": {m: report.recall[m] for m in sorted(report.recall)},
        "keyframe_accuracy": {
            m: report.keyframe_accuracy[m] for m in sorted(report.keyframe_accuracy)
        },
        "counts": report.counts,
    }


def _fmt(value: Optional[float], width: int = 8) -> str:
    if value is None:
        return "n/a".rjust(width)
    return f"{value:.2f}".rjust(width)


def format_report(report: MetricsReport) -> str:
    lines = [f"policy: {report.policy}"]
    lines.append(f"  latency_ms: {'n/a' if report.latency_ms is None else f'{report.latency_ms:.2f}'}")
    for module in sorted(report.recall):
        lines.append(
            f"  {module}: recall={_fmt(report.recall[module], 0)} "
            f"keyframe_accuracy={_fmt(report.keyframe_accuracy[module], 0)}"
        )
    return "\n".join(lines)


def format_comparison(reports: Sequence[MetricsReport]) -> str:
    """Aligned table across policies with percent deltas against parallel."""
    if not reports:
        return "(no runs)"
    modules = sorted(reports[0].recall)
    rows = [("latency_ms", [r.latency_ms for r in reports])]
    for m in modules:
        rows.append((f"{m}_recall", [r.recall[m] for r in reports]))
    for m in modules:
        rows.append((f"{m}_keyframe_acc", [r.keyframe_accuracy[m] for r in reports]))

    base_idx = next(
        (i for i, r in enumerate(reports) if r.policy == "parallel"), None
    )
    width = 14
    header = "metric".ljust(20) + "".join(r.policy.rjust(width) for r in reports)
    lines = [header, "-" * len(header)]
    for name, values in rows:
        line = name.ljust(20) + "".join(_fmt(v, width) for v in values)
        lines.append(line)
    if base_idx is not None:
        base_latency = reports[base_idx].latency_ms
        if base_latency:
            deltas = []
            for r in reports:
                if r.latency_ms is None:
                    deltas.append(None)
                else:
                    deltas.append(100.0 * (r.latency_ms - base_latency) / base_latency)
            lines.append(
                "latency_vs_parallel".ljust(20)
                + "".join(
                    ("n/a".rjust(width) if d is None else f"{d:+.1f}%".rjust(width))
                    for d in deltas
                )
            )
    return "\n".join(lines)
