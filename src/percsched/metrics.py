"""Evaluation: ground-truth keyframes, activation recall, keyframe accuracy
and per-run latency.

Ground truth comes from an exhaustive offline run (both modules on every
frame, instant outputs): a frame requires detection when the entity set
changes or a relevant box center has drifted beyond a threshold since the
last required frame; it requires pose when the human set changes or a
relevant keypoint has drifted likewise. Recall counts honored activations
on required frames; keyframe accuracy counts decisions regardless of
whether the busy module could honor them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .engine import OFFLINE_POLICY, RunLog
from .scene import DETECTION, POSE, ModuleId

LATENCY_DENOMINATORS = ("activated", "total")


@dataclass(frozen=True)
class KeyframeThresholds:
    tau_box_px: float = 10.0
    tau_kp_px: float = 15.0

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        for name in ("tau_box_px", "tau_kp_px"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class GroundTruthKeyframes:
    """Frames that genuinely require each module, per the offline run."""

    required: Mapping[ModuleId, frozenset]

    def count(self, module: ModuleId) -> int:
        return len(self.required.get(module, frozenset()))


@dataclass(frozen=True)
class MetricsReport:
    policy: str
    latency_ms: Optional[float]
    recall: Mapping[ModuleId, Optional[float]]
    keyframe_accuracy: Mapping[ModuleId, Optional[float]]
    counts: Mapping[str, object] = field(default_factory=dict)


def extract_keyframes(
    offline_run: RunLog,
    thresholds: KeyframeThresholds = KeyframeThresholds(),
) -> GroundTruthKeyframes:
    """Walk the offline observations and mark frames requiring activation."""
    if offline_run.header.policy != OFFLINE_POLICY:
        raise ValueError(
            "keyframe extraction needs the exhaustive offline run, "
            f"got a {offline_run.header.policy!r} run"
        )
    det_required: set = set()
    pose_required: set = set()
    ref_centers: Dict[str, Tuple[float, float]] = {}
    ref_ids: Optional[frozenset] = None
    ref_kps: Dict[str, List[Tuple[float, float]]] = {}
    ref_humans: Optional[frozenset] = None

    for rec in offline_run.records:
        obs = rec.observations
        if obs is None:
            raise ValueError(f"offline record {rec.index} lacks observations")
        boxes = obs["boxes"]
        ids = frozenset(b[0] for b in boxes)
        relevant_centers = {
            b[0]: (float(b[2]), float(b[3])) for b in boxes if float(b[6]) > 0.0
        }
        humans = frozenset(b[0] for b in boxes if b[1] == "human")
        human_relevance = {b[0]: float(b[6]) for b in boxes if b[1] == "human"}
        kps = {
            eid: [(float(x), float(y)) for x, y in pts]
            for eid, pts in obs.get("keypoints", {}).items()
        }

        if ref_ids is None:
            det_needed = True
        else:
            det_needed = ids != ref_ids or any(
                eid in ref_centers
                and _dist(center, ref_centers[eid]) > thresholds.tau_box_px
                for eid, center in relevant_centers.items()
            )
        if det_needed:
            det_required.add(rec.index)
            ref_ids = ids
            ref_centers = dict(relevant_centers)

        if ref_humans is None:
            pose_needed = bool(humans)
        else:
            pose_needed = humans != ref_humans or any(
                human_relevance.get(eid, 0.0) > 0.0
                and eid in ref_kps
                and _max_kp_shift(points, ref_kps[eid]) > thresholds.tau_kp_px
                for eid, points in kps.items()
            )
        if pose_needed:
            pose_required.add(rec.index)
            ref_humans = humans
            ref_kps = {eid: list(points) for eid, points in kps.items()}
        elif ref_humans is None:
            ref_humans = humans

    return GroundTruthKeyframes(
        required={DETECTION: frozenset(det_required), POSE: frozenset(pose_required)}
    )


def _dist(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _max_kp_shift(
    current: Sequence[Tuple[float, float]], reference: Sequence[Tuple[float, float]]
) -> float:
    if len(current) != len(reference):
        return math.inf
    return max((_dist(c, r) for c, r in zip(current, reference)), default=0.0)


def activation_recall(
    run: RunLog, gt: GroundTruthKeyframes
) -> Dict[ModuleId, Optional[float]]:
    """Fraction of required frames on which the module actually executed."""
    out: Dict[ModuleId, Optional[float]] = {}
    for module in sorted(run.header.module_costs):
        required = gt.required.get(module, frozenset())
        if not required:
            out[module] = None
            continue
        hits = sum(
            1 for rec in run.records if rec.index in required and rec.honored.get(module)
        )
        out[module] = hits / len(required)
    return out


def keyframe_accuracy(
    run: RunLog, gt: GroundTruthKeyframes
) -> Dict[ModuleId, Optional[float]]:
    """Fraction of required frames on which the decision was to activate,
    independent of busy drops."""
    out: Dict[ModuleId, Optional[float]] = {}
    for module in sorted(run.header.module_costs):
        required = gt.required.get(module, frozenset())
        if not required:
            out[module] = None
            continue
        hits = sum(
            1 for rec in run.records if rec.index in required and rec.decided.get(module)
        )
        out[module] = hits / len(required)
    return out


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
    recall = activation_recall(run, gt)
    accuracy = keyframe_accuracy(run, gt)
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
        "recalled": {
            m: sum(
                1
                for rec in run.records
                if rec.index in gt.required.get(m, frozenset()) and rec.honored.get(m)
            )
            for m in modules
        },
        "decided_on_required": {
            m: sum(
                1
                for rec in run.records
                if rec.index in gt.required.get(m, frozenset()) and rec.decided.get(m)
            )
            for m in modules
        },
        "activated_frames": sum(
            1 for rec in run.records if any(rec.honored.get(m) for m in modules)
        ),
    }
    return MetricsReport(
        policy=run.header.policy,
        latency_ms=latency(run, denominator),
        recall=recall,
        keyframe_accuracy=accuracy,
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
