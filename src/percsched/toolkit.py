"""The schedulable module pool: specs, output types and simulated modules.

Simulated modules read ground truth from the trace and perturb it with
configurable, seed-deterministic noise. An output becomes visible at the
first frame boundary at or after issue time plus inference time.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

import numpy as np

from .scene import DEFAULT_FRAME_PERIOD_MS, EntityKind, FrameStamp, ModuleId
from .traces import TraceFrame


class OutputKind(str, Enum):
    DETECTIONS = "detections"
    KEYPOINTS = "keypoints"


@dataclass(frozen=True)
class ModuleSpec:
    id: ModuleId
    inference_ms: float
    output_kind: OutputKind

    def __post_init__(self) -> None:
        if self.inference_ms <= 0:
            raise ValueError("inference_ms must be positive")


@dataclass(frozen=True)
class DetectedBox:
    entity_id: str
    x_c: float
    y_c: float
    w: float
    h: float
    score: float


@dataclass(frozen=True)
class DetectionOutput:
    stamp_issued: FrameStamp
    stamp_ready: FrameStamp
    boxes: Tuple[DetectedBox, ...]


@dataclass(frozen=True)
class HumanPose:
    entity_id: str
    keypoints: Tuple[Tuple[float, float, float], ...]  # (x, y, confidence)


@dataclass(frozen=True)
class PoseOutput:
    stamp_issued: FrameStamp
    stamp_ready: FrameStamp
    per_human: Tuple[HumanPose, ...]


@dataclass(frozen=True)
class NoiseConfig:
    """Perturbation profile for the simulated backends.

    With everything at zero the outputs are exact: boxes equal ground truth
    and every keypoint confidence is ``1 - floor_margin``. A nonzero
    ``confidence_spread`` subtracts a Beta-distributed amount from that
    level, giving a skewed confidence profile.
    """

    box_std: float = 0.0
    miss_rate: float = 0.0
    false_positive_rate: float = 0.0
    keypoint_std: float = 0.0
    floor_margin: float = 0.95
    confidence_spread: float = 0.0
    beta_a: float = 2.0
    beta_b: float = 5.0
    min_confidence: float = 1e-6

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not 0.0 <= self.floor_margin < 1.0:
            raise ValueError("floor_margin must lie in [0, 1)")
        for name in ("box_std", "miss_rate", "false_positive_rate", "keypoint_std",
                     "confidence_spread"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {getattr(self, name)}"
                )
        for name in ("beta_a", "beta_b"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0.0 < self.min_confidence < 1.0:
            raise ValueError("min_confidence must lie in (0, 1)")


def ready_stamp(
    issue_time_ms: float,
    inference_ms: float,
    frame_period_ms: float = DEFAULT_FRAME_PERIOD_MS,
) -> FrameStamp:
    """First frame boundary at or after completion of the inference."""
    done = issue_time_ms + inference_ms
    index = int(math.ceil(done / frame_period_ms - 1e-9))
    return FrameStamp.at(index, frame_period_ms)


def _rng_for(seed: int, frame_index: int, module: ModuleId) -> np.random.Generator:
    """Deterministic per-(seed, frame, module) generator; no salted hashing."""
    return np.random.default_rng([seed, frame_index, zlib.crc32(module.encode("utf-8"))])


def simulate_detection(
    frame: TraceFrame,
    spec: ModuleSpec,
    noise_cfg: NoiseConfig,
    rng_seed: int,
    frame_period_ms: float = DEFAULT_FRAME_PERIOD_MS,
) -> DetectionOutput:
    """Detector stand-in: ground-truth boxes plus Gaussian perturbation."""
    rng = _rng_for(rng_seed, frame.stamp.index, spec.id)
    boxes: List[DetectedBox] = []
    for e in frame.entities:
        if e.kind is EntityKind.BACKGROUND:
            continue
        if noise_cfg.miss_rate > 0 and rng.random() < noise_cfg.miss_rate:
            continue
        cx, cy = e.region.center
        w, h = e.region.w, e.region.h
        if noise_cfg.box_std > 0:
            jitter = rng.normal(0.0, noise_cfg.box_std, size=4)
            cx, cy = cx + jitter[0], cy + jitter[1]
            w = max(1.0, w + jitter[2])
            h = max(1.0, h + jitter[3])
        boxes.append(
            DetectedBox(entity_id=e.id, x_c=float(cx), y_c=float(cy),
                        w=float(w), h=float(h), score=1.0)
        )
    if noise_cfg.false_positive_rate > 0 and rng.random() < noise_cfg.false_positive_rate:
        fx = float(rng.uniform(50, 500))
        fy = float(rng.uniform(50, 350))
        boxes.append(
            DetectedBox(
                entity_id=f"spurious-{frame.stamp.index}",
                x_c=fx, y_c=fy, w=float(rng.uniform(20, 60)),
                h=float(rng.uniform(20, 60)), score=0.4,
            )
        )
    return DetectionOutput(
        stamp_issued=frame.stamp,
        stamp_ready=ready_stamp(frame.stamp.time_ms, spec.inference_ms, frame_period_ms),
        boxes=tuple(boxes),
    )


def simulate_pose(
    frame: TraceFrame,
    spec: ModuleSpec,
    noise_cfg: NoiseConfig,
    rng_seed: int,
    frame_period_ms: float = DEFAULT_FRAME_PERIOD_MS,
) -> PoseOutput:
    """Pose stand-in: ground-truth keypoints with noise and Beta confidences."""
    rng = _rng_for(rng_seed, frame.stamp.index, spec.id)
    per_human: List[HumanPose] = []
    for e in frame.entities:
        if e.kind is not EntityKind.HUMAN:
            continue
        true_pts = frame.keypoints.get(e.id)
        if true_pts is None:
            continue
        pts: List[Tuple[float, float, float]] = []
        for x, y in true_pts:
            if noise_cfg.keypoint_std > 0:
                dx, dy = rng.normal(0.0, noise_cfg.keypoint_std, size=2)
                x, y = x + dx, y + dy
            conf = 1.0 - noise_cfg.floor_margin
            if noise_cfg.confidence_spread > 0:
                conf -= noise_cfg.confidence_spread * float(
                    rng.beta(noise_cfg.beta_a, noise_cfg.beta_b)
                )
            conf = min(1.0, max(noise_cfg.min_confidence, conf))
            pts.append((float(x), float(y), float(conf)))
        per_human.append(HumanPose(entity_id=e.id, keypoints=tuple(pts)))
    return PoseOutput(
        stamp_issued=frame.stamp,
        stamp_ready=ready_stamp(frame.stamp.time_ms, spec.inference_ms, frame_period_ms),
        per_human=tuple(per_human),
    )

