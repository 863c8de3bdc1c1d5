"""Simulated module backends and their output types.

Simulated modules read ground truth from the trace and perturb it with
configurable, seed-deterministic noise. An output becomes visible at the
first frame boundary at or after issue time plus inference time
(:func:`ready_frame`); the engine computes that frame's index and hands it
over. Outputs carry the frame indices they were issued and become ready at.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Annotated, Callable, List, Optional, Tuple

import numpy as np

from .scene import DETECTION, FALSE_POSITIVE_PREFIX, MAX_PIXELS, POSE, EntityKind, ModuleId
from .schema import NonNegative, OpenShare, Positive, Share, check_fields
from .traces import TraceFrame


@dataclass(frozen=True)
class DetectionOutput:
    """One detector output: ``boxes`` row i is the ``(x_c, y_c, w, h)`` of
    entity ``ids[i]``."""

    issued: int
    ready: int
    ids: Tuple[str, ...]
    boxes: np.ndarray  # (len(ids), 4)


@dataclass(frozen=True)
class PoseOutput:
    """One pose output: ``confidences`` row i holds one confidence per
    keypoint of human ``ids[i]``."""

    issued: int
    ready: int
    ids: Tuple[str, ...]
    confidences: np.ndarray  # (len(ids), keypoint count)


@dataclass(frozen=True)
class NoiseConfig:
    """Perturbation profile for the simulated backends.

    With everything at zero the outputs are exact: boxes equal ground truth
    and every keypoint confidence is ``1 - floor_margin``. A nonzero
    ``confidence_spread`` subtracts a Beta-distributed amount from that
    level, giving a skewed confidence profile.
    """

    # a jitter beyond every trace coordinate's bound means nothing; at 1e9
    # the interaction archetype's covariances lose positive definiteness
    box_std: Annotated[float, f"[0, {MAX_PIXELS:g}]"] = 0.0
    miss_rate: Share = 0.0
    false_positive_rate: Share = 0.0
    floor_margin: Annotated[float, "[0, 1)"] = 0.95
    confidence_spread: NonNegative = 0.0
    beta_a: Positive = 2.0
    beta_b: Positive = 5.0
    min_confidence: OpenShare = 1e-6

    __post_init__ = check_fields


def ready_frame(issue_time_ms: float, inference_ms: float, frame_period_ms: float) -> int:
    """Index of the first frame boundary at or after completion of the
    inference."""
    done = issue_time_ms + inference_ms
    return int(math.ceil(done / frame_period_ms - 1e-9))


def _rng_for(seed: int, frame_index: int, module: ModuleId) -> np.random.Generator:
    """Deterministic per-(seed, frame, module) generator; no salted hashing."""
    return np.random.default_rng([seed, frame_index, zlib.crc32(module.encode("utf-8"))])


def _lazy_rng(seed: int, frame_index: int, module: ModuleId) -> Callable[[], np.random.Generator]:
    """``_rng_for``'s generator, built at the first call: an output whose
    noise knobs are all zero makes no draw and builds none."""
    rng: Optional[np.random.Generator] = None

    def get() -> np.random.Generator:
        nonlocal rng
        if rng is None:
            rng = _rng_for(seed, frame_index, module)
        return rng

    return get


def simulate_detection(
    frame: TraceFrame, ready: int, noise_cfg: NoiseConfig, rng_seed: int
) -> DetectionOutput:
    """Detector stand-in: ground-truth boxes plus Gaussian perturbation,
    visible from frame ``ready``."""
    rng = _lazy_rng(rng_seed, frame.index, DETECTION)
    ids: List[str] = []
    rows: List[Tuple[float, float, float, float]] = []
    for e in frame.entities:
        if e.kind is EntityKind.BACKGROUND:
            continue
        if noise_cfg.miss_rate > 0 and rng().random() < noise_cfg.miss_rate:
            continue
        cx, cy = e.region.center
        w, h = e.region.w, e.region.h
        if noise_cfg.box_std > 0:
            jitter = rng().normal(0.0, noise_cfg.box_std, size=4)
            cx, cy = cx + jitter[0], cy + jitter[1]
            w = max(1.0, w + jitter[2])
            h = max(1.0, h + jitter[3])
        ids.append(e.id)
        rows.append((cx, cy, w, h))
    if noise_cfg.false_positive_rate > 0 and rng().random() < noise_cfg.false_positive_rate:
        draw = rng().uniform
        ids.append(f"{FALSE_POSITIVE_PREFIX}{frame.index}")
        rows.append((draw(50, 500), draw(50, 350), draw(20, 60), draw(20, 60)))
    boxes = np.array(rows, dtype=float).reshape(len(rows), 4)
    return DetectionOutput(issued=frame.index, ready=ready, ids=tuple(ids), boxes=boxes)


def simulate_pose(
    frame: TraceFrame, ready: int, noise_cfg: NoiseConfig, rng_seed: int
) -> PoseOutput:
    """Pose stand-in: a Beta-skewed confidence per ground-truth keypoint,
    visible from frame ``ready``. Every human of a frame must have the same
    number of keypoints."""
    ids = tuple(
        e.id for e in frame.entities if e.kind is EntityKind.HUMAN and e.id in frame.keypoints
    )
    counts = sorted({len(frame.keypoints[tid]) for tid in ids})
    if len(counts) > 1:
        raise ValueError(f"frame {frame.index}: humans have different keypoint counts {counts}")
    shape = (len(ids), counts[0] if counts else 0)
    conf = np.full(shape, 1.0 - noise_cfg.floor_margin)
    if noise_cfg.confidence_spread > 0 and ids:
        # one (humans, keypoints) array of draws gives the bits of one
        # scalar draw per keypoint, human by human
        rng = _rng_for(rng_seed, frame.index, POSE)
        conf -= noise_cfg.confidence_spread * rng.beta(noise_cfg.beta_a, noise_cfg.beta_b, shape)
    conf = np.minimum(1.0, np.maximum(noise_cfg.min_confidence, conf))
    return PoseOutput(issued=frame.index, ready=ready, ids=ids, confidences=conf)
