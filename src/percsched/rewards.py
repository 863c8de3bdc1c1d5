"""Per-module reward models.

Detection is rewarded by the entropy reduction a measurement would bring to
the Kalman box estimates: half the relevance-weighted log ratio between the
determinant of the predicted covariance in measurement space and the
determinant of the measurement noise. Pose is rewarded by the drop from a
box-level uniform entropy to the Gaussian entropy of the keypoints the
module would produce, with per-keypoint sigmas mapped from extrapolated
confidence scores.

All entropies are in nats; the cost multiplier converts milliseconds of
inference into nats through ``lambda_info_per_ms``.

The pose entropy runs one Python pass per human over its keypoints, and the
detection gain one over the few tracks of a frame, both on Python floats:
at a few dozen values per call numpy's per-call overhead would cost more
than the arithmetic. Both keep the scalar reference arithmetic bit for bit:
logarithms go through ``math.log`` and sums run in keypoint and track
order, so run logs do not depend on numpy's SIMD dispatch. The confidence
history does its array work when a sample is recorded, so that an
extrapolation per frame is one multiply-add and a clamp.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .scene import DETECTION, POSE, ModuleId
from .schema import NonNegative, Positive, PositiveCount, check_fields
from .tracker import MEAS_DIM, KalmanConfig, NumericalError, TrackBank, measurement_variance

LN_TWO_PI_E = math.log(2.0 * math.pi * math.e)

DEFAULT_KEYPOINT_COUNT = 133
UNIFORM_SIGMA_BASE = 0.05
# extrapolated confidences are clamped to [CONFIDENCE_FLOOR, 1]; a human
# never seen by the pose module has PRIOR_CONFIDENCE on every keypoint
CONFIDENCE_FLOOR = 1e-6
PRIOR_CONFIDENCE = 0.5
# no keypoint sigma falls below this, however confident the keypoint
SIGMA_FLOOR = 1e-3


@functools.lru_cache(maxsize=None)
def coco_wholebody_sigmas() -> Tuple[float, ...]:
    """The 133 normalized per-keypoint sigmas shipped with the package,
    read once per process."""
    ref = importlib.resources.files("percsched").joinpath("data/coco_wholebody_sigmas.json")
    payload = json.loads(ref.read_text())
    return tuple(float(s) for s in payload["sigmas"])


def load_sigma_base(path) -> Tuple[float, ...]:
    """Read a per-keypoint sigma table from a data file.

    Accepts a JSON array of numbers, a JSON object whose ``sigmas`` key holds
    one, or plain whitespace-separated floats.
    """
    from pathlib import Path

    text = Path(path).read_text(encoding="utf-8").strip()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        values = text.split()
    else:
        values = payload.get("sigmas") if isinstance(payload, dict) else payload
        if not isinstance(values, list):
            raise ValueError(
                f"sigma table at {path} must be a JSON list or an object with a 'sigmas' list"
            )
        # bool is an int subclass, but true is not a sigma
        if not all(type(v) in (int, float) for v in values):
            raise ValueError(f"sigma table at {path} must hold numbers only")
    try:
        sigmas = tuple(float(v) for v in values)
    except OverflowError:  # a JSON integer beyond the float range
        sigmas = ()
    if not sigmas or not all(0.0 < s < math.inf for s in sigmas):
        raise ValueError(f"sigma table at {path} must hold finite positive reals")
    return sigmas


@dataclass(frozen=True)
class RewardConfig:
    """Knobs shared by both reward models.

    ``cost_ms`` is the one table of module inference times: the engine runs
    the modules it lists, for that long each.

    ``sigma_base`` holds normalized per-keypoint base sigmas; they are
    multiplied by the object scale sqrt(w*h) where the pose entropy is
    evaluated. Leave it ``None`` to use the packaged COCO-WholeBody table
    when ``keypoint_count`` is 133 and a uniform 0.05 table otherwise.
    """

    lambda_info_per_ms: NonNegative
    cost_ms: Mapping[ModuleId, Positive]
    keypoint_count: PositiveCount = DEFAULT_KEYPOINT_COUNT
    sigma_base: Optional[Tuple[Positive, ...]] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if set(self.cost_ms) != {DETECTION, POSE}:
            raise ValueError(
                f"cost_ms must list exactly the modules {DETECTION!r} and {POSE!r}, "
                f"got {sorted(self.cost_ms)}"
            )
        if self.sigma_base is not None and len(self.sigma_base) != self.keypoint_count:
            raise ValueError(
                f"sigma_base has {len(self.sigma_base)} entries, "
                f"expected keypoint_count={self.keypoint_count}"
            )


def sigma_table(cfg: RewardConfig) -> Tuple[float, ...]:
    """The per-keypoint base sigmas of ``cfg`` as floats: its own
    ``sigma_base``, else the packaged COCO-WholeBody table at 133 keypoints,
    else a uniform 0.05 table."""
    if cfg.sigma_base is not None:
        return tuple(map(float, cfg.sigma_base))
    if cfg.keypoint_count == 133:
        return coco_wholebody_sigmas()
    return (UNIFORM_SIGMA_BASE,) * cfg.keypoint_count


@dataclass(frozen=True)
class RewardBreakdown:
    """Net reward for one module at one frame."""

    info_gain_nats: float
    cost_penalty_nats: float
    net: float
    forced: bool = False


def _breakdown(module: ModuleId, gain: float, forced: bool, cfg: RewardConfig) -> RewardBreakdown:
    penalty = cfg.lambda_info_per_ms * cfg.cost_ms[module]
    return RewardBreakdown(
        info_gain_nats=gain,
        cost_penalty_nats=penalty,
        net=gain - penalty,
        forced=forced,
    )


def detection_info_gain(
    bank: TrackBank,
    relevance: Sequence[float],
    cfg: RewardConfig,
    kalman_cfg: KalmanConfig,
) -> float:
    """Relevance-weighted entropy reduction over all tracked boxes.

    ``relevance`` holds one weight per bank row. Each track contributes
    0.5 * r * ln(det(projected prior) / det(R)) with R the same
    height-scaled measurement noise an update would use. Zero-relevance
    tracks contribute nothing. Both matrices are diagonal: the projected
    prior holds the position variances ``p_xx`` and R holds MEAS_DIM equal
    variances, so the term is 0.5 * r * sum_i ln(p_xx_i / R_ii). A bank holds
    a few tracks, so the sum runs on the bank's Python floats, in row and
    coordinate order, with one ``math.log`` per coordinate and R's variance
    from :func:`~percsched.tracker.measurement_variance`, as an update takes
    it.
    """
    if len(relevance) != len(bank):
        raise ValueError(f"expected {len(bank)} relevance weights, got {len(relevance)}")
    live = [(row, float(weight)) for row, weight in enumerate(relevance) if weight != 0.0]
    if not live:
        return 0.0
    total = 0.0
    # set by a ratio that underflows to zero: its log is infinitely
    # negative, but a later row must still pass the check
    underflow = False
    for row, weight in live:
        variances = bank.p_xx[row]
        for p in variances:
            if not 0.0 < p < math.inf:
                raise NumericalError(
                    f"projected covariance for track {bank.ids[row]!r} is not positive definite"
                )
        if underflow:
            continue
        noise = measurement_variance(bank.x[row][3], kalman_cfg)
        # IEEE division makes a positive ratio over a zero variance +inf,
        # where Python's raises
        ratios = [p / noise for p in variances] if noise else [math.inf] * MEAS_DIM
        log_ratio = 0.0
        for ratio in ratios:
            if not ratio:
                underflow = True
                break
            log_ratio += math.log(ratio)
        total += 0.5 * weight * log_ratio
    return -math.inf if underflow else total


def detection_reward(gain: float, forced: bool, cfg: RewardConfig) -> RewardBreakdown:
    if not math.isfinite(gain):
        raise ValueError(f"gain must be finite, got {gain}")
    return _breakdown(DETECTION, gain, forced, cfg)


def box_uniform_entropy(w: float, h: float) -> float:
    """Entropy of a point uniformly distributed over a w-by-h box, in nats."""
    if w <= 0 or h <= 0:
        raise ValueError(f"box dims must be positive, got w={w}, h={h}")
    return math.log(w * h)


def pre_execution_entropy(
    humans: Sequence[Tuple[float, float, float, float, float]],
    cfg: RewardConfig,
) -> float:
    """Keypoint uncertainty before the pose module runs.

    Each human contributes relevance * ln((w + sigma_w) * (h + sigma_h)),
    the uniform-box entropy widened by the prior box uncertainty, and the
    sum is multiplied by the keypoint count.
    """
    total = 0.0
    for w, h, sigma_w, sigma_h, relevance in humans:
        total += relevance * box_uniform_entropy(w + sigma_w, h + sigma_h)
    return cfg.keypoint_count * total


def post_execution_entropy(
    humans: Sequence[Tuple[Sequence[float], float, float]], cfg: RewardConfig
) -> float:
    """Keypoint uncertainty the pose module is expected to leave behind.

    Each entry is (confidences, relevance, scale); confidences must already
    be extrapolated to the current frame and have exactly ``keypoint_count``
    values. ``scale`` (the object scale) multiplies the base sigmas.

    Per human this equals ``keypoint_count * LN_TWO_PI_E`` plus, in keypoint
    order, ``2 * ln(max(-base * scale * ln(conf), SIGMA_FLOOR))``. Every
    confidence must lie in (0, 1] and every scaled base sigma be positive;
    the first keypoint that breaks either is named.
    """
    table = sigma_table(cfg)
    count = cfg.keypoint_count
    log = math.log
    total = 0.0
    for confidences, relevance, scale in humans:
        confs = np.asarray(confidences, dtype=float)
        if confs.shape != (count,):
            raise ValueError(f"expected {count} confidences, got {confs.shape}")
        scale = float(scale)
        inner = count * LN_TWO_PI_E
        for conf, base in zip(confs.tolist(), table):
            b = base * scale
            # written so that NaN fails both tests
            if not 0.0 < conf <= 1.0:
                raise ValueError(f"confidence must lie in (0, 1], got {conf}")
            if not b > 0.0:
                raise ValueError(f"base sigma must be positive, got {b}")
            sigma = -b * log(conf)
            # the floor as np.maximum takes it: a NaN sigma stays NaN
            inner += 2.0 * log(SIGMA_FLOOR if sigma < SIGMA_FLOOR else sigma)
        total += float(relevance) * inner
    return total


def pose_reward(pre: float, post: float, forced: bool, cfg: RewardConfig) -> RewardBreakdown:
    if not (math.isfinite(pre) and math.isfinite(post)):
        raise ValueError("entropies must be finite")
    return _breakdown(POSE, pre - post, forced, cfg)


@functools.lru_cache(maxsize=16)
def _prior(count: int) -> np.ndarray:
    """The confidences of a human never seen by the pose module, read-only
    since every caller shares them."""
    prior = np.full(count, PRIOR_CONFIDENCE)
    prior.flags.writeable = False
    return prior


class KeypointConfidenceHistory:
    """Rolling record of the last two pose executions per human.

    With two samples confidences are linearly extrapolated per keypoint;
    with one the last value is held; with none the prior applies. A human's
    samples must come from strictly increasing frames. Held and prior
    confidences come back as shared read-only arrays.
    """

    def __init__(self) -> None:
        # per human: the last sample's frame and values, those values
        # clamped to [CONFIDENCE_FLOOR, 1] (read-only), and the slope per
        # frame from the sample before, None until there is one
        self._last: Dict[str, Tuple[int, np.ndarray, np.ndarray, Optional[np.ndarray]]] = {}

    def record(self, entity_id: str, frame_index: int, confidences: Sequence[float]) -> None:
        current = self._last.get(entity_id)
        if current is not None and frame_index <= current[0]:
            raise ValueError(f"sample of frame {frame_index} does not follow frame {current[0]}")
        samples = np.asarray(confidences, dtype=float)
        slope = None
        if current is not None:
            k_prev, s_prev = current[0], current[1]
            slope = (samples - s_prev) / (frame_index - k_prev)
        held = np.clip(samples, CONFIDENCE_FLOOR, 1.0)
        held.flags.writeable = False
        self._last[entity_id] = (frame_index, samples, held, slope)

    def extrapolated(self, entity_id: str, frame_index: int, cfg: RewardConfig) -> np.ndarray:
        entry = self._last.get(entity_id)
        if entry is None:
            return _prior(cfg.keypoint_count)
        k_last, s_last, held, slope = entry
        if slope is None or frame_index < k_last:
            return held
        # s_last + slope * (frame_index - k_last) per keypoint, in place;
        # fmax/fmin clamp NaN to the floor exactly as min(1, max(floor,
        # value)) does
        value = slope * (frame_index - k_last)
        value += s_last
        np.fmax(value, CONFIDENCE_FLOOR, out=value)
        return np.fmin(value, 1.0, out=value)

    def forget(self, entity_id: str) -> None:
        self._last.pop(entity_id, None)
