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
order, so run logs do not depend on numpy's SIMD dispatch.

The confidence history does its array work once per recorded sample: the
slope to the sample before and the clamped values to hold. Per frame an
extrapolation is then one multiply-add and a clamp, or nothing while the
confidences are held: before the first sample (the prior), after one
sample, at a frame before the last sample, and after a sample equal to the
one before, where the slope is zero on every keypoint. Held confidences
keep the per-human sum of their last completed pose entropy pass, keyed by
the sigma table object and the scale; while a human is held at an equal
scale under the same table, the pass takes that sum and no ``math.log`` at
all. A sample equal to the one before keeps the held array, and so its sum.
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
from .tracker import KalmanConfig, NumericalError, TrackBank, measurement_variance

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

    @functools.cached_property
    def _sigma_floats(self) -> Tuple[float, ...]:
        return _float_table(self.sigma_base)


@functools.lru_cache(maxsize=16)
def _float_table(table: Tuple[float, ...]) -> Tuple[float, ...]:
    """One float tuple per distinct table; a config keeps its own, since
    hashing 133 floats costs about as much as converting them."""
    return tuple(map(float, table))


def sigma_table(cfg: RewardConfig) -> Tuple[float, ...]:
    """The per-keypoint base sigmas of ``cfg`` as floats: its own
    ``sigma_base``, else the packaged COCO-WholeBody table at 133 keypoints,
    else a uniform 0.05 table."""
    if cfg.sigma_base is not None:
        return cfg._sigma_floats
    if cfg.keypoint_count == 133:
        return coco_wholebody_sigmas()
    return _uniform_table(cfg.keypoint_count)


@functools.lru_cache(maxsize=16)
def _uniform_table(count: int) -> Tuple[float, ...]:
    """One uniform table per keypoint count, so that the pose entropy's
    memo, keyed by the table object, holds across frames and configs."""
    return (UNIFORM_SIGMA_BASE,) * count


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
    tracks contribute nothing. Both matrices are a variance times the 4x4
    identity: the projected prior's is the position variance ``p_xx`` that
    the track's four box coordinates share, and R's is
    :func:`~percsched.tracker.measurement_variance`, as an update takes it.
    So the term is 0.5 * r * 4 * ln(p_xx / R_ii). A bank holds a few tracks,
    so the sum runs on the bank's Python floats in row order, with one
    ``math.log`` per track. The four coordinates' equal logs are summed as
    ``log + log + log + log``, which has the bits of a per-coordinate sum
    started at 0.0, since ``math.log`` never gives ``-0.0``.
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
        p = bank.p_xx[row]
        if not 0.0 < p < math.inf:
            raise NumericalError(
                f"projected covariance for track {bank.ids[row]!r} is not positive definite"
            )
        if underflow:
            continue
        noise = measurement_variance(bank.x[row][3], kalman_cfg)
        # IEEE division makes a positive ratio over a zero variance +inf,
        # where Python's raises
        ratio = p / noise if noise else math.inf
        if not ratio:
            underflow = True
            continue
        log = math.log(ratio)
        total += 0.5 * weight * (log + log + log + log)
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

    A read-only :class:`HeldConfidences` keeps the sum of its last completed
    pass in ``memo``, with the table and scale it was taken at; a later pass
    with the same table object and an equal scale returns it. A scale that
    passed the checks is positive, and equal positive floats have equal
    bits, so the reused sum is the one the pass would give. Relevance
    multiplies it outside the memo.
    """
    table = sigma_table(cfg)
    count = cfg.keypoint_count
    log = math.log
    total = 0.0
    for confidences, relevance, scale in humans:
        held = type(confidences) is HeldConfidences
        confs = confidences if held else np.asarray(confidences, dtype=float)
        if confs.shape != (count,):
            raise ValueError(f"expected {count} confidences, got {confs.shape}")
        scale = float(scale)
        memo = confs.memo if held else None
        if memo is not None and memo[0] is table and memo[1] == scale:
            inner = memo[2]
        else:
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
            # a writeable array could change under its memo
            if held and not confs.flags.writeable:
                confs.memo = (table, scale, inner)
        total += float(relevance) * inner
    return total


def pose_reward(pre: float, post: float, forced: bool, cfg: RewardConfig) -> RewardBreakdown:
    if not (math.isfinite(pre) and math.isfinite(post)):
        raise ValueError("entropies must be finite")
    return _breakdown(POSE, pre - post, forced, cfg)


class HeldConfidences(np.ndarray):
    """Confidences that stay the same from frame to frame: the prior, and
    the clamped last sample that the history holds while it has no slope or
    is read at an earlier frame.

    A :func:`post_execution_entropy` pass that completes on a read-only one
    keeps its per-human sum in ``memo`` as ``(table, scale, inner)``: the
    sum is a pure function of the values, the sigma table and the scale, so
    every holder of a shared array may read it, and a later pass with the
    same table object and an equal scale takes ``inner`` as it is. The
    table is keyed by identity and held by the memo, so a shared array never
    serves one config's sum to another table. An array derived from one, a
    view or a result, starts without a memo.
    """

    # class defaults need no __array_finalize__ call per array made
    memo: Optional[Tuple[Tuple[float, ...], float, float]] = None


def _held(values: np.ndarray) -> HeldConfidences:
    # a read-only view of a writeable base could be made writeable again
    values.flags.writeable = False
    return values.view(HeldConfidences)


@functools.lru_cache(maxsize=16)
def _prior(count: int) -> HeldConfidences:
    """The confidences of a human never seen by the pose module, shared by
    every caller."""
    return _held(np.full(count, PRIOR_CONFIDENCE))


class KeypointConfidenceHistory:
    """Rolling record of the last two pose executions per human.

    With two samples confidences are linearly extrapolated per keypoint;
    with one the last value is held; with none the prior applies. A sample
    equal to the one before gives a zero slope, and the pair holds the
    first sample's array, which is exactly what the extrapolation gives. A
    human's samples must come from strictly increasing frames. Held and
    prior confidences come back as shared read-only
    :class:`HeldConfidences`, extrapolated ones as a fresh array per frame.
    """

    def __init__(self) -> None:
        # per human: the last sample's frame and values, those values
        # clamped to [CONFIDENCE_FLOOR, 1] and held, and the slope per frame
        # from the sample before, None until there is one and when the two
        # are equal
        self._last: Dict[str, Tuple[int, np.ndarray, HeldConfidences, Optional[np.ndarray]]] = {}

    def record(self, entity_id: str, frame_index: int, confidences: Sequence[float]) -> None:
        current = self._last.get(entity_id)
        if current is not None and frame_index <= current[0]:
            raise ValueError(f"sample of frame {frame_index} does not follow frame {current[0]}")
        samples = np.asarray(confidences, dtype=float)
        slope = held = None
        if current is not None:
            k_prev, s_prev = current[0], current[1]
            diff = samples - s_prev
            if diff.any():
                slope = diff / (frame_index - k_prev)
            else:
                # equal finite values (a NaN or an infinity gives a NaN or
                # nonzero difference): the slope is zero, s_last + 0.0 * (k -
                # k_last) is s_last, and its clamp has the held array's bits
                held = current[2]
        if held is None:
            held = _held(np.clip(samples, CONFIDENCE_FLOOR, 1.0))
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
