"""Reference implementations that the tests check the library against."""

import math
from itertools import combinations
from typing import Mapping, Sequence, Tuple

import numpy as np

from percsched.rewards import (
    LN_TWO_PI_E,
    RewardBreakdown,
    RewardConfig,
    extrapolate_confidence,
    keypoint_sigma,
)
from percsched.scene import FrameStamp, ModuleId
from percsched.scheduler import ActivationDecision
from percsched.tracker import (
    KalmanConfig,
    NumericalError,
    TrackState,
    measurement_covariance,
    measurement_noise,
)


def brute_force_select(
    stamp: FrameStamp,
    rewards: Mapping[ModuleId, RewardBreakdown],
    decision_time_ms: float = 0.0,
) -> ActivationDecision:
    """Exhaustive argmax over all feasible activation vectors.

    Feasible vectors keep every forced module on. Ties in cumulative reward
    resolve to the vector with the fewest activations. An oracle for
    :func:`percsched.scheduler.select`; cost is exponential in the module count.
    """
    names = list(rewards)
    if len(names) > 20:
        raise ValueError("brute force search is limited to 20 modules")
    forced = [m for m in names if rewards[m].forced]
    optional = [m for m in names if not rewards[m].forced]

    best_total = None
    best_set = None
    for count in range(len(optional) + 1):
        for chosen in combinations(optional, count):
            active = set(forced) | set(chosen)
            # summed in declaration order so float totals are reproducible
            total = sum(rewards[m].net for m in names if m in active)
            if best_total is None or total > best_total or (
                total == best_total and len(active) < len(best_set)
            ):
                best_total = total
                best_set = active
    activations = {m: m in best_set for m in names}
    return ActivationDecision(
        stamp=stamp,
        activations=activations,
        rewards=dict(rewards),
        decision_time_ms=decision_time_ms,
    )


def scalar_post_execution_entropy(
    humans: Sequence[Tuple[Sequence[float], float, float]], cfg: RewardConfig
) -> float:
    """:func:`percsched.rewards.post_execution_entropy` one keypoint at a
    time: ``keypoint_sigma`` per keypoint, summed in keypoint order."""
    base = cfg.resolved_sigma_base()
    total = 0.0
    for confs, relevance, scale in humans:
        inner = cfg.keypoint_count * LN_TWO_PI_E
        for d, conf in enumerate(confs):
            sigma = keypoint_sigma(float(conf), float(base[d] * scale), cfg)
            inner += 2.0 * math.log(sigma)
        total += relevance * inner
    return total


def scalar_extrapolated(
    last: Tuple[int, Sequence[float]],
    prev: Tuple[int, Sequence[float]],
    frame_index: int,
    cfg: RewardConfig,
) -> list:
    """Two-sample confidence extrapolation, one ``extrapolate_confidence``
    call per keypoint."""
    (k_last, s_last), (k_prev, s_prev) = last, prev
    return [
        extrapolate_confidence(float(a), float(b), k_last, k_prev, frame_index, cfg)
        for a, b in zip(s_last, s_prev)
    ]


def per_track_detection_info_gain(
    tracks: Sequence[Tuple[TrackState, float]], kalman_cfg: KalmanConfig
) -> float:
    """:func:`percsched.rewards.detection_info_gain` with one ``slogdet``
    and one measurement-noise matrix per track."""
    total = 0.0
    for track, relevance in tracks:
        if relevance == 0.0:
            continue
        sign, logdet_p = np.linalg.slogdet(measurement_covariance(track))
        if sign <= 0:
            raise NumericalError(
                f"projected covariance for track {track.entity_id!r} is not positive definite"
            )
        r = measurement_noise(track.mean[3], kalman_cfg)
        logdet_r = float(np.sum(np.log(np.diag(r))))
        total += 0.5 * relevance * (float(logdet_p) - logdet_r)
    return total
