"""Constant-velocity Kalman filtering of bounding boxes.

The state follows the BoT-SORT eight-dimensional parameterization
(x_c, y_c, w, h, vx, vy, vw, vh); process and measurement noise scale with
the current box height. Only the filter itself lives here: association is
supplied externally by entity identity, never computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

STATE_DIM = 8
MEAS_DIM = 4


class NumericalError(RuntimeError):
    """Raised when a covariance stops being usable (non-PD or singular)."""


@dataclass(frozen=True)
class KalmanConfig:
    """Noise weights, all expressed as std factors per box height."""

    std_weight_position: float = 1.0 / 20.0
    std_weight_velocity: float = 1.0 / 160.0
    std_weight_measurement: float = 1.0 / 20.0
    joseph_update: bool = False
    max_frames_since_update: int = 90

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        for name in ("std_weight_position", "std_weight_velocity", "std_weight_measurement",
                     "max_frames_since_update"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrackState:
    """Filter state for one box. Arrays are owned and never mutated."""

    mean: np.ndarray
    covariance: np.ndarray
    entity_id: str = ""

    def __post_init__(self) -> None:
        if self.mean.shape != (STATE_DIM,):
            raise ValueError(f"mean must have shape ({STATE_DIM},), got {self.mean.shape}")
        if self.covariance.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"covariance must be {STATE_DIM}x{STATE_DIM}")


_F = np.eye(STATE_DIM)
_F[:MEAS_DIM, MEAS_DIM:] = np.eye(MEAS_DIM)
_H = np.zeros((MEAS_DIM, STATE_DIM))
_H[:, :MEAS_DIM] = np.eye(MEAS_DIM)


def process_noise(height: float, cfg: KalmanConfig) -> np.ndarray:
    """Diagonal process noise scaled by the current box height."""
    h = max(float(height), 1.0)
    std = np.array(
        [cfg.std_weight_position * h] * 4 + [cfg.std_weight_velocity * h] * 4
    )
    return np.diag(std**2)


def measurement_noise(height: float, cfg: KalmanConfig) -> np.ndarray:
    """Diagonal measurement noise for (x_c, y_c, w, h), height-scaled."""
    h = max(float(height), 1.0)
    std = np.full(MEAS_DIM, cfg.std_weight_measurement * h)
    return np.diag(std**2)


def init_track(measurement: np.ndarray, cfg: KalmanConfig, entity_id: str = "") -> TrackState:
    """Start a track from one (x_c, y_c, w, h) measurement with zero velocity."""
    z = np.asarray(measurement, dtype=float)
    if z.shape != (MEAS_DIM,):
        raise ValueError(f"measurement must have shape ({MEAS_DIM},), got {z.shape}")
    if z[2] <= 0 or z[3] <= 0:
        raise ValueError(f"box dims must be positive, got w={z[2]}, h={z[3]}")
    mean = np.zeros(STATE_DIM)
    mean[:MEAS_DIM] = z
    h = z[3]
    std = np.array(
        [2 * cfg.std_weight_position * h] * 4 + [10 * cfg.std_weight_velocity * h] * 4
    )
    covariance = np.diag(std**2)
    return TrackState(mean=mean, covariance=covariance, entity_id=entity_id)


def predict(
    track: TrackState,
    cfg: KalmanConfig,
    q_scale: float = 1.0,
    zero_velocity: bool = False,
) -> TrackState:
    """One constant-velocity step: advance the mean, inflate the covariance.

    ``q_scale`` scales the injected process noise; callers model stationary
    versus maneuvering entities with it. ``zero_velocity`` clears the
    velocity components before the transition, the usual treatment for
    elements believed not to be moving.
    """
    mean = track.mean.copy()
    if zero_velocity:
        mean[MEAS_DIM:] = 0.0
    q = process_noise(mean[3], cfg) * q_scale
    new_mean = _F @ mean
    new_cov = _F @ track.covariance @ _F.T + q
    new_cov = _symmetrize(new_cov)
    _require_pd(new_cov)
    return TrackState(mean=new_mean, covariance=new_cov, entity_id=track.entity_id)


def inflate_process_noise(track: TrackState, cfg: KalmanConfig, extra_scale: float) -> TrackState:
    """Add withheld process noise to an already-predicted state.

    Used when a patch is found to be moving only after the frame's predict
    has run: adding ``extra_scale`` times the height-scaled noise makes the
    covariance equal to what a predict with the larger scale would have
    produced.
    """
    if extra_scale <= 0:
        return track
    q = process_noise(track.mean[3], cfg) * extra_scale
    new_cov = _symmetrize(track.covariance + q)
    _require_pd(new_cov)
    return TrackState(mean=track.mean.copy(), covariance=new_cov, entity_id=track.entity_id)


def update(track: TrackState, measurement: np.ndarray, cfg: KalmanConfig) -> TrackState:
    """Standard Kalman update against an (x_c, y_c, w, h) measurement."""
    z = np.asarray(measurement, dtype=float)
    if z.shape != (MEAS_DIM,):
        raise ValueError(f"measurement must have shape ({MEAS_DIM},), got {z.shape}")
    r = measurement_noise(track.mean[3], cfg)
    p = track.covariance
    s = _H @ p @ _H.T + r
    try:
        k = np.linalg.solve(s, (_H @ p)).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is singular") from exc
    innovation = z - _H @ track.mean
    new_mean = track.mean + k @ innovation
    if cfg.joseph_update:
        ikh = np.eye(STATE_DIM) - k @ _H
        new_cov = ikh @ p @ ikh.T + k @ r @ k.T
    else:
        new_cov = (np.eye(STATE_DIM) - k @ _H) @ p
    new_cov = _symmetrize(new_cov)
    _require_pd(new_cov)
    return TrackState(mean=new_mean, covariance=new_cov, entity_id=track.entity_id)


def measurement_covariance(track: TrackState) -> np.ndarray:
    """Project the state covariance into measurement space (top-left 4x4)."""
    return (_H @ track.covariance @ _H.T).copy()


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _require_pd(cov: np.ndarray) -> None:
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance lost positive definiteness") from exc
