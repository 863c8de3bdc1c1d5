"""Constant-velocity Kalman filtering of bounding boxes, all tracks at once.

The state follows the BoT-SORT eight-dimensional parameterization
(x_c, y_c, w, h, vx, vy, vw, vh); process and measurement noise scale with
the current box height. Only the filter itself lives here: association is
supplied externally by entity identity, never computed.

Every live track sits in one :class:`TrackBank`: sorted ids, an ``(n, 8)``
array of means and an ``(n, 8, 8)`` array of covariances, the stacked
layout of SORT's and ByteTrack's ``multi_predict``. Each operation advances
all of its rows with one set of array calls and checks them with one
batched Cholesky factorization. A row comes out bit for bit as the
one-track textbook filter gives it: the transition and measurement matrices
only select and add entries, so those products are written as slice
additions, and the products that do round (the gain solve and the
covariance update) go through the same LAPACK and BLAS calls per matrix.

The covariance has one update form, Joseph's
``(I - K H) P (I - K H)^T + K R K^T``: a sum of two congruences, it stays
positive definite at noise weights where the shorter ``(I - K H) P`` loses
that to cancellation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple, Union

import numpy as np

from .schema import Positive, PositiveCount, check_fields

STATE_DIM = 8
MEAS_DIM = 4

_IDENTITY = np.eye(STATE_DIM)
_MEAS_IDENTITY = np.eye(MEAS_DIM)
# the transition adds each velocity to its position
_F = np.eye(STATE_DIM)
_F[:MEAS_DIM, MEAS_DIM:] = _MEAS_IDENTITY
_F_T = _F.T


class NumericalError(RuntimeError):
    """Raised when a covariance stops being usable (non-PD or singular)."""


@dataclass(frozen=True)
class KalmanConfig:
    """Noise weights, all expressed as std factors per box height."""

    std_weight_position: Positive = 1.0 / 20.0
    std_weight_velocity: Positive = 1.0 / 160.0
    std_weight_measurement: Positive = 1.0 / 20.0
    max_frames_since_update: PositiveCount = 90

    __post_init__ = check_fields


@dataclass(frozen=True, eq=False)
class TrackBank:
    """Filter state of every live track, one row per id in sorted id order.

    Arrays are owned and never mutated; every operation returns a new bank.
    """

    ids: Tuple[str, ...] = ()
    means: np.ndarray = field(default_factory=lambda: np.zeros((0, STATE_DIM)))
    covariances: np.ndarray = field(
        default_factory=lambda: np.zeros((0, STATE_DIM, STATE_DIM))
    )

    def __post_init__(self) -> None:
        n = len(self.ids)
        if self.means.shape != (n, STATE_DIM):
            raise ValueError(f"means must have shape ({n}, {STATE_DIM}), got {self.means.shape}")
        if self.covariances.shape != (n, STATE_DIM, STATE_DIM):
            raise ValueError(
                f"covariances must have shape ({n}, {STATE_DIM}, {STATE_DIM}), "
                f"got {self.covariances.shape}"
            )
        if list(self.ids) != sorted(set(self.ids)):
            raise ValueError("track ids must be unique and sorted")

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, entity_id: object) -> bool:
        return entity_id in self._row

    @functools.cached_property
    def _row(self) -> Dict[str, int]:
        return {tid: i for i, tid in enumerate(self.ids)}

    def rows(self, ids: Sequence[str]) -> np.ndarray:
        """Row index of each id; the ids must be distinct members."""
        _require_distinct(ids)
        try:
            return np.array([self._row[tid] for tid in ids], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"track {exc.args[0]!r} is not in the bank") from None

    def without(self, ids: Iterable[str]) -> "TrackBank":
        """The bank minus ``ids``; ids it does not hold are ignored."""
        gone = set(ids)
        keep = [i for i, tid in enumerate(self.ids) if tid not in gone]
        if len(keep) == len(self.ids):
            return self
        return TrackBank(
            tuple(self.ids[i] for i in keep), self.means[keep], self.covariances[keep]
        )

    def _with_rows(self, rows: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> "TrackBank":
        new_means = self.means.copy()
        new_means[rows] = means
        new_covs = self.covariances.copy()
        new_covs[rows] = covariances
        return TrackBank(self.ids, new_means, new_covs)


def measurement_variance(heights: np.ndarray, cfg: KalmanConfig) -> np.ndarray:
    """Per-row variance of the diagonal, height-scaled measurement noise R:
    every one of the MEAS_DIM box coordinates has this variance."""
    return (cfg.std_weight_measurement * np.maximum(heights, 1.0)) ** 2


def _variances(heights: np.ndarray, position_weight: float, velocity_weight: float) -> np.ndarray:
    """``(n, 8)`` diagonal variances: per-height std weights, squared. An
    integer weight runs as the float it equals, however large."""
    weights = np.array([position_weight] * MEAS_DIM + [velocity_weight] * MEAS_DIM, dtype=float)
    return (heights[:, None] * weights) ** 2


def _process_variances(heights: np.ndarray, cfg: KalmanConfig) -> np.ndarray:
    """``(n, 8)`` diagonals of the height-scaled process noise Q."""
    return _variances(np.maximum(heights, 1.0), cfg.std_weight_position, cfg.std_weight_velocity)


def _diagonals(matrices: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each matrix in a stack; the stack
    must be C-contiguous, as every fresh copy here is."""
    n, d, _ = matrices.shape
    return matrices.reshape(n, d * d)[:, :: d + 1]


def _symmetrize(m: np.ndarray) -> np.ndarray:
    out = m + m.swapaxes(-1, -2)
    out /= 2.0
    return out


def _require_distinct(ids: Sequence[str]) -> None:
    seen = set()
    for tid in ids:
        if tid in seen:
            raise ValueError(f"track {tid!r} is named twice")
        seen.add(tid)


def _require_pd(covariances: np.ndarray, ids: Sequence[str]) -> None:
    """One Cholesky factorization of the whole stack; on failure, name the
    first track whose covariance is not positive definite."""
    try:
        np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError as exc:
        for tid, cov in zip(ids, covariances):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise NumericalError(
                    f"covariance of track {tid!r} lost positive definiteness"
                ) from exc
        raise NumericalError("covariance lost positive definiteness") from exc


def _measurements(measurements: np.ndarray, count: int) -> np.ndarray:
    z = np.asarray(measurements, dtype=float)
    if z.shape != (count, MEAS_DIM):
        raise ValueError(f"measurements must have shape ({count}, {MEAS_DIM}), got {z.shape}")
    return z


def init_track(
    bank: TrackBank, ids: Sequence[str], measurements: np.ndarray, cfg: KalmanConfig
) -> TrackBank:
    """Add one track per new id, each started from its (x_c, y_c, w, h)
    measurement row with zero velocity."""
    z = _measurements(measurements, len(ids))
    _require_distinct(ids)
    for tid in ids:
        if tid in bank:
            raise ValueError(f"track {tid!r} is already in the bank")
    bad = (z[:, 2] <= 0) | (z[:, 3] <= 0)
    if bad.any():
        w, h = z[int(np.argmax(bad)), 2:]
        raise ValueError(f"box dims must be positive, got w={w}, h={h}")
    means = np.zeros((len(ids), STATE_DIM))
    means[:, :MEAS_DIM] = z
    covs = np.zeros((len(ids), STATE_DIM, STATE_DIM))
    _diagonals(covs)[:] = _variances(
        z[:, 3], 2 * cfg.std_weight_position, 10 * cfg.std_weight_velocity
    )
    all_ids = bank.ids + tuple(ids)
    order = sorted(range(len(all_ids)), key=all_ids.__getitem__)
    return TrackBank(
        tuple(all_ids[i] for i in order),
        np.concatenate([bank.means, means])[order],
        np.concatenate([bank.covariances, covs])[order],
    )


def predict(
    bank: TrackBank,
    cfg: KalmanConfig,
    q_scale: Union[float, np.ndarray] = 1.0,
    zero_velocity: Union[bool, np.ndarray] = False,
) -> TrackBank:
    """One constant-velocity step of every track: advance the means,
    inflate the covariances.

    ``q_scale`` (a scalar or one value per row) scales the injected process
    noise; callers model stationary versus maneuvering entities with it.
    ``zero_velocity`` (likewise) clears a row's velocity before the
    transition, the usual treatment for elements believed not to move.
    """
    if not len(bank):
        return bank
    means = bank.means.copy()
    still = np.asarray(zero_velocity, dtype=bool)[..., None]
    means[:, MEAS_DIM:] = np.where(still, 0.0, means[:, MEAS_DIM:])
    q = _process_variances(means[:, 3], cfg) * np.asarray(q_scale, dtype=float)[..., None]
    # F x as a slice addition; F P F^T through the same BLAS call per matrix
    means[:, :MEAS_DIM] += means[:, MEAS_DIM:]
    covs = _F @ bank.covariances @ _F_T
    _diagonals(covs)[:] += q
    covs = _symmetrize(covs)
    _require_pd(covs, bank.ids)
    return TrackBank(bank.ids, means, covs)


def inflate_process_noise(
    bank: TrackBank, ids: Sequence[str], cfg: KalmanConfig, extra_scale: float
) -> TrackBank:
    """Add withheld process noise to already-predicted tracks.

    Used when patches are found to be moving only after the frame's predict
    has run: adding ``extra_scale`` times the height-scaled noise makes each
    covariance equal to what a predict with the larger scale would have
    produced.
    """
    if extra_scale <= 0 or not ids:
        return bank
    rows = bank.rows(ids)
    covs = bank.covariances[rows]
    _diagonals(covs)[:] += _process_variances(bank.means[rows, 3], cfg) * extra_scale
    covs = _symmetrize(covs)
    _require_pd(covs, ids)
    return bank._with_rows(rows, bank.means[rows], covs)


def update(
    bank: TrackBank, ids: Sequence[str], measurements: np.ndarray, cfg: KalmanConfig
) -> TrackBank:
    """Kalman update of each named track against its (x_c, y_c, w, h)
    measurement row; one batched solve for all gains."""
    z = _measurements(measurements, len(ids))
    if not ids:
        return bank
    rows = bank.rows(ids)
    mean = bank.means[rows]
    p = bank.covariances[rows]
    r = _MEAS_IDENTITY * measurement_variance(mean[:, 3], cfg)[:, None, None]
    # H selects the box coordinates: H P H^T + R and H P as slices
    s = p[:, :MEAS_DIM, :MEAS_DIM] + r
    try:
        gain_t = np.linalg.solve(s, p[:, :MEAS_DIM, :])
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is singular") from exc
    k = gain_t.swapaxes(-1, -2)
    innovation = z - mean[:, :MEAS_DIM]
    new_mean = mean + np.matmul(k, innovation[:, :, None])[:, :, 0]
    # I - K H: K H holds K in its first MEAS_DIM columns and zeros elsewhere
    ikh = np.repeat(_IDENTITY[None], len(ids), axis=0)
    ikh[:, :, :MEAS_DIM] -= k
    new_cov = _symmetrize(ikh @ p @ ikh.swapaxes(-1, -2) + k @ r @ gain_t)
    _require_pd(new_cov, ids)
    return bank._with_rows(rows, new_mean, new_cov)


def measurement_covariance(bank: TrackBank) -> np.ndarray:
    """Every track's state covariance projected into measurement space:
    the top-left 4x4 blocks, ``(n, 4, 4)``."""
    return bank.covariances[:, :MEAS_DIM, :MEAS_DIM].copy()
