"""Constant-velocity Kalman filtering of bounding boxes, all tracks at once.

The state follows the BoT-SORT eight-dimensional parameterization
(x_c, y_c, w, h, vx, vy, vw, vh); process and measurement noise scale with
the current box height. Only the filter itself lives here: association is
supplied externally by entity identity, never computed.

No matrix of the model couples two box coordinates: the transition adds
each velocity to its own position, the measurement reads the positions, and
the process noise, the measurement noise and the initial covariance are
diagonal. So each track's 8x8 covariance is four independent 2x2 blocks
``[[p_xx, p_xv], [p_xv, p_vv]]``, one per box coordinate, and the filter is
four textbook two-state filters per track.

Every live track sits in one :class:`TrackBank`: sorted ids, an ``(n, 8)``
array of means and an ``(n, 3, 4)`` array of blocks, holding ``p_xx``,
``p_xv`` and ``p_vv`` of the four coordinates. Each operation advances all of
its rows with elementwise IEEE ``+ - * /`` on those columns, so no BLAS,
LAPACK or transcendental sets a bit, and a row comes out bit for bit as the
one-track two-state filter gives it.

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
# the block entries a bank stores per box coordinate, in this order
BLOCK_ENTRIES = ("p_xx", "p_xv", "p_vv")


class NumericalError(RuntimeError):
    """Raised when a covariance stops being usable (not positive definite)."""


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

    ``blocks[i]`` holds track ``i``'s ``p_xx``, ``p_xv`` and ``p_vv``, one
    column per box coordinate. Arrays are owned and never mutated; every
    operation returns a new bank.
    """

    ids: Tuple[str, ...] = ()
    means: np.ndarray = field(default_factory=lambda: np.zeros((0, STATE_DIM)))
    blocks: np.ndarray = field(
        default_factory=lambda: np.zeros((0, len(BLOCK_ENTRIES), MEAS_DIM))
    )

    def __post_init__(self) -> None:
        n = len(self.ids)
        if self.means.shape != (n, STATE_DIM):
            raise ValueError(f"means must have shape ({n}, {STATE_DIM}), got {self.means.shape}")
        if self.blocks.shape != (n, len(BLOCK_ENTRIES), MEAS_DIM):
            raise ValueError(
                f"blocks must have shape ({n}, {len(BLOCK_ENTRIES)}, {MEAS_DIM}), "
                f"got {self.blocks.shape}"
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
        return TrackBank(tuple(self.ids[i] for i in keep), self.means[keep], self.blocks[keep])

    def _with_rows(self, rows: np.ndarray, means: np.ndarray, blocks: np.ndarray) -> "TrackBank":
        new_means = self.means.copy()
        new_means[rows] = means
        new_blocks = self.blocks.copy()
        new_blocks[rows] = blocks
        return TrackBank(self.ids, new_means, new_blocks)


def measurement_variance(heights: np.ndarray, cfg: KalmanConfig) -> np.ndarray:
    """Per-row variance of the diagonal, height-scaled measurement noise R:
    every one of the MEAS_DIM box coordinates has this variance."""
    return (cfg.std_weight_measurement * np.maximum(heights, 1.0)) ** 2


def _variances(heights: np.ndarray, position_weight: float, velocity_weight: float) -> np.ndarray:
    """``(n, 2)`` position and velocity variances: per-height std weights,
    squared. An integer weight runs as the float it equals, however large."""
    weights = np.array([position_weight, velocity_weight], dtype=float)
    return (heights[:, None] * weights) ** 2


def _process_variances(heights: np.ndarray, cfg: KalmanConfig) -> np.ndarray:
    """``(n, 2)`` position and velocity variances of the height-scaled
    process noise Q."""
    return _variances(np.maximum(heights, 1.0), cfg.std_weight_position, cfg.std_weight_velocity)


def _require_distinct(ids: Sequence[str]) -> None:
    seen = set()
    for tid in ids:
        if tid in seen:
            raise ValueError(f"track {tid!r} is named twice")
        seen.add(tid)


def _require_pd(blocks: np.ndarray, ids: Sequence[str]) -> None:
    """Cholesky's pivot test on every block: ``p_xx > 0`` and
    ``p_vv - p_xv^2 / p_xx > 0``, the second taken as
    ``p_vv - p_xv * (p_xv / p_xx)`` so that it does not overflow where
    ``p_xx * p_vv`` would. NaN and infinite pivots fail. Names the first
    track with a block that is not positive definite."""
    p_xx, p_xv, p_vv = blocks[:, 0], blocks[:, 1], blocks[:, 2]
    pivots = np.concatenate((p_xx, p_vv - p_xv * (p_xv / p_xx)), axis=1)
    ok = (pivots > 0.0) & (pivots < np.inf)
    if np.count_nonzero(ok) < ok.size:
        first = ids[int(np.argmin(ok.all(axis=1)))]
        raise NumericalError(f"covariance of track {first!r} lost positive definiteness")


def _measurements(measurements: np.ndarray, count: int) -> np.ndarray:
    z = np.asarray(measurements, dtype=float)
    if z.shape != (count, MEAS_DIM):
        raise ValueError(f"measurements must have shape ({count}, {MEAS_DIM}), got {z.shape}")
    return z


def init_track(
    bank: TrackBank, ids: Sequence[str], measurements: np.ndarray, cfg: KalmanConfig
) -> TrackBank:
    """Add one track per new id, each started from its (x_c, y_c, w, h)
    measurement row with zero velocity and uncorrelated variances."""
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
    blocks = np.zeros((len(ids), len(BLOCK_ENTRIES), MEAS_DIM))
    # p_xx and p_vv; p_xv starts at zero
    blocks[:, 0::2] = _variances(
        z[:, 3], 2 * cfg.std_weight_position, 10 * cfg.std_weight_velocity
    )[:, :, None]
    all_ids = bank.ids + tuple(ids)
    order = sorted(range(len(all_ids)), key=all_ids.__getitem__)
    return TrackBank(
        tuple(all_ids[i] for i in order),
        np.concatenate([bank.means, means])[order],
        np.concatenate([bank.blocks, blocks])[order],
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
    np.copyto(means[:, MEAS_DIM:], 0.0, where=np.asarray(zero_velocity, dtype=bool)[..., None])
    q = _process_variances(means[:, 3], cfg) * np.asarray(q_scale, dtype=float)[..., None]
    means[:, :MEAS_DIM] += means[:, MEAS_DIM:]
    # F = [[1, 1], [0, 1]] per coordinate, so F P F^T only adds and no
    # product rounds: p_xx + p_xv and p_xv + p_vv, then their sum
    blocks = bank.blocks.copy()
    blocks[:, :2] += bank.blocks[:, 1:]
    blocks[:, 0] += blocks[:, 1]
    blocks[:, 0::2] += q[:, :, None]
    _require_pd(blocks, bank.ids)
    return TrackBank(bank.ids, means, blocks)


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
    blocks = bank.blocks[rows]
    blocks[:, 0::2] += (_process_variances(bank.means[rows, 3], cfg) * extra_scale)[:, :, None]
    _require_pd(blocks, ids)
    return bank._with_rows(rows, bank.means[rows], blocks)


def update(
    bank: TrackBank, ids: Sequence[str], measurements: np.ndarray, cfg: KalmanConfig
) -> TrackBank:
    """Kalman update of each named track against its (x_c, y_c, w, h)
    measurement row.

    Per coordinate H = [1, 0], so S = p_xx + r and K = (p_xx, p_xv) / S, and
    ``I - K H`` is ``[[1 - k_x, 0], [-k_v, 1]]``. The Joseph products are
    written out entry by entry in the order of the 2x2 matrix products;
    the covariance keeps the lower triangle, its ``p_xv`` entry.
    """
    z = _measurements(measurements, len(ids))
    if not ids:
        return bank
    rows = bank.rows(ids)
    mean = bank.means[rows]
    blocks = bank.blocks[rows]
    p_xx, p_xv, p_vv = blocks[:, 0], blocks[:, 1], blocks[:, 2]
    r = measurement_variance(mean[:, 3], cfg)[:, None]
    # the gains (k_x, k_v) of every coordinate, as an (m, 2, 4) array
    gain = blocks[:, :2] / (p_xx + r)[:, None]
    k_x, k_v = gain[:, 0], gain[:, 1]
    innovation = z - mean[:, :MEAS_DIM]
    # the mean's positions and velocities, each moved by its gain
    moved = mean.reshape(-1, 2, MEAS_DIM)
    moved += gain * innovation[:, None]
    keep_x = 1.0 - k_x
    # the second row of (I - K H) P
    low = p_xv - k_v * p_xx
    high = p_vv - k_v * p_xv
    new_xx = keep_x * p_xx * keep_x + k_x * r * k_x
    new_xv = low * keep_x + k_v * r * k_x
    new_vv = high - low * k_v + k_v * r * k_v
    blocks[:, 0], blocks[:, 1], blocks[:, 2] = new_xx, new_xv, new_vv
    _require_pd(blocks, ids)
    return bank._with_rows(rows, mean, blocks)


def measurement_covariance(bank: TrackBank) -> np.ndarray:
    """Every track's state covariance projected into measurement space,
    ``(n, 4, 4)``: H reads the positions, so it is the diagonal matrix of the
    blocks' ``p_xx``."""
    n = len(bank)
    projected = np.zeros((n, MEAS_DIM * MEAS_DIM))
    projected[:, :: MEAS_DIM + 1] = bank.blocks[:, 0]
    return projected.reshape(n, MEAS_DIM, MEAS_DIM)
