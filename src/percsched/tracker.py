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

Every live track sits in one :class:`TrackBank`: sorted ids and five
columns, each a tuple with one row per track and each row a tuple of four
Python floats, one entry per box coordinate: the box ``x``, its velocities
``v``, and the block entries ``p_xx``, ``p_xv`` and ``p_vv``. A bank holds a
few tracks, so a numpy call on it would cost more than its arithmetic.
Each operation instead makes one pass over its rows in Python float
``+ - * /``, the same IEEE double operations numpy's elementwise loops
perform, so no BLAS, LAPACK or transcendental sets a bit, and a row comes
out bit for bit as the one-track two-state filter gives it. The passes
write the four coordinates of a row out one by one: on four entries,
indexing each costs less than a loop or a ``map``.

The four covariance blocks of each row a pass produces meet Cholesky's
pivot test before the pass moves on: ``p_xx > 0`` and
``p_vv - p_xv^2 / p_xx > 0``, the second taken as
``p_vv - p_xv * (p_xv / p_xx)`` so that it does not overflow where
``p_xx * p_vv`` would. NaN and infinite pivots fail, and the error names the
first track, in the order the operation takes them, whose block fails.

The covariance has one update form, Joseph's
``(I - K H) P (I - K H)^T + K R K^T``: a sum of two congruences, it stays
positive definite at noise weights where the shorter ``(I - K H) P`` loses
that to cancellation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .schema import Positive, PositiveCount, check_fields

STATE_DIM = 8
MEAS_DIM = 4
# a bank's columns, in constructor order, each one row of MEAS_DIM floats per track
COLUMNS = ("x", "v", "p_xx", "p_xv", "p_vv")

Row = Tuple[float, float, float, float]
Column = Tuple[Row, ...]
_ZEROS: Row = (0.0,) * MEAS_DIM
_INF = math.inf


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

    Row ``i`` of each column holds track ``i``'s entry for the four box
    coordinates: ``x`` the box ``(x_c, y_c, w, h)``, ``v`` its velocities,
    and ``p_xx``, ``p_xv``, ``p_vv`` the coordinates' 2x2 covariance blocks.
    The constructor takes each column as any ``(n, 4)`` array-like and
    stores it as a tuple of rows, each a tuple of four Python floats. Every
    operation returns a new bank, which shares the columns and rows it does
    not change.
    """

    ids: Tuple[str, ...] = ()
    x: Column = ()
    v: Column = ()
    p_xx: Column = ()
    p_xv: Column = ()
    p_vv: Column = ()

    def __post_init__(self) -> None:
        # a bank that an operation derives from a checked one skips this; see
        # _derived
        n = len(self.ids)
        for name in COLUMNS:
            column = np.asarray(getattr(self, name), dtype=float)
            if column.shape != (n, MEAS_DIM) and not (n == 0 and column.shape == (0,)):
                raise ValueError(f"{name} must have shape ({n}, {MEAS_DIM}), got {column.shape}")
            object.__setattr__(self, name, tuple(map(tuple, column.tolist())))
        if list(self.ids) != sorted(set(self.ids)):
            raise ValueError("track ids must be unique and sorted")

    @classmethod
    def _derived(
        cls, ids: Tuple[str, ...], x: Column, v: Column, p_xx: Column, p_xv: Column, p_vv: Column
    ) -> "TrackBank":
        """A bank that an operation derived from a checked bank: its ids are
        sorted and distinct, and each column a tuple of ``len(ids)`` rows of
        four Python floats, so they are not checked again. The fields go
        into the instance dict, where a frozen dataclass's ``__init__`` puts
        them."""
        bank = object.__new__(cls)
        bank.__dict__.update(ids=ids, x=x, v=v, p_xx=p_xx, p_xv=p_xv, p_vv=p_vv)
        return bank

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, entity_id: object) -> bool:
        return entity_id in self._row

    @functools.cached_property
    def _row(self) -> Dict[str, int]:
        return {tid: i for i, tid in enumerate(self.ids)}

    def rows(self, ids: Sequence[str]) -> Sequence[int]:
        """Row index of each id; the ids must be distinct members."""
        if tuple(ids) == self.ids:
            return range(len(ids))
        _require_distinct(ids)
        try:
            return [self._row[tid] for tid in ids]
        except KeyError as exc:
            raise ValueError(f"track {exc.args[0]!r} is not in the bank") from None

    def without(self, ids: Iterable[str]) -> "TrackBank":
        """The bank minus ``ids``; ids it does not hold are ignored."""
        gone = set(ids)
        keep = [i for i, tid in enumerate(self.ids) if tid not in gone]
        if len(keep) == len(self.ids):
            return self
        return TrackBank._derived(
            tuple(self.ids[i] for i in keep),
            *(tuple(getattr(self, name)[i] for i in keep) for name in COLUMNS),
        )


def measurement_variance(height: float, cfg: KalmanConfig) -> float:
    """Variance of the diagonal, height-scaled measurement noise R of a track
    whose box is ``height`` tall: every one of the MEAS_DIM box coordinates
    has this variance. ``max`` keeps a NaN height, as ``np.maximum`` does."""
    std = float(cfg.std_weight_measurement) * max(height, 1.0)
    return std * std


def _variances(height: float, position_weight: float, velocity_weight: float) -> Tuple[float, float]:
    """Position and velocity variances: per-height std weights, squared. An
    integer weight runs as the float it equals."""
    position = height * float(position_weight)
    velocity = height * float(velocity_weight)
    return position * position, velocity * velocity


def _process_variances(height: float, cfg: KalmanConfig) -> Tuple[float, float]:
    """Position and velocity variances of the height-scaled process noise Q."""
    return _variances(max(height, 1.0), cfg.std_weight_position, cfg.std_weight_velocity)


def _require_distinct(ids: Sequence[str]) -> None:
    seen = set()
    for tid in ids:
        if tid in seen:
            raise ValueError(f"track {tid!r} is named twice")
        seen.add(tid)


def _require_pd(tid: str, p_xx: Row, p_xv: Row, p_vv: Row) -> None:
    """Cholesky's pivot test on the four blocks of track ``tid``'s new row.
    The conditions run in order and stop at the first that fails, so
    ``p_xv / p_xx`` is taken only where ``p_xx`` is positive, and an
    overflow or an invalid operation on the way gives an infinity or a NaN
    that fails the test."""
    xx0, xx1, xx2, xx3 = p_xx
    xv0, xv1, xv2, xv3 = p_xv
    vv0, vv1, vv2, vv3 = p_vv
    if not (
        0.0 < xx0 < _INF and 0.0 < vv0 - xv0 * (xv0 / xx0) < _INF
        and 0.0 < xx1 < _INF and 0.0 < vv1 - xv1 * (xv1 / xx1) < _INF
        and 0.0 < xx2 < _INF and 0.0 < vv2 - xv2 * (xv2 / xx2) < _INF
        and 0.0 < xx3 < _INF and 0.0 < vv3 - xv3 * (xv3 / xx3) < _INF
    ):
        raise NumericalError(f"covariance of track {tid!r} lost positive definiteness")


def _one_per_row(value: object, count: int, name: str, what: str) -> List[float]:
    """``value``, a scalar or a sequence of ``count`` scalars, as one Python
    float per row; a flag becomes 1.0 or 0.0."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        return [float(value)] * count
    if len(value) == count:
        try:
            return list(map(float, value))
        except TypeError:  # a nested sequence
            pass
    raise ValueError(f"{name} must be {what} or one per row, got shape {np.shape(value)}")


def _measurements(measurements: np.ndarray, ids: Sequence[str]) -> List[List[float]]:
    """One finite ``(x_c, y_c, w, h)`` row of Python floats per id."""
    z = np.asarray(measurements, dtype=float)
    if z.shape != (len(ids), MEAS_DIM):
        raise ValueError(f"measurements must have shape ({len(ids)}, {MEAS_DIM}), got {z.shape}")
    rows = z.tolist()
    for tid, row in zip(ids, rows):
        if not all(map(math.isfinite, row)):
            raise ValueError(f"measurement of track {tid!r} must be finite, got {row}")
    return rows


def init_track(
    bank: TrackBank, ids: Sequence[str], measurements: np.ndarray, cfg: KalmanConfig
) -> TrackBank:
    """Add one track per new id, each started from its (x_c, y_c, w, h)
    measurement row with zero velocity and uncorrelated variances."""
    z = _measurements(measurements, ids)
    _require_distinct(ids)
    for tid in ids:
        if tid in bank:
            raise ValueError(f"track {tid!r} is already in the bank")
    x, p_xx, p_vv = [], [], []
    for box in z:
        w, h = box[2], box[3]
        if w <= 0 or h <= 0:
            raise ValueError(f"box dims must be positive, got w={w}, h={h}")
        position, velocity = _variances(h, 2 * cfg.std_weight_position, 10 * cfg.std_weight_velocity)
        x.append(tuple(box))
        p_xx.append((position,) * MEAS_DIM)
        p_vv.append((velocity,) * MEAS_DIM)
    # velocity and p_xv start at zero
    zeros = [_ZEROS] * len(ids)
    added = (x, zeros, p_xx, zeros, p_vv)
    all_ids = bank.ids + tuple(ids)
    order = sorted(range(len(all_ids)), key=all_ids.__getitem__)
    columns = [getattr(bank, name) + tuple(new) for name, new in zip(COLUMNS, added)]
    return TrackBank._derived(
        tuple(all_ids[i] for i in order),
        *(tuple(column[i] for i in order) for column in columns),
    )


def predict(
    bank: TrackBank,
    cfg: KalmanConfig,
    q_scale: Union[float, Sequence[float]] = 1.0,
    zero_velocity: Union[bool, Sequence[bool]] = False,
) -> TrackBank:
    """One constant-velocity step of every track: advance the means,
    inflate the covariances.

    ``q_scale`` (a scalar or one value per row) scales the injected process
    noise; callers model stationary versus maneuvering entities with it.
    ``zero_velocity`` (likewise) clears a row's velocity before the
    transition, the usual treatment for elements believed not to move.
    """
    n = len(bank)
    if not n:
        return bank
    scales = _one_per_row(q_scale, n, "q_scale", "one value")
    stills = _one_per_row(zero_velocity, n, "zero_velocity", "one flag")
    x_out, v_out, xx_out, xv_out, vv_out = [], [], [], [], []
    for tid, x, v, xx, xv, vv, scale, still in zip(
        bank.ids, bank.x, bank.v, bank.p_xx, bank.p_xv, bank.p_vv, scales, stills
    ):
        position, velocity = _process_variances(x[3], cfg)
        q_x = position * scale
        q_v = velocity * scale
        # F = [[1, 1], [0, 1]] per coordinate, so F P F^T only adds and no
        # product rounds: p_xx + p_xv and p_xv + p_vv, then their sum
        xv_new = (xv[0] + vv[0], xv[1] + vv[1], xv[2] + vv[2], xv[3] + vv[3])
        xx_new = (
            xx[0] + xv[0] + xv_new[0] + q_x,
            xx[1] + xv[1] + xv_new[1] + q_x,
            xx[2] + xv[2] + xv_new[2] + q_x,
            xx[3] + xv[3] + xv_new[3] + q_x,
        )
        vv_new = (vv[0] + q_v, vv[1] + q_v, vv[2] + q_v, vv[3] + q_v)
        _require_pd(tid, xx_new, xv_new, vv_new)
        if still:
            v = _ZEROS
        x_out.append((x[0] + v[0], x[1] + v[1], x[2] + v[2], x[3] + v[3]))
        v_out.append(v)
        xx_out.append(xx_new)
        xv_out.append(xv_new)
        vv_out.append(vv_new)
    return TrackBank._derived(
        bank.ids, tuple(x_out), tuple(v_out), tuple(xx_out), tuple(xv_out), tuple(vv_out)
    )


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
    extra = float(extra_scale)
    p_xx, p_vv = list(bank.p_xx), list(bank.p_vv)
    for tid, i in zip(ids, bank.rows(ids)):
        position, velocity = _process_variances(bank.x[i][3], cfg)
        q_x = position * extra
        q_v = velocity * extra
        xx, vv = p_xx[i], p_vv[i]
        p_xx[i] = (xx[0] + q_x, xx[1] + q_x, xx[2] + q_x, xx[3] + q_x)
        p_vv[i] = (vv[0] + q_v, vv[1] + q_v, vv[2] + q_v, vv[3] + q_v)
        _require_pd(tid, p_xx[i], bank.p_xv[i], p_vv[i])
    return TrackBank._derived(bank.ids, bank.x, bank.v, tuple(p_xx), bank.p_xv, tuple(p_vv))


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
    z = _measurements(measurements, ids)
    if not ids:
        return bank
    x, v, p_xx, p_xv, p_vv = columns = [list(getattr(bank, name)) for name in COLUMNS]
    for tid, i, (z0, z1, z2, z3) in zip(ids, bank.rows(ids), z):
        x0, x1, x2, x3 = x[i]
        v0, v1, v2, v3 = v[i]
        xx0, xx1, xx2, xx3 = p_xx[i]
        xv0, xv1, xv2, xv3 = p_xv[i]
        vv0, vv1, vv2, vv3 = p_vv[i]
        r = measurement_variance(x3, cfg)
        s0, s1, s2, s3 = xx0 + r, xx1 + r, xx2 + r, xx3 + r
        if not (s0 and s1 and s2 and s3):
            # IEEE division would make a gain, and so the new p_xx, NaN,
            # which fails the pivot test; Python's division raises instead
            raise NumericalError(f"covariance of track {tid!r} lost positive definiteness")
        kx0, kx1, kx2, kx3 = xx0 / s0, xx1 / s1, xx2 / s2, xx3 / s3
        kv0, kv1, kv2, kv3 = xv0 / s0, xv1 / s1, xv2 / s2, xv3 / s3
        # the innovations, and 1 - k_x
        in0, in1, in2, in3 = z0 - x0, z1 - x1, z2 - x2, z3 - x3
        kk0, kk1, kk2, kk3 = 1.0 - kx0, 1.0 - kx1, 1.0 - kx2, 1.0 - kx3
        # the second row of (I - K H) P: its p_xv and p_vv entries
        lo0, lo1, lo2, lo3 = xv0 - kv0 * xx0, xv1 - kv1 * xx1, xv2 - kv2 * xx2, xv3 - kv3 * xx3
        hi0, hi1, hi2, hi3 = vv0 - kv0 * xv0, vv1 - kv1 * xv1, vv2 - kv2 * xv2, vv3 - kv3 * xv3
        x[i] = (x0 + kx0 * in0, x1 + kx1 * in1, x2 + kx2 * in2, x3 + kx3 * in3)
        v[i] = (v0 + kv0 * in0, v1 + kv1 * in1, v2 + kv2 * in2, v3 + kv3 * in3)
        p_xx[i] = (
            kk0 * xx0 * kk0 + kx0 * r * kx0,
            kk1 * xx1 * kk1 + kx1 * r * kx1,
            kk2 * xx2 * kk2 + kx2 * r * kx2,
            kk3 * xx3 * kk3 + kx3 * r * kx3,
        )
        p_xv[i] = (
            lo0 * kk0 + kv0 * r * kx0,
            lo1 * kk1 + kv1 * r * kx1,
            lo2 * kk2 + kv2 * r * kx2,
            lo3 * kk3 + kv3 * r * kx3,
        )
        p_vv[i] = (
            hi0 - lo0 * kv0 + kv0 * r * kv0,
            hi1 - lo1 * kv1 + kv1 * r * kv1,
            hi2 - lo2 * kv2 + kv2 * r * kv2,
            hi3 - lo3 * kv3 + kv3 * r * kv3,
        )
        _require_pd(tid, p_xx[i], p_xv[i], p_vv[i])
    return TrackBank._derived(bank.ids, *map(tuple, columns))


def measurement_covariance(bank: TrackBank) -> np.ndarray:
    """Every track's state covariance projected into measurement space,
    ``(n, 4, 4)``: H reads the positions, so it is the diagonal matrix of
    ``p_xx``."""
    n = len(bank)
    projected = np.zeros((n, MEAS_DIM * MEAS_DIM))
    if n:
        projected[:, :: MEAS_DIM + 1] = bank.p_xx
    return projected.reshape(n, MEAS_DIM, MEAS_DIM)
