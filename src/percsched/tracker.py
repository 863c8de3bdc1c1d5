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
C-contiguous ``(n, 4)`` float columns, one entry per box coordinate: the box
``x``, its velocities ``v``, and the block entries ``p_xx``, ``p_xv`` and
``p_vv``. The columns are separate arrays because the banks are small (a few
tracks), so per-call numpy overhead dominates, and a ufunc on a contiguous
column costs about half what it costs on a strided slice of a wider array.
Each operation advances all of its rows with elementwise IEEE ``+ - * /`` on
those columns, so no BLAS, LAPACK or transcendental sets a bit, and a row
comes out bit for bit as the one-track two-state filter gives it.

The covariance has one update form, Joseph's
``(I - K H) P (I - K H)^T + K R K^T``: a sum of two congruences, it stays
positive definite at noise weights where the shorter ``(I - K H) P`` loses
that to cancellation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple, Union

import numpy as np

from .schema import Positive, PositiveCount, check_fields

STATE_DIM = 8
MEAS_DIM = 4
# a bank's columns, in constructor order, each (n, MEAS_DIM)
COLUMNS = ("x", "v", "p_xx", "p_xv", "p_vv")


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


def _empty_column() -> np.ndarray:
    return np.zeros((0, MEAS_DIM))


@dataclass(frozen=True, eq=False)
class TrackBank:
    """Filter state of every live track, one row per id in sorted id order.

    Row ``i`` of each ``(n, 4)`` column holds track ``i``'s entry for the
    four box coordinates: ``x`` the box ``(x_c, y_c, w, h)``, ``v`` its
    velocities, and ``p_xx``, ``p_xv``, ``p_vv`` the coordinates' 2x2
    covariance blocks. Each is its own C-contiguous float64 array, so that
    the elementwise steps never run on a strided slice. Arrays are owned and
    never mutated; every operation returns a new bank, which may share the
    columns it does not change.
    """

    ids: Tuple[str, ...] = ()
    x: np.ndarray = field(default_factory=_empty_column)
    v: np.ndarray = field(default_factory=_empty_column)
    p_xx: np.ndarray = field(default_factory=_empty_column)
    p_xv: np.ndarray = field(default_factory=_empty_column)
    p_vv: np.ndarray = field(default_factory=_empty_column)

    def __post_init__(self) -> None:
        # a bank that an operation derives from a checked one skips this; see
        # _derived
        n = len(self.ids)
        for name in COLUMNS:
            shape = getattr(self, name).shape
            if shape != (n, MEAS_DIM):
                raise ValueError(f"{name} must have shape ({n}, {MEAS_DIM}), got {shape}")
        if list(self.ids) != sorted(set(self.ids)):
            raise ValueError("track ids must be unique and sorted")

    @classmethod
    def _derived(
        cls, ids: Tuple[str, ...], x: np.ndarray, v: np.ndarray,
        p_xx: np.ndarray, p_xv: np.ndarray, p_vv: np.ndarray,
    ) -> "TrackBank":
        """A bank that an operation derived from a checked bank: its ids are
        that bank's own tuple, and each column an ``(n, 4)`` result of
        elementwise steps on its columns, so they are not checked again.
        The fields go into the instance dict, where a frozen dataclass's
        ``__init__`` puts them."""
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

    def rows(self, ids: Sequence[str]) -> Union[slice, np.ndarray]:
        """Row index of each id; the ids must be distinct members. Ids that
        are the bank's own, in row order, give the slice of every row, so
        that indexing a column with it gives a view instead of a copy."""
        if tuple(ids) == self.ids:
            return slice(None)
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
            tuple(self.ids[i] for i in keep), *(getattr(self, name)[keep] for name in COLUMNS)
        )

    def _with_rows(self, rows: Union[slice, np.ndarray], **changed: np.ndarray) -> "TrackBank":
        """The bank with ``rows`` (from :meth:`rows`) of each named column
        set to the given new arrays; with every row, the arrays themselves
        become the columns."""
        columns = {name: changed.get(name, getattr(self, name)) for name in COLUMNS}
        if not isinstance(rows, slice):
            for name, values in changed.items():
                columns[name] = getattr(self, name).copy()
                columns[name][rows] = values
        return TrackBank._derived(self.ids, **columns)


def measurement_variance(heights: np.ndarray, cfg: KalmanConfig) -> np.ndarray:
    """Per-row variance of the diagonal, height-scaled measurement noise R:
    every one of the MEAS_DIM box coordinates has this variance."""
    std = cfg.std_weight_measurement * np.maximum(heights, 1.0)
    return std * std


def _variances(
    heights: np.ndarray, position_weight: float, velocity_weight: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Position and velocity variances, each shaped like ``heights``:
    per-height std weights, squared. An integer weight runs as the float it
    equals, however large."""
    position = heights * float(position_weight)
    velocity = heights * float(velocity_weight)
    return position * position, velocity * velocity


def _process_variances(heights: np.ndarray, cfg: KalmanConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Position and velocity variances of the height-scaled process noise Q."""
    return _variances(np.maximum(heights, 1.0), cfg.std_weight_position, cfg.std_weight_velocity)


def _require_distinct(ids: Sequence[str]) -> None:
    seen = set()
    for tid in ids:
        if tid in seen:
            raise ValueError(f"track {tid!r} is named twice")
        seen.add(tid)


def _require_pd(p_xx: np.ndarray, p_xv: np.ndarray, p_vv: np.ndarray, ids: Sequence[str]) -> None:
    """Cholesky's pivot test on every block: ``p_xx > 0`` and
    ``p_vv - p_xv^2 / p_xx > 0``, the second taken as
    ``p_vv - p_xv * (p_xv / p_xx)`` so that it does not overflow where
    ``p_xx * p_vv`` would. NaN and infinite pivots fail. Names the first
    track (in ``ids`` order) with a block that is not positive definite.

    The blocks are tested as Python floats, one IEEE operation at a time as
    numpy would take them: an overflow or an invalid operation on a block
    that fails then gives an infinity or a NaN and no numpy warning, and on
    a bank of a few tracks the loop costs less than the ufunc calls."""
    blocks = zip(p_xx.ravel().tolist(), p_xv.ravel().tolist(), p_vv.ravel().tolist())
    for lane, (xx, xv, vv) in enumerate(blocks):
        if not (0.0 < xx < math.inf and 0.0 < vv - xv * (xv / xx) < math.inf):
            raise NumericalError(
                f"covariance of track {ids[lane // MEAS_DIM]!r} lost positive definiteness"
            )


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
    shape = (len(ids), MEAS_DIM)
    position, velocity = _variances(
        z[:, 3:], 2 * cfg.std_weight_position, 10 * cfg.std_weight_velocity
    )
    # velocity and p_xv start at zero
    added = (
        z, np.zeros(shape), np.broadcast_to(position, shape), np.zeros(shape),
        np.broadcast_to(velocity, shape),
    )
    all_ids = bank.ids + tuple(ids)
    order = sorted(range(len(all_ids)), key=all_ids.__getitem__)
    return TrackBank(
        tuple(all_ids[i] for i in order),
        *(np.concatenate([getattr(bank, name), new])[order] for name, new in zip(COLUMNS, added)),
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
    v = np.where(np.asarray(zero_velocity, dtype=bool)[..., None], 0.0, bank.v)
    if v.shape != bank.v.shape:  # the derived bank's shapes go unchecked
        raise ValueError(
            f"zero_velocity must be one flag or one per row, got shape {np.shape(zero_velocity)}"
        )
    position, velocity = _process_variances(bank.x[:, 3:], cfg)
    scale = np.asarray(q_scale, dtype=float)[..., None]
    # F = [[1, 1], [0, 1]] per coordinate, so F P F^T only adds and no
    # product rounds: p_xx + p_xv and p_xv + p_vv, then their sum
    p_xv = bank.p_xv + bank.p_vv
    p_xx = bank.p_xx + bank.p_xv
    p_xx += p_xv
    p_xx += position * scale
    p_vv = bank.p_vv + velocity * scale
    _require_pd(p_xx, p_xv, p_vv, bank.ids)
    return TrackBank._derived(bank.ids, bank.x + v, v, p_xx, p_xv, p_vv)


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
    position, velocity = _process_variances(bank.x[rows, 3:], cfg)
    p_xx = bank.p_xx[rows] + position * extra_scale
    p_vv = bank.p_vv[rows] + velocity * extra_scale
    _require_pd(p_xx, bank.p_xv[rows], p_vv, ids)
    return bank._with_rows(rows, p_xx=p_xx, p_vv=p_vv)


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
    x, v = bank.x[rows], bank.v[rows]
    p_xx, p_xv, p_vv = bank.p_xx[rows], bank.p_xv[rows], bank.p_vv[rows]
    r = measurement_variance(x[:, 3:], cfg)
    s = p_xx + r
    k_x = p_xx / s
    k_v = p_xv / s
    # the positions and velocities, each moved by its gain; x and v may be
    # views of the bank's columns, so they are not written
    innovation = z - x
    x = x + k_x * innovation
    v = v + k_v * innovation
    keep_x = 1.0 - k_x
    # the second row of (I - K H) P
    low = p_xv - k_v * p_xx
    high = p_vv - k_v * p_xv
    new_xx = keep_x * p_xx * keep_x + k_x * r * k_x
    new_xv = low * keep_x + k_v * r * k_x
    new_vv = high - low * k_v + k_v * r * k_v
    _require_pd(new_xx, new_xv, new_vv, ids)
    return bank._with_rows(rows, x=x, v=v, p_xx=new_xx, p_xv=new_xv, p_vv=new_vv)


def measurement_covariance(bank: TrackBank) -> np.ndarray:
    """Every track's state covariance projected into measurement space,
    ``(n, 4, 4)``: H reads the positions, so it is the diagonal matrix of
    ``p_xx``."""
    n = len(bank)
    projected = np.zeros((n, MEAS_DIM * MEAS_DIM))
    projected[:, :: MEAS_DIM + 1] = bank.p_xx
    return projected.reshape(n, MEAS_DIM, MEAS_DIM)
