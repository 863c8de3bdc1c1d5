"""Reference implementations that the tests check the library against, the
one trace comparison they share, a run-log comparison that names where two
logs first differ, and a config built past its checks."""

import json
import math
import zlib
from dataclasses import dataclass, fields
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from percsched.change_detect import REC601_LUMA, ChangeDetectConfig
from percsched.engine import FrameRecord, RunLog
from percsched.rewards import (
    CONFIDENCE_FLOOR,
    LN_TWO_PI_E,
    SIGMA_FLOOR,
    RewardBreakdown,
    RewardConfig,
    sigma_table,
)
from percsched.scene import (
    DETECTION,
    FALSE_POSITIVE_PREFIX,
    POSE,
    EntityKind,
    ModuleId,
    PatchRegion,
)
from percsched.toolkit import NoiseConfig
from percsched.tracker import MEAS_DIM, STATE_DIM, KalmanConfig, NumericalError, TrackBank
from percsched.traces import ChangeStats, Trace, TraceFrame, TraceHeader, frame_from_dict


def unchecked(cls: type, **changes: object) -> object:
    """The frozen config ``cls`` at its defaults with ``changes`` set past
    its field checks: a value outside a field's interval, for a test of a
    kernel's guard or of where the interval was set."""
    obj = cls()
    for name, value in changes.items():
        getattr(obj, name)  # an unknown field raises
        object.__setattr__(obj, name, value)
    return obj


# ---------------------------------------------------------------------------
# the one-track Kalman filter: four textbook two-state filters, one per box
# coordinate. The bank must equal it row for row, bit for bit.
# ---------------------------------------------------------------------------

Matrix2 = List[List[float]]


@dataclass(frozen=True)
class TrackState:
    """Filter state for one box: the (8,) mean and the (3, 4) blocks, the
    ``p_xx``, ``p_xv`` and ``p_vv`` of each coordinate's 2x2 covariance.
    Arrays are owned and never mutated."""

    mean: np.ndarray
    blocks: np.ndarray
    entity_id: str = ""

    def __post_init__(self) -> None:
        if self.mean.shape != (STATE_DIM,):
            raise ValueError(f"mean must have shape ({STATE_DIM},), got {self.mean.shape}")
        if self.blocks.shape != (3, MEAS_DIM):
            raise ValueError(f"blocks must have shape (3, {MEAS_DIM}), got {self.blocks.shape}")


def _matmul2(a: Matrix2, b: Matrix2) -> Matrix2:
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


def _add2(a: Matrix2, b: Matrix2) -> Matrix2:
    return [[a[i][j] + b[i][j] for j in range(2)] for i in range(2)]


def _transpose2(a: Matrix2) -> Matrix2:
    return [[a[0][0], a[1][0]], [a[0][1], a[1][1]]]


_F2 = [[1.0, 1.0], [0.0, 1.0]]
_H2 = [1.0, 0.0]
_I2 = [[1.0, 0.0], [0.0, 1.0]]


def _coordinates(track: TrackState) -> List[Tuple[float, float, Matrix2]]:
    """``(x, v, P)`` of each box coordinate, P a 2x2 nested list."""
    mean = track.mean.tolist()
    p_xx, p_xv, p_vv = track.blocks.tolist()
    return [
        (mean[i], mean[MEAS_DIM + i], [[p_xx[i], p_xv[i]], [p_xv[i], p_vv[i]]])
        for i in range(MEAS_DIM)
    ]


def _track(coordinates: Sequence[Tuple[float, float, Matrix2]], entity_id: str) -> TrackState:
    """The track holding ``(x, v, P)`` per coordinate; a covariance keeps its
    lower triangle."""
    mean = [x for x, _, _ in coordinates] + [v for _, v, _ in coordinates]
    blocks = [[p[0][0] for _, _, p in coordinates], [p[1][0] for _, _, p in coordinates],
              [p[1][1] for _, _, p in coordinates]]
    for _, _, p in coordinates:
        _require_pd(p, entity_id)
    return TrackState(mean=np.array(mean), blocks=np.array(blocks), entity_id=entity_id)


def _require_pd(p: Matrix2, entity_id: str) -> None:
    """A 2x2 Cholesky factorization that fails on a non-positive or
    non-finite pivot."""
    a, b, c = p[0][0], p[1][0], p[1][1]
    ok = all(math.isfinite(e) for e in (a, b, c)) and a > 0.0
    if ok:
        l21 = b / math.sqrt(a)
        ok = c - l21 * l21 > 0.0
    if not ok:
        raise NumericalError(f"covariance of track {entity_id!r} lost positive definiteness")


def bank_of(tracks: Sequence[TrackState]) -> TrackBank:
    """The bank holding ``tracks``, rows in entity-id order. A bank stores
    one block per track, so each track's four coordinate blocks must be
    bitwise equal; the bank takes the first."""
    ordered = sorted(tracks, key=lambda t: t.entity_id)
    for t in ordered:
        columns = {t.blocks[:, i].tobytes() for i in range(MEAS_DIM)}
        assert len(columns) == 1, f"track {t.entity_id!r} has unequal coordinate blocks"
    means = np.array([t.mean for t in ordered]).reshape(-1, STATE_DIM)
    blocks = np.array([t.blocks[:, 0] for t in ordered]).reshape(-1, 3)
    return TrackBank(
        tuple(t.entity_id for t in ordered),
        np.ascontiguousarray(means[:, :MEAS_DIM]),
        np.ascontiguousarray(means[:, MEAS_DIM:]),
        *(np.ascontiguousarray(blocks[:, i]) for i in range(3)),
    )


def random_pd_block(rng: np.random.Generator, scale: float = 1.0, ridge: float = 1.0) -> np.ndarray:
    """(3, 4) blocks of one random positive-definite 2x2 covariance
    ``a a^T + ridge I``, ``a`` standard normal times ``scale``, shared by all
    four coordinates, as every block the filter reaches is."""
    a = rng.normal(size=(2, 2)) * scale
    cov = a @ a.T + np.eye(2) * ridge
    return np.repeat([[cov[0, 0]], [cov[1, 0]], [cov[1, 1]]], MEAS_DIM, axis=1)


def bank_and_relevance(
    pairs: Sequence[Tuple[TrackState, float]]
) -> Tuple[TrackBank, list]:
    """The bank of the paired tracks and their relevances in its row order."""
    bank = bank_of([track for track, _ in pairs])
    by_id = {track.entity_id: relevance for track, relevance in pairs}
    return bank, [by_id[tid] for tid in bank.ids]


def _square(x: float) -> float:
    return x * x


def measurement_variance(height: float, cfg: KalmanConfig) -> float:
    """Variance of each coordinate's height-scaled measurement noise."""
    return _square(cfg.std_weight_measurement * max(float(height), 1.0))


def init_track(measurement: np.ndarray, cfg: KalmanConfig, entity_id: str = "") -> TrackState:
    """Start a track from one (x_c, y_c, w, h) measurement with zero velocity."""
    z = np.asarray(measurement, dtype=float)
    if z.shape != (MEAS_DIM,):
        raise ValueError(f"measurement must have shape ({MEAS_DIM},), got {z.shape}")
    if z[2] <= 0 or z[3] <= 0:
        raise ValueError(f"box dims must be positive, got w={z[2]}, h={z[3]}")
    h = float(z[3])
    p_xx = _square(h * (2 * cfg.std_weight_position))
    p_vv = _square(h * (10 * cfg.std_weight_velocity))
    return _track([(x, 0.0, [[p_xx, 0.0], [0.0, p_vv]]) for x in z.tolist()], entity_id)


def _process_noise(height: float, cfg: KalmanConfig, scale: float) -> Matrix2:
    """Q of one coordinate: height-scaled, times ``scale``."""
    h = max(float(height), 1.0)
    q_x = _square(h * cfg.std_weight_position) * scale
    q_v = _square(h * cfg.std_weight_velocity) * scale
    return [[q_x, 0.0], [0.0, q_v]]


def predict(
    track: TrackState,
    cfg: KalmanConfig,
    q_scale: float = 1.0,
    zero_velocity: bool = False,
) -> TrackState:
    """One constant-velocity step per coordinate: x' = F x, P' = F P F^T + Q."""
    q = _process_noise(track.mean[3], cfg, q_scale)
    out = []
    for x, v, p in _coordinates(track):
        if zero_velocity:
            v = 0.0
        out.append((x + v, v, _add2(_matmul2(_matmul2(_F2, p), _transpose2(_F2)), q)))
    return _track(out, track.entity_id)


def inflate_process_noise(track: TrackState, cfg: KalmanConfig, extra_scale: float) -> TrackState:
    """Add ``extra_scale`` times the height-scaled process noise."""
    if extra_scale <= 0:
        return track
    q = _process_noise(track.mean[3], cfg, extra_scale)
    return _track([(x, v, _add2(p, q)) for x, v, p in _coordinates(track)], track.entity_id)


def update(track: TrackState, measurement: np.ndarray, cfg: KalmanConfig) -> TrackState:
    """Kalman update of each coordinate against its entry of an
    (x_c, y_c, w, h) measurement, H = [1, 0], with the covariance in Joseph
    form ``(I - K H) P (I - K H)^T + K r K^T``."""
    z = np.asarray(measurement, dtype=float)
    if z.shape != (MEAS_DIM,):
        raise ValueError(f"measurement must have shape ({MEAS_DIM},), got {z.shape}")
    r = measurement_variance(track.mean[3], cfg)
    out = []
    for (x, v, p), z_i in zip(_coordinates(track), z.tolist()):
        s = p[0][0] + r
        k = [p[0][0] / s, p[1][0] / s]
        innovation = z_i - x
        ikh = [[_I2[i][j] - k[i] * _H2[j] for j in range(2)] for i in range(2)]
        krk = [[k[i] * r * k[j] for j in range(2)] for i in range(2)]
        joseph = _add2(_matmul2(_matmul2(ikh, p), _transpose2(ikh)), krk)
        out.append((x + k[0] * innovation, v + k[1] * innovation, joseph))
    return _track(out, track.entity_id)


def measurement_covariance(track: TrackState) -> np.ndarray:
    """The state covariance projected into measurement space: diagonal,
    each coordinate's ``p_xx``."""
    return np.diag(track.blocks[0])


def per_track_detection_info_gain(
    tracks: Sequence[Tuple[TrackState, float]], kalman_cfg: KalmanConfig
) -> float:
    """:func:`percsched.rewards.detection_info_gain` one track and one
    coordinate at a time: ``0.5 * relevance * sum_i ln(p_xx_i / r)``."""
    total = 0.0
    for track, relevance in tracks:
        if relevance == 0.0:
            continue
        r = measurement_variance(track.mean[3], kalman_cfg)
        log_ratio = 0.0
        for p_xx in track.blocks[0].tolist():
            if not 0.0 < p_xx < math.inf:
                raise NumericalError(
                    f"projected covariance for track {track.entity_id!r} is not positive definite"
                )
            log_ratio += math.log(p_xx / r)
        total += 0.5 * relevance * log_ratio
    return total


# ---------------------------------------------------------------------------
# the same filter with 8x8 matrices, as SORT and BoT-SORT write it; the
# two-state filters must agree with it to rounding on block-form states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullTrackState:
    """Filter state for one box with an 8x8 covariance."""

    mean: np.ndarray
    covariance: np.ndarray
    entity_id: str = ""


_F = np.eye(STATE_DIM)
_F[:MEAS_DIM, MEAS_DIM:] = np.eye(MEAS_DIM)
_H = np.zeros((MEAS_DIM, STATE_DIM))
_H[:, :MEAS_DIM] = np.eye(MEAS_DIM)


def full_covariance(blocks: np.ndarray) -> np.ndarray:
    """The 8x8 covariance whose 2x2 coordinate blocks are ``blocks``, (3, 4)."""
    p_xx, p_xv, p_vv = np.asarray(blocks, dtype=float)
    return np.block([[np.diag(p_xx), np.diag(p_xv)], [np.diag(p_xv), np.diag(p_vv)]])


def to_full(track: TrackState) -> FullTrackState:
    return FullTrackState(track.mean.copy(), full_covariance(track.blocks), track.entity_id)


def process_noise(height: float, cfg: KalmanConfig) -> np.ndarray:
    """Diagonal 8x8 process noise scaled by the current box height."""
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


def full_predict(
    track: FullTrackState, cfg: KalmanConfig, q_scale: float = 1.0, zero_velocity: bool = False
) -> FullTrackState:
    mean = track.mean.copy()
    if zero_velocity:
        mean[MEAS_DIM:] = 0.0
    q = process_noise(mean[3], cfg) * q_scale
    new_cov = _symmetrize(_F @ track.covariance @ _F.T + q)
    _require_full_pd(new_cov, track.entity_id)
    return FullTrackState(_F @ mean, new_cov, track.entity_id)


def full_inflate_process_noise(
    track: FullTrackState, cfg: KalmanConfig, extra_scale: float
) -> FullTrackState:
    if extra_scale <= 0:
        return track
    new_cov = _symmetrize(track.covariance + process_noise(track.mean[3], cfg) * extra_scale)
    _require_full_pd(new_cov, track.entity_id)
    return FullTrackState(track.mean.copy(), new_cov, track.entity_id)


def full_update(track: FullTrackState, measurement: np.ndarray, cfg: KalmanConfig) -> FullTrackState:
    """Kalman update with an LU-solved gain and the Joseph-form covariance."""
    z = np.asarray(measurement, dtype=float)
    r = measurement_noise(track.mean[3], cfg)
    p = track.covariance
    s = _H @ p @ _H.T + r
    k = np.linalg.solve(s, (_H @ p)).T
    new_mean = track.mean + k @ (z - _H @ track.mean)
    ikh = np.eye(STATE_DIM) - k @ _H
    new_cov = _symmetrize(ikh @ p @ ikh.T + k @ r @ k.T)
    _require_full_pd(new_cov, track.entity_id)
    return FullTrackState(new_mean, new_cov, track.entity_id)


def full_detection_info_gain(track: FullTrackState, kalman_cfg: KalmanConfig) -> float:
    """One track's unit-relevance detection gain from ``slogdet`` of its
    projected covariance and of R."""
    sign, logdet_p = np.linalg.slogdet(_H @ track.covariance @ _H.T)
    if sign <= 0:
        raise NumericalError(f"projected covariance for track {track.entity_id!r} is not positive definite")
    _, logdet_r = np.linalg.slogdet(measurement_noise(track.mean[3], kalman_cfg))
    return 0.5 * (float(logdet_p) - float(logdet_r))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _require_full_pd(cov: np.ndarray, entity_id: str) -> None:
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"covariance of track {entity_id!r} lost positive definiteness"
        ) from exc


# ---------------------------------------------------------------------------
# scheduler and reward references
# ---------------------------------------------------------------------------


def brute_force_select(rewards: Mapping[ModuleId, RewardBreakdown]) -> Dict[ModuleId, bool]:
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
    return {m: m in best_set for m in names}


def keypoint_sigma(conf: float, base: float) -> float:
    """Map a confidence score to a pixel std via a negative log, floored."""
    if not 0.0 < conf <= 1.0:
        raise ValueError(f"confidence must lie in (0, 1], got {conf}")
    if base <= 0:
        raise ValueError(f"base sigma must be positive, got {base}")
    return max(-base * math.log(conf), SIGMA_FLOOR)


def keypoint_entropy(sigma: float) -> float:
    """Entropy of an isotropic 2D Gaussian keypoint estimate, in nats; the
    term that :func:`percsched.rewards.post_execution_entropy` sums per
    keypoint, there as ``2 ln sigma`` on top of one ``K ln(2 pi e)``."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return LN_TWO_PI_E + 2.0 * math.log(sigma)


def extrapolate_confidence(
    s_last: float,
    s_prev: float,
    k_last: int,
    k_prev: int,
    k: int,
) -> float:
    """Linear confidence extrapolation from the last two executions,
    clamped to [CONFIDENCE_FLOOR, 1]."""
    if k_last == k_prev:
        raise ValueError("the two reference frames must differ")
    slope = (s_last - s_prev) / (k_last - k_prev)
    value = s_last + slope * (k - k_last)
    return min(1.0, max(CONFIDENCE_FLOOR, value))


def scalar_post_execution_entropy(
    humans: Sequence[Tuple[Sequence[float], float, float]], cfg: RewardConfig
) -> float:
    """:func:`percsched.rewards.post_execution_entropy` one keypoint at a
    time: ``keypoint_sigma`` per keypoint, summed in keypoint order."""
    base = sigma_table(cfg)
    total = 0.0
    for confs, relevance, scale in humans:
        inner = cfg.keypoint_count * LN_TWO_PI_E
        for d, conf in enumerate(confs):
            sigma = keypoint_sigma(float(conf), base[d] * float(scale))
            inner += 2.0 * math.log(sigma)
        total += relevance * inner
    return total


def scalar_extrapolated(
    last: Tuple[int, Sequence[float]],
    prev: Tuple[int, Sequence[float]],
    frame_index: int,
) -> list:
    """Two-sample confidence extrapolation, one ``extrapolate_confidence``
    call per keypoint."""
    (k_last, s_last), (k_prev, s_prev) = last, prev
    return [
        extrapolate_confidence(float(a), float(b), k_last, k_prev, frame_index)
        for a, b in zip(s_last, s_prev)
    ]


def numpy_rgb_histograms(pixels: np.ndarray, bins: int, mask: np.ndarray) -> np.ndarray:
    """:func:`percsched.change_detect.rgb_histograms` as three ``np.histogram``
    calls on a float copy of the raster, one per channel."""
    img = np.asarray(pixels).astype(float)
    out = np.zeros((3, bins), dtype=float)
    for c in range(3):
        out[c], _ = np.histogram(img[:, :, c][mask], bins=bins, range=(0.0, 256.0))
    return out


# ---------------------------------------------------------------------------
# pixel change statistics: the engine's pixel path must equal them bit for bit
# ---------------------------------------------------------------------------


def reference_pixel_change(
    prev: np.ndarray,
    curr: np.ndarray,
    means: Mapping[str, Sequence[float]],
    frame_w: float,
    frame_h: float,
    cfg: ChangeDetectConfig,
) -> Tuple[float, float, Dict[str, float]]:
    """``(bg_cr, shift, patch_cr)`` between two rasters, for tracks whose bank
    mean rows ``means`` maps by id, counted the direct way.

    Each track's predicted box becomes a :class:`PatchRegion` in frame
    coordinates, is scaled to the raster, rounded and clipped to it. The
    background is every pixel no clipped box covers: its change ratio is
    thresholded over those pixels, and its histograms count them in both
    rasters with ``np.histogram``.
    """
    diff = np.abs(curr.astype(np.int16) - prev)
    (wr, wg, wb), (r, g, b) = REC601_LUMA, np.moveaxis(diff, 2, 0).astype(float)
    gray = (wr * r + wg * g) + wb * b
    patch_cr: Dict[str, float] = {}
    occupied = np.zeros(gray.shape, dtype=bool)
    for tid, box in reference_regions(means, gray.shape, frame_w, frame_h).items():
        if box is None:
            patch_cr[tid] = 0.0
            continue
        y0, y1, x0, x1 = box
        area = (y1 - y0) * (x1 - x0)
        patch_cr[tid] = int(np.count_nonzero(gray[y0:y1, x0:x1] > cfg.intensity_threshold)) / area
        occupied[y0:y1, x0:x1] = True
    bg_mask = ~occupied
    bg_area = int(np.count_nonzero(bg_mask))
    if bg_area:
        bg_cr = int(np.count_nonzero(gray[bg_mask] > cfg.intensity_threshold)) / bg_area
    else:
        bg_cr = 0.0
    hist_prev = numpy_rgb_histograms(prev, cfg.histogram_bins, bg_mask)
    hist_curr = numpy_rgb_histograms(curr, cfg.histogram_bins, bg_mask)
    return float(bg_cr), reference_chi_square_shift(hist_prev, hist_curr), patch_cr


def reference_regions(
    means: Mapping[str, Sequence[float]],
    shape: Tuple[int, int],
    frame_w: float,
    frame_h: float,
) -> Dict[str, Optional[Tuple[int, int, int, int]]]:
    """Each track's raster box ``(y0, y1, x0, x1)``, or None where the clipped
    box is empty: its predicted :class:`PatchRegion`, at least 1 px each way,
    scaled to a raster of ``shape``, again at least 1 px, rounded and clipped."""
    sy = shape[0] / frame_h
    sx = shape[1] / frame_w
    boxes: Dict[str, Optional[Tuple[int, int, int, int]]] = {}
    for tid, mean in means.items():
        w = max(float(mean[2]), 1.0)
        h = max(float(mean[3]), 1.0)
        region = PatchRegion(float(mean[0]) - w / 2.0, float(mean[1]) - h / 2.0, w, h)
        scaled = PatchRegion(
            region.x * sx, region.y * sy,
            max(region.w * sx, 1.0), max(region.h * sy, 1.0),
        )
        y0 = max(0, int(round(scaled.y)))
        x0 = max(0, int(round(scaled.x)))
        y1 = min(shape[0], int(round(scaled.y + scaled.h)))
        x1 = min(shape[1], int(round(scaled.x + scaled.w)))
        boxes[tid] = None if y1 <= y0 or x1 <= x0 else (y0, y1, x0, x1)
    return boxes


def reference_chi_square_shift(hist_prev: np.ndarray, hist_curr: np.ndarray) -> float:
    """Mean over the channels of the symmetric chi-square distance of two
    (3, bins) histograms, empty bins dropped."""
    a = np.asarray(hist_prev, dtype=float)
    b = np.asarray(hist_curr, dtype=float)
    diff_sq = (a - b) ** 2
    denom = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(denom > 0, diff_sq / np.where(denom > 0, denom, 1.0), 0.0)
    return float(np.mean([float(d) for d in terms.sum(axis=1)]))


# ---------------------------------------------------------------------------
# the simulated modules: a generator built on every call, a record per box
# ---------------------------------------------------------------------------


def _module_rng(seed: int, frame_index: int, module: ModuleId) -> np.random.Generator:
    return np.random.default_rng([seed, frame_index, zlib.crc32(module.encode("utf-8"))])


def simulate_detection(
    frame: TraceFrame, noise_cfg: NoiseConfig, rng_seed: int
) -> List[Tuple[str, float, float, float, float]]:
    """``(entity_id, x_c, y_c, w, h)`` per detected box."""
    rng = _module_rng(rng_seed, frame.index, DETECTION)
    boxes = []
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
        boxes.append((e.id, float(cx), float(cy), float(w), float(h)))
    if noise_cfg.false_positive_rate > 0 and rng.random() < noise_cfg.false_positive_rate:
        fx = float(rng.uniform(50, 500))
        fy = float(rng.uniform(50, 350))
        fw = float(rng.uniform(20, 60))
        fh = float(rng.uniform(20, 60))
        boxes.append((f"{FALSE_POSITIVE_PREFIX}{frame.index}", fx, fy, fw, fh))
    return boxes


def simulate_pose(
    frame: TraceFrame, noise_cfg: NoiseConfig, rng_seed: int
) -> List[Tuple[str, Tuple[float, ...]]]:
    """``(entity_id, confidences)`` per human with keypoints."""
    rng = _module_rng(rng_seed, frame.index, POSE)
    per_human = []
    for e in frame.entities:
        if e.kind is not EntityKind.HUMAN or e.id not in frame.keypoints:
            continue
        count = len(frame.keypoints[e.id])
        conf = np.full(count, 1.0 - noise_cfg.floor_margin)
        if noise_cfg.confidence_spread > 0:
            conf -= noise_cfg.confidence_spread * rng.beta(
                noise_cfg.beta_a, noise_cfg.beta_b, size=count
            )
        conf = np.minimum(1.0, np.maximum(noise_cfg.min_confidence, conf))
        per_human.append((e.id, tuple(conf.tolist())))
    return per_human


def _stats(change: Optional[ChangeStats]) -> Optional[tuple]:
    """A frame's change statistics with the patch rates in id order."""
    if change is None:
        return None
    return change.background_cr, change.hist_shift_mean, sorted(change.patch_cr.items())


def assert_traces_equal(a: Trace, b: Trace) -> None:
    """Fail unless two traces hold the same header, entities, keypoints,
    change statistics and rasters. Keypoints must be read-only float64 arrays
    of shape (K, 2), K from the header, with the same bits; a dataclass
    ``==`` cannot compare arrays. Entities and change statistics compare by
    ``repr``, since ``==`` takes an int 300 for the float 300.0."""
    assert a.header == b.header
    assert len(a.frames) == len(b.frames)
    shape = (a.header.keypoint_count, 2)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.index == fb.index
        assert repr(fa.entities) == repr(fb.entities)
        assert sorted(fa.keypoints) == sorted(fb.keypoints)
        for eid, pts in fa.keypoints.items():
            for p in (pts, fb.keypoints[eid]):
                assert p.dtype == np.float64 and p.shape == shape, (eid, p.dtype, p.shape)
                assert p.flags.c_contiguous and not p.flags.writeable
            assert pts.tobytes() == fb.keypoints[eid].tobytes(), (fa.index, eid)
        assert repr(_stats(fa.change)) == repr(_stats(fb.change))
        assert (fa.pixels is None) == (fb.pixels is None)
        if fa.pixels is not None:
            assert fa.pixels.rgb.dtype == fb.pixels.rgb.dtype == np.uint8
            assert np.array_equal(fa.pixels.rgb, fb.pixels.rgb)


def read_trace_per_line(path: Path) -> Trace:
    """The trace at ``path`` read with ``json.loads`` on each line and each
    frame built with a fresh memo, so frames share nothing: the reference for
    ``read_trace``'s walk of a line and its sharing of repeated values."""
    with Path(path).open("r", encoding="utf-8") as fh:
        head, *rows = [json.loads(line) for line in fh if line.strip()]
    header = TraceHeader(**{f.name: head[f.name] for f in fields(TraceHeader) if f.name in head})
    return Trace(header, tuple(frame_from_dict(rec, header, {}) for rec in rows))


DECISION_VECTORS = ("decided", "honored", "forced")


@dataclass(frozen=True)
class LogDifference:
    """Where two run logs differ: the header fields that differ, by name;
    the first frame index at which the records differ and that record's
    first differing field in field order (``None`` for a frame in one log
    only, and both ``None`` when the records agree); and which of the
    decided, honored and forced vectors differ on some frame."""

    header: Tuple[str, ...]
    frame: Optional[int]
    field: Optional[str]
    moved: Tuple[str, ...]


def first_difference(a: RunLog, b: RunLog) -> Optional[LogDifference]:
    """Name where run logs ``a`` and ``b`` first differ, as their JSONL lines
    read, or None if those lines hold the same values."""
    (head_a, *rows_a), (head_b, *rows_b) = (
        [json.loads(line) for line in log.to_jsonl().splitlines()] for log in (a, b)
    )
    header = tuple(sorted(k for k in head_a.keys() | head_b.keys() if head_a.get(k) != head_b.get(k)))
    frame = field = None
    for ra, rb in zip(rows_a, rows_b):
        names = [f.name for f in fields(FrameRecord) if ra.get(f.name) != rb.get(f.name)]
        if names:
            frame, field = ra["index"], names[0]
            break
    else:
        if len(rows_a) != len(rows_b):
            frame = min(len(rows_a), len(rows_b))
    moved = tuple(name for name in DECISION_VECTORS
                  if [r[name] for r in rows_a] != [r[name] for r in rows_b])
    if not header and frame is None:
        return None
    return LogDifference(header, frame, field, moved)
