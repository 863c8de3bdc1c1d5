"""Frame-differencing motion detection and histogram shift detection.

All functions are pure and operate on numpy arrays: an absolute RGB patch
difference is collapsed to grayscale, thresholded into a change ratio, and
the ratio decides the patch's motion status. Background composition changes
combine the background change ratio with a chi-square histogram distance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .scene import MotionStatus, PatchRegion

REC601_LUMA = (0.299, 0.587, 0.114)


@dataclass(frozen=True)
class ChangeDetectConfig:
    luminance_coeffs: Tuple[float, float, float] = REC601_LUMA
    intensity_threshold: float = 30.0
    patch_change_threshold: float = 0.05
    histogram_bins: int = 32
    histogram_threshold: float = 10.0
    chi_square_symmetric: bool = True
    normalize_histograms: bool = False

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        coeffs = self.luminance_coeffs
        if len(coeffs) != 3 or not all(0.0 <= c < math.inf for c in coeffs):
            raise ValueError(
                f"luminance_coeffs must be three finite non-negative reals, got {coeffs}"
            )
        if not abs(sum(coeffs) - 1.0) <= 1e-6:
            raise ValueError(f"luminance_coeffs must sum to 1, got {sum(coeffs)}")
        if not 0.0 <= self.intensity_threshold <= 255.0:
            raise ValueError("intensity_threshold must lie in [0, 255]")
        if not 0.0 < self.patch_change_threshold < 1.0:
            raise ValueError("patch_change_threshold must lie in (0, 1)")
        if isinstance(self.histogram_bins, bool) or not isinstance(self.histogram_bins, int):
            raise ValueError(f"histogram_bins must be an int, got {self.histogram_bins!r}")
        if self.histogram_bins <= 0:
            raise ValueError("histogram_bins must be positive")
        if not 0.0 <= self.histogram_threshold < math.inf:
            raise ValueError(
                "histogram_threshold must be finite and non-negative, "
                f"got {self.histogram_threshold}"
            )


@dataclass(frozen=True)
class PatchDiff:
    """Absolute RGB difference over one patch, channels-first (3, h, w)."""

    region: PatchRegion
    abs_rgb_diff: np.ndarray

    def __post_init__(self) -> None:
        if self.abs_rgb_diff.ndim != 3 or self.abs_rgb_diff.shape[0] != 3:
            raise ValueError(
                f"abs_rgb_diff must have shape (3, h, w), got {self.abs_rgb_diff.shape}"
            )
        if self.abs_rgb_diff.size and (
            self.abs_rgb_diff.min() < 0 or self.abs_rgb_diff.max() > 255
        ):
            raise ValueError("abs_rgb_diff values must lie in [0, 255]")


@dataclass(frozen=True)
class HistogramShift:
    """Chi-square distance per RGB channel and their mean."""

    per_channel: Tuple[float, float, float]
    mean: float

    @classmethod
    def from_channels(cls, per_channel: Tuple[float, float, float]) -> "HistogramShift":
        return cls(per_channel=per_channel, mean=float(np.mean(per_channel)))


def grayscale_diff(diff: PatchDiff, cfg: ChangeDetectConfig) -> np.ndarray:
    """Collapse a channels-first RGB difference to a weighted grayscale map."""
    arr = np.asarray(diff.abs_rgb_diff, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"expected shape (3, h, w), got {arr.shape}")
    coeffs = np.asarray(cfg.luminance_coeffs, dtype=float)
    return np.tensordot(coeffs, arr, axes=(0, 0))


def change_ratio(gray_diff: np.ndarray, region: PatchRegion, cfg: ChangeDetectConfig) -> float:
    """Fraction of patch pixels whose grayscale difference exceeds the threshold.

    ``gray_diff`` may be exactly patch-sized or a larger map that covers the
    region, in which case the region is sliced out of it.
    """
    arr = np.asarray(gray_diff, dtype=float)
    h = int(round(region.h))
    w = int(round(region.w))
    if h <= 0 or w <= 0:
        raise ValueError("region must have positive pixel area")
    if arr.shape == (h, w):
        patch = arr
    else:
        y0, x0 = int(round(region.y)), int(round(region.x))
        if y0 < 0 or x0 < 0 or y0 + h > arr.shape[0] or x0 + w > arr.shape[1]:
            raise ValueError(
                f"gray_diff of shape {arr.shape} does not cover region "
                f"({x0}, {y0}, {w}, {h})"
            )
        patch = arr[y0 : y0 + h, x0 : x0 + w]
    count = int(np.count_nonzero(patch > cfg.intensity_threshold))
    return count / (w * h)


def motion_status(cr: float, cfg: ChangeDetectConfig) -> MotionStatus:
    """Moving iff the change ratio strictly exceeds the patch threshold."""
    return MotionStatus.MOVING if cr > cfg.patch_change_threshold else MotionStatus.STATIONARY


def rgb_histograms(
    pixels: np.ndarray,
    bins: int,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-channel histograms of an (h, w, 3) 8-bit image, optionally masked.

    Returns an array of shape (3, bins) with raw counts over ``bins`` equal
    bins on [0, 256), the counts ``np.histogram`` gives. Each channel's
    selected pixels are counted per byte value with one ``np.bincount``, and
    the 256 byte counts are summed into bins by a cached 0/1 matrix. The sums
    are integers far below 2**53, so they are exact.
    """
    img = np.asarray(pixels)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"pixels must have shape (h, w, 3), got {img.shape}")
    if img.dtype != np.uint8:
        raise ValueError(f"pixels must be uint8, got {img.dtype}")
    if bins < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    flat = img.reshape(-1, 3)
    if mask is not None:
        if np.shape(mask) != img.shape[:2]:
            raise ValueError(f"mask must have shape {img.shape[:2]}, got {np.shape(mask)}")
        flat = flat.take(np.flatnonzero(mask), axis=0)
    counts = np.stack([np.bincount(flat[:, c], minlength=256) for c in range(3)])
    return counts.astype(float) @ _byte_bins(bins)


@functools.lru_cache(maxsize=16)
def _byte_bins(bins: int) -> np.ndarray:
    """(256, bins) 0/1 matrix sending byte ``v`` to the bin ``i`` with
    ``edges[i] <= v < edges[i + 1]``, on the edges ``np.histogram`` uses for
    ``range=(0, 256)``. Read-only, since the cache shares it."""
    edges = np.linspace(0.0, 256.0, bins + 1)
    index = np.searchsorted(edges, np.arange(256), side="right") - 1
    table = np.zeros((256, bins))
    table[np.arange(256), index] = 1.0
    table.flags.writeable = False
    return table


def chi_square_shift(
    hist_prev: np.ndarray,
    hist_curr: np.ndarray,
    cfg: Optional[ChangeDetectConfig] = None,
) -> HistogramShift:
    """Chi-square distance between per-channel histograms.

    Uses the symmetric form (a-b)^2 / (a+b) with empty-bin terms dropped;
    the asymmetric (a-b)^2 / a variant is available through the config.
    """
    cfg = cfg or ChangeDetectConfig()
    a = np.asarray(hist_prev, dtype=float)
    b = np.asarray(hist_curr, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"histogram shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        a = a[None, :]
        b = b[None, :]
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("histograms must be non-negative")
    if cfg.normalize_histograms:
        a = _normalize(a)
        b = _normalize(b)
    diff_sq = (a - b) ** 2
    denom = (a + b) if cfg.chi_square_symmetric else a
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(denom > 0, diff_sq / np.where(denom > 0, denom, 1.0), 0.0)
    distances = terms.sum(axis=1)
    if distances.shape[0] == 1:
        channels = (float(distances[0]),) * 3
        return HistogramShift(per_channel=channels, mean=float(distances[0]))
    if distances.shape[0] != 3:
        raise ValueError(f"expected 1 or 3 channels, got {distances.shape[0]}")
    return HistogramShift.from_channels(tuple(float(d) for d in distances))


def composition_change_trigger(
    background_cr: float,
    shift: HistogramShift,
    cfg: ChangeDetectConfig,
) -> bool:
    """True when both the background change ratio and the histogram shift
    exceed their thresholds, signalling elements entering or leaving."""
    return (
        background_cr > cfg.patch_change_threshold
        and shift.mean > cfg.histogram_threshold
    )


def _normalize(hist: np.ndarray) -> np.ndarray:
    totals = hist.sum(axis=1, keepdims=True)
    return np.where(totals > 0, hist / np.where(totals > 0, totals, 1.0), hist)
