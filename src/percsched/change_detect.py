"""Frame-differencing motion detection and histogram shift detection.

All functions are pure and operate on numpy arrays: an absolute RGB
difference is collapsed to grayscale, the engine thresholds it into a change
ratio per believed region, and the ratio decides the patch's motion status.
Background composition changes combine the background change ratio with a
chi-square histogram distance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .scene import MotionStatus
from .schema import NonNegative, OpenShare, PositiveCount, check_fields

REC601_LUMA = (0.299, 0.587, 0.114)


@dataclass(frozen=True)
class ChangeDetectConfig:
    intensity_threshold: Annotated[float, "[0, 255]"] = 30.0
    patch_change_threshold: OpenShare = 0.05
    histogram_bins: PositiveCount = 32
    histogram_threshold: NonNegative = 10.0

    __post_init__ = check_fields


def grayscale_diff(abs_rgb_diff: np.ndarray) -> np.ndarray:
    """Collapse an (h, w, 3) absolute RGB difference to a Rec.601 luma map,
    ``(0.299 r + 0.587 g) + 0.114 b`` per pixel in that order.

    The order is fixed so that the bits do not depend on the host: a BLAS
    dot sums the three products in an order, with or without a fused
    multiply-add, that its kernel picks for the CPU, and a threshold on the
    map can then flip from one host to another. Each pixel's luma depends on
    its own three values alone, so a band of rows maps to the same bits as
    those rows of the whole raster; the engine passes only the rows whose
    bytes differ."""
    arr = np.asarray(abs_rgb_diff)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected shape (h, w, 3), got {arr.shape}")
    # a float copy in the input's interleaved order, weighted in one
    # contiguous pass; the sums then read each channel with a stride of 3
    pixels = arr.shape[0] * arr.shape[1]
    weighted = arr.astype(float, order="C").reshape(-1)
    weighted *= _interleaved_luma(pixels.bit_length())[: 3 * pixels]
    luma = weighted[0::3] + weighted[1::3]
    luma += weighted[2::3]
    return luma.reshape(arr.shape[:2])


@functools.lru_cache(maxsize=64)
def _interleaved_luma(bits: int) -> np.ndarray:
    """The Rec.601 weights repeated ``2**bits`` times, to weigh a flattened
    (h, w, 3) array of fewer pixels elementwise through a prefix. Keyed on
    the bit length of the pixel count, so bands of rows of every height
    share a few vectors; 64 entries hold every bit length of an int64.
    Read-only, since the cache shares it."""
    weights = np.tile(REC601_LUMA, 1 << bits)
    weights.flags.writeable = False
    return weights


def motion_status(cr: float, cfg: ChangeDetectConfig) -> MotionStatus:
    """Moving iff the change ratio strictly exceeds the patch threshold."""
    return MotionStatus.MOVING if cr > cfg.patch_change_threshold else MotionStatus.STATIONARY


def rgb_histograms(pixels: np.ndarray, bins: int, mask: np.ndarray) -> np.ndarray:
    """Per-channel histograms of the pixels of an (h, w, 3) 8-bit image that
    the (h, w) boolean ``mask`` selects.

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
    if np.shape(mask) != img.shape[:2]:
        raise ValueError(f"mask must have shape {img.shape[:2]}, got {np.shape(mask)}")
    flat = img.reshape(-1, 3).take(np.flatnonzero(mask), axis=0)
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


def chi_square_shift(hist_prev: np.ndarray, hist_curr: np.ndarray) -> float:
    """Mean over the channels of the symmetric chi-square distance
    (a-b)^2 / (a+b) between per-channel histograms, one channel or three,
    with empty-bin terms dropped."""
    a = np.asarray(hist_prev, dtype=float)
    b = np.asarray(hist_curr, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"histogram shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        a = a[None, :]
        b = b[None, :]
    if (a < 0).any() or (b < 0).any():
        raise ValueError("histograms must be non-negative")
    diff_sq = (a - b) ** 2
    denom = a + b
    # empty bins keep the zero they start with
    terms = np.divide(diff_sq, denom, out=np.zeros_like(diff_sq), where=denom > 0)
    distances = terms.sum(axis=1)
    if len(distances) not in (1, 3):
        raise ValueError(f"expected 1 or 3 channels, got {len(distances)}")
    return float(np.mean(distances))


def composition_change_trigger(
    background_cr: float,
    shift: float,
    cfg: ChangeDetectConfig,
) -> bool:
    """True when both the background change ratio and the mean histogram
    shift exceed their thresholds, signalling elements entering or leaving."""
    return background_cr > cfg.patch_change_threshold and shift > cfg.histogram_threshold
