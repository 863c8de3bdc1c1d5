import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import numpy_rgb_histograms
from percsched.change_detect import (
    ChangeDetectConfig,
    HistogramShift,
    PatchDiff,
    change_ratio,
    chi_square_shift,
    composition_change_trigger,
    grayscale_diff,
    motion_status,
    rgb_histograms,
)
from percsched.scene import MotionStatus, PatchRegion

CFG = ChangeDetectConfig()


def _diff(arr):
    arr = np.asarray(arr, dtype=float)
    return PatchDiff(region=PatchRegion(0, 0, arr.shape[2], arr.shape[1]), abs_rgb_diff=arr)


class TestConfig:
    def test_coeffs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ChangeDetectConfig(luminance_coeffs=(0.5, 0.5, 0.5))

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            ChangeDetectConfig(patch_change_threshold=0.0)
        with pytest.raises(ValueError):
            ChangeDetectConfig(intensity_threshold=300.0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"histogram_threshold": float("nan")}, "histogram_threshold"),
            ({"histogram_threshold": float("inf")}, "histogram_threshold"),
            ({"luminance_coeffs": (float("nan"), 0.5, 0.5)}, "luminance_coeffs"),
            ({"luminance_coeffs": (float("inf"), 0.0, 0.0)}, "luminance_coeffs"),
            ({"histogram_bins": 32.0}, "histogram_bins"),
            ({"histogram_bins": True}, "histogram_bins"),
        ],
    )
    def test_non_finite_or_non_int_rejected_by_name(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ChangeDetectConfig(**kwargs)


class TestGrayscaleDiff:
    def test_zero_in_zero_out(self):
        out = grayscale_diff(_diff(np.zeros((3, 4, 5))), CFG)
        assert out.shape == (4, 5)
        assert np.all(out == 0.0)

    def test_full_white_pixel_maps_to_255(self):
        arr = np.zeros((3, 2, 2))
        arr[:, 1, 1] = 255.0
        out = grayscale_diff(_diff(arr), CFG)
        assert out[1, 1] == pytest.approx(255.0)
        assert out[0, 0] == 0.0

    def test_red_channel_weight(self):
        # hand evaluation of the luminance dot product: 0.299 * 100
        arr = np.zeros((3, 1, 1))
        arr[0, 0, 0] = 100.0
        out = grayscale_diff(_diff(arr), CFG)
        assert out[0, 0] == pytest.approx(29.9)

    def test_linearity_in_diff(self):
        rng = np.random.default_rng(2)
        arr = rng.uniform(0, 100, size=(3, 6, 7))
        one = grayscale_diff(_diff(arr), CFG)
        scaled = grayscale_diff(_diff(2.5 * arr), CFG)
        np.testing.assert_allclose(scaled, 2.5 * one, rtol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PatchDiff(region=PatchRegion(0, 0, 5, 4), abs_rgb_diff=np.zeros((4, 5)))


class TestChangeRatio:
    def test_zero_diff(self):
        region = PatchRegion(0, 0, 4, 4)
        assert change_ratio(np.zeros((4, 4)), region, CFG) == 0.0

    def test_saturated(self):
        region = PatchRegion(0, 0, 4, 4)
        assert change_ratio(np.full((4, 4), 255.0), region, CFG) == 1.0

    def test_two_of_four_pixels(self):
        # direct evaluation: values {10, 200, 0, 250} against threshold 50
        cfg = ChangeDetectConfig(intensity_threshold=50.0)
        gray = np.array([[10.0, 200.0], [0.0, 250.0]])
        assert change_ratio(gray, PatchRegion(0, 0, 2, 2), cfg) == 0.5

    def test_region_slicing_from_full_frame(self):
        frame = np.zeros((10, 10))
        frame[2:4, 3:5] = 255.0
        region = PatchRegion(3, 2, 2, 2)
        assert change_ratio(frame, region, CFG) == 1.0

    def test_region_outside_frame_rejected(self):
        with pytest.raises(ValueError):
            change_ratio(np.zeros((4, 4)), PatchRegion(3, 3, 2, 2), CFG)

    def test_zero_area_region_rejected(self):
        with pytest.raises(ValueError):
            PatchRegion(0, 0, 0, 4)

    def test_monotone_in_pixel_values(self):
        rng = np.random.default_rng(3)
        region = PatchRegion(0, 0, 8, 8)
        gray = rng.uniform(0, 255, size=(8, 8))
        base = change_ratio(gray, region, CFG)
        brighter = change_ratio(gray + rng.uniform(0, 50, size=(8, 8)), region, CFG)
        assert brighter >= base


class TestMotionStatus:
    def test_zero_is_stationary(self):
        cfg = ChangeDetectConfig(patch_change_threshold=0.1)
        assert motion_status(0.0, cfg) is MotionStatus.STATIONARY

    def test_boundary_is_strict(self):
        cfg = ChangeDetectConfig(patch_change_threshold=0.1)
        delta = 1e-9
        assert motion_status(0.1 - delta, cfg) is MotionStatus.STATIONARY
        assert motion_status(0.1, cfg) is MotionStatus.STATIONARY
        assert motion_status(0.1 + delta, cfg) is MotionStatus.MOVING

    def test_clearly_moving(self):
        cfg = ChangeDetectConfig(patch_change_threshold=0.1)
        assert motion_status(0.5, cfg) is MotionStatus.MOVING


class TestChiSquare:
    def test_identity_is_zero(self):
        hist = np.array([[1.0, 2.0, 3.0]] * 3)
        shift = chi_square_shift(hist, hist)
        assert shift.per_channel == (0.0, 0.0, 0.0)
        assert shift.mean == 0.0

    def test_single_channel_disjoint_bins(self):
        # (4-0)^2/4 + (0-4)^2/4 = 8
        shift = chi_square_shift(np.array([4.0, 0.0]), np.array([0.0, 4.0]))
        assert shift.mean == pytest.approx(8.0)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 50, size=(3, 16)).astype(float)
        b = rng.integers(0, 50, size=(3, 16)).astype(float)
        assert chi_square_shift(a, b) == chi_square_shift(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chi_square_shift(np.zeros((3, 8)), np.zeros((3, 16)))

    def test_asymmetric_variant(self):
        cfg = ChangeDetectConfig(chi_square_symmetric=False)
        # (4-2)^2/4 = 1.0 on one bin; zero-denominator term dropped
        shift = chi_square_shift(np.array([4.0, 0.0]), np.array([2.0, 1.0]), cfg)
        assert shift.mean == pytest.approx(1.0)

    def test_normalization_toggle(self):
        cfg = ChangeDetectConfig(normalize_histograms=True)
        a = np.array([4.0, 0.0])
        b = np.array([8.0, 0.0])  # same distribution at double mass
        assert chi_square_shift(a, b, cfg).mean == pytest.approx(0.0)

    def test_mean_is_channel_average(self):
        a = np.array([[4.0, 0.0], [4.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 4.0], [4.0, 0.0], [0.0, 0.0]])
        shift = chi_square_shift(a, b)
        assert shift.per_channel == (8.0, 0.0, 0.0)
        assert shift.mean == pytest.approx(8.0 / 3.0)


class TestCompositionTrigger:
    def test_requires_both(self):
        cfg = ChangeDetectConfig(patch_change_threshold=0.05, histogram_threshold=10.0)
        low = HistogramShift((1.0, 1.0, 1.0), 1.0)
        high = HistogramShift((20.0, 20.0, 20.0), 20.0)
        assert not composition_change_trigger(0.01, low, cfg)
        assert not composition_change_trigger(0.2, low, cfg)
        assert not composition_change_trigger(0.01, high, cfg)
        assert composition_change_trigger(0.2, high, cfg)


class TestRgbHistograms:
    def test_counts_and_mask(self):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        img[:2, :, 0] = 255
        hist = rgb_histograms(img, bins=2)
        assert hist[0, 0] == 8 and hist[0, 1] == 8
        assert hist[1, 0] == 16
        mask = np.zeros((4, 4), dtype=bool)
        mask[:2, :] = True
        masked = rgb_histograms(img, bins=2, mask=mask)
        assert masked[0, 1] == 8 and masked[0, 0] == 0

    def test_every_byte_value_matches_numpy_histogram(self):
        # each channel holds all 256 byte values, in a different order
        rng = np.random.default_rng(5)
        img = np.stack([rng.permutation(256) for _ in range(3)], axis=-1)
        img = img.astype(np.uint8).reshape(16, 16, 3)
        masks = (
            None,
            rng.random((16, 16)) < 0.5,
            np.zeros((16, 16), dtype=bool),
            np.ones((16, 16), dtype=bool),
        )
        for bins in range(1, 301):
            for mask in masks:
                got = rgb_histograms(img, bins, mask)
                want = numpy_rgb_histograms(img, bins, mask)
                assert got.shape == want.shape == (3, bins)
                assert np.array_equal(got, want), f"bins={bins}"

    @given(
        img=hnp.arrays(
            np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24), st.just(3))
        ),
        bins=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
        masked=st.booleans(),
    )
    def test_random_rasters_match_numpy_histogram(self, img, bins, seed, masked):
        mask = np.random.default_rng(seed).random(img.shape[:2]) < 0.7 if masked else None
        want = numpy_rgb_histograms(img, bins, mask)
        assert np.array_equal(rgb_histograms(img, bins, mask), want)

    @pytest.mark.parametrize("dtype", [np.float64, np.int16, np.uint16, np.int64, bool])
    def test_non_uint8_rejected(self, dtype):
        with pytest.raises(ValueError, match="uint8"):
            rgb_histograms(np.zeros((4, 4, 3), dtype=dtype), bins=8)

    def test_mask_shape_must_match(self):
        with pytest.raises(ValueError, match="mask"):
            rgb_histograms(np.zeros((4, 4, 3), np.uint8), bins=8, mask=np.ones((4, 5), bool))
