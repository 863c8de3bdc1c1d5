import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import numpy_rgb_histograms, reference_pixel_change
from percsched import change_detect
from percsched.change_detect import (
    REC601_LUMA,
    ChangeDetectConfig,
    chi_square_shift,
    composition_change_trigger,
    grayscale_diff,
    motion_status,
    rgb_histograms,
)
from percsched.config import RunConfig
from percsched.engine import PolicyKind, SimEngine
from percsched.scene import Entity, EntityKind, MotionStatus, PatchRegion
from percsched.tracker import MEAS_DIM, STATE_DIM, TrackBank
from percsched.traces import FramePixels, Trace, TraceFrame, TraceHeader

CFG = ChangeDetectConfig()


class TestConfig:
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
            ({"intensity_threshold": float("nan")}, "intensity_threshold"),
            ({"patch_change_threshold": float("inf")}, "patch_change_threshold"),
            ({"histogram_bins": 32.0}, "histogram_bins"),
            ({"histogram_bins": True}, "histogram_bins"),
        ],
    )
    def test_non_finite_or_non_int_rejected_by_name(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ChangeDetectConfig(**kwargs)


class TestGrayscaleDiff:
    def test_zero_in_zero_out(self):
        out = grayscale_diff(np.zeros((4, 5, 3)))
        assert out.shape == (4, 5)
        assert np.all(out == 0.0)

    def test_full_white_pixel_maps_to_255(self):
        arr = np.zeros((2, 2, 3))
        arr[1, 1, :] = 255.0
        out = grayscale_diff(arr)
        assert out[1, 1] == pytest.approx(255.0)
        assert out[0, 0] == 0.0

    def test_red_channel_weight(self):
        # hand evaluation of the luminance dot product: 0.299 * 100
        arr = np.zeros((1, 1, 3))
        arr[0, 0, 0] = 100.0
        out = grayscale_diff(arr)
        assert out[0, 0] == pytest.approx(29.9)

    def test_linearity_in_diff(self):
        rng = np.random.default_rng(2)
        arr = rng.uniform(0, 100, size=(6, 7, 3))
        one = grayscale_diff(arr)
        scaled = grayscale_diff(2.5 * arr)
        np.testing.assert_allclose(scaled, 2.5 * one, rtol=1e-12)

    def test_fixed_order_on_every_integral_luma_triple(self):
        # where 299 r + 587 g + 114 b is a multiple of 1000 the exact luma is
        # an integer, so a threshold at that integer decides on the last bit;
        # a BLAS dot's order and fused multiply-adds depend on the host
        residue_of_b = np.full(1000, -1)
        residue_of_b[(114 * np.arange(256)) % 1000] = np.arange(256)
        r, g = (a.ravel() for a in np.meshgrid(np.arange(256), np.arange(256), indexing="ij"))
        b = residue_of_b[(-(299 * r + 587 * g)) % 1000]
        triples = np.stack([r, g, b], axis=1)[b >= 0]
        assert len(triples) == 16774
        wr, wg, wb = REC601_LUMA
        expected = [(wr * x + wg * y) + wb * z for x, y, z in triples.astype(float).tolist()]
        got = grayscale_diff(triples.reshape(1, -1, 3).astype(np.int16))
        assert got.ravel().tolist() == expected

    def test_shape_validation(self):
        for shape in ((4, 5), (3, 4, 5), (4, 5, 4)):
            with pytest.raises(ValueError, match="h, w, 3"):
                grayscale_diff(np.zeros(shape))


def region_change_ratio(region, after, frame_w=8, frame_h=8):
    """``patch_cr`` that the scheduled engine reads for one object whose box,
    and so its believed region, is ``region`` = (x, y, w, h) in frame
    coordinates, when an all-zero raster is followed by ``after``."""
    after = np.asarray(after, dtype=np.uint8)
    header = TraceHeader(keypoint_count=5, frame_count=2, frame_w=frame_w, frame_h=frame_h)
    box = Entity(id="obj", kind=EntityKind.OBJECT, region=PatchRegion(*region))
    frames = tuple(
        TraceFrame(
            index=i,
            entities=(box,),
            pixels=FramePixels(rgb=rgb),
        )
        for i, rgb in enumerate((np.zeros_like(after), after))
    )
    seen = []

    class Probe(SimEngine):
        def _update_motion(self, patch_cr):
            seen.append(dict(patch_cr))
            super()._update_motion(patch_cr)

    trace = Trace(header=header, frames=frames)
    Probe(trace, PolicyKind.SCHEDULED, RunConfig(seed=0).pipeline(header)).run()
    # frame 0 has no previous raster; frame 1 holds the track from frame 0's detection
    assert seen[0] == {} and list(seen[1]) == ["obj"]
    return seen[1]["obj"]


def raster(changed=(), h=8, w=8):
    """(h, w, 3) raster, white at each (row, column) in ``changed``."""
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    for y, x in changed:
        rgb[y, x] = 255
    return rgb


class TestChangeRatio:
    """The region change ratio the engine computes: the share of the believed
    region's pixels, clipped to the raster and scaled to its size, whose
    grayscale difference exceeds the intensity threshold."""

    def test_zero_diff(self):
        assert region_change_ratio((2, 2, 4, 2), raster()) == 0.0

    def test_saturated(self):
        assert region_change_ratio((2, 2, 4, 2), np.full((8, 8, 3), 255)) == 1.0

    def test_two_of_four_pixels(self):
        # region rows 2-3, columns 3-4 reads {255, 0, 20, 255}: 20 is below the
        # intensity threshold of 30, and three changes outside do not count
        after = raster([(2, 3), (3, 4), (0, 0), (2, 5), (4, 3)])
        after[3, 3] = 20
        assert region_change_ratio((3, 2, 2, 2), after) == 0.5

    def test_region_slicing_from_full_frame(self):
        after = raster([(2, 3), (2, 4), (3, 3), (3, 4)])
        assert region_change_ratio((3, 2, 2, 2), after) == 1.0

    def test_region_partly_off_raster_counts_the_clipped_area(self):
        # x from -2 to 2 clips to columns 0-1: 4 pixels, not the box's 8
        after = raster([(0, 0)])
        assert region_change_ratio((-2, 0, 4, 2), after) == 0.25

    def test_region_outside_raster_reads_zero(self):
        assert region_change_ratio((10, 0, 4, 2), np.full((8, 8, 3), 255)) == 0.0

    def test_region_scaled_to_a_smaller_raster(self):
        # a 16x16 frame over an 8x8 raster: (4, 4, 8, 4) covers raster rows
        # 2-3 and columns 2-5, 8 pixels, of which (2, 2) and (3, 5) change
        after = raster([(2, 2), (3, 5), (1, 2), (4, 4), (5, 5)])
        assert region_change_ratio((4, 4, 8, 4), after, frame_w=16, frame_h=16) == 0.25

    def test_monotone_in_pixel_values(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            after = rng.integers(0, 256, size=(8, 8, 3))
            brighter = np.minimum(after + rng.integers(0, 50, size=(8, 8, 3)), 255)
            base = region_change_ratio((1, 1, 6, 6), after)
            assert region_change_ratio((1, 1, 6, 6), brighter) >= base


@st.composite
def believed_boxes(draw, frame_w, frame_h):
    """0-8 bank mean rows, keyed by id: boxes anywhere, off the frame, under
    a pixel, over the whole frame, and copies of one another (overlaps)."""
    boxes = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["any", "off", "tiny", "whole", "copy"]))
        if kind == "copy" and boxes:
            cx, cy, w, h = boxes[draw(st.integers(0, len(boxes) - 1))]
            dx, dy = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
            boxes.append((cx + dx, cy + dy, w, h))
            continue
        if kind == "off":
            w, h = draw(st.floats(0.5, 40.0)), draw(st.floats(0.5, 40.0))
            cx = draw(st.sampled_from([-w, frame_w + w]))
            cy = draw(st.floats(-frame_h, 2.0 * frame_h))
        elif kind == "tiny":
            w, h = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
            cx, cy = draw(st.floats(0.0, frame_w)), draw(st.floats(0.0, frame_h))
        elif kind == "whole":
            w = frame_w * draw(st.floats(1.0, 3.0))
            h = frame_h * draw(st.floats(1.0, 3.0))
            cx, cy = frame_w / 2.0, frame_h / 2.0
        else:
            w = draw(st.floats(-2.0, 1.5 * frame_w))
            h = draw(st.floats(-2.0, 1.5 * frame_h))
            cx = draw(st.floats(-0.5 * frame_w, 1.5 * frame_w))
            cy = draw(st.floats(-0.5 * frame_h, 1.5 * frame_h))
        boxes.append((cx, cy, w, h))
    return {f"t{i}": [*box, 0.0, 0.0, 0.0, 0.0] for i, box in enumerate(boxes)}


@st.composite
def pixel_change_cases(draw):
    h, w = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    frame_w, frame_h = draw(st.integers(1, 200)), draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prev = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    moved = rng.random((h, w, 1)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    curr = np.where(moved, rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8), prev)
    means = draw(believed_boxes(frame_w, frame_h))
    cfg = ChangeDetectConfig(
        intensity_threshold=draw(st.sampled_from([0.0, 30.0, 200.0])),
        histogram_bins=draw(st.sampled_from([1, 7, 32, 256, 300])),
    )
    return prev, curr, means, frame_w, frame_h, cfg


def engine_pixel_change(prev, curr, means, frame_w, frame_h, cfg):
    """The scheduled engine's ``(bg_cr, shift, patch_cr)`` for ``curr`` after
    ``prev`` with the bank holding ``means``."""
    header = TraceHeader(keypoint_count=5, frame_count=1, frame_w=frame_w, frame_h=frame_h)
    frames = [
        TraceFrame(index=i, entities=(),
                   pixels=FramePixels(rgb=rgb))
        for i, rgb in enumerate((prev, curr))
    ]
    pipe = RunConfig(seed=0, change=cfg).pipeline(header)
    engine = SimEngine(Trace(header=header, frames=tuple(frames[:1])), PolicyKind.SCHEDULED, pipe)
    rows = np.array(list(means.values()), dtype=float).reshape(-1, STATE_DIM)
    shape = (len(means), MEAS_DIM)
    engine.bank = TrackBank(
        tuple(means), rows[:, :MEAS_DIM], rows[:, MEAS_DIM:],
        np.ones(shape), np.zeros(shape), np.ones(shape),
    )
    engine._change_stats(frames[0])
    got = engine._change_stats(frames[1])
    assert engine.prev_frame is curr
    return got


def whitened_case(h, w, whitened, cfg=CFG):
    """An (h, w) raster pair with no tracks whose first ``whitened`` pixels
    turn from black to white: the background ratio is ``whitened / (h * w)``."""
    prev = np.zeros((h, w, 3), dtype=np.uint8)
    curr = prev.copy()
    curr.reshape(-1, 3)[:whitened] = 255
    return prev, curr, {}, w, h, cfg


class TestPixelChangeOracle:
    """The engine's pixel statistics must equal the direct count's bits. The
    histogram shift is counted only where the background ratio passes the
    composition trigger's first test, and is 0.0 elsewhere, so the trigger
    equals the direct count's on every case."""

    def check(self, case):
        bg_cr, shift, patch_cr = engine_pixel_change(*case)
        want_bg, want_shift, want_patch = reference_pixel_change(*case)
        cfg = case[-1]
        assert (bg_cr, patch_cr) == (want_bg, want_patch)
        assert shift == (want_shift if bg_cr > cfg.patch_change_threshold else 0.0)
        assert composition_change_trigger(bg_cr, shift, cfg) == composition_change_trigger(
            want_bg, want_shift, cfg
        )
        assert type(bg_cr) is float and all(type(v) is float for v in patch_cr.values())

    @given(case=pixel_change_cases())
    def test_engine_equals_direct_count(self, case):
        self.check(case)

    def test_background_ratio_below_threshold_reports_no_shift(self):
        case = whitened_case(16, 16, 1)
        want_bg, want_shift, _ = reference_pixel_change(*case)
        assert want_bg < CFG.patch_change_threshold and want_shift > 0.0
        assert engine_pixel_change(*case)[1] == 0.0
        self.check(case)

    def test_background_ratio_above_threshold_counts_the_shift(self):
        case = whitened_case(4, 4, 8)
        bg_cr, shift, _ = engine_pixel_change(*case)
        assert bg_cr == 0.5 and shift > CFG.histogram_threshold
        self.check(case)

    def test_background_ratio_at_threshold_counts_no_histogram(self, monkeypatch):
        """A background ratio equal to the threshold cannot fire the trigger,
        so the frame counts no histogram; one more changed background pixel
        passes the test and counts both rasters' backgrounds."""
        cfg = ChangeDetectConfig(histogram_threshold=0.0)
        kernel = change_detect.rgb_histograms
        masks = []

        def counted(pixels, bins, mask):
            masks.append(mask)
            return kernel(pixels, bins, mask)

        monkeypatch.setattr(change_detect, "rgb_histograms", counted)
        bg_cr, shift, _ = engine_pixel_change(*whitened_case(4, 5, 1, cfg))
        assert bg_cr == cfg.patch_change_threshold
        assert masks == [] and not composition_change_trigger(bg_cr, shift, cfg)
        bg_cr, shift, _ = engine_pixel_change(*whitened_case(4, 5, 2, cfg))
        assert bg_cr > cfg.patch_change_threshold
        assert len(masks) == 2 and all(mask.all() for mask in masks)
        assert composition_change_trigger(bg_cr, shift, cfg)

    def test_non_finite_belief_is_rejected_as_patch_geometry(self):
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        means = {"t0": [float("nan"), 1.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0]}
        with pytest.raises(ValueError, match="patch geometry must be finite"):
            engine_pixel_change(rgb, rgb, means, 8, 8, CFG)


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
        assert chi_square_shift(hist, hist) == 0.0

    def test_single_channel_disjoint_bins(self):
        # (4-0)^2/4 + (0-4)^2/4 = 8
        shift = chi_square_shift(np.array([4.0, 0.0]), np.array([0.0, 4.0]))
        assert shift == pytest.approx(8.0)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 50, size=(3, 16)).astype(float)
        b = rng.integers(0, 50, size=(3, 16)).astype(float)
        assert chi_square_shift(a, b) == chi_square_shift(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chi_square_shift(np.zeros((3, 8)), np.zeros((3, 16)))

    def test_mean_is_channel_average(self):
        a = np.array([[4.0, 0.0], [4.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 4.0], [4.0, 0.0], [0.0, 0.0]])
        assert chi_square_shift(a, b) == pytest.approx(8.0 / 3.0)


class TestCompositionTrigger:
    def test_requires_both(self):
        cfg = ChangeDetectConfig(patch_change_threshold=0.05, histogram_threshold=10.0)
        low, high = 1.0, 20.0
        assert not composition_change_trigger(0.01, low, cfg)
        assert not composition_change_trigger(0.2, low, cfg)
        assert not composition_change_trigger(0.01, high, cfg)
        assert composition_change_trigger(0.2, high, cfg)

    def test_shift_equal_to_the_threshold_does_not_fire(self):
        cfg = ChangeDetectConfig(patch_change_threshold=0.05, histogram_threshold=10.0)
        assert not composition_change_trigger(0.2, 10.0, cfg)
        assert composition_change_trigger(0.2, math.nextafter(10.0, math.inf), cfg)


class TestRgbHistograms:
    def test_counts_and_mask(self):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        img[:2, :, 0] = 255
        hist = rgb_histograms(img, bins=2, mask=np.ones((4, 4), dtype=bool))
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
        everywhere = np.ones(img.shape[:2], dtype=bool)
        mask = np.random.default_rng(seed).random(img.shape[:2]) < 0.7 if masked else everywhere
        want = numpy_rgb_histograms(img, bins, mask)
        assert np.array_equal(rgb_histograms(img, bins, mask), want)

    @pytest.mark.parametrize("dtype", [np.float64, np.int16, np.uint16, np.int64, bool])
    def test_non_uint8_rejected(self, dtype):
        with pytest.raises(ValueError, match="uint8"):
            rgb_histograms(np.zeros((4, 4, 3), dtype=dtype), bins=8, mask=np.ones((4, 4), bool))

    def test_mask_shape_must_match(self):
        with pytest.raises(ValueError, match="mask"):
            rgb_histograms(np.zeros((4, 4, 3), np.uint8), bins=8, mask=np.ones((4, 5), bool))
