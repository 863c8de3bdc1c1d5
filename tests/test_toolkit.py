import numpy as np
import pytest

from percsched.scene import DETECTION, POSE, Entity, EntityKind, FrameStamp, PatchRegion
from percsched.toolkit import (
    ModuleSpec,
    NoiseConfig,
    OutputKind,
    ready_stamp,
    simulate_detection,
    simulate_pose,
)
from percsched.traces import TraceFrame

PERIOD = 1000.0 / 30.0
DET_SPEC = ModuleSpec(DETECTION, 15.0, OutputKind.DETECTIONS)
POSE_SPEC = ModuleSpec(POSE, 80.0, OutputKind.KEYPOINTS)
ZERO_NOISE = NoiseConfig()


def _frame(index=0, with_human=True):
    entities = [
        Entity(id="obj-1", kind=EntityKind.OBJECT, region=PatchRegion(10, 10, 40, 30)),
    ]
    keypoints = {}
    if with_human:
        entities.append(
            Entity(id="hum-1", kind=EntityKind.HUMAN, region=PatchRegion(100, 50, 60, 120))
        )
        keypoints["hum-1"] = tuple((100.0 + d, 50.0 + 2 * d) for d in range(17))
    return TraceFrame(
        stamp=FrameStamp.at(index, PERIOD),
        entities=tuple(entities),
        background=PatchRegion(0, 0, 640, 480),
        keypoints=keypoints,
    )


class TestReadyStamp:
    def test_next_boundary(self):
        assert ready_stamp(0.0, 15.0, PERIOD).index == 1
        assert ready_stamp(0.0, 80.0, PERIOD).index == 3

    def test_exact_boundary_lands_on_it(self):
        assert ready_stamp(0.0, 2 * PERIOD, PERIOD).index == 2

    def test_spec_invariant(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            t = float(rng.integers(0, 100)) * PERIOD
            c = float(rng.uniform(0.1, 300.0))
            ready = ready_stamp(t, c, PERIOD)
            assert ready.time_ms >= t + c - PERIOD - 1e-9


class TestSimulateDetection:
    def test_zero_noise_matches_ground_truth(self):
        frame = _frame()
        out = simulate_detection(frame, DET_SPEC, ZERO_NOISE, rng_seed=0)
        assert [b.entity_id for b in out.boxes] == ["obj-1", "hum-1"]
        box = out.boxes[0]
        assert (box.x_c, box.y_c, box.w, box.h) == (30.0, 25.0, 40.0, 30.0)
        assert out.stamp_issued.index == 0
        assert out.stamp_ready.index == 1

    def test_same_seed_identical(self):
        frame = _frame()
        noisy = NoiseConfig(box_std=2.0)
        a = simulate_detection(frame, DET_SPEC, noisy, rng_seed=42)
        b = simulate_detection(frame, DET_SPEC, noisy, rng_seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        frame = _frame()
        noisy = NoiseConfig(box_std=2.0)
        a = simulate_detection(frame, DET_SPEC, noisy, rng_seed=1)
        b = simulate_detection(frame, DET_SPEC, noisy, rng_seed=2)
        assert a != b

    def test_empty_frame(self):
        frame = TraceFrame(
            stamp=FrameStamp.at(0, PERIOD),
            entities=(),
            background=PatchRegion(0, 0, 640, 480),
        )
        out = simulate_detection(frame, DET_SPEC, ZERO_NOISE, rng_seed=0)
        assert out.boxes == ()

    def test_miss_rate_one_drops_everything(self):
        out = simulate_detection(_frame(), DET_SPEC, NoiseConfig(miss_rate=1.0), rng_seed=0)
        assert out.boxes == ()


class TestSimulatePose:
    def test_zero_noise_keypoints_and_confidence(self):
        frame = _frame()
        out = simulate_pose(frame, POSE_SPEC, ZERO_NOISE, rng_seed=0)
        assert len(out.per_human) == 1
        human = out.per_human[0]
        assert human.entity_id == "hum-1"
        for d, (x, y, c) in enumerate(human.keypoints):
            assert (x, y) == (100.0 + d, 50.0 + 2 * d)
            assert c == pytest.approx(1.0 - ZERO_NOISE.floor_margin)

    def test_no_humans_no_entries(self):
        out = simulate_pose(_frame(with_human=False), POSE_SPEC, ZERO_NOISE, rng_seed=0)
        assert out.per_human == ()

    def test_same_seed_identical_confidences(self):
        noisy = NoiseConfig(confidence_spread=0.3, keypoint_std=1.0)
        a = simulate_pose(_frame(), POSE_SPEC, noisy, rng_seed=9)
        b = simulate_pose(_frame(), POSE_SPEC, noisy, rng_seed=9)
        assert a == b

    def test_confidences_stay_in_unit_interval(self):
        noisy = NoiseConfig(confidence_spread=5.0)
        out = simulate_pose(_frame(), POSE_SPEC, noisy, rng_seed=3)
        for human in out.per_human:
            for _, _, c in human.keypoints:
                assert 0.0 < c <= 1.0

    def test_ready_time_respects_inference(self):
        out = simulate_pose(_frame(index=10), POSE_SPEC, ZERO_NOISE, rng_seed=0)
        assert out.stamp_issued.index == 10
        assert out.stamp_ready.index == 13


class TestModuleSpec:
    def test_positive_inference_time(self):
        with pytest.raises(ValueError):
            ModuleSpec(DETECTION, 0.0, OutputKind.DETECTIONS)
