import numpy as np
import pytest

from percsched.scene import POSE, Entity, EntityKind, PatchRegion
from percsched.toolkit import (
    NoiseConfig,
    _rng_for,
    ready_frame,
    simulate_detection,
    simulate_pose,
)
from percsched.traces import TraceFrame

PERIOD = 1000.0 / 30.0
READY = 1
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
        index=index,
        entities=tuple(entities),
        keypoints=keypoints,
    )


class TestReadyStamp:
    """An output's ready stamp is the index of the frame it becomes visible at."""

    def test_next_boundary(self):
        assert ready_frame(0.0, 15.0, PERIOD) == 1
        assert ready_frame(0.0, 80.0, PERIOD) == 3

    def test_exact_boundary_lands_on_it(self):
        assert ready_frame(0.0, 2 * PERIOD, PERIOD) == 2

    def test_spec_invariant(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            t = float(rng.integers(0, 100)) * PERIOD
            c = float(rng.uniform(0.1, 300.0))
            ready = ready_frame(t, c, PERIOD)
            assert ready * PERIOD >= t + c - PERIOD - 1e-9


class TestSimulateDetection:
    def test_zero_noise_matches_ground_truth(self):
        frame = _frame()
        out = simulate_detection(frame, READY, ZERO_NOISE, rng_seed=0)
        assert [b.entity_id for b in out.boxes] == ["obj-1", "hum-1"]
        box = out.boxes[0]
        assert (box.x_c, box.y_c, box.w, box.h) == (30.0, 25.0, 40.0, 30.0)
        assert out.issued == 0
        assert out.ready == READY

    def test_same_seed_identical(self):
        frame = _frame()
        noisy = NoiseConfig(box_std=2.0)
        a = simulate_detection(frame, READY, noisy, rng_seed=42)
        b = simulate_detection(frame, READY, noisy, rng_seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        frame = _frame()
        noisy = NoiseConfig(box_std=2.0)
        a = simulate_detection(frame, READY, noisy, rng_seed=1)
        b = simulate_detection(frame, READY, noisy, rng_seed=2)
        assert a != b

    def test_empty_frame(self):
        frame = TraceFrame(
            index=0,
            entities=(),
        )
        out = simulate_detection(frame, READY, ZERO_NOISE, rng_seed=0)
        assert out.boxes == ()

    def test_miss_rate_one_drops_everything(self):
        out = simulate_detection(_frame(), READY, NoiseConfig(miss_rate=1.0), rng_seed=0)
        assert out.boxes == ()


class TestSimulatePose:
    def test_zero_noise_keypoints_and_confidence(self):
        frame = _frame()
        out = simulate_pose(frame, READY, ZERO_NOISE, rng_seed=0)
        assert len(out.per_human) == 1
        human = out.per_human[0]
        assert human.entity_id == "hum-1"
        assert len(human.confidences) == len(frame.keypoints["hum-1"])
        for c in human.confidences:
            assert c == pytest.approx(1.0 - ZERO_NOISE.floor_margin)

    def test_no_humans_no_entries(self):
        out = simulate_pose(_frame(with_human=False), READY, ZERO_NOISE, rng_seed=0)
        assert out.per_human == ()

    def test_same_seed_identical_confidences(self):
        noisy = NoiseConfig(confidence_spread=0.3)
        a = simulate_pose(_frame(), READY, noisy, rng_seed=9)
        b = simulate_pose(_frame(), READY, noisy, rng_seed=9)
        assert a == b

    def test_confidences_stay_in_unit_interval(self):
        noisy = NoiseConfig(confidence_spread=5.0)
        out = simulate_pose(_frame(), READY, noisy, rng_seed=3)
        for human in out.per_human:
            for c in human.confidences:
                assert 0.0 < c <= 1.0

    @pytest.mark.parametrize("a, b", [(2.0, 5.0), (0.5, 0.5), (1.0, 1.0)])
    def test_confidences_equal_one_scalar_draw_per_keypoint(self, a, b):
        """Run logs hold rewards computed from these confidences, so the
        array of Beta draws must give the bits of one draw per keypoint."""
        # 0.5 - 0.6 * draw spans [-0.1, 0.5], so large draws clip at min_confidence
        noisy = NoiseConfig(floor_margin=0.5, confidence_spread=0.6, beta_a=a, beta_b=b)
        frame = _frame(index=4)
        rng = _rng_for(9, frame.index, POSE)
        expected = []
        for _ in frame.keypoints["hum-1"]:
            conf = 1.0 - noisy.floor_margin
            conf -= noisy.confidence_spread * float(rng.beta(a, b))
            expected.append(min(1.0, max(noisy.min_confidence, conf)))
        (human,) = simulate_pose(frame, READY, noisy, rng_seed=9).per_human
        assert list(human.confidences) == expected
