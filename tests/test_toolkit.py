import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from percsched import toolkit
from percsched.cli import main
from percsched.engine import RunLog
from percsched.scene import DETECTION, POSE, Entity, EntityKind, PatchRegion
from percsched.toolkit import (
    NoiseConfig,
    _rng_for,
    ready_frame,
    simulate_detection,
    simulate_pose,
)
from percsched.traces import TraceFrame, write_trace
from test_golden import FRAMES as GOLDEN_FRAMES
from test_golden import SEED as GOLDEN_SEED
from test_golden import VARIANTS as GOLDEN_VARIANTS
from test_golden import make_trace

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


def _detections(out):
    """A detection output as plain values, for exact comparison."""
    return out.issued, out.ready, out.ids, out.boxes.tolist()


class TestSimulateDetection:
    def test_zero_noise_matches_ground_truth(self):
        frame = _frame()
        out = simulate_detection(frame, READY, ZERO_NOISE, rng_seed=0)
        assert _detections(out) == (
            0, READY, ("obj-1", "hum-1"),
            [[30.0, 25.0, 40.0, 30.0], [130.0, 110.0, 60.0, 120.0]],
        )

    def test_same_seed_identical(self):
        frame = _frame()
        noisy = NoiseConfig(box_std=2.0)
        a = simulate_detection(frame, READY, noisy, rng_seed=42)
        b = simulate_detection(frame, READY, noisy, rng_seed=42)
        assert _detections(a) == _detections(b)

    def test_different_seeds_differ(self):
        frame = _frame()
        noisy = NoiseConfig(box_std=2.0)
        a = simulate_detection(frame, READY, noisy, rng_seed=1)
        b = simulate_detection(frame, READY, noisy, rng_seed=2)
        assert _detections(a) != _detections(b)

    def test_empty_frame(self):
        frame = TraceFrame(
            index=0,
            entities=(),
        )
        out = simulate_detection(frame, READY, ZERO_NOISE, rng_seed=0)
        assert out.ids == () and out.boxes.shape == (0, 4)

    def test_miss_rate_one_drops_everything(self):
        out = simulate_detection(_frame(), READY, NoiseConfig(miss_rate=1.0), rng_seed=0)
        assert out.ids == () and out.boxes.shape == (0, 4)


def _poses(out):
    """A pose output as plain values, for exact comparison."""
    return out.issued, out.ready, out.ids, out.confidences.tolist()


class TestSimulatePose:
    def test_zero_noise_keypoints_and_confidence(self):
        frame = _frame()
        out = simulate_pose(frame, READY, ZERO_NOISE, rng_seed=0)
        level = 1.0 - ZERO_NOISE.floor_margin
        assert _poses(out) == (0, READY, ("hum-1",), [[level] * len(frame.keypoints["hum-1"])])

    def test_no_humans_no_entries(self):
        out = simulate_pose(_frame(with_human=False), READY, ZERO_NOISE, rng_seed=0)
        assert out.ids == () and out.confidences.shape == (0, 0)

    def test_same_seed_identical_confidences(self):
        noisy = NoiseConfig(confidence_spread=0.3)
        a = simulate_pose(_frame(), READY, noisy, rng_seed=9)
        b = simulate_pose(_frame(), READY, noisy, rng_seed=9)
        assert _poses(a) == _poses(b)

    def test_confidences_stay_in_unit_interval(self):
        noisy = NoiseConfig(confidence_spread=5.0)
        out = simulate_pose(_frame(), READY, noisy, rng_seed=3)
        assert out.confidences.shape == (1, 17)
        assert ((out.confidences > 0.0) & (out.confidences <= 1.0)).all()

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
        out = simulate_pose(frame, READY, noisy, rng_seed=9)
        assert out.ids == ("hum-1",) and out.confidences.tolist() == [expected]

    def test_ragged_keypoint_counts_raise_naming_the_frame(self):
        frame = _frame(index=6)
        frame = dataclasses.replace(
            frame,
            entities=frame.entities + (
                Entity(id="hum-2", kind=EntityKind.HUMAN, region=PatchRegion(300, 50, 60, 120)),
            ),
            keypoints={**frame.keypoints, "hum-2": ((300.0, 50.0),) * 5},
        )
        with pytest.raises(ValueError, match=r"^frame 6: humans have different keypoint counts"):
            simulate_pose(frame, READY, ZERO_NOISE, rng_seed=0)


DRAW_KNOBS = {
    "box_std": st.floats(0.01, 50.0),
    "miss_rate": st.floats(0.01, 1.0),
    "false_positive_rate": st.floats(0.01, 1.0),
    "confidence_spread": st.floats(0.01, 5.0),
}
# no knob, each knob alone, every knob together
KNOB_SETS = ((), *((name,) for name in DRAW_KNOBS), tuple(DRAW_KNOBS))


@given(
    knobs=st.sampled_from(KNOB_SETS),
    values=st.fixed_dictionaries(DRAW_KNOBS),
    name=st.sampled_from(("static", "interaction", "walking")),
    index=st.integers(0, GOLDEN_FRAMES - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulators_equal_the_oracle(knobs, values, name, index, seed):
    """Building the generator at the first draw keeps every draw: ids, boxes
    and confidences equal those of simulators that build it on every call."""
    noise = NoiseConfig(**{knob: values[knob] for knob in knobs})
    frame = make_trace(name).frames[index]
    detected = simulate_detection(frame, READY, noise, seed)
    assert [(tid, *row) for tid, row in zip(detected.ids, detected.boxes.tolist())] == (
        oracles.simulate_detection(frame, noise, seed)
    )
    posed = simulate_pose(frame, READY, noise, seed)
    assert list(zip(posed.ids, map(tuple, posed.confidences.tolist()))) == (
        oracles.simulate_pose(frame, noise, seed)
    )


@st.composite
def crowded_frames(draw):
    """An in-memory frame of 2-4 humans, some objects and a background, all
    humans with the same keypoint count."""
    count = draw(st.integers(1, 133))
    humans = draw(st.integers(2, 4))
    kinds = [EntityKind.HUMAN] * humans + draw(
        st.lists(st.sampled_from((EntityKind.OBJECT, EntityKind.BACKGROUND)), max_size=3)
    )
    kinds = draw(st.permutations(kinds))
    entities = tuple(
        Entity(id=f"e-{i}", kind=kind, region=PatchRegion(10 * i, 20, 30, 60))
        for i, kind in enumerate(kinds)
    )
    keypoints = {
        e.id: tuple((float(e.region.x + d), 40.0) for d in range(count))
        for e in entities if e.kind is EntityKind.HUMAN
    }
    return TraceFrame(index=draw(st.integers(0, 10_000)), entities=entities, keypoints=keypoints)


@given(
    knobs=st.sampled_from(KNOB_SETS),
    values=st.fixed_dictionaries(DRAW_KNOBS),
    beta=st.sampled_from(((2.0, 5.0), (0.5, 0.5), (1.0, 1.0))),
    frame=crowded_frames(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pose_rows_equal_the_oracle_on_several_humans(knobs, values, beta, frame, seed):
    """One (humans, keypoints) draw gives each human's row the bits of that
    human's own draws: every row equals the oracle's tuple for it."""
    noise = NoiseConfig(beta_a=beta[0], beta_b=beta[1], **{k: values[k] for k in knobs})
    posed = simulate_pose(frame, READY, noise, seed)
    assert len(posed.ids) >= 2
    assert list(zip(posed.ids, map(tuple, posed.confidences.tolist()))) == (
        oracles.simulate_pose(frame, noise, seed)
    )


@pytest.mark.parametrize("name", ["static", "interaction", "walking"])
def test_generators_are_built_only_to_draw(tmp_path, monkeypatch, name):
    """A zero-noise compare builds no generator. The golden noise variant
    builds one per honored activation that draws: every yolo activation draws
    for its false positive, and a pose activation draws when its frame holds
    a human with keypoints."""
    built = Counter()

    def counting(seed, frame_index, module):
        built[module] += 1
        return _rng_for(seed, frame_index, module)

    monkeypatch.setattr(toolkit, "_rng_for", counting)
    trace = make_trace(name)
    trace_path = tmp_path / "trace.jsonl"
    write_trace(trace_path, trace)
    config_path = tmp_path / "config.json"

    def compare(out, **config):
        config_path.write_text(json.dumps({"seed": GOLDEN_SEED, **config}))
        built.clear()
        assert main(["compare", "--config", str(config_path), "--trace", str(trace_path),
                     "--out", str(out)]) == 0
        logs = sorted(out.glob("*.runlog.jsonl"))
        assert len(logs) == 3
        return [RunLog.read(path) for path in logs]

    compare(tmp_path / "exact")
    assert sum(built.values()) == 0

    logs = compare(tmp_path / "noise", noise=dataclasses.asdict(GOLDEN_VARIANTS["noise"].noise))
    posed = {
        frame.index for frame in trace.frames
        if any(e.kind is EntityKind.HUMAN and e.id in frame.keypoints for e in frame.entities)
    }
    draws = Counter()
    for log in logs:
        for record in log.records:
            draws[DETECTION] += record.honored[DETECTION]
            draws[POSE] += record.honored[POSE] and record.index in posed
    assert draws[DETECTION] and draws[POSE]
    assert built == draws
