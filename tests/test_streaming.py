"""The streaming contract as properties: a run is causal, and its modules
are independent.

Under every policy, the run over the first k frames of a trace logs the first
k frame lines of the run over the whole trace, and the ground-truth keyframes
of those k frames are the whole trace's keyframes below k. So no step, and no
keyframe, reads a frame that has not arrived.

At zero noise, every detection the engine applies holds its issue frame's
boxes exactly. A step could hand the detector a later frame and still pass
the prefix property, since its output is applied no earlier than that frame.

Under ``scheduled``, with busy activations dropped or queued, yolo's side of
a run does not move when only pose's parameters do: its decided, honored,
dropped and forced flags, its information gain, the tracked count and its
applied outputs. The pose-only parameters are pose's cost, the keypoint
sigma table and the pose simulator's confidence spread and floor margin.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from percsched.config import RunConfig
from percsched.engine import EngineConfig, PipelineConfig, PolicyKind, SimEngine, run, run_offline
from percsched.metrics import extract_keyframes
from percsched.scene import DETECTION, POSE, EntityKind
from percsched.toolkit import NoiseConfig
from percsched.traces import ARCHETYPES, Trace, generate_trace

NOISE = NoiseConfig(box_std=2.0, miss_rate=0.1, false_positive_rate=0.05, confidence_spread=0.3)


@st.composite
def _prefixed_traces(draw):
    """A small generated trace, a prefix length k below its length, and a
    config at zero or at the golden ``noise`` noise."""
    keypoints = draw(st.sampled_from((17, 133)))
    frames = draw(st.sampled_from(range(2, 41 if keypoints == 17 else 7)))
    seed = draw(st.integers(0, 2**16))
    trace = generate_trace(draw(st.sampled_from(ARCHETYPES)), frames, seed,
                           keypoint_count=keypoints)
    noise = NOISE if draw(st.booleans()) else NoiseConfig()
    return trace, draw(st.sampled_from(range(1, frames))), RunConfig(seed=seed, noise=noise)


def _frame_lines(trace: Trace, cfg: RunConfig):
    """The ground-truth keyframes of ``trace`` and, per policy, the frame
    lines of its run log."""
    pipe = cfg.pipeline(trace.header)
    gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
    lines = {
        kind: run(trace, kind, pipe, gt.required if kind is PolicyKind.ORACLE else None)
        .to_jsonl()
        .splitlines()[1:]
        for kind in PolicyKind
    }
    return gt.required, lines


@settings(max_examples=100)
@given(_prefixed_traces())
def test_a_run_over_a_prefix_is_the_prefix_of_the_run(case):
    trace, k, cfg = case
    prefix = Trace(
        header=dataclasses.replace(trace.header, frame_count=k), frames=trace.frames[:k]
    )
    required, lines = _frame_lines(trace, cfg)
    prefix_required, prefix_lines = _frame_lines(prefix, cfg)
    assert prefix_required == {m: frozenset(f for f in fs if f < k) for m, fs in required.items()}
    for kind in PolicyKind:
        assert prefix_lines[kind] == lines[kind][:k], kind


class _AppliedDetections(SimEngine):
    """The engine, keeping every detection output it applies."""

    def __init__(self, *args):
        super().__init__(*args)
        self.detections = []

    def _apply_ready_outputs(self, k):
        self.detections.extend(
            out for ready, _, module, out in self.pending if ready <= k and module == DETECTION
        )
        return super()._apply_ready_outputs(k)


@settings(max_examples=60)
@given(_prefixed_traces())
def test_an_applied_detection_holds_its_issue_frame_boxes_at_zero_noise(case):
    trace, _, cfg = case
    cfg = dataclasses.replace(cfg, noise=NoiseConfig())
    pipe = cfg.pipeline(trace.header)
    gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
    for kind in PolicyKind:
        engine = _AppliedDetections(trace, kind, pipe, gt.required)
        log = engine.run()
        applied = [e["issued"] for rec in log.records for e in rec.applied
                   if e["module"] == DETECTION]
        assert [out.issued for out in engine.detections] == applied, kind
        for out in engine.detections:
            entities = [e for e in trace.frames[out.issued].entities
                        if e.kind is not EntityKind.BACKGROUND]
            assert out.ids == tuple(e.id for e in entities), (kind, out.issued)
            assert out.boxes.tolist() == [
                [*e.region.center, e.region.w, e.region.h] for e in entities
            ], (kind, out.issued)


@st.composite
def _pose_moves(draw):
    """A small generated trace; its scheduled pipeline at zero or the golden
    ``noise`` noise, with busy activations dropped or queued; and the same
    pipeline with pose's cost, sigma table, confidence spread and floor
    margin drawn anew."""
    keypoints = draw(st.sampled_from((17, 133)))
    frames = draw(st.sampled_from(range(2, 41 if keypoints == 17 else 7)))
    seed = draw(st.integers(0, 2**16))
    trace = generate_trace(draw(st.sampled_from(ARCHETYPES)), frames, seed,
                           keypoint_count=keypoints)
    cfg = RunConfig(
        seed=seed,
        noise=NOISE if draw(st.booleans()) else NoiseConfig(),
        engine=EngineConfig(busy_policy=draw(st.sampled_from(("drop", "queue")))),
    )
    pipe = cfg.pipeline(trace.header)
    sigmas = st.floats(0.01, 0.2, allow_subnormal=False)
    reward = dataclasses.replace(
        pipe.reward,
        cost_ms={**pipe.reward.cost_ms, POSE: draw(st.sampled_from((5.0, 40.0, 200.0)))},
        sigma_base=draw(st.none() | st.tuples(*[sigmas] * keypoints)),
    )
    noise = dataclasses.replace(
        pipe.noise,
        confidence_spread=draw(st.sampled_from((0.0, 0.03, 0.3))),
        floor_margin=draw(st.sampled_from((0.0, 0.5, 0.95))),
    )
    return trace, pipe, dataclasses.replace(pipe, reward=reward, noise=noise)


def _yolo_side(trace: Trace, pipe: PipelineConfig) -> list:
    """Per frame of a scheduled run: yolo's decided, honored, dropped and
    forced flags and information gain, the tracked count, and yolo's applied
    entries."""
    return [
        (
            *(getattr(rec, name)[DETECTION]
              for name in ("decided", "honored", "dropped", "forced", "info_gain")),
            rec.tracked,
            [e for e in rec.applied if e["module"] == DETECTION],
        )
        for rec in run(trace, PolicyKind.SCHEDULED, pipe).records
    ]


@settings(max_examples=100)
@given(_pose_moves())
def test_yolo_ignores_every_pose_only_parameter(case):
    trace, pipe, moved = case
    assert _yolo_side(trace, moved) == _yolo_side(trace, pipe)


def test_a_pose_only_parameter_moves_pose_and_not_yolo():
    """The property above has something to hold against: on an interaction
    trace, a cheaper pose changes pose's decisions while yolo's side stays."""
    trace = generate_trace("interaction", 150, 7)
    pipe = RunConfig(seed=7).pipeline(trace.header)
    cheap = dataclasses.replace(
        pipe, reward=dataclasses.replace(pipe.reward, cost_ms={**pipe.reward.cost_ms, POSE: 5.0})
    )
    pose = [
        [rec.decided[POSE] for rec in run(trace, PolicyKind.SCHEDULED, p).records]
        for p in (pipe, cheap)
    ]
    assert pose[0] != pose[1]
    assert _yolo_side(trace, cheap) == _yolo_side(trace, pipe)
