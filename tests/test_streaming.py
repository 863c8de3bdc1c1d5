"""The streaming contract as properties: a run is causal.

Under every policy, the run over the first k frames of a trace logs the first
k frame lines of the run over the whole trace, and the ground-truth keyframes
of those k frames are the whole trace's keyframes below k. So no step, and no
keyframe, reads a frame that has not arrived.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from percsched.config import RunConfig
from percsched.engine import PolicyKind, run, run_offline
from percsched.metrics import extract_keyframes
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
