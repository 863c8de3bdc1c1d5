import dataclasses

import numpy as np
import pytest

from percsched.config import RunConfig
from percsched.engine import (
    EngineError,
    PolicyKind,
    RunLog,
    SimEngine,
    run,
    run_offline,
)
from percsched.scene import DETECTION, POSE, Entity, EntityKind, FrameStamp, PatchRegion
from percsched.traces import ChangeStats, Trace, TraceFrame, TraceHeader, generate_trace

PERIOD = 1000.0 / 30.0


def make_frame(index, entities=(), keypoints=None, change=None, period=PERIOD):
    return TraceFrame(
        stamp=FrameStamp.at(index, period),
        entities=tuple(entities),
        background=PatchRegion(0, 0, 640, 480),
        keypoints=keypoints or {},
        change=change,
    )


def obj(eid="obj-1", x=100.0, y=100.0, w=40.0, h=30.0, relevance=0.8):
    return Entity(id=eid, kind=EntityKind.OBJECT, region=PatchRegion(x, y, w, h),
                  relevance=relevance)


def human(eid="hum-1", x=200.0, y=100.0, w=60.0, h=150.0, relevance=1.0):
    return Entity(id=eid, kind=EntityKind.HUMAN, region=PatchRegion(x, y, w, h),
                  relevance=relevance)


def human_kps(entity, count=5):
    return {entity.id: tuple((entity.region.x + d, entity.region.y + d) for d in range(count))}


def static_object_trace(frames=12, keypoints=5):
    header = TraceHeader(frame_period_ms=PERIOD, keypoint_count=keypoints, frame_count=frames)
    return Trace(
        header=header,
        frames=tuple(make_frame(i, [obj()]) for i in range(frames)),
    )


def empty_trace(frames=12):
    header = TraceHeader(frame_period_ms=PERIOD, keypoint_count=5, frame_count=frames)
    return Trace(header=header, frames=tuple(make_frame(i) for i in range(frames)))


def pipeline(lam=0.3, **engine_overrides):
    cfg = RunConfig(trace="unused", lambda_info_per_ms=lam)
    if engine_overrides:
        cfg = dataclasses.replace(
            cfg, engine=dataclasses.replace(cfg.engine, **engine_overrides)
        )
    return cfg


class TestParallelPolicy:
    def test_both_activated_when_idle(self):
        trace = static_object_trace()
        log = run(trace, PolicyKind.PARALLEL, pipeline().pipeline(trace.header))
        assert log.records[0].honored == {POSE: True, DETECTION: True}

    def test_activation_chains_follow_busy_windows(self):
        trace = static_object_trace(frames=13)
        log = run(trace, PolicyKind.PARALLEL, pipeline().pipeline(trace.header))
        yolo_frames = [r.index for r in log.records if r.honored[DETECTION]]
        pose_frames = [r.index for r in log.records if r.honored[POSE]]
        assert yolo_frames == list(range(13))  # 15 ms fits inside one frame
        assert pose_frames == [0, 3, 6, 9, 12]  # 80 ms spans three frames

    def test_decisions_made_even_while_busy(self):
        trace = static_object_trace()
        log = run(trace, PolicyKind.PARALLEL, pipeline().pipeline(trace.header))
        assert all(r.decided[POSE] for r in log.records)
        assert log.records[1].dropped[POSE] and log.records[2].dropped[POSE]


class TestOraclePolicy:
    def test_requires_keyframes(self):
        trace = static_object_trace()
        with pytest.raises(EngineError):
            run(trace, PolicyKind.ORACLE, pipeline().pipeline(trace.header))

    def test_activates_exactly_on_keyframes(self):
        trace = static_object_trace()
        kf = {DETECTION: frozenset({3, 7}), POSE: frozenset({3, 7})}
        log = run(trace, PolicyKind.ORACLE, pipeline().pipeline(trace.header), kf)
        assert [r.index for r in log.records if r.honored[DETECTION]] == [3, 7]
        assert [r.index for r in log.records if r.honored[POSE]] == [3, 7]

    def test_busy_collision_drops(self):
        trace = static_object_trace()
        kf = {POSE: frozenset({3, 4}), DETECTION: frozenset()}
        log = run(trace, PolicyKind.ORACLE, pipeline().pipeline(trace.header), kf)
        assert [r.index for r in log.records if r.honored[POSE]] == [3]
        assert log.records[4].decided[POSE] and log.records[4].dropped[POSE]


class TestScheduledPolicy:
    def test_cold_start_forces_detection(self):
        trace = static_object_trace()
        log = run(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header))
        assert log.records[0].forced[DETECTION]
        assert log.records[0].honored[DETECTION]

    def test_static_empty_scene_goes_quiet(self):
        trace = empty_trace(frames=30)
        log = run(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header))
        yolo_after_start = [r.index for r in log.records[1:] if r.honored[DETECTION]]
        pose_any = [r.index for r in log.records if r.honored[POSE]]
        assert yolo_after_start == []
        assert pose_any == []

    def test_no_humans_means_no_pose(self):
        trace = static_object_trace(frames=40)
        log = run(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header))
        assert not any(r.decided[POSE] for r in log.records)

    def test_zero_lambda_reduces_to_gain_sign(self):
        trace = generate_trace("interaction", 150, seed=6)
        log = run(trace, PolicyKind.SCHEDULED, pipeline(lam=0.0).pipeline(trace.header))
        for rec in log.records:
            assert rec.cost_penalty[DETECTION] == 0.0
            expected = rec.info_gain[DETECTION] > 0.0 or rec.forced[DETECTION]
            assert rec.decided[DETECTION] == expected
        assert any(r.info_gain[DETECTION] > 0 for r in log.records)

    def test_cost_monotonicity(self):
        trace = generate_trace("static", 240, seed=4)
        free = run(trace, PolicyKind.SCHEDULED, pipeline(lam=0.0).pipeline(trace.header))
        priced = run(trace, PolicyKind.SCHEDULED, pipeline(lam=0.3).pipeline(trace.header))
        n_free = sum(1 for r in free.records if r.honored[DETECTION])
        n_priced = sum(1 for r in priced.records if r.honored[DETECTION])
        assert n_free >= n_priced

    def test_pose_forced_when_human_enters(self):
        frames = [make_frame(0, [obj()])]
        for i in range(1, 12):
            h = human()
            frames.append(
                make_frame(
                    i,
                    [obj(), h],
                    keypoints=human_kps(h),
                    change=ChangeStats(0.2, 25.0, {"hum-1": 0.5}),
                )
            )
        trace = Trace(
            header=TraceHeader(frame_period_ms=PERIOD, keypoint_count=5, frame_count=12),
            frames=tuple(frames),
        )
        log = run(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header))
        # composition trigger forces pose immediately; tracking confirms later
        assert any(r.forced[POSE] for r in log.records[1:4])

    def test_zero_noise_recovers_ground_truth_boxes(self):
        trace = static_object_trace(frames=6)
        cfg = pipeline().pipeline(trace.header)
        engine = SimEngine(trace, PolicyKind.SCHEDULED, cfg)
        for frame in trace.frames:
            engine.step(frame)
        track = engine.tracks["obj-1"]
        cx, cy = trace.frames[0].entities[0].region.center
        np.testing.assert_allclose(track.box, [cx, cy, 40.0, 30.0], atol=1e-6)


class TestBusyDiscipline:
    @pytest.mark.parametrize("policy", [PolicyKind.PARALLEL, PolicyKind.SCHEDULED])
    def test_no_overlapping_inferences(self, policy):
        trace = generate_trace("walking", 200, seed=2)
        log = run(trace, policy, pipeline().pipeline(trace.header))
        min_gap = {DETECTION: 1, POSE: 3}
        for module, gap in min_gap.items():
            honored = [r.index for r in log.records if r.honored[module]]
            assert all(b - a >= gap for a, b in zip(honored, honored[1:]))

    def test_outputs_applied_once_at_ready_frame(self):
        trace = generate_trace("interaction", 150, seed=1)
        log = run(trace, PolicyKind.PARALLEL, pipeline().pipeline(trace.header))
        applications = []
        for rec in log.records:
            for entry in rec.applied:
                applications.append((entry["module"], entry["issued"]))
                assert rec.index == entry["ready"]
        assert len(applications) == len(set(applications))
        honored = [
            (m, r.index)
            for r in log.records
            for m in (DETECTION, POSE)
            if r.honored[m]
        ]
        # everything honored is applied except outputs still in flight at the end
        in_flight = len(honored) - len(applications)
        assert 0 <= in_flight <= 2

    def test_queue_mode_honors_at_busy_end(self):
        trace = static_object_trace()
        kf = {POSE: frozenset({0, 1}), DETECTION: frozenset()}
        drop_log = run(trace, PolicyKind.ORACLE, pipeline().pipeline(trace.header), kf)
        assert [r.index for r in drop_log.records if r.honored[POSE]] == [0]
        queue_log = run(
            trace,
            PolicyKind.ORACLE,
            pipeline(busy_policy="queue").pipeline(trace.header),
            kf,
        )
        honored = [r.index for r in queue_log.records if r.honored[POSE]]
        assert honored == [0, 3]
        assert not queue_log.records[3].decided[POSE]


class TestEngineMechanics:
    def test_trace_underrun_rejected(self):
        trace = static_object_trace()
        engine = SimEngine(trace, PolicyKind.PARALLEL, pipeline().pipeline(trace.header))
        with pytest.raises(EngineError):
            engine.step(trace.frames[5])

    def test_empty_trace_rejected(self):
        header = TraceHeader(frame_count=0)
        with pytest.raises(EngineError):
            SimEngine(
                Trace(header=header, frames=()),
                PolicyKind.PARALLEL,
                pipeline().pipeline(header),
            )

    def test_stale_tracks_dropped(self):
        frames = [make_frame(0, [obj()])] + [make_frame(i) for i in range(1, 16)]
        trace = Trace(
            header=TraceHeader(frame_period_ms=PERIOD, keypoint_count=5, frame_count=16),
            frames=tuple(frames),
        )
        cfg = RunConfig(trace="unused")
        cfg = dataclasses.replace(
            cfg,
            kalman=dataclasses.replace(cfg.kalman, max_frames_since_update=5),
            engine=dataclasses.replace(cfg.engine, delete_on_miss=False),
        )
        log = run(trace, PolicyKind.SCHEDULED, cfg.pipeline(trace.header))
        assert log.records[2].tracked == 1
        assert log.records[-1].tracked == 0

    def test_serial_overhead_delays_readiness(self):
        trace = static_object_trace()
        cfg = pipeline(scheduling_overhead_ms=20.0, overhead_accounting="serial")
        log = run(trace, PolicyKind.PARALLEL, cfg.pipeline(trace.header))
        first_applied = next(
            (r.index, e) for r in log.records for e in r.applied if e["module"] == DETECTION
        )
        # 20 ms overhead pushes the 15 ms inference past the next boundary
        assert first_applied[1]["ready"] == 2

    def test_run_determinism_in_process(self):
        trace = generate_trace("interaction", 120, seed=9)
        cfg = pipeline().pipeline(trace.header)
        a = run(trace, PolicyKind.SCHEDULED, cfg).to_jsonl()
        b = run(trace, PolicyKind.SCHEDULED, cfg).to_jsonl()
        assert a == b

    def test_state_snapshot_tracks_progress(self):
        trace = static_object_trace(frames=8)
        engine = SimEngine(trace, PolicyKind.PARALLEL, pipeline().pipeline(trace.header))
        assert engine.state.clock.index == 0
        for frame in trace.frames[:4]:
            engine.step(frame)
        snap = engine.state
        assert snap.clock.index == 4
        assert snap.frames_logged == 4
        assert snap.busy_until[POSE] > snap.busy_until[DETECTION]
        assert "obj-1" in snap.tracks

    def test_runlog_round_trip(self):
        trace = generate_trace("static", 90, seed=2)
        log = run(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header))
        back = RunLog.from_jsonl(log.to_jsonl())
        assert back.to_jsonl() == log.to_jsonl()
        assert back.header.policy == "scheduled"


class TestOfflineRun:
    def test_observations_present_every_frame(self):
        trace = generate_trace("walking", 60, seed=1)
        log = run_offline(trace, pipeline().pipeline(trace.header))
        assert log.header.policy == "offline"
        for rec in log.records:
            assert rec.observations is not None
            assert rec.honored[DETECTION] and rec.honored[POSE]

    def test_observation_geometry_matches_trace(self):
        trace = generate_trace("walking", 60, seed=1)
        log = run_offline(trace, pipeline().pipeline(trace.header))
        frame = trace.frames[30]
        rec = log.records[30]
        by_id = {b[0]: b for b in rec.observations["boxes"]}
        for e in frame.entities:
            cx, cy = e.region.center
            assert by_id[e.id][2] == cx and by_id[e.id][3] == cy


def _level_switch_trace(level):
    """Eight uniform rasters at grey level 60, switching to ``level`` at frame 4."""
    from percsched.traces import FramePixels

    frames = [
        TraceFrame(
            stamp=FrameStamp.at(i, PERIOD),
            entities=(obj(),),
            background=PatchRegion(0, 0, 640, 480),
            pixels=FramePixels(rgb=np.full((48, 64, 3), 60 if i < 4 else level, np.uint8)),
        )
        for i in range(8)
    ]
    return Trace(
        header=TraceHeader(frame_period_ms=PERIOD, keypoint_count=5, frame_count=8),
        frames=tuple(frames),
    )


class TestPixelTraces:
    def test_pixel_variant_drives_change_detection(self):
        trace = _level_switch_trace(200)  # global change from frame 4 on
        log = run(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header))
        assert log.records[4].forced[DETECTION]
        assert not log.records[2].forced[DETECTION]

    def test_slight_darkening_is_below_the_intensity_threshold(self):
        # |50 - 60| = 10 < 30; a byte difference that wrapped would read 246
        trace = _level_switch_trace(50)
        log = run(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header))
        assert not any(rec.forced[DETECTION] for rec in log.records[1:])
