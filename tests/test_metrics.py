import pytest

from percsched.config import RunConfig
from percsched.engine import (
    FrameRecord,
    PolicyKind,
    RunLog,
    RunLogHeader,
    run,
    run_offline,
)
from percsched.metrics import (
    GroundTruthKeyframes,
    KeyframeThresholds,
    build_report,
    extract_keyframes,
    format_comparison,
    format_report,
    latency,
)
from percsched.scene import DETECTION, POSE, Entity, EntityKind, PatchRegion
from percsched.traces import Trace, TraceFrame, TraceHeader, generate_trace

PERIOD = 1000.0 / 30.0
MODULES = (DETECTION, POSE)


def ground_truth_frames(frames):
    """Number per-frame ``(entities, keypoints)`` pairs as trace frames."""
    return tuple(
        TraceFrame(index=i, entities=tuple(entities), keypoints=keypoints)
        for i, (entities, keypoints) in enumerate(frames)
    )


def obs(entities, keypoints=None):
    return entities, keypoints or {}


def box(eid, kind, cx, cy, relevance=1.0):
    """An entity whose 30 x 40 px box is centred on (cx, cy): the half
    extents are whole, so the centre is exactly (cx, cy) for whole cx, cy."""
    return Entity(eid, EntityKind(kind), PatchRegion(cx - 15.0, cy - 20.0, 30.0, 40.0), relevance)


def synthetic_run(policy, decided, honored, decision_time=0.0, n=None):
    n = n or max(len(decided), len(honored))
    records = []
    for i in range(n):
        d = {m: i in decided.get(m, set()) for m in MODULES}
        h = {m: i in honored.get(m, set()) for m in MODULES}
        records.append(
            FrameRecord(
                index=i,
                decided=d,
                forced={m: False for m in MODULES},
                info_gain={m: 0.0 for m in MODULES},
                cost_penalty={m: 0.0 for m in MODULES},
                net={m: 0.0 for m in MODULES},
                honored=h,
                dropped={m: d[m] and not h[m] for m in MODULES},
                applied=(),
                decision_time_ms=decision_time,
                tracked=0,
            )
        )
    header = RunLogHeader(
        policy=policy,
        seed=0,
        frame_period_ms=PERIOD,
        frame_count=n,
        module_costs={DETECTION: 15.0, POSE: 80.0},
        keypoint_count=3,
    )
    return RunLog(header=header, records=tuple(records))


class TestExtractKeyframes:
    def test_perfectly_static_trace_requires_only_frame_zero(self):
        frames = [
            obs(
                [box("a", "object", 50, 50), box("h", "human", 200, 100)],
                {"h": [[200.0, 100.0], [210.0, 110.0], [220.0, 120.0]]},
            )
        ] * 20
        gt = extract_keyframes(ground_truth_frames(frames))
        assert gt.required[DETECTION] == frozenset({0})
        assert gt.required[POSE] == frozenset({0})

    def test_entity_appearance_requires_detection(self):
        before = obs([box("a", "object", 50, 50)])
        after = obs([box("a", "object", 50, 50), box("b", "object", 90, 90)])
        frames = [before] * 12 + [after] * 5
        gt = extract_keyframes(ground_truth_frames(frames))
        assert 12 in gt.required[DETECTION]
        assert gt.required[DETECTION] == frozenset({0, 12})

    def test_constant_velocity_walker_requires_every_frame(self):
        # 20 px/frame exceeds both thresholds immediately, so every frame
        # past the first becomes a fresh keyframe for both modules
        frames = []
        for i in range(10):
            x = 100.0 + 20.0 * i
            frames.append(
                obs(
                    [box("h", "human", x, 100)],
                    {"h": [[x, 100.0], [x + 5, 120.0], [x - 5, 140.0]]},
                )
            )
        gt = extract_keyframes(ground_truth_frames(frames), KeyframeThresholds(10.0, 15.0))
        assert gt.required[DETECTION] == frozenset(range(10))
        assert gt.required[POSE] == frozenset(range(10))

    def test_human_exit_requires_pose(self):
        with_h = obs([box("h", "human", 100, 100)], {"h": [[1.0, 1.0], [2, 2], [3, 3]]})
        without = obs([])
        gt = extract_keyframes(ground_truth_frames([with_h] * 5 + [without] * 5))
        assert 5 in gt.required[POSE]
        assert 5 in gt.required[DETECTION]

    def test_sub_threshold_drift_not_required(self):
        frames = []
        for i in range(8):
            x = 100.0 + 1.0 * i  # 1 px/frame stays under the 10 px threshold here
            frames.append(obs([box("a", "object", x, 100)]))
        gt = extract_keyframes(ground_truth_frames(frames))
        assert gt.required[DETECTION] == frozenset({0})

    def test_zero_relevance_entities_ignored_for_drift(self):
        frames = []
        for i in range(6):
            x = 100.0 + 30.0 * i
            frames.append(obs([box("a", "object", x, 100, relevance=0.0)]))
        gt = extract_keyframes(ground_truth_frames(frames))
        assert gt.required[DETECTION] == frozenset({0})

    def test_box_drift_of_exactly_tau_is_not_a_keyframe(self):
        # a (6, 8) px shift is exactly 10.0 px, the default tau_box_px
        frames = [obs([box("a", "object", 100, 100)])] + [obs([box("a", "object", 106, 108)])] * 3
        gt = extract_keyframes(ground_truth_frames(frames))
        assert gt.required[DETECTION] == frozenset({0})

    def test_keypoint_drift_of_exactly_tau_is_not_a_keyframe(self):
        # a (9, 12) px shift of every keypoint is exactly 15.0 px, the
        # default tau_kp_px; the box stays put
        points = [[200.0, 100.0], [210.0, 110.0], [220.0, 120.0]]
        moved = [[x + 9.0, y + 12.0] for x, y in points]
        human = [box("h", "human", 200, 100)]
        frames = [obs(human, {"h": points})] + [obs(human, {"h": moved})] * 3
        gt = extract_keyframes(ground_truth_frames(frames))
        assert gt.required[POSE] == frozenset({0})
        assert gt.required[DETECTION] == frozenset({0})

    def test_zero_relevance_human_keypoint_drift_ignored(self):
        frames = []
        for i in range(6):
            x = 100.0 + 40.0 * i
            frames.append(obs(
                [box("h", "human", 100, 100, relevance=0.0)],
                {"h": [[x, 100.0], [x + 5, 120.0], [x - 5, 140.0]]},
            ))
        gt = extract_keyframes(ground_truth_frames(frames))
        assert gt.required[POSE] == frozenset({0})

    def test_rejects_non_offline_runs(self):
        """Ground truth is the trace's frames: a policy run, or its records,
        is refused."""
        log = synthetic_run("parallel", {}, {}, n=3)
        with pytest.raises(TypeError):
            extract_keyframes(log)
        with pytest.raises(AttributeError):
            extract_keyframes(log.records)

    def test_background_entities_are_not_ground_truth(self):
        """A background entity that appears, leaves or drifts requires no
        module: the exhaustive pass outputs only objects and humans."""
        walls = [[]] + [[box("wall", "background", x, 200)] for x in (300, 350)] + [[]]
        frames = [obs([box("a", "object", 50, 50)] + wall) for wall in walls]
        gt = extract_keyframes(ground_truth_frames(frames))
        assert gt.required == {DETECTION: frozenset({0}), POSE: frozenset()}


class TestRecallAndAccuracy:
    def test_recall_arithmetic(self):
        gt = GroundTruthKeyframes(
            required={DETECTION: frozenset(range(10)), POSE: frozenset()}
        )
        log = synthetic_run(
            "scheduled",
            decided={DETECTION: set(range(10))},
            honored={DETECTION: set(range(8))},
            n=12,
        )
        recall = build_report(log, gt).recall
        assert recall[DETECTION] == pytest.approx(0.8)
        assert recall[POSE] is None

    def test_definitional_split_between_recall_and_accuracy(self):
        required = frozenset(range(10))
        gt = GroundTruthKeyframes(required={DETECTION: required, POSE: frozenset()})
        log = synthetic_run(
            "scheduled",
            decided={DETECTION: set(range(10))},
            honored={DETECTION: {0, 2, 4, 6, 8}},
            n=10,
        )
        report = build_report(log, gt)
        assert report.keyframe_accuracy[DETECTION] == 1.0
        assert report.recall[DETECTION] == 0.5

    def test_report_splits_recall_from_accuracy(self):
        # required 0-7; decided on 0-5 and 9, honored on 0, 2, 4 and 9
        gt = GroundTruthKeyframes(required={DETECTION: frozenset(range(8)), POSE: frozenset()})
        log = synthetic_run(
            "scheduled",
            decided={DETECTION: {0, 1, 2, 3, 4, 5, 9}},
            honored={DETECTION: {0, 2, 4, 9}},
            n=10,
        )
        report = build_report(log, gt)
        assert report.counts["recalled"] == {DETECTION: 3, POSE: 0}
        assert report.counts["decided_on_required"] == {DETECTION: 6, POSE: 0}
        assert report.recall == {DETECTION: 3 / 8, POSE: None}
        assert report.keyframe_accuracy == {DETECTION: 6 / 8, POSE: None}

    def test_oracle_recall_perfect_when_keyframes_spaced(self):
        frames = tuple(
            TraceFrame(
                index=i,
                entities=(
                    Entity(id="h", kind=EntityKind.HUMAN, region=PatchRegion(10, 10, 30, 60)),
                ),
                keypoints={"h": ((10.0, 10.0), (20.0, 20.0), (30.0, 30.0))},
            )
            for i in range(20)
        )
        trace = Trace(
            header=TraceHeader(frame_period_ms=PERIOD, keypoint_count=3, frame_count=20),
            frames=frames,
        )
        # pose busy spans 3 frames; keyframes spaced 4 apart never collide
        gt = GroundTruthKeyframes(
            required={DETECTION: frozenset({0, 4, 8}), POSE: frozenset({0, 4, 8, 12})}
        )
        cfg = RunConfig(trace="unused").pipeline(trace.header)
        log = run(trace, PolicyKind.ORACLE, cfg, gt.required)
        recall = build_report(log, gt).recall
        assert recall[DETECTION] == 1.0
        assert recall[POSE] == 1.0

    def test_recall_never_exceeds_accuracy(self):
        trace = generate_trace("walking", 240, seed=8)
        cfg = RunConfig(trace="unused")
        pipe = cfg.pipeline(trace.header)
        gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
        for policy in (PolicyKind.PARALLEL, PolicyKind.SCHEDULED):
            log = run(trace, policy, pipe)
            report = build_report(log, gt)
            recall, accuracy = report.recall, report.keyframe_accuracy
            for m in MODULES:
                if recall[m] is not None:
                    assert recall[m] <= accuracy[m] + 1e-12
                    assert 0.0 <= recall[m] <= 1.0
                    assert 0.0 <= accuracy[m] <= 1.0

    def test_parallel_yolo_recall_is_perfect_when_never_busy(self):
        # 15 ms inference finishes inside one frame, so parallel detection
        # executes every frame and cannot miss a required one
        trace = generate_trace("static", 300, seed=6)
        cfg = RunConfig(trace="unused")
        pipe = cfg.pipeline(trace.header)
        gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
        recall = build_report(run(trace, PolicyKind.PARALLEL, pipe), gt).recall
        assert recall[DETECTION] == 1.0

    def test_parallel_pose_recall_stays_low_on_static_scenes(self):
        trace = generate_trace("static", 300, seed=6)
        cfg = RunConfig(trace="unused")
        pipe = cfg.pipeline(trace.header)
        gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
        recall = build_report(run(trace, PolicyKind.PARALLEL, pipe), gt).recall
        assert recall[POSE] is not None and recall[POSE] < 0.5

    def test_idempotent_recomputation(self):
        trace = generate_trace("static", 200, seed=3)
        cfg = RunConfig(trace="unused")
        pipe = cfg.pipeline(trace.header)
        gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
        log = run(trace, PolicyKind.SCHEDULED, pipe)
        first = build_report(log, gt)
        second = build_report(RunLog.from_jsonl(log.to_jsonl()), gt)
        assert first == second


class TestLatency:
    def test_parallel_amortization_closed_form(self):
        # busy-chain arithmetic: yolo runs all 30 frames, pose every third
        trace = Trace(
            header=TraceHeader(frame_period_ms=PERIOD, keypoint_count=3, frame_count=30),
            frames=tuple(
                TraceFrame(
                    index=i,
                    entities=(),
                )
                for i in range(30)
            ),
        )
        cfg = RunConfig(trace="unused").pipeline(trace.header)
        log = run(trace, PolicyKind.PARALLEL, cfg)
        expected = (30 * 15.0 + 10 * 80.0) / 30
        assert latency(log, "activated") == pytest.approx(expected)
        assert latency(log, "total") == pytest.approx(expected)

    def test_single_activation_is_cost_plus_scheduling(self):
        log = synthetic_run(
            "scheduled",
            decided={DETECTION: {0}},
            honored={DETECTION: {0}},
            decision_time=0.5,
            n=1,
        )
        assert latency(log, "activated") == pytest.approx(15.0 + 0.5)

    def test_scheduled_below_parallel_on_static(self):
        trace = generate_trace("static", 300, seed=5)
        cfg = RunConfig(trace="unused")
        pipe = cfg.pipeline(trace.header)
        par = latency(run(trace, PolicyKind.PARALLEL, pipe), "total")
        sched = latency(run(trace, PolicyKind.SCHEDULED, pipe), "total")
        assert sched < par

    def test_no_activations_is_undefined(self):
        log = synthetic_run("scheduled", {}, {}, n=5)
        assert latency(log, "activated") is None
        assert latency(log, "total") == 0.0

    def test_unknown_denominator_rejected(self):
        log = synthetic_run("scheduled", {}, {}, n=2)
        with pytest.raises(ValueError):
            latency(log, "per-keyframe")


class TestReports:
    def test_report_counts_back_ratios(self):
        trace = generate_trace("interaction", 200, seed=2)
        cfg = RunConfig(trace="unused")
        pipe = cfg.pipeline(trace.header)
        gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
        report = build_report(run(trace, PolicyKind.SCHEDULED, pipe), gt)
        for m in MODULES:
            required = report.counts["required"][m]
            if required:
                assert report.recall[m] == pytest.approx(
                    report.counts["recalled"][m] / required
                )
                assert report.keyframe_accuracy[m] == pytest.approx(
                    report.counts["decided_on_required"][m] / required
                )

    def test_formatting_smoke(self):
        trace = generate_trace("static", 120, seed=1)
        cfg = RunConfig(trace="unused")
        pipe = cfg.pipeline(trace.header)
        gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
        reports = [
            build_report(run(trace, PolicyKind.PARALLEL, pipe), gt),
            build_report(run(trace, PolicyKind.SCHEDULED, pipe), gt),
        ]
        table = format_comparison(reports)
        assert "latency_vs_parallel" in table
        assert "parallel" in table and "scheduled" in table
        assert "policy: parallel" in format_report(reports[0])

    def test_undefined_metrics_render_as_na(self):
        gt = GroundTruthKeyframes(required={DETECTION: frozenset(), POSE: frozenset()})
        log = synthetic_run("scheduled", {}, {}, n=4)
        report = build_report(log, gt)
        assert report.recall[DETECTION] is None
        assert "n/a" in format_report(report)
