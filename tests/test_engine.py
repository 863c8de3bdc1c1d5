import dataclasses
import importlib.util
import json
import random
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from percsched import change_detect, metrics, rewards
from percsched import engine as engine_module
from percsched.config import RunConfig
from percsched.engine import (
    EngineError,
    PolicyKind,
    RunLog,
    SimEngine,
    run,
    run_offline,
)
from percsched.scene import (
    DETECTION,
    FALSE_POSITIVE_PREFIX,
    POSE,
    Entity,
    EntityKind,
    PatchRegion,
)
from percsched.toolkit import NoiseConfig
from percsched.traces import ChangeStats, Trace, TraceFrame, TraceHeader, generate_trace

PERIOD = 1000.0 / 30.0


def make_frame(index, entities=(), keypoints=None, change=None):
    return TraceFrame(
        index=index,
        entities=tuple(entities),
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

    @pytest.mark.parametrize("first_doubled", [0, 1])
    def test_detection_naming_one_entity_twice_is_rejected(self, first_doubled, monkeypatch):
        # a trace cannot produce such an output, so double the simulator's
        # boxes: at frame 0 the start of new tracks sees the repeat, later
        # the update of known ones does
        trace = static_object_trace(frames=6)
        engine = SimEngine(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header))
        simulate = engine_module.simulate_detection

        def doubled(frame, ready, noise_cfg, rng_seed):
            out = simulate(frame, ready, noise_cfg, rng_seed)
            if frame.index < first_doubled:
                return out
            return dataclasses.replace(
                out, ids=out.ids * 2, boxes=np.concatenate([out.boxes, out.boxes])
            )

        monkeypatch.setattr(engine_module, "simulate_detection", doubled)
        with pytest.raises(ValueError, match="track 'obj-1' is named twice"):
            for frame in trace.frames:
                engine.step(frame)

    def test_zero_noise_recovers_ground_truth_boxes(self):
        trace = static_object_trace(frames=6)
        cfg = pipeline().pipeline(trace.header)
        engine = SimEngine(trace, PolicyKind.SCHEDULED, cfg)
        for frame in trace.frames:
            engine.step(frame)
        assert engine.bank.ids == ("obj-1",)
        cx, cy = trace.frames[0].entities[0].region.center
        np.testing.assert_allclose(engine.bank.x[0], [cx, cy, 40.0, 30.0], atol=1e-6)


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

    def test_ready_time_respects_inference(self):
        # 80 ms of pose issued at frame 10 ends 2.4 frames later, so its
        # output is applied at the next boundary, frame 13
        trace = static_object_trace(frames=16)
        kf = {POSE: frozenset({10}), DETECTION: frozenset()}
        log = run(trace, PolicyKind.ORACLE, pipeline().pipeline(trace.header), kf)
        applied = [(r.index, e) for r in log.records for e in r.applied]
        assert applied == [(13, {"module": POSE, "issued": 10, "ready": 13})]

    @pytest.mark.parametrize("period, yolo_ready, pose_ready", [(40.0, 11, 12), (PERIOD, 11, 13)])
    def test_ready_frame_follows_the_header_period(self, period, yolo_ready, pose_ready):
        # virtual time is frame index times the header's period: 15 ms of yolo
        # and 80 ms of pose issued at frame 10 end within 1 and 2 frames of
        # 40 ms, and within 1 and 3 frames of 33.3 ms
        header = TraceHeader(frame_period_ms=period, keypoint_count=5, frame_count=16)
        trace = Trace(header=header, frames=tuple(make_frame(i, [obj()]) for i in range(16)))
        kf = {POSE: frozenset({10}), DETECTION: frozenset({10})}
        log = run(trace, PolicyKind.ORACLE, pipeline().pipeline(header), kf)
        applied = [(r.index, e) for r in log.records for e in r.applied]
        assert applied == [
            (yolo_ready, {"module": DETECTION, "issued": 10, "ready": yolo_ready}),
            (pose_ready, {"module": POSE, "issued": 10, "ready": pose_ready}),
        ]

    def test_busy_window_ending_on_a_frame_boundary_is_idle(self):
        # 20 ms of yolo at a 10 ms period ends exactly on every second
        # frame's start, where yolo is free again
        header = TraceHeader(frame_period_ms=10.0, keypoint_count=5, frame_count=10)
        trace = Trace(header=header, frames=tuple(make_frame(i, [obj()]) for i in range(10)))
        cfg = dataclasses.replace(pipeline(), cost_yolo_ms=20.0)
        log = run(trace, PolicyKind.PARALLEL, cfg.pipeline(header))
        assert [r.index for r in log.records if r.honored[DETECTION]] == [0, 2, 4, 6, 8]

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

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_stale_tracks_dropped(self, policy):
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
        pipe = cfg.pipeline(trace.header)
        gt = metrics.extract_keyframes(run_offline(trace, pipe))
        log = run(trace, policy, pipe, gt.required if policy is PolicyKind.ORACLE else None)
        # the detection issued at frame 0 is applied at frame 1, and with a
        # limit of 5 frames the track is stale at frame 6
        assert [r.tracked for r in log.records] == [0] + [1] * 5 + [0] * 10

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

    def test_stepped_parallel_log_tracks_and_respects_busy_windows(self):
        trace = static_object_trace(frames=8)
        engine = SimEngine(trace, PolicyKind.PARALLEL, pipeline().pipeline(trace.header))
        records = [engine.step(frame) for frame in trace.frames[:4]]
        assert records[3].tracked == 1
        costs = run(trace, PolicyKind.PARALLEL, engine.cfg).header.module_costs
        assert sorted(costs) == [POSE, DETECTION]
        for module, cost in costs.items():
            starts = [r.index * PERIOD for r in records if r.honored[module]]
            assert starts[0] == 0.0
            assert all(b - a >= cost for a, b in zip(starts, starts[1:]))
        assert [r.index for r in records if r.honored[POSE]] == [0, 3]

    def test_runlog_round_trip(self):
        trace = generate_trace("static", 90, seed=2)
        log = run(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header))
        back = RunLog.from_jsonl(log.to_jsonl())
        assert back.to_jsonl() == log.to_jsonl()
        assert back.header.policy == "scheduled"
        # read back as tuples, so every frame that applies nothing shares ()
        assert all(type(r.applied) is tuple for r in back.records)
        assert any(r.applied == () for r in back.records)


    def test_runlog_key_order(self):
        trace = generate_trace("interaction", 10, seed=1)
        cfg = pipeline().pipeline(trace.header)
        head, frame = run(trace, PolicyKind.SCHEDULED, cfg).to_jsonl().splitlines()[:2]
        head = json.loads(head)
        assert list(head) == [
            "record", "schema", "version", "policy", "seed", "frame_period_ms",
            "frame_count", "module_costs", "keypoint_count", "config_digest",
        ]
        assert list(head["module_costs"]) == [POSE, DETECTION]
        frame_keys = [
            "record", "index", "decided", "forced", "info_gain", "cost_penalty", "net",
            "honored", "dropped", "applied", "decision_time_ms", "tracked",
        ]
        assert list(json.loads(frame)) == frame_keys

    def test_header_without_config_digest_reads_as_empty(self):
        trace = static_object_trace(frames=3)
        text = run(trace, PolicyKind.PARALLEL, pipeline().pipeline(trace.header)).to_jsonl()
        head, frames = text.split("\n", 1)
        head = json.loads(head)
        assert head.pop("config_digest")
        log = RunLog.from_jsonl(json.dumps(head) + "\n" + frames)
        assert log.header.config_digest == ""
        assert [r.index for r in log.records] == [0, 1, 2]


class TestDefaultRelevance:
    """``engine.default_relevance`` weighs each track that no trace entity
    names: the detector's false positives."""

    @staticmethod
    def yolo_gains(relevance):
        """Per frame, whether a false positive is tracked and yolo's gain."""
        trace = static_object_trace(frames=20)
        cfg = dataclasses.replace(
            pipeline(default_relevance=relevance), noise=NoiseConfig(false_positive_rate=1.0)
        )
        engine = SimEngine(trace, PolicyKind.SCHEDULED, cfg.pipeline(trace.header))
        gains = []
        for frame in trace.frames:
            record = engine.step(frame)
            tracks_fp = any(tid.startswith(FALSE_POSITIVE_PREFIX) for tid in engine.bank.ids)
            gains.append((tracks_fp, record.info_gain[DETECTION]))
        return gains

    def test_yolo_gain_moves_with_it_only_where_a_false_positive_is_tracked(self):
        low, high = self.yolo_gains(0.1), self.yolo_gains(0.9)
        first = next(k for k, (tracks_fp, _) in enumerate(low) if tracks_fp)
        assert first == next(k for k, (tracks_fp, _) in enumerate(high) if tracks_fp)
        assert 0 < first < len(low) - 1
        assert low[:first] == high[:first]
        both = [(a, b) for (fa, a), (fb, b) in zip(low, high) if fa and fb]
        assert len(both) > 1 and all(a != b for a, b in both)


class TestOfflineRun:
    def test_the_offline_pass_outputs_the_trace_frames(self):
        """Both modules on every frame, at zero latency and zero noise, output
        the ground truth itself: every frame, its geometry and its keypoints,
        as the trace holds them, whatever the noise config."""
        trace = generate_trace("walking", 60, seed=1)
        noisy = dataclasses.replace(pipeline().pipeline(trace.header), noise=NoiseConfig(
            box_std=2.0, miss_rate=0.1, false_positive_rate=0.05, confidence_spread=0.3
        ))
        assert run_offline(trace, noisy) is trace.frames



def golden_policy_logs():
    """The parallel, oracle and scheduled logs of the golden matrix."""
    from test_golden import TRACES, VARIANTS, matrix_runs

    return [
        log
        for variant in ("", *VARIANTS)
        for name in TRACES
        for log in matrix_runs(name, variant).values()
    ]


def scheduled_log_with_an_applied_entry():
    trace = generate_trace("interaction", 20, seed=1)
    return run(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header))


def shuffled_keys(value, rng):
    """``value`` with every object's keys in a random order: a line's, the
    per-module maps' and the applied entries'."""
    if isinstance(value, list):
        return [shuffled_keys(v, rng) for v in value]
    if not isinstance(value, dict):
        return value
    items = list(value.items())
    rng.shuffle(items)
    return {k: shuffled_keys(v, rng) for k, v in items}


def compact(row):
    return json.dumps(row, separators=(",", ":"))


EDGE_FIELDS = {
    "int decision_time_ms": dict(decision_time_ms=5),
    "None decision_time_ms": dict(decision_time_ms=None),
    "non-finite gains": dict(
        info_gain={POSE: float("nan"), DETECTION: float("inf")},
        net={POSE: float("-inf"), DETECTION: float("nan")},
    ),
    "numpy floats": dict(
        info_gain={POSE: np.float64(0.1), DETECTION: np.float64(-2.5)},
        decision_time_ms=np.float64(1.5),
    ),
    "applied keys in another order": dict(
        applied=[{"ready": 3, "module": DETECTION, "issued": 1}]
    ),
    "a third module key": dict(decided={POSE: True, DETECTION: False, "depth": True}),
}


class TestRunLogCodec:
    """One encoder writes each record's fields and maps in the order the
    record holds them, and the reader keeps a frame line's key order, so a
    compact log reads back to its own bytes."""

    def test_every_golden_log_reads_back_to_its_own_bytes(self):
        logs = golden_policy_logs()
        assert sum(len(log.records) for log in logs) > 0
        for log in logs:
            text = log.to_jsonl()
            assert RunLog.from_jsonl(text).to_jsonl() == text

    def test_a_key_shuffled_compact_log_reads_back_to_its_own_bytes(self):
        rng = random.Random(5)
        canonical = scheduled_log_with_an_applied_entry().to_jsonl()
        head, *frames = canonical.splitlines()
        # each line's tags come first; the header is rebuilt through its
        # constructor, so its fields stay in declaration order, but its map
        # may take any order
        row = json.loads(head)
        row["module_costs"] = shuffled_keys(row["module_costs"], rng)
        lines = [compact(row)]
        for frame in frames:
            row = json.loads(frame)
            lines.append(compact({"record": row.pop("record"), **shuffled_keys(row, rng)}))
        text = "\n".join(lines) + "\n"
        assert text != canonical
        assert RunLog.from_jsonl(text).to_jsonl() == text

    @pytest.mark.parametrize("edge", sorted(EDGE_FIELDS))
    def test_each_value_is_written_as_json_dumps_writes_it(self, edge):
        log = scheduled_log_with_an_applied_entry()
        rec = next(rec for rec in log.records if rec.applied)
        changes = EDGE_FIELDS[edge]
        line = RunLog(log.header, (dataclasses.replace(rec, **changes),)).to_jsonl().split("\n")[1]
        for name, value in changes.items():
            assert f'"{name}":{compact(value)},' in line

    def test_a_mapping_that_is_not_a_dict_is_refused(self):
        log = scheduled_log_with_an_applied_entry()
        rec = dataclasses.replace(
            log.records[0], forced=types.MappingProxyType({DETECTION: True, POSE: False})
        )
        with pytest.raises(TypeError, match="mappingproxy"):
            RunLog(log.header, (rec,)).to_jsonl()


class TestRunLogReader:
    @staticmethod
    def log_lines():
        trace = static_object_trace(frames=6)
        return run(trace, PolicyKind.SCHEDULED, pipeline().pipeline(trace.header)).to_jsonl()

    @pytest.mark.parametrize("bad", ['{"record":"frame","index":', "frame 2"])
    def test_a_frame_line_that_is_not_json_is_named(self, bad):
        lines = self.log_lines().splitlines()
        lines[2] = bad
        with pytest.raises(EngineError, match="run-log line 3 is not JSON"):
            RunLog.from_jsonl("\n".join(lines))

    @pytest.mark.parametrize("bad", ["[1, 2]", "7", '{"index": 2}', '{"record": "header"}'])
    def test_a_line_that_is_no_frame_record_is_named(self, bad):
        lines = self.log_lines().splitlines()
        lines[3] = bad
        # a blank line counts in the numbering
        lines.insert(1, "")
        with pytest.raises(EngineError, match="run-log line 5 is not a frame record"):
            RunLog.from_jsonl("\n".join(lines))

    def test_an_unknown_frame_key_raises(self):
        head, first, rest = self.log_lines().split("\n", 2)
        row = json.loads(first)
        row["depth"] = 1
        with pytest.raises(EngineError, match=r"run-log line 2: .*'depth'"):
            RunLog.from_jsonl("\n".join([head, json.dumps(row), rest]))

    @pytest.mark.parametrize(
        "edit, text",
        [
            (lambda rec: rec.pop("keypoint_count"),
             "missing 1 required positional argument: 'keypoint_count'"),
            (lambda rec: rec.update(depth=1), "got an unexpected keyword argument 'depth'"),
        ],
        ids=["missing", "unknown"],
    )
    def test_a_header_with_a_missing_or_unknown_field_is_named(self, edit, text):
        lines = self.log_lines().splitlines()
        rec = json.loads(lines[0])
        edit(rec)
        lines[0] = json.dumps(rec)
        with pytest.raises(EngineError) as caught:
            RunLog.from_jsonl("\n".join(lines))
        assert str(caught.value) == "run-log line 1: RunLogHeader.__init__() " + text

    @pytest.mark.parametrize(
        "edit, text",
        [
            (lambda rec: rec.pop("tracked"), "missing ['tracked'], unknown []"),
            (lambda rec: rec.update(depth=1), "missing [], unknown ['depth']"),
            (lambda rec: (rec.pop("net"), rec.pop("index"), rec.update(nett=0)),
             "missing ['index', 'net'], unknown ['nett']"),
        ],
        ids=["missing", "unknown", "both"],
    )
    def test_a_frame_with_a_missing_or_unknown_field_is_named(self, edit, text):
        lines = self.log_lines().splitlines()
        rec = json.loads(lines[2])
        edit(rec)
        lines[2] = json.dumps(rec)
        # a blank line counts in the numbering
        lines.insert(1, "")
        with pytest.raises(EngineError) as caught:
            RunLog.from_jsonl("\n".join(lines))
        assert str(caught.value) == "run-log line 4: frame fields " + text

    @pytest.mark.parametrize(
        "key, value, text",
        [
            ("seed", True, "seed must be an integer, got True"),
            ("frame_count", 2.5, "frame_count must be an integer, got 2.5"),
            ("keypoint_count", "17", "keypoint_count must be an integer, got '17'"),
            ("frame_period_ms", None, "frame_period_ms must be a number, got None"),
            ("policy", "offline", "policy must be one of ('parallel', 'oracle', 'scheduled'), "
             "got 'offline'"),
            ("module_costs", {"pose": 0, "yolo": 15}, "module_costs['pose'] must be a finite "
             "number in (0, inf), got 0"),
        ],
        ids=["seed", "frame_count", "keypoint_count", "frame_period_ms", "policy", "module_costs"],
    )
    def test_a_header_field_of_another_type_is_named(self, key, value, text):
        lines = self.log_lines().splitlines()
        rec = json.loads(lines[0])
        rec[key] = value
        lines[0] = json.dumps(rec)
        with pytest.raises(EngineError) as caught:
            RunLog.from_jsonl("\n".join(lines))
        assert str(caught.value) == "run-log line 1: " + text

    def test_any_key_order_and_whitespace_read_back_to_the_canonical_log(self):
        text = self.log_lines()
        assert '"applied":[{"module":' in text
        rng = random.Random(3)
        rows = [shuffled_keys(json.loads(line), rng) for line in text.splitlines()]
        assert any(
            list(e) != ["module", "issued", "ready"] for row in rows for e in row.get("applied", ())
        )
        loose = "\n".join(map(json.dumps, rows))
        assert loose != text
        got, want = RunLog.from_jsonl(loose), RunLog.from_jsonl(text)
        assert got.header == want.header
        assert got.records == want.records

    @pytest.mark.parametrize("bad", ['{"record": "header", "schema":', "[1, 2]"])
    def test_a_header_line_that_is_no_header_object_is_named(self, bad):
        lines = self.log_lines().splitlines()
        lines[0] = bad
        with pytest.raises(EngineError, match="run-log line 1 is not"):
            RunLog.from_jsonl("\n".join(lines))

    @pytest.mark.parametrize(
        "version, shown", [("true", "True"), ("1.0", "1.0"), ('"1"', "'1'"), ("null", "None")]
    )
    def test_a_version_other_than_the_integer_1_is_refused(self, version, shown):
        lines = self.log_lines().splitlines()
        lines[0] = lines[0].replace('"version":1,', f'"version":{version},')
        assert f'"version":{version},' in lines[0]
        with pytest.raises(EngineError) as caught:
            RunLog.from_jsonl("\n".join(lines))
        assert str(caught.value) == f"unsupported run-log version {shown}"


def _level_switch_trace(level):
    """Eight uniform rasters at grey level 60, switching to ``level`` at frame 4."""
    from percsched.traces import FramePixels

    frames = [
        TraceFrame(
            index=i,
            entities=(obj(),),
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


def _bench_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_traced_names_exist():
    """``bench/tracing.py`` wraps each of its targets as ``vars(owner)[attr]``,
    so every name it lists must stay defined on that owner."""
    tracing = _bench_tracing()
    targets = tracing.layer_targets(engine_module, change_detect, rewards, metrics)
    assert targets
    for owner, attr, name, _ in targets:
        assert attr in vars(owner), f"{name}: {owner.__name__} has no {attr!r}"


def test_benchmark_tracer_counts_every_simulator_call():
    """The engine looks the simulators up at call time, so the benchmark's
    wrappers see one call per honored activation under every policy."""
    tracing = _bench_tracing()
    trace = generate_trace("interaction", 40, seed=3)
    cfg = pipeline().pipeline(trace.header)
    gt = metrics.extract_keyframes(run_offline(trace, cfg))
    for policy in PolicyKind:
        tracer = tracing.Tracer()
        tracer.install(tracing.layer_targets(engine_module, change_detect, rewards, metrics))
        try:
            log = run(trace, policy, cfg, gt.required if policy is PolicyKind.ORACLE else None)
        finally:
            tracer.uninstall()
        for module, name in ((DETECTION, "detection"), (POSE, "pose")):
            honored = sum(r.honored[module] for r in log.records)
            assert honored and tracer.calls[f"toolkit.simulate_{name}"] == honored, policy


def test_benchmark_runs_traced_at_small_size():
    """One small traced benchmark run: it exits 0 with every output check
    passing, and the call counts that match the engine's structure reconcile."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", "interaction-pixels",
         "--seed", "3", "--seconds", "0.1", "--frames", "12", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    verdicts = {
        line.split()[1].rsplit(".calls", 1)[0]: line.rsplit(": ", 1)[1]
        for line in lines if line.startswith("reconcile ")
    }
    for name in (
        "engine.runlog_to_jsonl", "engine.runlog_from_jsonl", "scheduler.select",
        "rewards.detection_info_gain", "rewards.pre_execution_entropy",
        "rewards.post_execution_entropy", "rewards.sigma_table_loads",
        "toolkit.simulate_detection", "toolkit.simulate_pose",
    ):
        assert verdicts.get(name) == "ok", f"{name}: {verdicts.get(name)}"
