"""Virtual-time discrete-event loop driving the three policies.

Each frame advances through a fixed order: apply outputs that became ready,
predict all tracks, run change detection, decide activations (reward-driven
for Scheduled, readiness-driven for Parallel, ground-truth driven for
Oracle), honor decisions on idle modules, log, advance. Inference consumes
no wall clock; module busy windows live entirely on the virtual clock, so a
run is a pure function of (trace, policy, configs, seed).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from . import change_detect as cd
from .change_detect import ChangeDetectConfig, HistogramShift
from .rewards import (
    KeypointConfidenceHistory,
    RewardBreakdown,
    RewardConfig,
    detection_info_gain,
    detection_reward,
    pose_reward,
    post_execution_entropy,
    pre_execution_entropy,
)
from .scene import (
    DETECTION,
    POSE,
    EntityKind,
    FrameStamp,
    ModuleId,
    MotionStatus,
    PatchRegion,
)
from .scheduler import select
from .toolkit import (
    DetectionOutput,
    ModuleSpec,
    NoiseConfig,
    OutputKind,
    PoseOutput,
    ready_stamp,
    simulate_detection,
    simulate_pose,
)
from .tracker import (
    KalmanConfig,
    TrackState,
    inflate_process_noise,
    init_track,
    measurement_covariance,
    predict,
    update,
)
from .traces import Trace, TraceFrame

RUNLOG_SCHEMA = "percsched-runlog"
RUNLOG_VERSION = 1

OFFLINE_POLICY = "offline"


class EngineError(RuntimeError):
    """Raised for trace underruns and inconsistent engine inputs."""


class PolicyKind(str, Enum):
    PARALLEL = "parallel"
    ORACLE = "oracle"
    SCHEDULED = "scheduled"


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level behavior knobs.

    Process noise is gated by per-patch motion status: stationary tracks get
    ``stationary_q_scale`` times the nominal noise (and zeroed velocities),
    maneuvering tracks get ``moving_q_scale`` times it. Activations issued
    while a module is busy are dropped by default; ``busy_policy="queue"``
    re-issues them at the next idle frame.
    """

    busy_policy: str = "drop"
    stationary_q_scale: float = 0.02
    moving_q_scale: float = 60.0
    scheduling_overhead_ms: float = 0.0
    overhead_accounting: str = "overlapped"
    delete_on_miss: bool = True
    default_relevance: float = 0.5
    force_pose_on_composition: bool = True

    def __post_init__(self) -> None:
        if self.busy_policy not in ("drop", "queue"):
            raise ValueError("busy_policy must be 'drop' or 'queue'")
        if self.overhead_accounting not in ("overlapped", "serial"):
            raise ValueError("overhead_accounting must be 'overlapped' or 'serial'")
        # written so that NaN fails every range check
        if not 0.0 <= self.stationary_q_scale < math.inf:
            raise ValueError(
                f"stationary_q_scale must be finite and non-negative, got {self.stationary_q_scale}"
            )
        if not 0.0 < self.moving_q_scale < math.inf:
            raise ValueError(
                f"moving_q_scale must be finite and positive, got {self.moving_q_scale}"
            )
        if not 0.0 <= self.scheduling_overhead_ms < math.inf:
            raise ValueError(
                "scheduling_overhead_ms must be finite and non-negative, "
                f"got {self.scheduling_overhead_ms}"
            )
        if not 0.0 <= self.default_relevance <= 1.0:
            raise ValueError("default_relevance must lie in [0, 1]")


@dataclass(frozen=True)
class EngineState:
    """Read-only snapshot of the loop state between frames."""

    clock: FrameStamp
    busy_until: Mapping[ModuleId, float]
    pending_outputs: int
    tracks: Mapping[str, TrackState]
    frames_logged: int


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs besides the trace and the policy."""

    modules: Mapping[ModuleId, ModuleSpec]
    change: ChangeDetectConfig
    kalman: KalmanConfig
    reward: RewardConfig
    noise: NoiseConfig
    engine: EngineConfig
    seed: int = 0

    def __post_init__(self) -> None:
        for module in self.reward.cost_ms:
            if module not in self.modules:
                raise ValueError(f"cost listed for unknown module {module!r}")


def default_modules(
    cost_yolo_ms: float = 15.0, cost_pose_ms: float = 80.0
) -> Dict[ModuleId, ModuleSpec]:
    return {
        DETECTION: ModuleSpec(DETECTION, cost_yolo_ms, OutputKind.DETECTIONS),
        POSE: ModuleSpec(POSE, cost_pose_ms, OutputKind.KEYPOINTS),
    }


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameRecord:
    """Everything the metrics need about one frame of one run."""

    index: int
    decided: Mapping[ModuleId, bool]
    forced: Mapping[ModuleId, bool]
    info_gain: Mapping[ModuleId, float]
    cost_penalty: Mapping[ModuleId, float]
    net: Mapping[ModuleId, float]
    honored: Mapping[ModuleId, bool]
    dropped: Mapping[ModuleId, bool]
    applied: Tuple[dict, ...]
    decision_time_ms: float
    tracked: int
    observations: Optional[dict] = None


@dataclass(frozen=True)
class RunLogHeader:
    policy: str
    seed: int
    frame_period_ms: float
    frame_count: int
    module_costs: Mapping[ModuleId, float]
    keypoint_count: int
    config_digest: str = ""


@dataclass(frozen=True)
class RunLog:
    header: RunLogHeader
    records: Tuple[FrameRecord, ...]

    def to_jsonl(self) -> str:
        head = {
            "record": "header",
            "schema": RUNLOG_SCHEMA,
            "version": RUNLOG_VERSION,
            "policy": self.header.policy,
            "seed": self.header.seed,
            "frame_period_ms": self.header.frame_period_ms,
            "frame_count": self.header.frame_count,
            "module_costs": {m: c for m, c in sorted(self.header.module_costs.items())},
            "keypoint_count": self.header.keypoint_count,
            "config_digest": self.header.config_digest,
        }
        lines = [json.dumps(head, separators=(",", ":"))]
        for rec in self.records:
            row = {
                "record": "frame",
                "index": rec.index,
                "decided": _sorted_map(rec.decided),
                "forced": _sorted_map(rec.forced),
                "info_gain": _sorted_map(rec.info_gain),
                "cost_penalty": _sorted_map(rec.cost_penalty),
                "net": _sorted_map(rec.net),
                "honored": _sorted_map(rec.honored),
                "dropped": _sorted_map(rec.dropped),
                "applied": list(rec.applied),
                "decision_time_ms": rec.decision_time_ms,
                "tracked": rec.tracked,
            }
            if rec.observations is not None:
                row["observations"] = rec.observations
            lines.append(json.dumps(row, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def from_jsonl(cls, text: str) -> "RunLog":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise EngineError("run log is empty")
        head = json.loads(lines[0])
        if head.get("schema") != RUNLOG_SCHEMA or head.get("record") != "header":
            raise EngineError("first record must be a run-log header")
        if head.get("version") != RUNLOG_VERSION:
            raise EngineError(f"unsupported run-log version {head.get('version')}")
        header = RunLogHeader(
            policy=head["policy"],
            seed=head["seed"],
            frame_period_ms=head["frame_period_ms"],
            frame_count=head["frame_count"],
            module_costs=dict(head["module_costs"]),
            keypoint_count=head["keypoint_count"],
            config_digest=head.get("config_digest", ""),
        )
        records = []
        for line in lines[1:]:
            row = json.loads(line)
            records.append(
                FrameRecord(
                    index=row["index"],
                    decided=row["decided"],
                    forced=row["forced"],
                    info_gain=row["info_gain"],
                    cost_penalty=row["cost_penalty"],
                    net=row["net"],
                    honored=row["honored"],
                    dropped=row["dropped"],
                    applied=tuple(row["applied"]),
                    decision_time_ms=row["decision_time_ms"],
                    tracked=row["tracked"],
                    observations=row.get("observations"),
                )
            )
        return cls(header=header, records=tuple(records))

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunLog":
        return cls.from_jsonl(Path(path).read_text(encoding="utf-8"))


def _sorted_map(m: Mapping[str, object]) -> dict:
    return {k: m[k] for k in sorted(m)}


def config_digest(cfg: PipelineConfig) -> str:
    """Stable digest of the run configuration for log headers."""
    payload = {
        "modules": {m: s.inference_ms for m, s in sorted(cfg.modules.items())},
        "change": _public_fields(cfg.change),
        "kalman": _public_fields(cfg.kalman),
        "reward": {
            **_public_fields(cfg.reward),
            "cost_ms": {m: c for m, c in sorted(cfg.reward.cost_ms.items())},
            "sigma_base": list(cfg.reward.sigma_base) if cfg.reward.sigma_base else None,
        },
        "noise": _public_fields(cfg.noise),
        "engine": _public_fields(cfg.engine),
        "seed": cfg.seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _public_fields(obj: object) -> dict:
    return {k: v for k, v in vars(obj).items() if not k.startswith("_")}


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def believed_region(track: TrackState) -> PatchRegion:
    """The track's predicted box in frame coordinates, at least 1 px each way."""
    w = max(float(track.mean[2]), 1.0)
    h = max(float(track.mean[3]), 1.0)
    return PatchRegion(float(track.mean[0]) - w / 2.0, float(track.mean[1]) - h / 2.0, w, h)


# bench/tracing.py wraps ``engine.carry_forward`` by name, so the name stays
# until that tracing target goes; the engine itself calls ``believed_region``.
carry_forward = believed_region


class SimEngine:
    """Single-threaded deterministic frame loop over one trace."""

    def __init__(
        self,
        trace: Trace,
        policy: PolicyKind,
        cfg: PipelineConfig,
        oracle_keyframes: Optional[Mapping[ModuleId, frozenset]] = None,
    ) -> None:
        if not trace.frames:
            raise EngineError("trace is empty")
        if policy is PolicyKind.ORACLE and oracle_keyframes is None:
            raise EngineError("oracle policy requires ground-truth keyframes")
        self.trace = trace
        self.policy = policy
        self.cfg = cfg
        self.oracle_keyframes = {
            m: frozenset(v) for m, v in (oracle_keyframes or {}).items()
        }
        self.period = trace.header.frame_period_ms
        self.module_ids = sorted(cfg.modules)

        self.tracks: Dict[str, TrackState] = {}
        self.kinds: Dict[str, EntityKind] = {}
        self.relevance: Dict[str, float] = {}
        self.motion: Dict[str, MotionStatus] = {}
        self.busy_until: Dict[ModuleId, float] = {m: -math.inf for m in self.module_ids}
        self.queued: Dict[ModuleId, bool] = {m: False for m in self.module_ids}
        self.pending: List[Tuple[int, int, ModuleId, Union[DetectionOutput, PoseOutput]]] = []
        self.history = KeypointConfidenceHistory()
        self.background = trace.frames[0].background
        self.prev_pixels: Optional[np.ndarray] = None
        self._seq = 0
        self._expected_index = trace.frames[0].stamp.index
        self._frames_logged = 0
        self._q_applied: Dict[str, float] = {}

    @property
    def state(self) -> EngineState:
        return EngineState(
            clock=FrameStamp.at(self._expected_index, self.period),
            busy_until=dict(self.busy_until),
            pending_outputs=len(self.pending),
            tracks=dict(self.tracks),
            frames_logged=self._frames_logged,
        )

    # -- helpers ----------------------------------------------------------

    def _relevance_of(self, entity_id: str) -> float:
        return self.relevance.get(entity_id, self.cfg.engine.default_relevance)

    def _kind_of(self, entity_id: str) -> EntityKind:
        return self.kinds.get(entity_id, EntityKind.OBJECT)

    # -- step phases ------------------------------------------------------

    def _apply_ready_outputs(self, k: int) -> Tuple[List[dict], bool]:
        applied: List[dict] = []
        humans_changed = False
        while self.pending and self.pending[0][0] <= k:
            _, _, module, out = heapq.heappop(self.pending)
            if isinstance(out, DetectionOutput):
                seen = set()
                for box in out.boxes:
                    z = np.array([box.x_c, box.y_c, box.w, box.h], dtype=float)
                    seen.add(box.entity_id)
                    track = self.tracks.get(box.entity_id)
                    if track is None:
                        self.tracks[box.entity_id] = init_track(z, self.cfg.kalman, box.entity_id)
                        self.motion[box.entity_id] = MotionStatus.MOVING
                        if self._kind_of(box.entity_id) is EntityKind.HUMAN:
                            humans_changed = True
                    else:
                        self.tracks[box.entity_id] = update(track, z, self.cfg.kalman)
                if self.cfg.engine.delete_on_miss:
                    for tid in list(self.tracks):
                        if tid not in seen:
                            self._drop_track(tid)
                            if self._kind_of(tid) is EntityKind.HUMAN:
                                humans_changed = True
            else:
                for human in out.per_human:
                    if human.entity_id in self.tracks:
                        self.history.record(
                            human.entity_id,
                            out.stamp_issued.index,
                            [c for _, _, c in human.keypoints],
                        )
            applied.append(
                {"module": module, "issued": out.stamp_issued.index, "ready": out.stamp_ready.index}
            )
        return applied, humans_changed

    def _drop_track(self, entity_id: str) -> None:
        self.tracks.pop(entity_id, None)
        self.motion.pop(entity_id, None)
        self._q_applied.pop(entity_id, None)
        self.history.forget(entity_id)

    def _predict_tracks(self) -> bool:
        humans_changed = False
        for tid in list(self.tracks):
            moving = self.motion.get(tid) is MotionStatus.MOVING
            q_scale = (
                self.cfg.engine.moving_q_scale if moving else self.cfg.engine.stationary_q_scale
            )
            self.tracks[tid] = predict(
                self.tracks[tid], self.cfg.kalman, q_scale=q_scale, zero_velocity=not moving
            )
            self._q_applied[tid] = q_scale
            if self.tracks[tid].frames_since_update > self.cfg.kalman.max_frames_since_update:
                if self._kind_of(tid) is EntityKind.HUMAN:
                    humans_changed = True
                self._drop_track(tid)
        return humans_changed

    def _change_stats(self, frame: TraceFrame) -> Tuple[float, HistogramShift, Dict[str, float]]:
        ccfg = self.cfg.change
        if frame.pixels is not None:
            current = frame.pixels.rgb
            if self.prev_pixels is None:
                self.prev_pixels = current
                zero = HistogramShift((0.0, 0.0, 0.0), 0.0)
                return 0.0, zero, {}
            # int16 holds every byte difference exactly
            diff = np.abs(current.astype(np.int16) - self.prev_pixels)
            gray = cd.grayscale_diff(
                cd.PatchDiff(
                    region=self.background,
                    abs_rgb_diff=np.moveaxis(diff, 2, 0),
                ),
                ccfg,
            )
            # believed regions live in frame coordinates; rasters may be smaller
            sy = gray.shape[0] / self.trace.header.frame_h
            sx = gray.shape[1] / self.trace.header.frame_w
            patch_cr: Dict[str, float] = {}
            occupied = np.zeros(gray.shape, dtype=bool)
            for tid, track in self.tracks.items():
                region = believed_region(track)
                scaled = PatchRegion(
                    region.x * sx, region.y * sy,
                    max(region.w * sx, 1.0), max(region.h * sy, 1.0),
                )
                sl = self._clip_region(scaled, gray.shape)
                if sl is None:
                    patch_cr[tid] = 0.0
                    continue
                ys, xs = sl
                area = (ys.stop - ys.start) * (xs.stop - xs.start)
                count = int(np.count_nonzero(gray[ys, xs] > ccfg.intensity_threshold))
                patch_cr[tid] = count / area
                occupied[ys, xs] = True
            bg_mask = ~occupied
            bg_area = int(np.count_nonzero(bg_mask))
            if bg_area:
                bg_cr = int(np.count_nonzero(gray[bg_mask] > ccfg.intensity_threshold)) / bg_area
            else:
                bg_cr = 0.0
            hist_prev = cd.rgb_histograms(self.prev_pixels, ccfg.histogram_bins, bg_mask)
            hist_curr = cd.rgb_histograms(current, ccfg.histogram_bins, bg_mask)
            shift = cd.chi_square_shift(hist_prev, hist_curr, ccfg)
            self.prev_pixels = current
            return float(bg_cr), shift, patch_cr
        if frame.change is not None:
            shift = HistogramShift(
                (frame.change.hist_shift_mean,) * 3, frame.change.hist_shift_mean
            )
            return frame.change.background_cr, shift, dict(frame.change.patch_cr)
        return 0.0, HistogramShift((0.0, 0.0, 0.0), 0.0), {}

    @staticmethod
    def _clip_region(region: PatchRegion, shape: Tuple[int, int]) -> Optional[Tuple[slice, slice]]:
        y0 = max(0, int(round(region.y)))
        x0 = max(0, int(round(region.x)))
        y1 = min(shape[0], int(round(region.y + region.h)))
        x1 = min(shape[1], int(round(region.x + region.w)))
        if y1 <= y0 or x1 <= x0:
            return None
        return slice(y0, y1), slice(x0, x1)

    def _update_motion(self, patch_cr: Mapping[str, float]) -> None:
        for tid in sorted(self.tracks):
            cr = patch_cr.get(tid, 0.0)
            status = cd.motion_status(cr, self.cfg.change)
            if status is MotionStatus.MOVING and self.motion.get(tid) is not MotionStatus.MOVING:
                extra = self.cfg.engine.moving_q_scale - self._q_applied.get(tid, 0.0)
                self.tracks[tid] = inflate_process_noise(self.tracks[tid], self.cfg.kalman, extra)
            self.motion[tid] = status

    def _scheduled_rewards(self, k: int, g1_yolo: bool, g1_pose: bool) -> Dict[ModuleId, RewardBreakdown]:
        rcfg = self.cfg.reward
        pairs = [(self.tracks[tid], self._relevance_of(tid)) for tid in sorted(self.tracks)]
        gain = detection_info_gain(pairs, rcfg, self.cfg.kalman)
        rewards: Dict[ModuleId, RewardBreakdown] = {
            DETECTION: detection_reward(gain, g1_yolo, rcfg)
        }
        humans_pre = []
        humans_post = []
        for tid in sorted(self.tracks):
            if self._kind_of(tid) is not EntityKind.HUMAN:
                continue
            track = self.tracks[tid]
            w = max(float(track.mean[2]), 1.0)
            h = max(float(track.mean[3]), 1.0)
            projected = measurement_covariance(track)
            sigma_w = math.sqrt(max(float(projected[2, 2]), 0.0))
            sigma_h = math.sqrt(max(float(projected[3, 3]), 0.0))
            rel = self._relevance_of(tid)
            humans_pre.append((w, h, sigma_w, sigma_h, rel))
            confs = self.history.extrapolated(tid, k, rcfg)
            humans_post.append((confs, rel, math.sqrt(w * h)))
        pre = pre_execution_entropy(humans_pre, rcfg)
        post = post_execution_entropy(humans_post, rcfg)
        rewards[POSE] = pose_reward(pre, post, g1_pose, rcfg)
        return rewards

    def _baseline_rewards(self, k: int) -> Dict[ModuleId, RewardBreakdown]:
        rewards: Dict[ModuleId, RewardBreakdown] = {}
        for m in self.module_ids:
            if self.policy is PolicyKind.PARALLEL:
                forced = True
            else:
                forced = k in self.oracle_keyframes.get(m, frozenset())
            rewards[m] = RewardBreakdown(
                module=m, info_gain_nats=0.0, cost_penalty_nats=0.0, net=0.0, forced=forced
            )
        return rewards

    def _honor(self, frame: TraceFrame, decided: Mapping[ModuleId, bool]) -> Tuple[Dict, Dict]:
        ecfg = self.cfg.engine
        now = frame.stamp.time_ms
        honored: Dict[ModuleId, bool] = {}
        dropped: Dict[ModuleId, bool] = {}
        for m in self.module_ids:
            spec = self.cfg.modules[m]
            want = decided[m] or (ecfg.busy_policy == "queue" and self.queued[m])
            idle = self.busy_until[m] <= now + 1e-9
            if want and idle:
                honored[m] = True
                dropped[m] = False
                self.queued[m] = False
                start = now
                if ecfg.overhead_accounting == "serial":
                    start += ecfg.scheduling_overhead_ms
                self.busy_until[m] = start + spec.inference_ms
                output = self._simulate(frame, spec)
                if ecfg.overhead_accounting == "serial" and ecfg.scheduling_overhead_ms > 0:
                    output = replace(
                        output,
                        stamp_ready=ready_stamp(start, spec.inference_ms, self.period),
                    )
                heapq.heappush(self.pending, (output.stamp_ready.index, self._seq, m, output))
                self._seq += 1
            else:
                honored[m] = False
                dropped[m] = bool(decided[m] and not idle)
                if dropped[m] and ecfg.busy_policy == "queue":
                    self.queued[m] = True
        return honored, dropped

    def _simulate(self, frame: TraceFrame, spec: ModuleSpec) -> Union[DetectionOutput, PoseOutput]:
        if spec.output_kind is OutputKind.DETECTIONS:
            return simulate_detection(frame, spec, self.cfg.noise, self.cfg.seed, self.period)
        return simulate_pose(frame, spec, self.cfg.noise, self.cfg.seed, self.period)

    # -- main loop ---------------------------------------------------------

    def step(self, frame: TraceFrame) -> FrameRecord:
        if frame.stamp.index != self._expected_index:
            raise EngineError(
                f"expected frame {self._expected_index}, got {frame.stamp.index}"
            )
        k = frame.stamp.index
        for e in frame.entities:
            self.kinds[e.id] = e.kind
            self.relevance[e.id] = e.relevance

        applied, humans_changed = self._apply_ready_outputs(k)
        humans_changed |= self._predict_tracks()

        bg_cr, shift, patch_cr = self._change_stats(frame)
        composition_change = cd.composition_change_trigger(bg_cr, shift, self.cfg.change)
        g1_yolo = (k == 0) or composition_change
        self._update_motion(patch_cr)
        # pose is forced by believed human enter/exit and, optionally, by the
        # raw composition trigger: an element crossing the background may be
        # a human the detector has not confirmed yet
        g1_pose = humans_changed or (
            self.cfg.engine.force_pose_on_composition and composition_change
        )

        if self.policy is PolicyKind.SCHEDULED:
            rewards = self._scheduled_rewards(k, g1_yolo, g1_pose)
        else:
            rewards = self._baseline_rewards(k)
        decision = select(
            frame.stamp,
            rewards,
            decision_time_ms=self.cfg.engine.scheduling_overhead_ms,
            modules=self.module_ids,
        )

        honored, dropped = self._honor(frame, decision.activations)

        record = FrameRecord(
            index=k,
            decided={m: bool(decision.activations[m]) for m in self.module_ids},
            forced={m: bool(rewards[m].forced) for m in self.module_ids},
            info_gain={m: float(rewards[m].info_gain_nats) for m in self.module_ids},
            cost_penalty={m: float(rewards[m].cost_penalty_nats) for m in self.module_ids},
            net={m: float(rewards[m].net) for m in self.module_ids},
            honored=honored,
            dropped=dropped,
            applied=tuple(applied),
            decision_time_ms=self.cfg.engine.scheduling_overhead_ms,
            tracked=len(self.tracks),
        )
        self._expected_index += 1
        self._frames_logged += 1
        return record

    def run(self) -> RunLog:
        records = [self.step(frame) for frame in self.trace.frames]
        header = RunLogHeader(
            policy=self.policy.value,
            seed=self.cfg.seed,
            frame_period_ms=self.period,
            frame_count=len(records),
            module_costs={m: self.cfg.modules[m].inference_ms for m in self.module_ids},
            keypoint_count=self.trace.header.keypoint_count,
            config_digest=config_digest(self.cfg),
        )
        return RunLog(header=header, records=tuple(records))


def run(
    trace: Trace,
    policy: PolicyKind,
    cfg: PipelineConfig,
    oracle_keyframes: Optional[Mapping[ModuleId, frozenset]] = None,
) -> RunLog:
    """Run one policy over one trace; deterministic in all inputs."""
    return SimEngine(trace, policy, cfg, oracle_keyframes).run()


def run_offline(trace: Trace, cfg: PipelineConfig) -> RunLog:
    """Exhaustive reference run: both modules on every frame, zero latency.

    Outputs are the ground truth itself; the per-frame observations feed
    ground-truth keyframe extraction.
    """
    module_ids = sorted(cfg.modules)
    records = []
    for frame in trace.frames:
        boxes = []
        keypoints = {}
        for e in sorted(frame.entities, key=lambda e: e.id):
            if e.kind is EntityKind.BACKGROUND:
                continue
            cx, cy = e.region.center
            boxes.append([e.id, e.kind.value, cx, cy, e.region.w, e.region.h, e.relevance])
            if e.kind is EntityKind.HUMAN and e.id in frame.keypoints:
                keypoints[e.id] = [[x, y] for x, y in frame.keypoints[e.id]]
        flags = {m: True for m in module_ids}
        zeros = {m: 0.0 for m in module_ids}
        records.append(
            FrameRecord(
                index=frame.stamp.index,
                decided=flags,
                forced=dict(flags),
                info_gain=dict(zeros),
                cost_penalty=dict(zeros),
                net=dict(zeros),
                honored=dict(flags),
                dropped={m: False for m in module_ids},
                applied=(),
                decision_time_ms=0.0,
                tracked=len(boxes),
                observations={"boxes": boxes, "keypoints": keypoints},
            )
        )
    header = RunLogHeader(
        policy=OFFLINE_POLICY,
        seed=cfg.seed,
        frame_period_ms=trace.header.frame_period_ms,
        frame_count=len(records),
        module_costs={m: cfg.modules[m].inference_ms for m in module_ids},
        keypoint_count=trace.header.keypoint_count,
        config_digest=config_digest(cfg),
    )
    return RunLog(header=header, records=tuple(records))
