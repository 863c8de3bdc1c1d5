"""Virtual-time discrete-event loop driving the three policies.

Each frame advances through a fixed order: apply outputs that became ready,
predict all tracks, run change detection, decide activations (reward-driven
for Scheduled, readiness-driven for Parallel, ground-truth driven for
Oracle), honor decisions on idle modules, log, advance. Only Scheduled reads
beliefs, so only Scheduled runs the Kalman filter, change detection and
motion gating; the baselines keep track membership alone. Scheduled keeps
its beliefs in one :class:`~percsched.tracker.TrackBank` and advances it
once per phase: one stacked predict per frame, one batched update and one
batched start of new tracks per detection output, and one batched noise
top-up for the tracks found moving. Inference consumes no wall clock;
module busy windows live entirely on the virtual clock, so a run is a pure
function of (trace, policy, configs, seed).

A run log's frame lines go through one codec compiled from
:class:`FrameRecord`: a ``%``-template for the lines the engine makes, with
the general encoder ``_line`` for any other record, and one JSON parse of
all frame lines on the way back.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import math
import operator
from collections.abc import Mapping as AnyMapping
from collections.abc import Sequence as AnySequence
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import (
    Annotated, Dict, List, Literal, Mapping, Optional, Sequence, Set, Tuple, Union, get_origin,
    get_type_hints,
)

import numpy as np

from . import change_detect as cd
from .change_detect import ChangeDetectConfig
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
    Entity,
    EntityKind,
    ModuleId,
    MotionStatus,
)
from .scheduler import select
from .schema import NonNegative, Share, check_fields
from .toolkit import (
    DetectionOutput,
    NoiseConfig,
    PoseOutput,
    ready_frame,
    simulate_detection,
    simulate_pose,
)
from .tracker import (
    KalmanConfig,
    TrackBank,
    inflate_process_noise,
    init_track,
    measurement_covariance,
    predict,
    update,
)
from .traces import Trace, TraceFrame

RUNLOG_SCHEMA = "percsched-runlog"
RUNLOG_VERSION = 1


class EngineError(RuntimeError):
    """Raised for trace underruns and inconsistent engine inputs."""


class PolicyKind(str, Enum):
    PARALLEL = "parallel"
    ORACLE = "oracle"
    SCHEDULED = "scheduled"

    @property
    def keeps_beliefs(self) -> bool:
        """Whether decisions read the Kalman tracks, motion and change
        statistics. Parallel and Oracle decide from module readiness and
        ground truth, so they keep only which ids are tracked."""
        return self is PolicyKind.SCHEDULED


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level behavior knobs.

    Process noise is gated by per-patch motion status: stationary tracks get
    ``stationary_q_scale`` times the nominal noise (and zeroed velocities),
    maneuvering tracks get ``moving_q_scale`` times it. Activations issued
    while a module is busy are dropped by default; ``busy_policy="queue"``
    re-issues them at the next idle frame.
    """

    busy_policy: Literal["drop", "queue"] = "drop"
    # the Kalman variances stay positive definite up to 1e16 on every
    # archetype and first lose it near 1e17; 1e12 leaves four decades
    stationary_q_scale: Annotated[float, "[0, 1e12]"] = 0.02
    moving_q_scale: Annotated[float, "(0, 1e12]"] = 60.0
    scheduling_overhead_ms: NonNegative = 0.0
    overhead_accounting: Literal["overlapped", "serial"] = "overlapped"
    delete_on_miss: bool = True
    default_relevance: Share = 0.5
    force_pose_on_composition: bool = True

    __post_init__ = check_fields


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs besides the trace and the policy.

    The modules are the keys of ``reward.cost_ms``, and their inference
    times its values.
    """

    change: ChangeDetectConfig
    kalman: KalmanConfig
    reward: RewardConfig
    noise: NoiseConfig
    engine: EngineConfig
    seed: int = 0


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameRecord:
    """Everything the metrics need about one frame of one policy run.

    The fields, in order, are the keys of a frame line of the run log, and
    every frame line has them all.
    """

    index: int
    decided: Mapping[ModuleId, bool]
    forced: Mapping[ModuleId, bool]
    info_gain: Mapping[ModuleId, float]
    cost_penalty: Mapping[ModuleId, float]
    net: Mapping[ModuleId, float]
    honored: Mapping[ModuleId, bool]
    dropped: Mapping[ModuleId, bool]
    applied: Sequence[dict]
    decision_time_ms: float
    tracked: int


@dataclass(frozen=True)
class RunLogHeader:
    """The fields, in order, are the keys of the header line after its tags."""

    policy: str
    seed: int
    frame_period_ms: float
    frame_count: int
    module_costs: Mapping[ModuleId, float]
    keypoint_count: int
    config_digest: str = ""


_encode = json.JSONEncoder(separators=(",", ":")).encode


# ``fields()`` builds a new tuple per call, and a log asks once per record
@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


# field types that are never mappings, decided without the ABC check
_PLAIN = frozenset({bool, int, float, str, list, tuple, type(None)})


def _line(tags: dict, record: object) -> str:
    """One run-log line: ``tags``, then every field of the record in
    declaration order. Mappings are written with sorted keys, and the
    mappings in a list (the applied entries) with ``module``, ``issued``,
    ``ready`` first."""
    row = dict(tags)
    for name in _field_names(type(record)):
        value = getattr(record, name)
        kind = type(value)
        if kind is dict or (kind not in _PLAIN and isinstance(value, AnyMapping)):
            row[name] = {k: value[k] for k in sorted(value)}
        elif kind is list or kind is tuple:
            row[name] = [{**{k: e[k] for k in _APPLIED_KEYS if k in e}, **e} for e in value]
        else:
            row[name] = value
    return _encode(row)


# -- the frame-line codec ----------------------------------------------------
#
# A frame line that the engine makes is written through one %-template
# compiled from FrameRecord's fields: a ``Mapping`` field is one value per
# module id, in sorted order; a ``Sequence`` field is the list of applied
# entries; any other field is one scalar. A record the template does not fit
# is written by ``_line``, whose bytes the template reproduces.

_FRAME_TAGS = {"record": "frame"}
_MODULES = tuple(sorted((DETECTION, POSE)))
# the keys of an applied entry, in the order ``_apply_ready_outputs`` writes them
_APPLIED_KEYS = ("module", "issued", "ready")
_SCALAR, _PER_MODULE, _ENTRIES = range(3)


_FRAME_HINTS = get_type_hints(FrameRecord)


def _frame_kind(name: str) -> int:
    origin = get_origin(_FRAME_HINTS[name])
    if origin is AnyMapping:
        return _PER_MODULE
    if origin is AnySequence:
        return _ENTRIES
    return _SCALAR


# a frame line's keys, in order, as the template writes them and the reader sees them
_FRAME_KEYS = _field_names(FrameRecord)
_FRAME_KINDS = tuple(map(_frame_kind, _FRAME_KEYS))
_frame_values = operator.attrgetter(*_FRAME_KEYS)
_module_values = operator.itemgetter(*_MODULES)
_APPLIED_SLOT = "{%s}" % ",".join(f"{_encode(k)}:%s" for k in _APPLIED_KEYS)


@functools.lru_cache(maxsize=8)
def _frame_template(entries: int) -> str:
    """The %-template of a frame line with ``entries`` applied entries."""
    parts = [f"{_encode(k)}:{_encode(v)}" for k, v in _FRAME_TAGS.items()]
    for name, kind in zip(_FRAME_KEYS, _FRAME_KINDS):
        if kind is _SCALAR:
            slot = "%s"
        elif kind is _PER_MODULE:
            slot = "{%s}" % ",".join(f"{_encode(m)}:%s" for m in _MODULES)
        else:
            slot = "[%s]" % ",".join([_APPLIED_SLOT] * entries)
        parts.append(f"{_encode(name)}:{slot}")
    return "{%s}" % ",".join(parts)


# the JSON text of a value by its exact type; the encoder writes the rest
_TEXT_OF_TYPE = {bool: ("false", "true").__getitem__, int: int.__repr__, float: float.__repr__}
# what float.__repr__ writes for NaN and the infinities, which JSON spells
# NaN, Infinity and -Infinity
_NON_FINITE_REPRS = frozenset({"nan", "inf", "-inf"})


def _scalar_texts(values: List[object]) -> Tuple[str, ...]:
    """Each value as the encoder writes it: ``true`` or ``false`` for a bool,
    ``int.__repr__`` for an int, ``float.__repr__`` for a finite float, and
    the encoder's own text for NaN, the infinities and any other type."""
    texts = [_TEXT_OF_TYPE.get(type(v), _encode)(v) for v in values]
    if not _NON_FINITE_REPRS.isdisjoint(texts):
        texts = [_encode(v) if t in _NON_FINITE_REPRS else t for t, v in zip(texts, values)]
    return tuple(texts)


def _frame_line(record: FrameRecord) -> str:
    """``_line({"record": "frame"}, record)``, through the template when the
    record fits it: a ``FrameRecord`` whose every mapping is a ``dict`` keyed
    by exactly the module ids, and whose every applied entry is a ``dict``
    keyed ``module``, ``issued``, ``ready`` in that order."""
    if type(record) is not FrameRecord:  # a subclass may add fields
        return _line(_FRAME_TAGS, record)
    values: List[object] = []
    entries = 0
    try:
        for kind, value in zip(_FRAME_KINDS, _frame_values(record)):
            if kind is _SCALAR:
                values.append(value)
            elif kind is _PER_MODULE:
                if type(value) is not dict or len(value) != len(_MODULES):
                    break
                values.extend(_module_values(value))
            else:
                if type(value) is not list and type(value) is not tuple:
                    break
                if value:
                    if not all(type(e) is dict and tuple(e) == _APPLIED_KEYS for e in value):
                        break
                    for entry in value:
                        values.extend(entry.values())
                    entries = len(value)
        else:
            return _frame_template(entries) % _scalar_texts(values)
    except KeyError:  # a mapping without one of the module ids
        pass
    return _line(_FRAME_TAGS, record)


def _line_number(text: str, row: int) -> int:
    """The 1-based line number of the ``row``-th line of a run log that is
    not blank, counting the header as row 0."""
    return [n for n, line in enumerate(text.splitlines(), 1) if line.strip()][row]


def _rows(lines: List[str], text: str) -> list:
    """The parsed lines, the header first: one parse of them all as a JSON
    array and, if that fails, one per line to name the line that is not JSON."""
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
    except ValueError:
        rows = None
    if rows is not None and len(rows) == len(lines):
        return rows
    rows = []
    for line in lines:
        try:
            rows.append(json.loads(line))
        except ValueError as exc:
            n = _line_number(text, len(rows))
            raise EngineError(f"run-log line {n} is not JSON: {exc}") from None
    return rows


def _built(cls: type, row: dict, text: str, number: int) -> object:
    """``cls(**row)``, the ``number``-th row of a run log; a missing field or
    an unknown key raises an ``EngineError`` naming the row's line."""
    try:
        return cls(**row)
    except TypeError as exc:
        raise EngineError(f"run-log line {_line_number(text, number)}: {exc}") from None


def _frame_records(rows: list, text: str) -> Tuple[FrameRecord, ...]:
    """One record per frame line. A row whose keys are the templated keys
    in field order becomes a record without ``FrameRecord.__init__``, as
    ``TrackBank._derived`` builds a bank: FrameRecord has no
    ``__post_init__``, so the instance dict is all ``__init__`` would set.
    Any other row goes through ``FrameRecord(**row)``, and a row with a
    missing field or an unknown key raises an ``EngineError`` naming its line."""
    records: List[FrameRecord] = []
    new = object.__new__
    for row in rows:
        if type(row) is not dict or row.pop("record", None) != "frame":
            n = _line_number(text, len(records) + 1)
            raise EngineError(f"run-log line {n} is not a frame record")
        if "applied" in row:
            # a tuple, so the many frames that apply nothing share one ``()``
            row["applied"] = tuple(row["applied"])
        if tuple(row) == _FRAME_KEYS:
            record = new(FrameRecord)
            record.__dict__.update(row)
        else:
            record = _built(FrameRecord, row, text, len(records) + 1)
        records.append(record)
    return tuple(records)


@dataclass(frozen=True)
class RunLog:
    header: RunLogHeader
    records: Tuple[FrameRecord, ...]

    def to_jsonl(self) -> str:
        tags = {"record": "header", "schema": RUNLOG_SCHEMA, "version": RUNLOG_VERSION}
        lines = [_line(tags, self.header)]
        lines.extend(map(_frame_line, self.records))
        return "\n".join(lines) + "\n"

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def from_jsonl(cls, text: str) -> "RunLog":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise EngineError("run log is empty")
        head, *rows = _rows(lines, text)
        tags = (head.pop("schema", None), head.pop("record", None)) if type(head) is dict else ()
        if tags != (RUNLOG_SCHEMA, "header"):
            raise EngineError(f"run-log line {_line_number(text, 0)} is not a run-log header")
        version = head.pop("version", None)
        if version != RUNLOG_VERSION:
            raise EngineError(f"unsupported run-log version {version}")
        header = _built(RunLogHeader, head, text, 0)
        return cls(header=header, records=_frame_records(rows, text))

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunLog":
        return cls.from_jsonl(Path(path).read_text(encoding="utf-8"))


def config_digest(cfg: PipelineConfig) -> str:
    """Stable digest of the run configuration for log headers."""
    blob = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def believed_region(box: Sequence[float]) -> Tuple[float, float, float, float]:
    """A track's predicted box ``(x, y, w, h)``, from its bank ``x`` row
    ``(x_c, y_c, w, h)``, in frame coordinates and at least 1 px each way."""
    w = max(box[2], 1.0)
    h = max(box[3], 1.0)
    return box[0] - w / 2.0, box[1] - h / 2.0, w, h


def scaled_region(box: Sequence[float], sx: float, sy: float) -> Tuple[float, float, float, float]:
    """A track's believed region scaled by ``(sx, sy)``, at least 1 px each
    way: ``(x, y, w, h)``, each checked finite."""
    x, y, w, h = believed_region(box)
    x, y = x * sx, y * sy
    w, h = max(w * sx, 1.0), max(h * sy, 1.0)
    if not all(map(math.isfinite, (x, y, w, h))):
        raise ValueError(f"patch geometry must be finite, got x={x}, y={y}, w={w}, h={h}")
    return x, y, w, h


def patch_rect(
    box: Sequence[float], sx: float, sy: float, rows: int, cols: int
) -> Optional[Tuple[int, int, int, int]]:
    """A track's :func:`scaled_region` on a raster of ``rows`` x ``cols``,
    rounded and clipped to it: ``(y0, y1, x0, x1)``, or None where nothing
    is left."""
    x, y, w, h = scaled_region(box, sx, sy)
    # a bank row holds Python floats, which round to ints
    y0 = max(0, round(y))
    x0 = max(0, round(x))
    y1 = min(rows, round(y + h))
    x1 = min(cols, round(x + w))
    if y1 <= y0 or x1 <= x0:
        return None
    return y0, y1, x0, x1


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
        self.module_ids = sorted(cfg.reward.cost_ms)
        self.keeps_beliefs = policy.keeps_beliefs

        # id -> the frame its last detection was applied at: the tracked set
        # under every policy. Only Scheduled keeps beliefs: a Kalman row per
        # member in ``bank``, the members found moving, their keypoint
        # confidences in ``history`` and the latest entity seen under each id.
        self.members: Dict[str, int] = {}
        self.bank = TrackBank()
        self.moving: Set[str] = set()
        self.history = KeypointConfidenceHistory()
        self.entities: Dict[str, Entity] = {}
        self.busy_until: Dict[ModuleId, float] = {m: -math.inf for m in self.module_ids}
        self.queued: Dict[ModuleId, bool] = {m: False for m in self.module_ids}
        self.pending: List[Tuple[int, int, ModuleId, Union[DetectionOutput, PoseOutput]]] = []
        # the last pixel frame's raster
        self.prev_frame: Optional[np.ndarray] = None
        self._seq = 0
        self._expected_index = trace.frames[0].index

    # -- step phases ------------------------------------------------------

    def _apply_ready_outputs(self, k: int) -> Tuple[List[dict], bool]:
        applied: List[dict] = []
        humans_changed = False
        while self.pending and self.pending[0][0] <= k:
            _, _, module, out = heapq.heappop(self.pending)
            if isinstance(out, DetectionOutput):
                ids = out.ids
                if self.keeps_beliefs:
                    fresh = [tid for tid in ids if tid not in self.members]
                    self._track_detections(out, fresh)
                    humans_changed |= self._any_human(fresh)
                for tid in ids:
                    self.members[tid] = k
                if self.cfg.engine.delete_on_miss:
                    seen = set(ids)
                    missed = [tid for tid in self.members if tid not in seen]
                    humans_changed |= self._drop_tracks(missed)
            elif self.keeps_beliefs:
                for tid, confs in zip(out.ids, out.confidences):
                    if tid in self.members:
                        self.history.record(tid, out.issued, confs)
            applied.append({"module": module, "issued": out.issued, "ready": out.ready})
        return applied, humans_changed

    def _track_detections(self, out: DetectionOutput, fresh: List[str]) -> None:
        """One batched update of the tracked boxes, one batched start of the new."""
        ids, z = out.ids, out.boxes
        is_new = set(fresh)
        old_rows = [i for i, tid in enumerate(ids) if tid not in is_new]
        if old_rows:
            self.bank = update(
                self.bank, [ids[i] for i in old_rows], z[old_rows], self.cfg.kalman
            )
        if fresh:
            new_rows = [i for i, tid in enumerate(ids) if tid in is_new]
            self.bank = init_track(self.bank, fresh, z[new_rows], self.cfg.kalman)
            self.moving.update(fresh)

    def _any_human(self, ids: List[str]) -> bool:
        entities = self.entities
        return any(tid in entities and entities[tid].kind is EntityKind.HUMAN for tid in ids)

    def _drop_tracks(self, ids: List[str]) -> bool:
        """Drop ``ids`` from every container. Under Scheduled, return whether
        one of them was a human; the baselines do not ask."""
        if not ids:
            return False
        for tid in ids:
            del self.members[tid]
        if not self.keeps_beliefs:
            return False
        for tid in ids:
            self.moving.discard(tid)
            self.history.forget(tid)
        self.bank = self.bank.without(ids)
        return self._any_human(ids)

    def _predict_tracks(self, k: int) -> bool:
        limit = k - self.cfg.kalman.max_frames_since_update
        stale = [tid for tid, seen in self.members.items() if seen <= limit]
        if self.keeps_beliefs:
            ecfg = self.cfg.engine
            still = [tid not in self.moving for tid in self.bank.ids]
            self.bank = predict(
                self.bank,
                self.cfg.kalman,
                q_scale=[ecfg.stationary_q_scale if s else ecfg.moving_q_scale for s in still],
                zero_velocity=still,
            )
        return self._drop_tracks(stale)

    def _change_stats(self, frame: TraceFrame) -> Tuple[float, float, Dict[str, float]]:
        """The background change ratio, the mean histogram shift and the
        change ratio per tracked patch. A pixel frame's shift is 0.0 where
        the background ratio cannot fire the composition trigger."""
        if frame.pixels is not None:
            return self._pixel_change_stats(frame.pixels.rgb)
        if frame.change is not None:
            change = frame.change
            return change.background_cr, change.hist_shift_mean, dict(change.patch_cr)
        return 0.0, 0.0, {}

    def _pixel_change_stats(self, current: np.ndarray) -> Tuple[float, float, Dict[str, float]]:
        """Change statistics between the last pixel frame and this one.

        Only the band of rows from the first to the last byte that differs
        from the last raster is differenced, mapped to luma and thresholded.
        A pixel outside the band has luma 0.0, which no intensity threshold
        in [0, 255] exceeds, so the threshold map and every count are those
        of the whole raster. An unchanged raster costs one byte compare and
        the finiteness check of each patch's geometry. The background's
        histograms are counted only on a frame whose background change ratio
        passes the composition trigger's first test.
        """
        ccfg = self.cfg.change
        prev = self.prev_frame
        self.prev_frame = current
        if prev is None:
            return 0.0, 0.0, {}
        rows, cols = current.shape[:2]
        # believed regions live in frame coordinates; rasters may be smaller
        sy = rows / self.trace.header.frame_h
        sx = cols / self.trace.header.frame_w
        # a bool array's bytes are 0 and 1: the first and last 1 bound the band
        differs = (current != prev).tobytes()
        first = differs.find(1)
        if first < 0:
            # no pixel changed: every ratio is 0.0, which passes no
            # patch_change_threshold, so no histogram is counted and no
            # patch is placed, but its geometry must still be finite
            for box in self.bank.x:
                scaled_region(box, sx, sy)
            return 0.0, 0.0, dict.fromkeys(self.bank.ids, 0.0)
        patches = [patch_rect(box, sx, sy, rows, cols) for box in self.bank.x]
        r0, r1 = first // (3 * cols), differs.rfind(1) // (3 * cols) + 1
        # the larger byte less the smaller is the absolute difference, exactly
        now, before = current[r0:r1], prev[r0:r1]
        diff = np.maximum(now, before) - np.minimum(now, before)
        # raster row r is row r - r0 of the band; no pixel outside it changed
        changed = cd.grayscale_diff(diff) > ccfg.intensity_threshold
        patch_cr: Dict[str, float] = {}
        occupied = np.zeros((rows, cols), dtype=bool)
        for tid, rect in zip(self.bank.ids, patches):
            if rect is None:
                patch_cr[tid] = 0.0
                continue
            y0, y1, x0, x1 = rect
            count = int(np.count_nonzero(changed[max(y0 - r0, 0):max(y1 - r0, 0), x0:x1]))
            patch_cr[tid] = count / ((y1 - y0) * (x1 - x0))
            occupied[y0:y1, x0:x1] = True
        background = ~occupied
        bg_area = int(np.count_nonzero(background))
        bg_changed = int(np.count_nonzero(changed & background[r0:r1]))
        bg_cr = bg_changed / bg_area if bg_area else 0.0
        if not bg_cr > ccfg.patch_change_threshold:
            # the trigger cannot fire: a shift of 0.0 never exceeds the
            # non-negative histogram_threshold
            return bg_cr, 0.0, patch_cr
        bins = ccfg.histogram_bins
        hist_prev = cd.rgb_histograms(prev, bins, background)
        hist_curr = cd.rgb_histograms(current, bins, background)
        return bg_cr, cd.chi_square_shift(hist_prev, hist_curr), patch_cr

    def _update_motion(self, patch_cr: Mapping[str, float]) -> None:
        ccfg, moving, flipped = self.cfg.change, set(), []
        for tid in self.bank.ids:
            if cd.motion_status(patch_cr.get(tid, 0.0), ccfg) is MotionStatus.MOVING:
                moving.add(tid)
                if tid not in self.moving:
                    flipped.append(tid)
        self.moving = moving
        if flipped:
            # every track was predicted this frame, at the stationary scale unless moving
            extra = self.cfg.engine.moving_q_scale - self.cfg.engine.stationary_q_scale
            self.bank = inflate_process_noise(self.bank, flipped, self.cfg.kalman, extra)

    def _scheduled_rewards(self, k: int, g1_yolo: bool, g1_pose: bool) -> Dict[ModuleId, RewardBreakdown]:
        rcfg = self.cfg.reward
        bank = self.bank
        entities = list(map(self.entities.get, bank.ids))
        default = self.cfg.engine.default_relevance
        relevance = [default if e is None else e.relevance for e in entities]
        gain = detection_info_gain(bank, relevance, rcfg, self.cfg.kalman)
        rewards: Dict[ModuleId, RewardBreakdown] = {
            DETECTION: detection_reward(gain, g1_yolo, rcfg)
        }
        # the projection's diagonal is each row's p_xx, which the loop reads
        # from the bank; the call stays while bench/tracing.py traces it
        measurement_covariance(bank)
        humans_pre = []
        humans_post = []
        for row, (tid, entity) in enumerate(zip(bank.ids, entities)):
            if entity is None or entity.kind is not EntityKind.HUMAN:
                continue
            box = bank.x[row]
            w = max(box[2], 1.0)
            h = max(box[3], 1.0)
            # w and h share the track's position variance
            sigma = math.sqrt(max(bank.p_xx[row], 0.0))
            humans_pre.append((w, h, sigma, sigma, relevance[row]))
            confs = self.history.extrapolated(tid, k, rcfg)
            humans_post.append((confs, relevance[row], math.sqrt(w * h)))
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
                info_gain_nats=0.0, cost_penalty_nats=0.0, net=0.0, forced=forced
            )
        return rewards

    def _honor(self, frame: TraceFrame, decided: Mapping[ModuleId, bool]) -> Tuple[Dict, Dict]:
        ecfg = self.cfg.engine
        now = frame.index * self.period
        honored: Dict[ModuleId, bool] = {}
        dropped: Dict[ModuleId, bool] = {}
        for m in self.module_ids:
            cost = self.cfg.reward.cost_ms[m]
            want = decided[m] or (ecfg.busy_policy == "queue" and self.queued[m])
            idle = self.busy_until[m] <= now + 1e-9
            if want and idle:
                honored[m] = True
                dropped[m] = False
                self.queued[m] = False
                start = now
                if ecfg.overhead_accounting == "serial":
                    start += ecfg.scheduling_overhead_ms
                self.busy_until[m] = start + cost
                ready = ready_frame(start, cost, self.period)
                simulate = simulate_detection if m == DETECTION else simulate_pose
                output = simulate(frame, ready, self.cfg.noise, self.cfg.seed)
                heapq.heappush(self.pending, (ready, self._seq, m, output))
                self._seq += 1
            else:
                honored[m] = False
                dropped[m] = bool(decided[m] and not idle)
                if dropped[m] and ecfg.busy_policy == "queue":
                    self.queued[m] = True
        return honored, dropped

    # -- main loop ---------------------------------------------------------

    def step(self, frame: TraceFrame) -> FrameRecord:
        k = frame.index
        if k != self._expected_index:
            raise EngineError(f"expected frame {self._expected_index}, got {k}")
        if self.keeps_beliefs:
            self.entities.update({e.id: e for e in frame.entities})

        applied, humans_changed = self._apply_ready_outputs(k)
        humans_changed |= self._predict_tracks(k)

        if self.keeps_beliefs:
            bg_cr, shift, patch_cr = self._change_stats(frame)
            composition_change = cd.composition_change_trigger(bg_cr, shift, self.cfg.change)
            g1_yolo = (k == 0) or composition_change
            self._update_motion(patch_cr)
            # pose is forced by believed human enter/exit and, optionally, by
            # the raw composition trigger: an element crossing the background
            # may be a human the detector has not confirmed yet
            g1_pose = humans_changed or (
                self.cfg.engine.force_pose_on_composition and composition_change
            )
            rewards = self._scheduled_rewards(k, g1_yolo, g1_pose)
        else:
            rewards = self._baseline_rewards(k)
        decided = select(rewards)
        honored, dropped = self._honor(frame, decided)

        record = FrameRecord(
            index=k,
            decided={m: bool(decided[m]) for m in self.module_ids},
            forced={m: bool(rewards[m].forced) for m in self.module_ids},
            info_gain={m: float(rewards[m].info_gain_nats) for m in self.module_ids},
            cost_penalty={m: float(rewards[m].cost_penalty_nats) for m in self.module_ids},
            net={m: float(rewards[m].net) for m in self.module_ids},
            honored=honored,
            dropped=dropped,
            applied=applied,
            decision_time_ms=self.cfg.engine.scheduling_overhead_ms,
            tracked=len(self.members),
        )
        self._expected_index += 1
        return record

    def run(self) -> RunLog:
        records = tuple(self.step(frame) for frame in self.trace.frames)
        costs = self.cfg.reward.cost_ms
        header = RunLogHeader(
            policy=self.policy.value,
            seed=self.cfg.seed,
            frame_period_ms=self.period,
            frame_count=len(records),
            module_costs={m: costs[m] for m in sorted(costs)},
            keypoint_count=self.trace.header.keypoint_count,
            config_digest=config_digest(self.cfg),
        )
        return RunLog(header, records)


def run(
    trace: Trace,
    policy: PolicyKind,
    cfg: PipelineConfig,
    oracle_keyframes: Optional[Mapping[ModuleId, frozenset]] = None,
) -> RunLog:
    """Run one policy over one trace; deterministic in all inputs."""
    return SimEngine(trace, policy, cfg, oracle_keyframes).run()


def run_offline(trace: Trace, cfg: PipelineConfig) -> Tuple[TraceFrame, ...]:
    """Exhaustive reference pass: both modules on every frame, at zero
    latency and zero noise.

    Such a pass outputs the ground truth itself, so it is the trace's frames;
    :func:`~percsched.metrics.extract_keyframes` walks them. ``cfg`` sets
    nothing that a noise-free, instant pass could show.
    """
    return trace.frames
