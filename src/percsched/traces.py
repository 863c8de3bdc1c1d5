"""Ground-truth scene traces: schema, JSONL serialization and generators.

A trace is one header record followed by one record per frame. Frames carry
true entity geometry, true human keypoints, relevance assignments, scripted
enter/exit markers, and change-detection inputs in one of two variants:
precomputed statistics (``change``) or a raw low-resolution raster
(``pixels``) from which the statistics can be computed.

The generators script three archetypes of human activity: ``static`` (enter,
sit mostly still, leave), ``interaction`` (seated with frequent hand/object
gestures) and ``walking`` (stop-and-go locomotion bursts).
"""

from __future__ import annotations

import base64
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .scene import (
    DEFAULT_FRAME_PERIOD_MS,
    Entity,
    EntityKind,
    FrameStamp,
    MotionStatus,
    PatchRegion,
)

TRACE_SCHEMA = "percsched-trace"
TRACE_VERSION = 1

ARCHETYPES = ("static", "interaction", "walking")


class TraceError(RuntimeError):
    """Raised for unreadable, inconsistent or schema-invalid traces."""


@dataclass(frozen=True)
class ChangeStats:
    """Precomputed change-detection inputs for one frame transition."""

    background_cr: float
    hist_shift_mean: float
    patch_cr: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not 0.0 <= self.background_cr <= 1.0:
            raise ValueError(f"background_cr must lie in [0, 1], got {self.background_cr}")
        for eid, cr in self.patch_cr.items():
            if not 0.0 <= cr <= 1.0:
                raise ValueError(f"patch_cr[{eid!r}] must lie in [0, 1], got {cr}")
        if not 0.0 <= self.hist_shift_mean < math.inf:
            raise ValueError(
                f"hist_shift_mean must be finite and non-negative, got {self.hist_shift_mean}"
            )


@dataclass(frozen=True)
class FramePixels:
    """Low-resolution RGB raster for pixel-level change detection."""

    rgb: np.ndarray  # (h, w, 3) uint8

    def __post_init__(self) -> None:
        if not isinstance(self.rgb, np.ndarray) or self.rgb.dtype != np.uint8:
            raise ValueError("raster must be a uint8 numpy array")
        if self.rgb.ndim != 3 or self.rgb.shape[2] != 3 or 0 in self.rgb.shape[:2]:
            raise ValueError(
                f"raster must have shape (h, w, 3) with h, w >= 1, got {self.rgb.shape}"
            )


@dataclass(frozen=True)
class TraceFrame:
    """One ground-truth scene record."""

    stamp: FrameStamp
    entities: Tuple[Entity, ...]
    background: PatchRegion
    keypoints: Mapping[str, Tuple[Tuple[float, float], ...]] = field(default_factory=dict)
    enters: Tuple[str, ...] = ()
    exits: Tuple[str, ...] = ()
    change: Optional[ChangeStats] = None
    pixels: Optional[FramePixels] = None

    def entity(self, entity_id: str) -> Optional[Entity]:
        for e in self.entities:
            if e.id == entity_id:
                return e
        return None


@dataclass(frozen=True)
class TraceHeader:
    frame_period_ms: float = DEFAULT_FRAME_PERIOD_MS
    keypoint_count: int = 17
    frame_count: int = 0
    frame_w: int = 640
    frame_h: int = 480
    seed: int = 0
    archetype: str = "custom"

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not 0.0 < self.frame_period_ms < math.inf:
            raise ValueError(
                f"frame_period_ms must be finite and positive, got {self.frame_period_ms}"
            )
        for name in ("keypoint_count", "frame_w", "frame_h"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class Trace:
    header: TraceHeader
    frames: Tuple[TraceFrame, ...]

    def __post_init__(self) -> None:
        raster = None  # (index, shape) of the first frame with pixels
        for i, frame in enumerate(self.frames):
            if frame.stamp.index != i:
                raise TraceError(f"frame {i} carries stamp index {frame.stamp.index}")
            if frame.pixels is None:
                continue
            shape = frame.pixels.rgb.shape
            if raster is None:
                raster = (i, shape)
            elif shape != raster[1]:
                raise TraceError(
                    f"frame {i}: raster is {shape[1]}x{shape[0]}, but frame {raster[0]}'s "
                    f"is {raster[1][1]}x{raster[1][0]}; every raster must have one size"
                )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _entity_to_dict(e: Entity) -> dict:
    out = {
        "id": e.id,
        "kind": e.kind.value,
        "x": e.region.x,
        "y": e.region.y,
        "w": e.region.w,
        "h": e.region.h,
        "relevance": e.relevance,
        "moving": e.motion is MotionStatus.MOVING,
    }
    return out


def _entity_from_dict(d: dict) -> Entity:
    return Entity(
        id=d["id"],
        kind=EntityKind(d["kind"]),
        region=PatchRegion(x=d["x"], y=d["y"], w=d["w"], h=d["h"]),
        motion=MotionStatus.MOVING if d.get("moving") else MotionStatus.STATIONARY,
        relevance=d["relevance"],
    )


def frame_to_dict(frame: TraceFrame) -> dict:
    rec: dict = {
        "record": "frame",
        "index": frame.stamp.index,
        "entities": [_entity_to_dict(e) for e in frame.entities],
        "background": {
            "x": frame.background.x,
            "y": frame.background.y,
            "w": frame.background.w,
            "h": frame.background.h,
        },
    }
    if frame.keypoints:
        rec["keypoints"] = {
            eid: [[x, y] for x, y in pts] for eid, pts in sorted(frame.keypoints.items())
        }
    if frame.enters:
        rec["enters"] = list(frame.enters)
    if frame.exits:
        rec["exits"] = list(frame.exits)
    if frame.change is not None:
        rec["change"] = {
            "background_cr": frame.change.background_cr,
            "hist_shift_mean": frame.change.hist_shift_mean,
            "patch_cr": {k: v for k, v in sorted(frame.change.patch_cr.items())},
        }
    if frame.pixels is not None:
        h, w, _ = frame.pixels.rgb.shape
        rec["pixels"] = {
            "w": w,
            "h": h,
            "rgb_b64": base64.b64encode(
                np.ascontiguousarray(frame.pixels.rgb, dtype=np.uint8).tobytes()
            ).decode("ascii"),
        }
    return rec


def frame_from_dict(rec: dict, header: TraceHeader) -> TraceFrame:
    try:
        stamp = FrameStamp.at(rec["index"], header.frame_period_ms)
        entities = tuple(_entity_from_dict(d) for d in rec["entities"])
        bg = rec["background"]
        background = PatchRegion(x=bg["x"], y=bg["y"], w=bg["w"], h=bg["h"])
        keypoints = {
            eid: tuple((float(x), float(y)) for x, y in pts)
            for eid, pts in rec.get("keypoints", {}).items()
        }
        change = None
        if "change" in rec:
            c = rec["change"]
            change = ChangeStats(
                background_cr=c["background_cr"],
                hist_shift_mean=c["hist_shift_mean"],
                patch_cr=dict(c.get("patch_cr", {})),
            )
        pixels = None
        if "pixels" in rec:
            p = rec["pixels"]
            raw = base64.b64decode(p["rgb_b64"])
            rgb = np.frombuffer(raw, dtype=np.uint8).reshape(p["h"], p["w"], 3)
            pixels = FramePixels(rgb=rgb)
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceError(f"frame {rec.get('index', '?')}: malformed record: {exc}") from exc
    for eid, pts in keypoints.items():
        expected = header.keypoint_count
        if len(pts) != expected:
            raise TraceError(
                f"frame {rec['index']}: entity {eid!r} has {len(pts)} "
                f"keypoints, header says {expected}"
            )
        if not all(map(math.isfinite, itertools.chain.from_iterable(pts))):
            raise TraceError(
                f"frame {rec['index']}: entity {eid!r} has a non-finite keypoint coordinate"
            )
    return TraceFrame(
        stamp=stamp,
        entities=entities,
        background=background,
        keypoints=keypoints,
        enters=tuple(rec.get("enters", ())),
        exits=tuple(rec.get("exits", ())),
        change=change,
        pixels=pixels,
    )


def write_trace(path: Union[str, Path], trace: Trace) -> None:
    path = Path(path)
    header = {
        "record": "header",
        "schema": TRACE_SCHEMA,
        "version": TRACE_VERSION,
        "frame_period_ms": trace.header.frame_period_ms,
        "keypoint_count": trace.header.keypoint_count,
        "frame_count": len(trace.frames),
        "frame_w": trace.header.frame_w,
        "frame_h": trace.header.frame_h,
        "seed": trace.header.seed,
        "archetype": trace.header.archetype,
    }
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for frame in trace.frames:
            fh.write(json.dumps(frame_to_dict(frame), separators=(",", ":")) + "\n")


def read_trace(path: Union[str, Path]) -> Trace:
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise TraceError(f"trace file is empty: {path}")
    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError(f"unreadable trace header: {exc}") from exc
    if head.get("record") != "header" or head.get("schema") != TRACE_SCHEMA:
        raise TraceError("first record must be a trace header")
    if head.get("version") != TRACE_VERSION:
        raise TraceError(f"unsupported trace version {head.get('version')}")
    try:
        header = TraceHeader(
            frame_period_ms=head["frame_period_ms"],
            keypoint_count=head["keypoint_count"],
            frame_count=head["frame_count"],
            frame_w=head.get("frame_w", 640),
            frame_h=head.get("frame_h", 480),
            seed=head.get("seed", 0),
            archetype=head.get("archetype", "custom"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"invalid trace header: {exc}") from exc
    frames = []
    for line in lines[1:]:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"unreadable trace record: {exc}") from exc
        if rec.get("record") != "frame":
            raise TraceError(f"unexpected record type {rec.get('record')!r}")
        frames.append(frame_from_dict(rec, header))
    if header.frame_count and header.frame_count != len(frames):
        raise TraceError(
            f"header promises {header.frame_count} frames, file has {len(frames)}"
        )
    return Trace(header=header, frames=tuple(frames))


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def _human_keypoints(region: PatchRegion, count: int) -> Tuple[Tuple[float, float], ...]:
    """Spread keypoints over the upper body of a box in a fixed pattern."""
    pts = []
    cols = max(1, int(math.ceil(math.sqrt(count))))
    for d in range(count):
        gx = (d % cols + 0.5) / cols
        gy = (d // cols + 0.5) / cols
        pts.append((region.x + gx * region.w, region.y + gy * region.h * 0.8))
    return tuple(pts)


class _SceneScript:
    """Imperative helper that assembles frames while tracking per-frame motion."""

    def __init__(self, header: TraceHeader) -> None:
        self.header = header
        self.background = PatchRegion(0, 0, header.frame_w, header.frame_h)
        self.frames: List[TraceFrame] = []
        self._present: Dict[str, Entity] = {}
        self._prev_regions: Dict[str, PatchRegion] = {}
        self._prev_kps: Dict[str, Tuple[Tuple[float, float], ...]] = {}
        self._kp_offsets: Dict[str, Tuple[Tuple[float, float], ...]] = {}

    def add(self, entity: Entity) -> None:
        self._present[entity.id] = entity
        if entity.kind is EntityKind.HUMAN:
            base = _human_keypoints(entity.region, self.header.keypoint_count)
            self._kp_offsets[entity.id] = tuple(
                (px - entity.region.x, py - entity.region.y) for px, py in base
            )

    def remove(self, entity_id: str) -> None:
        self._present.pop(entity_id, None)
        self._kp_offsets.pop(entity_id, None)

    def move(self, entity_id: str, dx: float, dy: float) -> None:
        e = self._present[entity_id]
        region = PatchRegion(e.region.x + dx, e.region.y + dy, e.region.w, e.region.h)
        self._present[entity_id] = Entity(
            id=e.id, kind=e.kind, region=region, motion=e.motion, relevance=e.relevance
        )

    def keypoints_for(
        self, entity_id: str, jitter: Optional[Mapping[int, Tuple[float, float]]] = None
    ) -> Tuple[Tuple[float, float], ...]:
        e = self._present[entity_id]
        offsets = self._kp_offsets[entity_id]
        pts = []
        for d, (ox, oy) in enumerate(offsets):
            jx, jy = (jitter or {}).get(d, (0.0, 0.0))
            pts.append((e.region.x + ox + jx, e.region.y + oy + jy))
        return tuple(pts)

    def commit(
        self,
        index: int,
        keypoint_jitter: Optional[Mapping[str, Mapping[int, Tuple[float, float]]]] = None,
        background_event: bool = False,
        cr_rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Finish the frame: derive motion flags and change stats, append."""
        stamp = FrameStamp.at(index, self.header.frame_period_ms)
        entities = []
        patch_cr: Dict[str, float] = {}
        keypoints: Dict[str, Tuple[Tuple[float, float], ...]] = {}
        enters: List[str] = []
        exits: List[str] = []

        prev_ids = set(self._prev_regions)
        for eid in sorted(self._present):
            e = self._present[eid]
            kps = None
            if e.kind is EntityKind.HUMAN:
                kps = self.keypoints_for(eid, (keypoint_jitter or {}).get(eid))
                keypoints[eid] = kps
            moved = False
            prev = self._prev_regions.get(eid)
            if prev is not None:
                moved = abs(e.region.x - prev.x) > 1e-9 or abs(e.region.y - prev.y) > 1e-9
            prev_kps = self._prev_kps.get(eid)
            if not moved and kps is not None and prev_kps is not None:
                moved = any(
                    abs(ax - bx) > 1e-9 or abs(ay - by) > 1e-9
                    for (ax, ay), (bx, by) in zip(kps, prev_kps)
                )
            if eid not in prev_ids:
                enters.append(eid)
                moved = True
            base_cr = 0.0 if cr_rng is None else float(cr_rng.uniform(0.0, 0.015))
            patch_cr[eid] = float(cr_rng.uniform(0.25, 0.6)) if moved and cr_rng is not None else (
                0.45 if moved else base_cr
            )
            entities.append(
                Entity(
                    id=e.id,
                    kind=e.kind,
                    region=e.region,
                    motion=MotionStatus.MOVING if moved else MotionStatus.STATIONARY,
                    relevance=e.relevance,
                )
            )
        for eid in sorted(prev_ids - set(self._present)):
            exits.append(eid)

        if background_event:
            background_cr = 0.2 if cr_rng is None else float(cr_rng.uniform(0.12, 0.3))
            hist_shift = 25.0 if cr_rng is None else float(cr_rng.uniform(18.0, 40.0))
        else:
            background_cr = 0.0 if cr_rng is None else float(cr_rng.uniform(0.0, 0.01))
            hist_shift = 0.0 if cr_rng is None else float(cr_rng.uniform(0.0, 1.5))

        self.frames.append(
            TraceFrame(
                stamp=stamp,
                entities=tuple(entities),
                background=self.background,
                keypoints=keypoints,
                enters=tuple(enters),
                exits=tuple(exits),
                change=ChangeStats(
                    background_cr=background_cr,
                    hist_shift_mean=hist_shift,
                    patch_cr=patch_cr,
                ),
            )
        )
        self._prev_regions = {eid: e.region for eid, e in self._present.items()}
        self._prev_kps = dict(keypoints)


def _base_objects(rng: np.random.Generator, count: int, header: TraceHeader) -> List[Entity]:
    objects = []
    for i in range(count):
        w = float(rng.uniform(40, 90))
        h = float(rng.uniform(30, 70))
        x = float(rng.uniform(10, header.frame_w - w - 10))
        y = float(rng.uniform(10, header.frame_h - h - 10))
        objects.append(
            Entity(
                id=f"object-{i}",
                kind=EntityKind.OBJECT,
                region=PatchRegion(x, y, w, h),
                relevance=round(float(rng.uniform(0.5, 0.9)), 3),
            )
        )
    return objects


def _walk_human(
    script: _SceneScript,
    rng: np.random.Generator,
    human_id: str,
    frames_range: range,
    step: Tuple[float, float],
    index_offset: int = 0,
    background_event: bool = True,
) -> int:
    """Advance the scripted human linearly over ``frames_range``."""
    k = index_offset
    for _ in frames_range:
        script.move(human_id, step[0], step[1])
        script.commit(k, background_event=background_event, cr_rng=rng)
        k += 1
    return k


def generate_trace(
    archetype: str,
    frames: int,
    seed: int,
    frame_period_ms: float = DEFAULT_FRAME_PERIOD_MS,
    keypoint_count: int = 17,
) -> Trace:
    """Build a deterministic synthetic trace of the requested archetype."""
    if archetype not in ARCHETYPES:
        raise TraceError(f"unknown archetype {archetype!r}; pick one of {ARCHETYPES}")
    if frames < 2:
        raise TraceError("a trace needs at least 2 frames")
    header = TraceHeader(
        frame_period_ms=frame_period_ms,
        keypoint_count=keypoint_count,
        frame_count=frames,
        seed=seed,
        archetype=archetype,
    )
    rng = np.random.default_rng(seed)
    if archetype == "static":
        frames_out = _gen_static(header, rng, frames)
    elif archetype == "interaction":
        frames_out = _gen_interaction(header, rng, frames)
    else:
        frames_out = _gen_walking(header, rng, frames)
    return Trace(header=header, frames=tuple(frames_out))


def _gen_static(header: TraceHeader, rng: np.random.Generator, n: int) -> List[TraceFrame]:
    """A human enters, reads mostly motionless with sporadic page turns, leaves."""
    script = _SceneScript(header)
    for obj in _base_objects(rng, 4, header):
        script.add(obj)
    book = Entity(
        id="book", kind=EntityKind.OBJECT, region=PatchRegion(300, 300, 60, 40), relevance=0.8
    )
    script.add(book)

    human_id = "human-0"
    enter_at = min(40, max(2, n // 20))
    walk_frames = 14
    exit_walk = 14
    leave_at = max(enter_at + walk_frames + 10, n - walk_frames - 8)

    k = 0
    while k < min(enter_at, n):
        script.commit(k, cr_rng=rng)
        k += 1
    if k >= n:
        return script.frames

    script.add(
        Entity(
            id=human_id,
            kind=EntityKind.HUMAN,
            region=PatchRegion(5, 160, 70, 170),
            relevance=1.0,
        )
    )
    k = _walk_human(script, rng, human_id, range(min(walk_frames, n - k)), (14.0, 1.0), k)

    next_gesture = k + int(rng.integers(25, 45))
    while k < min(leave_at, n):
        if k >= next_gesture and k + 2 < leave_at:
            # page turn: hands and the book shift out and back over two frames
            for g in range(2):
                jitter = {
                    human_id: {
                        d: (9.0 + 2.0 * g, -4.0) for d in range(max(0, keypoint_hands_start(header)), header.keypoint_count)
                    }
                }
                script.move("book", 7.0 if g % 2 == 0 else -7.0, 0.0)
                script.commit(k, keypoint_jitter=jitter, cr_rng=rng)
                k += 1
                if k >= min(leave_at, n):
                    break
            next_gesture = k + int(rng.integers(25, 45))
        else:
            script.commit(k, cr_rng=rng)
            k += 1
    k = _walk_human(
        script, rng, human_id, range(min(exit_walk, max(0, n - k))), (-14.0, -1.0), k
    )
    if k < n:
        script.remove(human_id)
        script.commit(k, background_event=True, cr_rng=rng)
        k += 1
    while k < n:
        script.commit(k, cr_rng=rng)
        k += 1
    return script.frames


def keypoint_hands_start(header: TraceHeader) -> int:
    """Index from which keypoints are treated as hand/arm points by the
    generators: the last third of the layout."""
    return (2 * header.keypoint_count) // 3


def _gen_interaction(header: TraceHeader, rng: np.random.Generator, n: int) -> List[TraceFrame]:
    """Seated human with frequent reach gestures that drag an object along."""
    script = _SceneScript(header)
    for obj in _base_objects(rng, 3, header):
        script.add(obj)
    cup = Entity(
        id="cup", kind=EntityKind.OBJECT, region=PatchRegion(380, 330, 45, 45), relevance=0.9
    )
    script.add(cup)
    human_id = "human-0"

    enter_at = min(8, n // 4)
    k = 0
    while k < min(enter_at, n):
        script.commit(k, cr_rng=rng)
        k += 1
    if k >= n:
        return script.frames
    script.add(
        Entity(
            id=human_id,
            kind=EntityKind.HUMAN,
            region=PatchRegion(30, 150, 80, 190),
            relevance=1.0,
        )
    )
    k = _walk_human(script, rng, human_id, range(min(12, n - k)), (13.0, 2.0), k)

    hands_from = keypoint_hands_start(header)
    next_gesture = k + int(rng.integers(8, 18))
    cup_toggle = False
    while k < n:
        if k >= next_gesture:
            hold = int(rng.integers(1, 3))
            reach = float(rng.uniform(22.0, 30.0))
            cup_toggle = not cup_toggle
            # reach out in one frame, hold, snap back: the out and back
            # frames displace the hand keypoints well past typical
            # keyframe thresholds
            for g in range(1 + hold):
                jitter = {
                    human_id: {
                        d: (reach, -8.0) for d in range(hands_from, header.keypoint_count)
                    }
                }
                if cup_toggle and g < 2:
                    script.move("cup", 12.0 if g == 0 else -12.0, 0.0)
                script.commit(k, keypoint_jitter=jitter, cr_rng=rng)
                k += 1
                if k >= n:
                    break
            next_gesture = k + int(rng.integers(8, 18))
        else:
            script.commit(k, cr_rng=rng)
            k += 1
    return script.frames


def _gen_walking(header: TraceHeader, rng: np.random.Generator, n: int) -> List[TraceFrame]:
    """Outdoor stop-and-go walking: 4-frame bursts separated by pauses."""
    script = _SceneScript(header)
    for obj in _base_objects(rng, 2, header):
        script.add(obj)
    human_id = "human-0"

    enter_at = min(5, n // 4)
    k = 0
    while k < min(enter_at, n):
        script.commit(k, cr_rng=rng)
        k += 1
    if k >= n:
        return script.frames
    script.add(
        Entity(
            id=human_id,
            kind=EntityKind.HUMAN,
            region=PatchRegion(5, 140, 75, 180),
            relevance=1.0,
        )
    )
    k = _walk_human(script, rng, human_id, range(min(6, n - k)), (16.0, 0.0), k)

    direction = 1.0
    while k < n:
        gap = int(rng.integers(8, 16))
        for _ in range(min(gap, n - k)):
            script.commit(k, cr_rng=rng)
            k += 1
        if k >= n:
            break
        burst = 4
        speed = float(rng.uniform(15.5, 18.0))
        human = script._present[human_id]
        if human.region.x + burst * speed + human.region.w > header.frame_w - 10:
            direction = -1.0
        elif human.region.x - burst * speed < 10:
            direction = 1.0
        for _ in range(min(burst, n - k)):
            script.move(human_id, direction * speed, 0.0)
            script.commit(k, cr_rng=rng)
            k += 1
    return script.frames
