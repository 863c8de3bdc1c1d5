"""Ground-truth scene traces: schema, JSONL serialization and generators.

A trace is one header record followed by one record per frame. Frames carry
true entity geometry, true human keypoints, relevance assignments and
change-detection inputs in one of two variants: precomputed statistics
(``change``) or a raw low-resolution raster (``pixels``) from which the
statistics can be computed.

The generators script three archetypes of human activity: ``static`` (enter,
sit mostly still, leave), ``interaction`` (seated with frequent hand/object
gestures) and ``walking`` (stop-and-go locomotion bursts).
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Annotated, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .scene import (
    DEFAULT_FRAME_PERIOD_MS,
    FALSE_POSITIVE_PREFIX,
    Coordinate,
    Entity,
    EntityKind,
    PatchRegion,
)
from .schema import POINTS, Count, NonNegative, PositiveCount, Share, check_fields

TRACE_SCHEMA = "percsched-trace"
TRACE_VERSION = 2
# version 1 frames also carry background, enters, exits and a per-entity
# moving flag, all derivable and unread; the reader ignores them
READABLE_VERSIONS = (1, TRACE_VERSION)

ARCHETYPES = ("static", "interaction", "walking")

# the longest frame period a trace may give; virtual time, index times
# period, must stay far below where float milliseconds overflow
MAX_FRAME_PERIOD_MS = 1e6
FramePeriod = Annotated[float, f"(0, {MAX_FRAME_PERIOD_MS:g}]"]

Points = Annotated[Tuple[Tuple[Coordinate, Coordinate], ...], POINTS]


class TraceError(RuntimeError):
    """Raised for unreadable, inconsistent or schema-invalid traces."""


@dataclass(frozen=True)
class ChangeStats:
    """Precomputed change-detection inputs for one frame transition."""

    background_cr: Share
    hist_shift_mean: NonNegative
    patch_cr: Mapping[str, Share] = field(default_factory=dict)

    __post_init__ = check_fields


# eq=False here and on TraceFrame and Trace makes equality identity: the
# generated == would compare numpy arrays and raise
@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class TraceFrame:
    """One ground-truth scene record."""

    # builtin generics, which typing does not cache: its cache of subscripts
    # would keep every imported copy of these classes, and their modules, alive
    index: Count
    entities: tuple[Entity, ...]
    # per human, one read-only (K, 2) float64 array of [x, y] rows
    keypoints: Mapping[str, Points] = field(default_factory=dict)
    change: ChangeStats | None = None
    pixels: FramePixels | None = None

    __post_init__ = check_fields


@dataclass(frozen=True)
class TraceHeader:
    frame_period_ms: FramePeriod = DEFAULT_FRAME_PERIOD_MS
    keypoint_count: PositiveCount = 17
    frame_count: Count = 0
    frame_w: PositiveCount = 640
    frame_h: PositiveCount = 480
    seed: Count = 0
    archetype: str = "custom"

    __post_init__ = check_fields


@dataclass(frozen=True, eq=False)
class Trace:
    header: TraceHeader
    frames: Tuple[TraceFrame, ...]

    def __post_init__(self) -> None:
        raster = None  # (index, shape) of the first frame with pixels
        for i, frame in enumerate(self.frames):
            if frame.index != i:
                raise TraceError(f"frame {i} carries index {frame.index}")
            ids = [e.id for e in frame.entities]
            if len(set(ids)) != len(ids):
                twice = next(eid for j, eid in enumerate(ids) if eid in ids[:j])
                raise TraceError(f"frame {i}: entity {twice!r} is listed twice")
            for eid in ids:
                if eid.startswith(FALSE_POSITIVE_PREFIX):
                    raise TraceError(
                        f"frame {i}: entity id {eid!r} starts with {FALSE_POSITIVE_PREFIX!r}, "
                        "which names the detector's false positives"
                    )
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
    return {"id": e.id, "kind": e.kind.value, **asdict(e.region), "relevance": e.relevance}


def _entity_from_dict(d: dict) -> Entity:
    return Entity(
        id=d["id"],
        kind=EntityKind(d["kind"]),
        region=PatchRegion(x=d["x"], y=d["y"], w=d["w"], h=d["h"]),
        relevance=d["relevance"],
    )


def _shared_entity(d: dict, memo: dict) -> Entity:
    """The entity of record ``d``, built once per distinct record: ``memo``
    maps a record's items and the type of each value to the entity already
    built from an identical record. A record that is no object, that holds an
    unhashable value, or a value equal to 0 (0.0 == -0.0) is built anew, and
    only a record that builds enters ``memo``, so a bad one fails each time."""
    if type(d) is not dict or 0 in d.values():
        return _entity_from_dict(d)
    key = (*d.items(), *map(type, d.values()))
    try:
        entity = memo.get(key)
    except TypeError:  # an unhashable value
        return _entity_from_dict(d)
    if entity is None:
        entity = memo[key] = _entity_from_dict(d)
    return entity


def frame_to_dict(frame: TraceFrame) -> dict:
    rec: dict = {
        "record": "frame",
        "index": frame.index,
        "entities": [_entity_to_dict(e) for e in frame.entities],
    }
    if frame.keypoints:
        rec["keypoints"] = {
            eid: pts.tolist() for eid, pts in sorted(frame.keypoints.items())
        }
    if frame.change is not None:
        patch_cr = dict(sorted(frame.change.patch_cr.items()))
        rec["change"] = dict(asdict(frame.change), patch_cr=patch_cr)
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


# the record keys, each named as the frame field built from it, whose value a
# frame may repeat from the frame before; it then shares that field's
# product: the entity tuple, the checked keypoint arrays, the raster
_REPEATED = ("entities", "keypoints", "pixels")


def frame_from_dict(rec: dict, header: TraceHeader, memo: dict) -> TraceFrame:
    """The frame of record ``rec``. The reader keeps ``memo`` for one file so
    that its frames share what they repeat: under each key of ``_REPEATED``,
    the value last read and its product, reused for a record that holds that
    same object, and ``_shared_entity``'s entities, keyed by tuples. Only a
    frame that builds enters ``memo``, so a bad record fails each time."""
    index = rec.get("index")
    made = {}
    for key in _REPEATED:
        last = memo.get(key)
        if last is not None and key in rec and rec[key] is last[0]:
            made[key] = last[1]
    try:
        change = None
        if "change" in rec:
            c = rec["change"]
            change = ChangeStats(c["background_cr"], c["hist_shift_mean"], c.get("patch_cr", {}))
        pixels = made.get("pixels")
        if pixels is None and "pixels" in rec:
            p = rec["pixels"]
            raw = base64.b64decode(p["rgb_b64"])
            pixels = FramePixels(rgb=np.frombuffer(raw, dtype=np.uint8).reshape(p["h"], p["w"], 3))
        entities = made.get("entities")
        if entities is None:
            entities = tuple(_shared_entity(d, memo) for d in rec["entities"])
        frame = TraceFrame(
            index=index,
            entities=entities,
            keypoints=made.get("keypoints", rec.get("keypoints", {})),
            change=change,
            pixels=pixels,
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        # the reader's line number names the record; an index that is not
        # an integer (a bool, a float, null) would name no frame
        prefix = f"frame {index}: " if type(index) is int else ""
        raise TraceError(f"{prefix}malformed record: {exc}") from exc
    for eid, pts in frame.keypoints.items():
        if len(pts) != header.keypoint_count:
            raise TraceError(
                f"frame {index}: entity {eid!r} has {len(pts)} "
                f"keypoints, header says {header.keypoint_count}"
            )
    for key in _REPEATED:
        if key in rec:
            memo[key] = (rec[key], getattr(frame, key))
    return frame


# json's own value scanner, and the whitespace it skips between tokens
_scan = json.scanner.make_scanner(json.JSONDecoder())
_space = json.decoder.WHITESPACE.match
_SPACE = " \t\n\r"


def _walk(line: str, seen: dict) -> Optional[dict]:
    """The object on ``line`` as ``json.loads`` reads it, or None where the
    line holds no object; a fault may also raise. ``seen`` maps a key to the
    text and value of the object, array or string last read under it. A
    value whose text starts with that text is taken unparsed: it ends at its
    closing delimiter, so json's scanner would stop where that text does and
    return an equal value. The ``_SPACE`` tests spare compact lines the
    whitespace match."""
    end = _space(line).end()
    if line[end] != "{":
        return None
    rec: dict = {}
    end = _space(line, end + 1).end()
    if line[end] == '"':
        while True:
            key, end = json.decoder.scanstring(line, end + 1)
            if line[end] in _SPACE:
                end = _space(line, end).end()
            if line[end] != ":":
                return None
            start = end + 1
            if line[start] in _SPACE:
                start = _space(line, start).end()
            last = seen.get(key)
            if last is not None and line.startswith(last[0], start):
                rec[key] = last[1]
                end = start + len(last[0])
            else:
                rec[key], end = _scan(line, start)
                if line[start] in '{["':
                    seen[key] = (line[start:end], rec[key])
            if line[end] in _SPACE:
                end = _space(line, end).end()
            if line[end] != ",":
                break
            end = _space(line, end + 1).end()
            if line[end] != '"':
                return None
    if line[end] != "}" or _space(line, end + 1).end() != len(line):
        return None
    return rec


def _record(line: str, seen: dict) -> object:
    """The JSON value on ``line``: ``_walk``'s object, or, for any line the
    walk does not finish, ``json.loads``' value or error."""
    try:
        rec = _walk(line, seen)
    except Exception:  # noqa: BLE001 - json.loads raises the error for it
        rec = None
    return json.loads(line) if rec is None else rec


def write_trace(path: Union[str, Path], trace: Trace) -> None:
    path = Path(path)
    header = {
        "record": "header",
        "schema": TRACE_SCHEMA,
        "version": TRACE_VERSION,
        **asdict(trace.header),
        "frame_count": len(trace.frames),
    }
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for frame in trace.frames:
            fh.write(json.dumps(frame_to_dict(frame), separators=(",", ":")) + "\n")


def read_trace(path: Union[str, Path]) -> Trace:
    """The trace in the JSONL file at ``path``. Its frames share one
    ``Entity`` per distinct entity record, and a frame whose entities,
    keypoints or pixels value repeats the text of the last such value read
    takes it unparsed and shares its product: the entity tuple, the
    read-only keypoint arrays, the raster. A malformed record raises a
    ``TraceError`` naming its line."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        # (1-based line number, text) of every non-blank line
        lines = [(n, line) for n, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise TraceError(f"trace file is empty: {path}")
    number, text = lines[0]
    frames = []
    memo: dict = {}
    seen: dict = {}  # per key, the text and value last read (see _walk)
    try:
        try:
            head = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceError(f"unreadable trace header: {exc}") from exc
        if not (
            isinstance(head, dict)
            and head.get("record") == "header"
            and head.get("schema") == TRACE_SCHEMA
        ):
            raise TraceError("first record must be a trace header")
        version = head.get("version")
        if version not in READABLE_VERSIONS or type(version) is not int:
            raise TraceError(f"unsupported trace version {version!r}")
        try:
            header = TraceHeader(
                **{k: head[k] for k in ("frame_period_ms", "keypoint_count", "frame_count")},
                **{k: head[k] for k in ("frame_w", "frame_h", "seed", "archetype") if k in head},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"invalid trace header: {exc}") from exc
        for number, text in lines[1:]:
            try:
                rec = _record(text, seen)
            except json.JSONDecodeError as exc:
                raise TraceError(f"unreadable trace record: {exc}") from exc
            if not isinstance(rec, dict):
                raise TraceError("a record must be a JSON object")
            if rec.get("record") != "frame":
                raise TraceError(f"unexpected record type {rec.get('record')!r}")
            frames.append(frame_from_dict(rec, header, memo))
    except TraceError as exc:
        raise TraceError(f"line {number}: {exc}") from exc
    if not frames:
        raise TraceError(f"trace has no frame records: {path}")
    if header.frame_count and header.frame_count != len(frames):
        raise TraceError(
            f"header frame_count promises {header.frame_count} frames, file has {len(frames)}"
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
        self._present[entity_id] = Entity(e.id, e.kind, region, e.relevance)

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
        cr_rng: np.random.Generator,
        keypoint_jitter: Optional[Mapping[str, Mapping[int, Tuple[float, float]]]] = None,
        background_event: bool = False,
    ) -> None:
        """Finish the frame: draw its change stats from ``cr_rng`` and append it."""
        entities = []
        patch_cr: Dict[str, float] = {}
        keypoints: Dict[str, Tuple[Tuple[float, float], ...]] = {}

        for eid in sorted(self._present):
            e = self._present[eid]
            kps = None
            if e.kind is EntityKind.HUMAN:
                kps = self.keypoints_for(eid, (keypoint_jitter or {}).get(eid))
                keypoints[eid] = kps
            # an entity that has just entered counts as moved
            prev = self._prev_regions.get(eid)
            moved = (
                prev is None
                or abs(e.region.x - prev.x) > 1e-9
                or abs(e.region.y - prev.y) > 1e-9
            )
            prev_kps = self._prev_kps.get(eid)
            if not moved and kps is not None and prev_kps is not None:
                moved = any(
                    abs(ax - bx) > 1e-9 or abs(ay - by) > 1e-9
                    for (ax, ay), (bx, by) in zip(kps, prev_kps)
                )
            base_cr = float(cr_rng.uniform(0.0, 0.015))
            patch_cr[eid] = float(cr_rng.uniform(0.25, 0.6)) if moved else base_cr
            entities.append(e)

        if background_event:
            background_cr = float(cr_rng.uniform(0.12, 0.3))
            hist_shift = float(cr_rng.uniform(18.0, 40.0))
        else:
            background_cr = float(cr_rng.uniform(0.0, 0.01))
            hist_shift = float(cr_rng.uniform(0.0, 1.5))

        self.frames.append(
            TraceFrame(
                index=index,
                entities=tuple(entities),
                keypoints=keypoints,
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
) -> int:
    """Advance the scripted human linearly over ``frames_range``, each frame
    a background event."""
    k = index_offset
    for _ in frames_range:
        script.move(human_id, step[0], step[1])
        script.commit(k, background_event=True, cr_rng=rng)
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
