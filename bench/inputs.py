"""Benchmark inputs: the clip traces of one workload run, made from its seed.

A workload run replays ``CLIPS`` short traces, each generated from its own
seed derived from the workload seed. Pooling independent clips keeps the
paper-level numbers (virtual latency, recall, keyframe accuracy) from
swinging with one trace's random object sizes and gesture times.

Recall and keyframe accuracy are measured on the guard clips: the clips of
``GUARD_SEED``, the same whatever ``--seed`` a run is given. They are then
the same number on every run of a commit, so a small change in them shows.

Run as a script it writes the clip traces and exits, so the measured process
only ever reads finished files, as ``percsched compare`` does:

    python3 bench/inputs.py --workload static-17 --seed 1 --frames 150 --out DIR

The generators cannot emit pixel rasters, so ``interaction-pixels`` renders
them here: a seeded background texture, filled entity boxes and keypoint
marks at the trace's true geometry. Its frames carry ``pixels`` and no
``change`` statistics, so the engine computes change detection itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    archetype: str
    keypoints: int
    pixels: bool


WORKLOADS: Dict[str, Workload] = {
    "static-17": Workload("static", 17, False),
    "walking-133": Workload("walking", 133, False),
    "interaction-pixels": Workload("interaction", 17, True),
}
CLIPS = 8
FRAMES_PER_CLIP = 150
GUARD_SEED = 0

RASTER_W = 80
RASTER_H = 60
# Separates the renderer's random stream from the generator's, which is
# seeded with the bare workload seed.
_RENDER_STREAM = 0x52454E44
_KEYPOINT_MARK = np.array([255, 255, 255], dtype=np.uint8)


def _entity_color(entity_id: str) -> np.ndarray:
    """A fixed colour per entity id; crc32 is stable across processes."""
    code = zlib.crc32(entity_id.encode("utf-8"))
    return np.array([96 + (code >> s) % 160 for s in (0, 8, 16)], dtype=np.uint8)


def _box_slices(region, sx: float, sy: float) -> Tuple[slice, slice]:
    x0 = max(0, math.floor(region.x * sx))
    y0 = max(0, math.floor(region.y * sy))
    x1 = min(RASTER_W, math.ceil((region.x + region.w) * sx))
    y1 = min(RASTER_H, math.ceil((region.y + region.h) * sy))
    return slice(y0, max(y0, y1)), slice(x0, max(x0, x1))


def render_pixels(trace, seed: int):
    """Return ``trace`` with every frame's ``change`` replaced by a raster."""
    from percsched.scene import EntityKind
    from percsched.traces import FramePixels, Trace

    rng = np.random.default_rng([seed, _RENDER_STREAM])
    base = rng.integers(40, 120, size=(1, 1, 3))
    grain = rng.integers(-20, 21, size=(RASTER_H, RASTER_W, 3))
    texture = np.clip(base + grain, 0, 255).astype(np.uint8)
    sx = RASTER_W / trace.header.frame_w
    sy = RASTER_H / trace.header.frame_h

    frames = []
    for frame in trace.frames:
        rgb = texture.copy()
        # objects first so a human in front of an object stays visible
        ordered = sorted(frame.entities, key=lambda e: (e.kind is EntityKind.HUMAN, e.id))
        for e in ordered:
            if e.kind is EntityKind.BACKGROUND:
                continue
            ys, xs = _box_slices(e.region, sx, sy)
            rgb[ys, xs] = _entity_color(e.id)
        for pts in frame.keypoints.values():
            for x, y in pts:
                px, py = int(x * sx), int(y * sy)
                if 0 <= px < RASTER_W and 0 <= py < RASTER_H:
                    rgb[py, px] = _KEYPOINT_MARK
        frames.append(dataclasses.replace(frame, change=None, pixels=FramePixels(rgb=rgb)))
    return Trace(header=trace.header, frames=tuple(frames))


def clip_seed(seed: int, clip: int) -> int:
    return int(np.random.SeedSequence([seed, clip]).generate_state(1)[0])


def make_trace(workload: str, seed: int, frames: int):
    from percsched.traces import generate_trace

    spec = WORKLOADS[workload]
    trace = generate_trace(spec.archetype, frames, seed, keypoint_count=spec.keypoints)
    return render_pixels(trace, seed) if spec.pixels else trace


def clip_path(out_dir: Path, clip: int) -> Path:
    return out_dir / f"clip{clip}.trace.jsonl"


def write_clips(workload: str, seed: int, frames: int, out_dir: Path) -> None:
    from percsched.traces import write_trace

    out_dir.mkdir(parents=True, exist_ok=True)
    for clip in range(CLIPS):
        trace = make_trace(workload, clip_seed(seed, clip), frames)
        write_trace(clip_path(out_dir, clip), trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--frames", type=int, default=FRAMES_PER_CLIP, help="frames per clip")
    parser.add_argument("--out", required=True, help="directory for the clip traces")
    args = parser.parse_args(argv)
    write_clips(args.workload, args.seed, args.frames, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
