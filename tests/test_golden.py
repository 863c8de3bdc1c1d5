"""Golden run logs: SHA-256 digests of ``RunLog.to_jsonl()`` on a fixed matrix.

Three generated archetype traces plus one pixel-raster trace, each run under
the parallel, oracle and scheduled policies. A refactor that is meant to keep
behaviour must leave every digest unchanged.

The digests live in ``tests/golden/runlog_digests.json``. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py > tests/golden/runlog_digests.json``
only for a change that is meant to alter run logs, and say in CHANGES.md which
bytes moved and why.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import numpy_rgb_histograms
from percsched import change_detect
from percsched.change_detect import ChangeDetectConfig
from percsched.config import RunConfig
from percsched.engine import PolicyKind, SimEngine, run, run_offline
from percsched.metrics import extract_keyframes
from percsched.scene import EntityKind
from percsched.traces import FramePixels, Trace, generate_trace

GOLDEN = Path(__file__).resolve().parent / "golden" / "runlog_digests.json"
FRAMES = 120
SEED = 11
TRACES = ("static", "interaction", "walking", "interaction-pixels")
RASTER_W, RASTER_H = 64, 48


def pixel_trace(frames: int, seed: int) -> Trace:
    """The ``interaction`` trace with each frame's change statistics replaced
    by a seeded raster: a grainy backdrop with every entity drawn as a filled
    box in its own colour, humans over objects."""
    trace = generate_trace("interaction", frames, seed)
    rng = np.random.default_rng([seed, RASTER_W, RASTER_H])
    backdrop = rng.integers(40, 120, size=(RASTER_H, RASTER_W, 3)).astype(np.uint8)
    sx = RASTER_W / trace.header.frame_w
    sy = RASTER_H / trace.header.frame_h
    colours = {}
    out = []
    for frame in trace.frames:
        rgb = backdrop.copy()
        for e in sorted(frame.entities, key=lambda e: (e.kind is EntityKind.HUMAN, e.id)):
            if e.id not in colours:
                colours[e.id] = rng.integers(140, 256, size=3).astype(np.uint8)
            x0, y0 = max(0, int(e.region.x * sx)), max(0, int(e.region.y * sy))
            x1 = min(RASTER_W, int(np.ceil((e.region.x + e.region.w) * sx)))
            y1 = min(RASTER_H, int(np.ceil((e.region.y + e.region.h) * sy)))
            rgb[y0:y1, x0:x1] = colours[e.id]
        out.append(dataclasses.replace(frame, change=None, pixels=FramePixels(rgb=rgb)))
    return Trace(header=trace.header, frames=tuple(out))


def make_trace(name: str) -> Trace:
    if name == "interaction-pixels":
        return pixel_trace(FRAMES, SEED)
    return generate_trace(name, FRAMES, SEED)


def run_logs(trace: Trace, cfg: RunConfig) -> dict:
    """Each policy's run log over one trace as JSONL text, keyed by policy."""
    pipe = cfg.pipeline(trace.header)
    gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
    return {
        kind.value: run(
            trace, kind, pipe, gt.required if kind is PolicyKind.ORACLE else None
        ).to_jsonl()
        for kind in PolicyKind
    }


def digests(name: str) -> dict:
    """SHA-256 of each policy's run log over one trace, keyed ``name/policy``."""
    logs = run_logs(make_trace(name), RunConfig(seed=SEED))
    return {
        f"{name}/{policy}": hashlib.sha256(text.encode("utf-8")).hexdigest()
        for policy, text in logs.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", TRACES)
def test_run_logs_match_golden_digests(golden, name):
    for key, digest in digests(name).items():
        assert digest == golden[key], f"run log {key} changed"


@pytest.mark.parametrize("bins", [7, 20, 100])
def test_pixel_run_logs_equal_numpy_histogram_runs(monkeypatch, bins):
    """Off the 32-bin golden setting, the byte-count histograms must give the
    run logs that ``np.histogram`` gives, and equal it on every call."""
    trace = pixel_trace(FRAMES, SEED)
    cfg = RunConfig(seed=SEED, change=ChangeDetectConfig(histogram_bins=bins))
    kernel = change_detect.rgb_histograms
    calls = []

    def checked(pixels, n_bins, mask=None):
        got = kernel(pixels, n_bins, mask)
        assert np.array_equal(got, numpy_rgb_histograms(pixels, n_bins, mask))
        calls.append(n_bins)
        return got

    monkeypatch.setattr(change_detect, "rgb_histograms", checked)
    on_kernel = run_logs(trace, cfg)
    assert calls and set(calls) == {bins}
    monkeypatch.setattr(change_detect, "rgb_histograms", numpy_rgb_histograms)
    assert run_logs(trace, cfg) == on_kernel


def test_pixel_trace_moves_tracked_patches():
    """The pixel trace must exercise tracked patches, not only the background."""
    seen = []

    class Probe(SimEngine):
        def _update_motion(self, patch_cr):
            seen.extend(patch_cr.values())
            super()._update_motion(patch_cr)

    trace = pixel_trace(FRAMES, SEED)
    Probe(trace, PolicyKind.PARALLEL, RunConfig(seed=SEED).pipeline(trace.header)).run()
    assert max(seen) > 0.0


if __name__ == "__main__":
    matrix = {key: d for name in TRACES for key, d in digests(name).items()}
    sys.stdout.write(json.dumps(matrix, indent=2, sort_keys=True) + "\n")
