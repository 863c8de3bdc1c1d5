"""Golden run logs: SHA-256 digests of ``RunLog.to_jsonl()`` on a fixed matrix.

Three generated archetype traces plus one pixel-raster trace, each run under
the parallel, oracle and scheduled policies, at the default config (keys
``trace/policy``) and at five config variants that leave the defaults for
noise, busy queueing, serial overhead, keep-on-miss and early staleness (keys
``variant/trace/policy``). The Kalman filter has one update form, so no
variant picks one. A refactor that is meant to keep behaviour must leave
every digest unchanged.

The digests live in ``tests/golden/runlog_digests.json``. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py > tests/golden/runlog_digests.json``
only for a change that is meant to alter run logs, and say in CHANGES.md which
bytes moved and why.

``tests/golden/vector_digests.json`` pins, for the same runs, the SHA-256 of
the decided, honored and forced vectors alone, as the benchmark encodes them
(``bench/checks.vectors_digest``). A change that moves bytes but not
decisions leaves these pins as they are. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py vectors > tests/golden/vector_digests.json``
only for a change that is meant to alter decisions.

``TRACE_DIGESTS`` pins the four traces as ``write_trace`` writes them, so a
change to the trace writer or the generators shows here first.
``KEYFRAME_DIGESTS`` pins the ground-truth keyframe sets of the four traces
at three threshold pairs, which the oracle runs and every recall read.

The byte pins hold for one CPython, numpy and libm family, whatever SIMD
code numpy dispatches to on the host; the decision pins hold across hosts.
Both are rechecked in child processes with numpy's dispatch cut to its
baseline, and the decision pins with glibc's math off its FMA path.
"""

import dataclasses
import functools
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    DECISION_VECTORS,
    CountingMath,
    LogDifference,
    first_difference,
    numpy_rgb_histograms,
    reference_pixel_change,
    reference_regions,
)
from percsched import change_detect, metrics, rewards
from percsched import engine as engine_module
from percsched.change_detect import ChangeDetectConfig
from percsched.config import RunConfig
from percsched.engine import EngineConfig, PolicyKind, RunLog, SimEngine, run, run_offline
from percsched.metrics import KeyframeThresholds, extract_keyframes
from percsched.scene import DETECTION, POSE, EntityKind
from percsched.toolkit import NoiseConfig
from percsched.tracker import BLOCK_COLUMNS, COLUMNS, MEAS_DIM, KalmanConfig
from percsched.traces import (
    ChangeStats,
    FramePixels,
    Trace,
    generate_trace,
    read_trace,
    write_trace,
)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "runlog_digests.json"
VECTORS = HERE / "golden" / "vector_digests.json"
FRAMES = 120
SEED = 11
TRACES = ("static", "interaction", "walking", "interaction-pixels")
RASTER_W, RASTER_H = 64, 48
TRACE_DIGESTS = {
    "static": "f746636bfe5d99fcaeb480759bb85ea6401d3cf4e97680856a1c179981dd5b5e",
    "interaction": "97b4705f66c0233c7467865f48c5667aa0b6800873997bd662c902effc234eb6",
    "walking": "e1298008ce815ddc6bf8f75570551d32d96fb6fe0333c2bb8a1ab547b2e7f6fd",
    "interaction-pixels": "5568e466a4d0d0200dcd1856a94a7d6a26fd63aeb1cf90132d9a5ba7fd4f3b97",
}
# the SHA-256 of each golden trace's ground-truth keyframe sets, as
# ``keyframe_sets`` writes them, at the default (tau_box_px, tau_kp_px), at a
# tighter pair and at a looser one
KEYFRAME_DIGESTS = {
    "static/10,15": "f21e301d9e2a74a7ffca53100f9339254a98289b29be561a5294f7729a62f60f",
    "interaction/10,15": "c459c8a59bc6f15acb13cd1a17fe07fc70d76f88989f7ec67273fcafb1007293",
    "walking/10,15": "155b22f43fd9e0f2366177cafbf777a9614d99a9884cfc09e2d30f8309cff541",
    "interaction-pixels/10,15": "c459c8a59bc6f15acb13cd1a17fe07fc70d76f88989f7ec67273fcafb1007293",
    "static/3,4": "0122885678315cfe105e83260f8dea0c96ed23496f01d919ff8422fe2885f70f",
    "interaction/3,4": "470653bbe1fb6e7acb4b9d3bf07e000fad9d1f1e776568668b6541c01cfabbc6",
    "walking/3,4": "155b22f43fd9e0f2366177cafbf777a9614d99a9884cfc09e2d30f8309cff541",
    "interaction-pixels/3,4": "470653bbe1fb6e7acb4b9d3bf07e000fad9d1f1e776568668b6541c01cfabbc6",
    "static/30,40": "397b0533482b70ad982394357421b3ffad37bc2b9a0ef31c2575338860206a54",
    "interaction/30,40": "bc03ee299c9a413c0186c09bbed5f4387a616a3777947def3bb40041c9e4081a",
    "walking/30,40": "d3f7327dd3d50c92c1d422eba3eeffb9c052eae9e36f1871c94f023c58c8bcc7",
    "interaction-pixels/30,40": "bc03ee299c9a413c0186c09bbed5f4387a616a3777947def3bb40041c9e4081a",
}
VARIANTS = {
    "noise": RunConfig(
        seed=SEED,
        noise=NoiseConfig(box_std=2.0, miss_rate=0.1, false_positive_rate=0.05,
                          confidence_spread=0.3),
    ),
    "queue": RunConfig(seed=SEED, engine=EngineConfig(busy_policy="queue")),
    "serial-overhead": RunConfig(
        seed=SEED,
        engine=EngineConfig(scheduling_overhead_ms=2.0, overhead_accounting="serial"),
    ),
    "keep-on-miss": RunConfig(
        seed=SEED, engine=EngineConfig(delete_on_miss=False), noise=NoiseConfig(miss_rate=0.2)
    ),
    "stale": RunConfig(
        seed=SEED,
        kalman=KalmanConfig(max_frames_since_update=5),
        noise=NoiseConfig(miss_rate=0.3),
    ),
}


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


@functools.lru_cache(maxsize=None)
def make_trace(name: str) -> Trace:
    if name == "interaction-pixels":
        return pixel_trace(FRAMES, SEED)
    return generate_trace(name, FRAMES, SEED)


def bench_module(name: str):
    """``bench/<name>.py``, loaded by path: ``bench/`` is not a package."""
    path = HERE.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def policy_runs(trace: Trace, cfg: RunConfig, kinds=tuple(PolicyKind)) -> dict:
    """Each policy's :class:`RunLog` over one trace, keyed by policy."""
    pipe = cfg.pipeline(trace.header)
    gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
    return {
        kind.value: run(trace, kind, pipe, gt.required if kind is PolicyKind.ORACLE else None)
        for kind in kinds
    }


def run_logs(trace: Trace, cfg: RunConfig) -> dict:
    """Each policy's run log over one trace as JSONL text, keyed by policy."""
    return {policy: log.to_jsonl() for policy, log in policy_runs(trace, cfg).items()}


def variant_config(variant: str) -> RunConfig:
    """The golden config of a variant; ``""`` is the default config."""
    return VARIANTS[variant] if variant else RunConfig(seed=SEED)


@functools.lru_cache(maxsize=None)
def matrix_runs(name: str, variant: str = "") -> dict:
    """Every policy's run over one golden trace at one golden config; the
    byte pins and the vector pins read the same runs."""
    return policy_runs(make_trace(name), variant_config(variant))


def text_digest(log: RunLog) -> str:
    return hashlib.sha256(log.to_jsonl().encode("utf-8")).hexdigest()


def digests(name: str, variant: str = "", of=text_digest) -> dict:
    """``of`` each policy's run log over one trace (by default the SHA-256 of
    its bytes), keyed ``name/policy`` at the default config and
    ``variant/name/policy`` at a config variant."""
    prefix = f"{variant}/" if variant else ""
    return {
        f"{prefix}{name}/{policy}": of(log) for policy, log in matrix_runs(name, variant).items()
    }


def golden_matrix(of=text_digest) -> dict:
    """Every golden digest: the default config, then each variant."""
    return {
        key: d
        for variant in ("", *VARIANTS)
        for name in TRACES
        for key, d in digests(name, variant, of).items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", TRACES)
def test_written_traces_match_golden_digests(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    write_trace(path, make_trace(name))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[name]


@pytest.mark.parametrize("variant", ["", "noise"])
def test_read_pixel_trace_runs_as_the_trace_in_memory(tmp_path, variant):
    """The golden runs go through in-memory traces; a pixel trace read back,
    whose repeated rasters share one array, gives the same run logs."""
    path = tmp_path / "trace.jsonl"
    write_trace(path, make_trace("interaction-pixels"))
    read = read_trace(path)
    assert any(a.pixels.rgb is b.pixels.rgb for a, b in zip(read.frames, read.frames[1:]))
    held = matrix_runs("interaction-pixels", variant)
    assert run_logs(read, variant_config(variant)) == {
        policy: log.to_jsonl() for policy, log in held.items()
    }


@pytest.mark.parametrize("name", TRACES)
def test_run_logs_match_golden_digests(golden, name):
    for key, digest in digests(name).items():
        assert digest == golden[key], f"run log {key} changed"


@pytest.mark.parametrize("name", TRACES)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variant_run_logs_match_golden_digests(golden, variant, name):
    for key, digest in digests(name, variant).items():
        assert digest == golden[key], f"run log {key} changed"


def test_decision_vectors_match_pinned_digests():
    """Every golden run decides, honors and forces on the frames it did when
    the pins were made, whatever its other bytes."""
    pinned = json.loads(VECTORS.read_text(encoding="utf-8"))
    assert golden_matrix(bench_module("checks").vectors_digest) == pinned


@pytest.mark.parametrize(
    "name, variant, policy, expected",
    [
        ("static", "queue", "scheduled", (27, "honored", ("honored",))),
        ("walking", "serial-overhead", "oracle", (0, "decision_time_ms", ())),
        ("interaction", "keep-on-miss", "scheduled", (1, "info_gain", ("decided", "honored"))),
        ("interaction-pixels", "queue", "parallel", (None, None, ())),
    ],
)
def test_first_difference_names_where_two_golden_logs_part(name, variant, policy, expected):
    a, b = matrix_runs(name)[policy], matrix_runs(name, variant)[policy]
    difference = LogDifference(("config_digest",), *expected)
    assert first_difference(a, b) == first_difference(b, a) == difference
    # the frame named is the first whose line differs in bytes
    lines = zip(a.to_jsonl().splitlines()[1:], b.to_jsonl().splitlines()[1:])
    frame = next((i for i, (la, lb) in enumerate(lines) if la != lb), None)
    assert frame == difference.frame
    assert first_difference(a, RunLog.from_jsonl(a.to_jsonl())) is None
    cut = RunLog(a.header, a.records[:50])
    assert first_difference(a, cut) == LogDifference((), 50, None, DECISION_VECTORS)


def keyframe_sets(required: dict) -> str:
    """Ground-truth keyframe sets as JSON text: each module's frames, sorted."""
    return json.dumps({m: sorted(frames) for m, frames in required.items()}, sort_keys=True)


@pytest.mark.parametrize("key", sorted(KEYFRAME_DIGESTS))
def test_ground_truth_keyframes_match_pinned_sets(key):
    """Every golden trace gives the keyframe sets it gave when the pins were
    made, at the default thresholds and off them."""
    name, pair = key.split("/")
    trace = make_trace(name)
    thresholds = KeyframeThresholds(*map(float, pair.split(",")))
    gt = extract_keyframes(run_offline(trace, RunConfig(seed=SEED).pipeline(trace.header)),
                           thresholds)
    assert gt.count(DETECTION) and gt.count(POSE)
    text = keyframe_sets(gt.required)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == KEYFRAME_DIGESTS[key], text


@pytest.mark.parametrize("bins", [7, 20, 100])
def test_pixel_run_logs_equal_numpy_histogram_runs(monkeypatch, bins):
    """Off the 32-bin golden setting, the byte-count histograms must give the
    run logs that ``np.histogram`` gives, and equal it on every call."""
    trace = pixel_trace(FRAMES, SEED)
    cfg = RunConfig(seed=SEED, change=ChangeDetectConfig(histogram_bins=bins))
    kernel = change_detect.rgb_histograms
    calls = []

    def checked(pixels, n_bins, mask):
        got = kernel(pixels, n_bins, mask)
        assert np.array_equal(got, numpy_rgb_histograms(pixels, n_bins, mask))
        calls.append(n_bins)
        return got

    monkeypatch.setattr(change_detect, "rgb_histograms", checked)
    on_kernel = run_logs(trace, cfg)
    assert calls and set(calls) == {bins}
    monkeypatch.setattr(change_detect, "rgb_histograms", numpy_rgb_histograms)
    assert run_logs(trace, cfg) == on_kernel


class DirectCountEngine(SimEngine):
    """The engine with each pixel frame's statistics counted the direct way,
    by :func:`oracles.reference_pixel_change`."""

    last_raster = None

    def _change_stats(self, frame):
        if frame.pixels is None:
            return super()._change_stats(frame)
        prev, self.last_raster = self.last_raster, frame.pixels.rgb
        if prev is None:
            return 0.0, 0.0, {}
        header = self.trace.header
        return reference_pixel_change(
            prev, frame.pixels.rgb, dict(zip(self.bank.ids, self.bank.x)),
            header.frame_w, header.frame_h, self.cfg.change,
        )


def mixed_pixel_trace() -> Trace:
    """The pixel trace with frames 3, 5, 10 and 12 carrying change statistics
    and no raster: the pixel path must compare frame 4 with frame 2, 6 with
    4, 11 with 9 and 13 with 11. A human moves from frame 9 on, so a raster
    lost across frame 10 shows in the run log."""
    trace = pixel_trace(FRAMES, SEED)
    frames = list(trace.frames)
    for i in (3, 5, 10, 12):
        change = ChangeStats(0.3, 12.0) if i == 3 else ChangeStats(0.0, 0.0)
        frames[i] = dataclasses.replace(frames[i], change=change, pixels=None)
    return Trace(header=trace.header, frames=tuple(frames))


DIRECT_COUNT_CASES = {
    "bins-1": (False, ChangeDetectConfig(histogram_bins=1)),
    "bins-300": (False, ChangeDetectConfig(histogram_bins=300)),
    "mixed": (True, ChangeDetectConfig()),
}


@pytest.mark.parametrize("case", sorted(DIRECT_COUNT_CASES))
def test_pixel_run_logs_equal_direct_count_runs(monkeypatch, case):
    """Off the golden setting, and across frames without a raster, the
    scheduled run log must be byte for byte the one that counting every
    background pixel gives, and every histogram the one ``np.histogram`` gives."""
    mixed, change = DIRECT_COUNT_CASES[case]
    trace = mixed_pixel_trace() if mixed else pixel_trace(FRAMES, SEED)
    pipe = RunConfig(seed=SEED, change=change).pipeline(trace.header)
    kernel = change_detect.rgb_histograms
    calls = []

    def checked(pixels, n_bins, mask):
        got = kernel(pixels, n_bins, mask)
        assert np.array_equal(got, numpy_rgb_histograms(pixels, n_bins, mask))
        calls.append(n_bins)
        return got

    monkeypatch.setattr(change_detect, "rgb_histograms", checked)
    fast = SimEngine(trace, PolicyKind.SCHEDULED, pipe).run().to_jsonl()
    assert calls and set(calls) == {change.histogram_bins}
    assert fast == DirectCountEngine(trace, PolicyKind.SCHEDULED, pipe).run().to_jsonl()


def test_pixel_frames_count_only_the_tracked_patches(monkeypatch):
    """A pixel frame counts histograms only when its background change ratio
    passes the composition trigger's first test: then it makes exactly two
    calls, each masked to exactly the pixels no tracked patch occupies, and
    otherwise none. At least one frame of the golden pixel trace passes."""
    trace = make_trace("interaction-pixels")
    ccfg = ChangeDetectConfig()
    per_frame = {}
    background = {}
    candidates = set()

    class Probe(SimEngine):
        last_raster = None

        def _change_stats(self, frame):
            k = frame.index
            per_frame[k] = []
            means = dict(zip(self.bank.ids, self.bank.x))
            header = self.trace.header
            prev, self.last_raster = self.last_raster, frame.pixels.rgb
            if prev is not None:
                bg_cr, _, _ = reference_pixel_change(
                    prev, frame.pixels.rgb, means, header.frame_w, header.frame_h, ccfg
                )
                if bg_cr > ccfg.patch_change_threshold:
                    candidates.add(k)
            mask = np.ones(frame.pixels.rgb.shape[:2], dtype=bool)
            for box in reference_regions(means, mask.shape, header.frame_w, header.frame_h).values():
                if box is not None:
                    mask[box[0]:box[1], box[2]:box[3]] = False
            background[k] = mask
            return super()._change_stats(frame)

    kernel = change_detect.rgb_histograms

    def counted(pixels, n_bins, mask):
        per_frame[max(per_frame)].append(mask)
        return kernel(pixels, n_bins, mask)

    monkeypatch.setattr(change_detect, "rgb_histograms", counted)
    Probe(trace, PolicyKind.SCHEDULED, RunConfig(seed=SEED).pipeline(trace.header)).run()
    assert sorted(per_frame) == list(range(FRAMES))
    for k, masks in per_frame.items():
        assert len(masks) == (2 if k in candidates else 0), f"frame {k}"
        for mask in masks:
            assert np.array_equal(mask, background[k]), f"frame {k}"
    assert candidates and not all(mask.all() for mask in background.values())


def test_pixel_trace_moves_tracked_patches():
    """The pixel trace must exercise tracked patches, not only the background."""
    seen = []

    class Probe(SimEngine):
        def _update_motion(self, patch_cr):
            seen.extend(patch_cr.values())
            super()._update_motion(patch_cr)

    trace = pixel_trace(FRAMES, SEED)
    Probe(trace, PolicyKind.SCHEDULED, RunConfig(seed=SEED).pipeline(trace.header)).run()
    assert max(seen) > 0.0


def test_pixel_trace_holds_unchanged_and_banded_pairs():
    """The engine skips an unchanged raster and differences only the band of
    rows whose bytes differ; the pixel trace must hold both kinds of pair,
    so that its golden run logs pin both."""
    rasters = [frame.pixels.rgb for frame in make_trace("interaction-pixels").frames]
    bands = []
    for prev, curr in zip(rasters, rasters[1:]):
        rows = np.flatnonzero((curr != prev).any(axis=(1, 2)))
        bands.append((rows[0], rows[-1] + 1) if rows.size else None)
    assert len(bands) == FRAMES - 1
    assert bands.count(None) == 101
    changed = [band for band in bands if band is not None]
    assert any(r1 - r0 < RASTER_H for r0, r1 in changed)


BELIEF_CALLS = (
    "predict", "update", "init_track", "inflate_process_noise", "measurement_covariance",
    "cd.grayscale_diff", "cd.rgb_histograms", "cd.chi_square_shift",
    "cd.composition_change_trigger", "cd.motion_status",
    "history.record", "history.extrapolated", "history.forget",
)
BELIEF_OWNERS = {"cd": change_detect, "history": rewards.KeypointConfidenceHistory}


def route_belief_calls(monkeypatch, on_call):
    """Pass every belief-layer call the engine makes through ``on_call(name)``
    before the real function runs."""
    for dotted in BELIEF_CALLS:
        prefix, _, name = dotted.rpartition(".")
        owner = BELIEF_OWNERS.get(prefix, engine_module)

        def routed(*args, _dotted=dotted, _real=getattr(owner, name), **kwargs):
            on_call(_dotted)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, routed)


def forbidden(name):
    raise AssertionError(f"{name} called")


@pytest.mark.parametrize("variant", ["", *sorted(VARIANTS)])
def test_baselines_skip_the_belief_layers(monkeypatch, golden, variant):
    """Parallel and Oracle keep track membership only: no Kalman filter,
    change detection, motion gating or keypoint history, and still their
    golden run logs."""
    route_belief_calls(monkeypatch, forbidden)
    prefix = f"{variant}/" if variant else ""
    for name in TRACES:
        baselines = policy_runs(
            make_trace(name), variant_config(variant), (PolicyKind.PARALLEL, PolicyKind.ORACLE)
        )
        for policy, log in baselines.items():
            key = f"{prefix}{name}/{policy}"
            assert text_digest(log) == golden[key], f"run log {key} changed"


def test_scheduled_runs_the_belief_layers(monkeypatch):
    called = set()
    route_belief_calls(monkeypatch, called.add)
    trace = make_trace("interaction-pixels")
    # the default config drops no track of this trace; early staleness does
    for variant in ("", "stale"):
        run(trace, PolicyKind.SCHEDULED, variant_config(variant).pipeline(trace.header))
    assert called == set(BELIEF_CALLS)


def assert_one_track_set(engine):
    """Under Scheduled the bank, the moving set and the keypoint history hold
    members only, and the bank every member; the baselines keep membership
    alone."""
    if engine.keeps_beliefs:
        assert list(engine.bank.ids) == sorted(engine.members)
        assert engine.moving <= set(engine.bank.ids)
        assert set(engine.history._last) <= set(engine.members)
    else:
        assert not engine.bank.ids and not engine.history._last and not engine.entities


@pytest.mark.parametrize("variant", ["", *sorted(VARIANTS)])
def test_every_step_keeps_one_track_set(monkeypatch, golden, variant):
    real_step = SimEngine.step
    steps = []

    def checked_step(engine, frame):
        record = real_step(engine, frame)
        assert_one_track_set(engine)
        steps.append(record.tracked)
        return record

    monkeypatch.setattr(SimEngine, "step", checked_step)
    prefix = f"{variant}/" if variant else ""
    for name in TRACES:
        for policy, log in policy_runs(make_trace(name), variant_config(variant)).items():
            key = f"{prefix}{name}/{policy}"
            assert text_digest(log) == golden[key], f"run log {key} changed"
    assert len(steps) == len(TRACES) * len(PolicyKind) * FRAMES and any(steps)


def test_every_scheduled_step_keeps_python_floats_in_the_bank(monkeypatch):
    """After each step of every scheduled golden run, each bank column is a
    tuple with one entry per track: ``x`` and ``v`` rows are tuples of four
    Python floats, and each covariance column's entries are Python floats.
    A numpy scalar that leaks into the bank keeps the bits, so no pin would
    notice, but it makes every later operation on its row several times
    slower."""
    real_step = SimEngine.step
    sizes = []

    def checked_step(engine, frame):
        record = real_step(engine, frame)
        bank = engine.bank
        for name in COLUMNS:
            column = getattr(bank, name)
            assert type(column) is tuple and len(column) == len(bank), name
            if name in BLOCK_COLUMNS:
                assert all(type(value) is float for value in column), (name, column)
                continue
            for row in column:
                assert type(row) is tuple and len(row) == MEAS_DIM, name
                assert all(type(value) is float for value in row), (name, row)
        sizes.append(len(bank))
        return record

    monkeypatch.setattr(SimEngine, "step", checked_step)
    for variant in ("", *sorted(VARIANTS)):
        for name in TRACES:
            trace = make_trace(name)
            run(trace, PolicyKind.SCHEDULED, variant_config(variant).pipeline(trace.header))
    assert len(sizes) == (1 + len(VARIANTS)) * len(TRACES) * FRAMES and any(sizes)


TRACKER_SPANS = (
    "tracker.predict", "tracker.update", "tracker.init_track",
    "tracker.inflate_process_noise", "tracker.measurement_covariance",
)
# the other kernels a scheduled run calls through a traced name
SCHEDULED_SPANS = (
    "rewards.detection_info_gain", "rewards.pre_execution_entropy",
    "rewards.post_execution_entropy", "rewards.extrapolated", "scheduler.select",
    "toolkit.simulate_detection", "toolkit.simulate_pose",
)


def test_benchmark_tracer_reaches_the_tracker():
    """``bench/run.py --trace 1`` wraps the engine's tracker, reward,
    scheduler and simulator calls by name: a short scheduled run must reach
    every one of those spans, so that a kernel a change inlines cannot leave
    its per-layer metric silently at zero, and tracing must leave its run log
    byte for byte as it was."""
    tracing = bench_module("tracing")
    trace = make_trace("interaction-pixels")
    cfg = RunConfig(seed=SEED).pipeline(trace.header)
    plain = run(trace, PolicyKind.SCHEDULED, cfg).to_jsonl()
    tracer = tracing.Tracer()
    tracer.policy = PolicyKind.SCHEDULED.value
    tracer.install(tracing.layer_targets(engine_module, change_detect, rewards, metrics))
    try:
        traced = run(trace, PolicyKind.SCHEDULED, cfg).to_jsonl()
    finally:
        tracer.uninstall()
    spans = TRACKER_SPANS + SCHEDULED_SPANS
    assert {name: tracer.calls[name] for name in spans if not tracer.calls[name]} == {}
    assert traced == plain


@pytest.mark.parametrize("variant", ["", "noise"])
@pytest.mark.parametrize("name", ["interaction-pixels", "walking"])
def test_pose_reward_call_counts(monkeypatch, name, variant):
    """``bench/run.py --trace 1`` reconciles ``rewards.extrapolated`` and
    ``rewards.post_execution_entropy`` calls per scheduled frame: one
    extrapolation per human track in the bank, for that frame, and one
    entropy call per frame."""
    frame = []
    extrapolated, entropies, humans = [], [], []
    real_step = SimEngine.step
    real_extrapolated = rewards.KeypointConfidenceHistory.extrapolated
    real_entropy = engine_module.post_execution_entropy

    def step(engine, trace_frame):
        frame[:] = [trace_frame.index]
        record = real_step(engine, trace_frame)
        for tid in engine.bank.ids:
            entity = engine.entities.get(tid)
            if entity is not None and entity.kind is EntityKind.HUMAN:
                humans.append((trace_frame.index, tid))
        return record

    def counted_extrapolated(history, entity_id, frame_index, cfg):
        assert frame_index == frame[0]
        extrapolated.append((frame_index, entity_id))
        return real_extrapolated(history, entity_id, frame_index, cfg)

    def counted_entropy(*args, **kwargs):
        entropies.append(frame[0])
        return real_entropy(*args, **kwargs)

    monkeypatch.setattr(SimEngine, "step", step)
    monkeypatch.setattr(rewards.KeypointConfidenceHistory, "extrapolated", counted_extrapolated)
    monkeypatch.setattr(engine_module, "post_execution_entropy", counted_entropy)
    trace = make_trace(name)
    run(trace, PolicyKind.SCHEDULED, variant_config(variant).pipeline(trace.header))
    assert entropies == list(range(FRAMES))
    assert extrapolated == humans and len(set(humans)) == len(humans) and humans


def test_held_sum_memo_traffic(monkeypatch):
    """The pose entropy takes a held human's memo, with no ``math.log``,
    while its sigma table and scale repeat: at the default config it serves
    most held entries of a golden trace. Runs under another table at the
    same keypoint count, and back, read the shared prior again, and none of
    the prior's entries after a table change is served."""
    real_entropy = engine_module.post_execution_entropy
    served, changed = [], []
    last_table = {}  # id of a held array: the array and the table of its last memo

    def entropy(humans, cfg):
        table = rewards.sigma_table(cfg)
        total = 0.0
        for confs, relevance, scale in humans:
            before = counting.logs
            # one human a call gives the same sum: 0.0 + x only turns -0.0 to 0.0
            total += real_entropy([(confs, relevance, scale)], cfg)
            if type(confs) is rewards.HeldConfidences:
                served[-1].append(counting.logs == before)
                seen = last_table.get(id(confs))
                if seen is not None and seen[1] is not table:
                    changed.append(counting.logs == before)
                last_table[id(confs)] = (confs, table)
        return total

    monkeypatch.setattr(engine_module, "post_execution_entropy", entropy)
    trace = make_trace("walking")
    pipe = RunConfig(seed=SEED).pipeline(trace.header)
    own = dataclasses.replace(pipe.reward, sigma_base=(0.07,) * pipe.reward.keypoint_count)
    with CountingMath() as counting:
        for reward in (pipe.reward, own, pipe.reward):
            served.append([])
            run(trace, PolicyKind.SCHEDULED, dataclasses.replace(pipe, reward=reward))
    for run_served in served:
        assert len(run_served) > 100 and sum(run_served) >= 0.9 * len(run_served)
    assert len(changed) == 2 and not any(changed)


# the smallest |net| an unforced scheduled decision of the golden matrix may
# have; it was 3.33e-3 when the pins were made. A host that rounds a reward
# a few ulps apart then cannot flip a pinned decision.
DECISION_MARGIN = 1e-9


def test_unforced_decisions_clear_the_margin():
    nets = [
        abs(rec.net[m])
        for variant in ("", *VARIANTS)
        for name in TRACES
        for rec in matrix_runs(name, variant)[PolicyKind.SCHEDULED.value].records
        for m in rec.net
        if not rec.forced[m]
    ]
    assert nets and min(nets) > DECISION_MARGIN


def matrix_pins(env: dict, *args: str) -> dict:
    """The golden matrix this file prints when run as a script with ``args``,
    in a child process with ``env`` added to the environment."""
    child = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), **env)
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), *args],
        env=child, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def numpy_umath():
    """numpy's ufunc extension module, which reports its CPU dispatch."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath


def dispatched_features() -> list:
    """numpy's dispatch targets that this host runs, named as
    ``NPY_DISABLE_CPU_FEATURES`` takes them."""
    umath = numpy_umath()
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


X86 = platform.machine().lower() in ("x86_64", "amd64")


@pytest.mark.skipif(not X86, reason="names x86 dispatch targets and glibc's x86 math paths")
def test_pins_hold_with_simd_dispatch_off():
    """No numpy transcendental or BLAS call sets a logged bit: with numpy cut
    to its baseline code, every byte pin and decision pin holds. The decision
    pins also hold with glibc's math on its non-FMA path."""
    features = dispatched_features()
    off = {"NPY_DISABLE_CPU_FEATURES": " ".join(features)}
    if features:
        probe = (
            f"import importlib, json; m = importlib.import_module({numpy_umath().__name__!r}); "
            f"print(json.dumps([m.__cpu_features__[f] for f in {features!r}]))"
        )
        child = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, **off),
            capture_output=True, text=True, check=True,
        )
        assert json.loads(child.stdout) == [False] * len(features), child.stderr
    assert matrix_pins(off) == json.loads(GOLDEN.read_text(encoding="utf-8"))
    pinned = json.loads(VECTORS.read_text(encoding="utf-8"))
    assert matrix_pins(off, "vectors") == pinned
    no_fma = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}
    assert matrix_pins(no_fma, "vectors") == pinned


if __name__ == "__main__":
    of = bench_module("checks").vectors_digest if sys.argv[1:] == ["vectors"] else text_digest
    sys.stdout.write(json.dumps(golden_matrix(of), indent=2, sort_keys=True) + "\n")
