"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Thresholds and tolerances are pinned here, not configurable:

1. latency ordering across policies on the static archetype
2. pose recall improvement over the parallel baseline on walking
3. keyframe accuracy on all three archetypes
4. selector agreement with the exhaustive oracle
5. entropy closed forms
6. information-gain growth checked against an independent determinant
7. recall bounded by keyframe accuracy on every emitted run
8. byte-identical run logs across processes
9. change-detection properties
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from percsched.config import RunConfig
from percsched.engine import PolicyKind, RunLog, run, run_offline
from percsched.metrics import build_report, extract_keyframes, latency
from percsched.change_detect import ChangeDetectConfig, chi_square_shift, motion_status
from percsched.rewards import (
    LN_TWO_PI_E,
    RewardBreakdown,
    RewardConfig,
    box_uniform_entropy,
    detection_info_gain,
)
from percsched.scene import DETECTION, POSE, MotionStatus
from oracles import brute_force_select, keypoint_entropy, measurement_noise
from percsched.scheduler import select
from percsched.toolkit import NoiseConfig
from percsched.tracker import (
    KalmanConfig,
    TrackBank,
    init_track,
    measurement_covariance,
    predict,
)
from percsched.traces import generate_trace

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# the acceptance suite pins the latency denominator to total frames
LATENCY_DENOMINATOR = "total"
THRESHOLDS_CFG = RunConfig(trace="unused")  # tau_box = 10 px, tau_kp = 15 px

# runs emitted by criteria 1-3, consumed by criterion 7
_EMITTED_RUNS = []


@pytest.fixture(name="note")
def _note_fixture(capfd):
    """One always-visible pass/fail line per criterion."""

    def note(line: str) -> None:
        with capfd.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

    return note


def _prepare(archetype: str, frames: int, seed: int):
    trace = generate_trace(archetype, frames, seed=seed)
    pipe = THRESHOLDS_CFG.pipeline(trace.header)
    gt = extract_keyframes(run_offline(trace, pipe), THRESHOLDS_CFG.keyframes)
    return trace, pipe, gt


def _run_policy(trace, pipe, gt, policy: PolicyKind) -> RunLog:
    oracle_kf = gt.required if policy is PolicyKind.ORACLE else None
    log = run(trace, policy, pipe, oracle_keyframes=oracle_kf)
    _EMITTED_RUNS.append((log, gt))
    return log


def test_criterion_1_latency_ordering(note):
    start = time.monotonic()
    trace, pipe, gt = _prepare("static", 1800, seed=7)
    assert pipe.reward.cost_ms == {DETECTION: 15.0, POSE: 80.0}

    lat = {}
    pose_fraction = None
    for policy in (PolicyKind.PARALLEL, PolicyKind.ORACLE, PolicyKind.SCHEDULED):
        log = _run_policy(trace, pipe, gt, policy)
        lat[policy.value] = latency(log, LATENCY_DENOMINATOR)
        if policy is PolicyKind.SCHEDULED:
            pose_fraction = sum(1 for r in log.records if r.honored[POSE]) / len(log.records)
    elapsed = time.monotonic() - start

    ok = (
        pose_fraction < 0.30
        and lat["oracle"] <= lat["scheduled"] <= lat["parallel"]
        and lat["scheduled"] <= 0.85 * lat["parallel"]
        and elapsed < 10.0
    )
    note(
        f"criterion 1 latency ordering: {'PASS' if ok else 'FAIL'} "
        f"(oracle={lat['oracle']:.2f} <= scheduled={lat['scheduled']:.2f} "
        f"<= parallel={lat['parallel']:.2f} ms, reduction="
        f"{100 * (1 - lat['scheduled'] / lat['parallel']):.1f}%, "
        f"pose on {100 * pose_fraction:.1f}% of frames, {elapsed:.1f}s)"
    )
    assert pose_fraction < 0.30, "lambda premise: pose must run on under 30% of frames"
    assert lat["oracle"] <= lat["scheduled"] <= lat["parallel"]
    assert lat["scheduled"] <= 0.85 * lat["parallel"]
    assert elapsed < 10.0


def test_criterion_2_pose_recall_improvement(note):
    start = time.monotonic()
    results = []
    for seed in range(1, 6):
        trace, pipe, gt = _prepare("walking", 900, seed=seed)
        parallel = build_report(_run_policy(trace, pipe, gt, PolicyKind.PARALLEL), gt).recall
        scheduled = build_report(_run_policy(trace, pipe, gt, PolicyKind.SCHEDULED), gt).recall
        results.append((seed, parallel[POSE], scheduled[POSE]))
    elapsed = time.monotonic() - start

    ok = all(s > p for _, p, s in results) and elapsed < 30.0
    detail = ", ".join(f"seed{seed}: {s:.2f}>{p:.2f}" for seed, p, s in results)
    note(f"criterion 2 pose recall improvement: {'PASS' if ok else 'FAIL'} ({detail}, {elapsed:.1f}s)")
    for seed, p, s in results:
        assert s > p, f"seed {seed}: scheduled pose recall {s} not above parallel {p}"
    assert elapsed < 30.0


def test_criterion_3_keyframe_accuracy(note):
    worst = 1.0
    details = []
    for archetype in ("static", "interaction", "walking"):
        trace, pipe, gt = _prepare(archetype, 600, seed=11)
        assert pipe.noise == NoiseConfig(), "criterion requires zero-noise modules"
        log = _run_policy(trace, pipe, gt, PolicyKind.SCHEDULED)
        accuracy = build_report(log, gt).keyframe_accuracy
        for module in (DETECTION, POSE):
            assert accuracy[module] is not None
            worst = min(worst, accuracy[module])
            details.append(f"{archetype}/{module}={accuracy[module]:.2f}")
    ok = worst >= 0.90
    note(f"criterion 3 keyframe accuracy: {'PASS' if ok else 'FAIL'} ({', '.join(details)})")
    assert worst >= 0.90


def test_criterion_4_selector_oracle_equivalence(note):
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        rewards = {}
        for i in range(n):
            roll = rng.random()
            if roll < 0.15:
                net = 0.0
            elif roll < 0.25:
                net = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.integers(-3, 3))
            else:
                net = round(float(rng.uniform(-10, 10)), 3)
            rewards[f"m{i}"] = RewardBreakdown(
                info_gain_nats=net,
                cost_penalty_nats=0.0,
                net=net,
                forced=bool(rng.random() < 0.2),
            )
        if select(rewards) != brute_force_select(rewards):
            mismatches += 1
    note(
        f"criterion 4 selector oracle equivalence: {'PASS' if mismatches == 0 else 'FAIL'} "
        f"(10000 random reward maps, {mismatches} mismatches)"
    )
    assert mismatches == 0


def test_criterion_5_entropy_closed_forms(note):
    checks = [
        abs(box_uniform_entropy(math.e, 1.0) - 1.0) <= 1e-12,
        abs(keypoint_entropy(1.0) - math.log(2 * math.pi * math.e)) <= 1e-12,
        abs(LN_TWO_PI_E - math.log(2 * math.pi * math.e)) <= 1e-12,
    ]
    rng = np.random.default_rng(55)
    for _ in range(100):
        sigma = float(rng.uniform(1e-3, 1e3))
        checks.append(
            abs(keypoint_entropy(2 * sigma) - keypoint_entropy(sigma) - 2 * math.log(2))
            <= 1e-12
        )
    ok = all(checks)
    note(f"criterion 5 entropy closed forms: {'PASS' if ok else 'FAIL'} ({len(checks)} identities)")
    assert ok


def _det4_cofactor(m):
    """Brute-force 4x4 determinant by cofactor expansion, no numpy.linalg."""

    def det2(a, b, c, d):
        return a * d - b * c

    def det3(mm):
        return (
            mm[0][0] * det2(mm[1][1], mm[1][2], mm[2][1], mm[2][2])
            - mm[0][1] * det2(mm[1][0], mm[1][2], mm[2][0], mm[2][2])
            + mm[0][2] * det2(mm[1][0], mm[1][1], mm[2][0], mm[2][1])
        )

    total = 0.0
    for j in range(4):
        minor = [[float(m[r][c]) for c in range(4) if c != j] for r in range(1, 4)]
        total += (-1.0) ** j * float(m[0][j]) * det3(minor)
    return total


def test_criterion_6_kalman_gain_monotonicity(note):
    kcfg = KalmanConfig()
    rcfg = RewardConfig(lambda_info_per_ms=0.0, cost_ms={DETECTION: 15.0, POSE: 80.0})
    track = init_track(TrackBank(), ["t"], np.array([[120.0, 90.0, 40.0, 55.0]]), kcfg)

    last_gain = detection_info_gain(track, [1.0], rcfg, kcfg)
    worst_rel = 0.0
    strictly_increasing = True
    for _ in range(30):
        track = predict(track, kcfg)  # positive-definite process noise, no updates
        gain = detection_info_gain(track, [1.0], rcfg, kcfg)

        projected = measurement_covariance(track)[0]
        noise = measurement_noise(track.x[0, 3], kcfg)
        brute = 0.5 * math.log(_det4_cofactor(projected) / _det4_cofactor(noise))
        rel = abs(gain - brute) / max(abs(brute), 1e-300)
        worst_rel = max(worst_rel, rel)

        strictly_increasing &= gain > last_gain
        last_gain = gain

    ok = strictly_increasing and worst_rel <= 1e-9
    note(
        f"criterion 6 gain monotonicity: {'PASS' if ok else 'FAIL'} "
        f"(30 predicts strictly increasing={strictly_increasing}, "
        f"worst determinant disagreement={worst_rel:.2e})"
    )
    assert strictly_increasing
    assert worst_rel <= 1e-9


def test_criterion_7_recall_bounded_by_accuracy(note):
    if not _EMITTED_RUNS:  # standalone invocation: build a small suite
        for archetype in ("static", "walking"):
            trace, pipe, gt = _prepare(archetype, 300, seed=3)
            for policy in (PolicyKind.PARALLEL, PolicyKind.ORACLE, PolicyKind.SCHEDULED):
                _run_policy(trace, pipe, gt, policy)
    violations = 0
    checked = 0
    for log, gt in _EMITTED_RUNS:
        report = build_report(log, gt)
        recall, accuracy = report.recall, report.keyframe_accuracy
        for module in (DETECTION, POSE):
            if recall[module] is None:
                continue
            checked += 1
            if recall[module] > accuracy[module] + 1e-12:
                violations += 1
    ok = violations == 0 and checked > 0
    note(
        f"criterion 7 recall <= keyframe accuracy: {'PASS' if ok else 'FAIL'} "
        f"({checked} module-run pairs over {len(_EMITTED_RUNS)} runs, {violations} violations)"
    )
    assert checked > 0
    assert violations == 0


_DETERMINISM_SNIPPET = """
import sys
from percsched.config import RunConfig
from percsched.engine import PolicyKind, run
from percsched.traces import generate_trace

trace = generate_trace("interaction", 300, seed=17)
cfg = RunConfig(trace="unused").pipeline(trace.header)
run(trace, PolicyKind.SCHEDULED, cfg).write(sys.argv[1])
"""


def test_criterion_8_cross_process_determinism(tmp_path, note):
    outputs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"  # results must not depend on hashing
        subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SNIPPET, str(path)],
            check=True,
            env=env,
        )
        outputs.append(path.read_bytes())
    in_process = run(
        generate_trace("interaction", 300, seed=17),
        PolicyKind.SCHEDULED,
        RunConfig(trace="unused").pipeline(generate_trace("interaction", 300, seed=17).header),
    ).to_jsonl().encode("utf-8")
    ok = outputs[0] == outputs[1] == in_process
    note(
        f"criterion 8 determinism: {'PASS' if ok else 'FAIL'} "
        f"(byte-identical run logs across two processes, {len(outputs[0])} bytes)"
    )
    assert outputs[0] == outputs[1]
    assert outputs[0] == in_process


def test_criterion_9_change_detection_properties(note):
    rng = np.random.default_rng(99)
    sym_fail = 0
    self_fail = 0
    for _ in range(1000):
        a = rng.integers(0, 100, size=(3, 16)).astype(float)
        b = rng.integers(0, 100, size=(3, 16)).astype(float)
        if chi_square_shift(a, b) != chi_square_shift(b, a):
            sym_fail += 1
        if chi_square_shift(a, a) != 0.0:
            self_fail += 1

    cfg = ChangeDetectConfig()
    eps = cfg.patch_change_threshold
    boundary_ok = (
        motion_status(eps - 1e-9, cfg) is MotionStatus.STATIONARY
        and motion_status(eps, cfg) is MotionStatus.STATIONARY
        and motion_status(eps + 1e-9, cfg) is MotionStatus.MOVING
    )
    ok = sym_fail == 0 and self_fail == 0 and boundary_ok
    note(
        f"criterion 9 change detection properties: {'PASS' if ok else 'FAIL'} "
        f"(1000 histograms: {sym_fail} symmetry / {self_fail} self-distance failures, "
        f"strict boundary at the change-ratio threshold={boundary_ok})"
    )
    assert sym_fail == 0
    assert self_fail == 0
    assert boundary_ok
