"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from percsched import PolicyKind, RunConfig, RunLog, run, run_offline  # noqa: E402
from percsched.metrics import build_report, extract_keyframes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        *SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--frames", "30",
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_named_metric(workload, trace, section):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == expected
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_pixel_rendering_is_seeded():
    a = inputs.make_trace("interaction-pixels", 5, 12)
    b = inputs.make_trace("interaction-pixels", 5, 12)
    c = inputs.make_trace("interaction-pixels", 6, 12)
    assert all(f.change is None and f.pixels is not None for f in a.frames)
    assert [f.pixels.rgb.tobytes() for f in a.frames] == [f.pixels.rgb.tobytes() for f in b.frames]
    assert a.frames[0].pixels.rgb.tobytes() != c.frames[0].pixels.rgb.tobytes()
    assert a.frames[0].pixels.rgb.shape == (inputs.RASTER_H, inputs.RASTER_W, 3)


@pytest.fixture(scope="module")
def replay():
    trace = inputs.make_trace("static-17", 2, 60)
    cfg = RunConfig(seed=2)
    pipe = cfg.pipeline(trace.header)
    gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
    texts = {
        policy: run(
            trace, PolicyKind(policy), pipe,
            oracle_keyframes=gt.required if policy == "oracle" else None,
        ).to_jsonl()
        for policy in ("parallel", "oracle", "scheduled")
    }
    return texts, gt


def _check(policy, text, gt):
    log = RunLog.from_jsonl(text)
    return checks.check_policy_run(policy, log, text, build_report(log, gt), gt)


def _edit(text, edit):
    """Apply ``edit`` to the first frame record it accepts; return the new text."""
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        row = json.loads(line)
        if edit(row):
            lines[i] = json.dumps(row, separators=(",", ":"))
            return "\n".join(lines) + "\n"
    raise AssertionError("no record to corrupt")


def test_clean_logs_pass_every_check(replay):
    texts, gt = replay
    for policy, text in texts.items():
        assert _check(policy, text, gt) == []


def test_scheduled_decision_against_its_reward_fails(replay):
    texts, gt = replay

    def decide_without_reward(row):
        if row["forced"]["pose"] or row["net"]["pose"] > 0 or row["decided"]["pose"]:
            return False
        row["decided"]["pose"] = True
        return True

    errors = _check("scheduled", _edit(texts["scheduled"], decide_without_reward), gt)
    assert any("decided=True" in e for e in errors)


def test_oracle_off_the_keyframes_fails(replay):
    texts, gt = replay

    def skip_keyframe(row):
        if row["index"] not in gt.required["yolo"]:
            return False
        row["decided"]["yolo"] = False
        return True

    errors = _check("oracle", _edit(texts["oracle"], skip_keyframe), gt)
    assert any("keyframes" in e for e in errors)


def test_recall_above_accuracy_fails(replay):
    texts, gt = replay

    def honor_undecided(row):
        if row["index"] not in gt.required["yolo"] or not row["honored"]["yolo"]:
            return False
        row["decided"]["yolo"] = False
        return True

    errors = _check("parallel", _edit(texts["parallel"], honor_undecided), gt)
    assert any("exceeds keyframe accuracy" in e for e in errors)


def test_log_that_does_not_round_trip_fails(replay):
    texts, gt = replay
    spaced = texts["parallel"].replace('"index":', '"index": ', 1)
    errors = _check("parallel", spaced, gt)
    assert any("differs from the written log" in e for e in errors)


def test_digest_follows_the_vectors(replay):
    texts, _ = replay
    log = RunLog.from_jsonl(texts["scheduled"])
    again = RunLog.from_jsonl(texts["scheduled"])
    assert checks.vectors_digest(log) == checks.vectors_digest(again)
    flipped = RunLog.from_jsonl(_edit(texts["scheduled"], lambda row: row.update(
        honored={**row["honored"], "pose": not row["honored"]["pose"]}) or True))
    assert checks.vectors_digest(flipped) != checks.vectors_digest(log)
