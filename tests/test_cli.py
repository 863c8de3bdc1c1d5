import json

import pytest

from percsched.cli import EXIT_CONFIG, EXIT_OK, EXIT_TRACE, main
from percsched.config import ConfigError, RunConfig
from percsched.traces import read_trace


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    rc = main(
        [
            "gen-trace",
            "--archetype",
            "static",
            "--frames",
            "150",
            "--seed",
            "3",
            "--out",
            str(path),
        ]
    )
    assert rc == EXIT_OK
    return path


class TestGenTrace:
    def test_writes_valid_trace(self, trace_path):
        trace = read_trace(trace_path)
        assert len(trace.frames) == 150
        assert trace.header.archetype == "static"

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            rc = main(
                [
                    "gen-trace",
                    "--archetype",
                    "walking",
                    "--frames",
                    "80",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            assert rc == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_minimal_two_frame_trace(self, tmp_path):
        out = tmp_path / "mini.jsonl"
        rc = main(
            ["gen-trace", "--archetype", "interaction", "--frames", "2", "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert len(read_trace(out).frames) == 2


class TestRun:
    def test_scheduled_run_reports_and_logs(self, trace_path, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        rc = main(
            [
                "run",
                "--trace",
                str(trace_path),
                "--policy",
                "scheduled",
                "--out",
                str(out_dir),
            ]
        )
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert "policy: scheduled" in printed
        logs = list(out_dir.glob("*.runlog.jsonl"))
        assert len(logs) == 1

    def test_scheduled_activates_fewer_frames_than_parallel(self, trace_path, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        rc = main(
            ["run", "--trace", str(trace_path), "--policy", "scheduled", "--out", str(out_dir)]
        )
        assert rc == EXIT_OK
        from percsched.engine import RunLog
        from percsched.scene import DETECTION

        log = RunLog.read(next(iter(out_dir.glob("*.runlog.jsonl"))))
        honored = sum(1 for r in log.records if r.honored[DETECTION])
        assert honored < len(log.records)

    def test_invalid_lambda_is_config_error(self, trace_path):
        rc = main(["run", "--trace", str(trace_path), "--lambda", "-1.0"])
        assert rc == EXIT_CONFIG

    def test_missing_trace_is_trace_error(self, tmp_path):
        rc = main(["run", "--trace", str(tmp_path / "absent.jsonl")])
        assert rc == EXIT_TRACE

    def test_no_trace_given_is_config_error(self):
        rc = main(["run"])
        assert rc == EXIT_CONFIG

    @staticmethod
    def _corrupt_frame(path, index, edit):
        lines = path.read_text().splitlines()
        rec = json.loads(lines[index + 1])
        edit(rec)
        lines[index + 1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")

    def test_nan_box_width_is_trace_error_naming_the_frame(self, trace_path, capsys):
        self._corrupt_frame(trace_path, 7, lambda rec: rec["entities"][0].update(w=float("nan")))
        rc = main(["run", "--trace", str(trace_path)])
        assert rc == EXIT_TRACE
        assert "frame 7" in capsys.readouterr().err

    def test_infinite_background_change_is_trace_error_naming_the_frame(self, trace_path, capsys):
        self._corrupt_frame(
            trace_path, 9, lambda rec: rec["change"].update(background_cr=float("inf"))
        )
        rc = main(["run", "--trace", str(trace_path)])
        assert rc == EXIT_TRACE
        assert "frame 9" in capsys.readouterr().err


class TestCompare:
    def test_three_policy_table(self, trace_path, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        rc = main(
            [
                "compare",
                "--trace",
                str(trace_path),
                "--out",
                str(out_dir),
                "--policies",
                "parallel",
                "oracle",
                "scheduled",
            ]
        )
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert "latency_vs_parallel" in printed
        assert len(list(out_dir.glob("*.runlog.jsonl"))) == 3

    def test_duplicate_policies_produce_identical_columns(self, trace_path, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--trace",
                str(trace_path),
                "--out",
                str(tmp_path / "runs"),
                "--policies",
                "parallel",
                "parallel",
            ]
        )
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        for line in printed.splitlines():
            if line.startswith(("latency_ms", "yolo_", "pose_")):
                cells = line.split()[1:]
                assert cells[0] == cells[1]
        delta_line = next(
            line for line in printed.splitlines() if line.startswith("latency_vs_parallel")
        )
        assert "+0.0%" in delta_line

    def test_single_policy_rejected(self, trace_path):
        rc = main(
            ["compare", "--trace", str(trace_path), "--policies", "parallel"]
        )
        assert rc == EXIT_CONFIG

    def test_report_reproducible_from_written_log(self, trace_path, tmp_path):
        from percsched.config import RunConfig
        from percsched.engine import PolicyKind, RunLog, run, run_offline
        from percsched.metrics import build_report, extract_keyframes

        cfg = RunConfig(trace=str(trace_path))
        trace = read_trace(trace_path)
        pipe = cfg.pipeline(trace.header)
        gt = extract_keyframes(run_offline(trace, pipe), cfg.keyframes)
        log = run(trace, PolicyKind.SCHEDULED, pipe)
        path = tmp_path / "log.jsonl"
        log.write(path)
        assert build_report(RunLog.read(path), gt) == build_report(log, gt)


class TestRunConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg = RunConfig(trace="t.jsonl", policy="oracle", seed=9, lambda_info_per_ms=0.7)
        path = tmp_path / "config.json"
        cfg.write(path)
        assert RunConfig.from_file(path) == cfg
        # a second round trip hits the exact same bytes
        twice = tmp_path / "config2.json"
        RunConfig.from_file(path).write(twice)
        assert path.read_text() == twice.read_text()

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            RunConfig.from_dict({"trace": "x", "turbo": True})

    def test_unknown_section_field_rejected(self):
        with pytest.raises(ConfigError, match="kalman"):
            RunConfig.from_dict({"kalman": {"std_weight_position": 0.1, "warp": 9}})

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(trace="x", policy="greedy")

    def test_flag_overrides_win_over_file(self, tmp_path, trace_path, capsys):
        cfg_path = tmp_path / "config.json"
        RunConfig(trace=str(trace_path), policy="parallel", out_dir=str(tmp_path / "o")).write(
            cfg_path
        )
        rc = main(["run", "--config", str(cfg_path), "--policy", "scheduled"])
        assert rc == EXIT_OK
        assert "policy: scheduled" in capsys.readouterr().out

    def test_config_json_errors(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_file(bad)
