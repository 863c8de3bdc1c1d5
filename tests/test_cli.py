import base64
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

    def test_nan_frame_period_is_trace_error_naming_the_field(self, trace_path, capsys):
        lines = trace_path.read_text().splitlines()
        head = json.loads(lines[0])
        head["frame_period_ms"] = float("nan")
        lines[0] = json.dumps(head)
        trace_path.write_text("\n".join(lines) + "\n")
        rc = main(["run", "--trace", str(trace_path)])
        assert rc == EXIT_TRACE
        assert "frame_period_ms" in capsys.readouterr().err

    def test_nan_keypoint_is_trace_error_naming_frame_and_entity(self, trace_path, capsys):
        frames = [json.loads(line) for line in trace_path.read_text().splitlines()[1:]]
        index, eid = next(
            (rec["index"], eid) for rec in frames for eid in sorted(rec.get("keypoints", {}))
        )
        self._corrupt_frame(
            trace_path, index, lambda rec: rec["keypoints"][eid][0].__setitem__(0, float("nan"))
        )
        rc = main(["run", "--trace", str(trace_path)])
        assert rc == EXIT_TRACE
        err = capsys.readouterr().err
        assert f"frame {index}" in err and repr(eid) in err

    def test_nan_lambda_in_config_is_config_error(self, trace_path, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps({"trace": str(trace_path), "lambda_info_per_ms": float("nan")})
        )
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "lambda_info_per_ms" in capsys.readouterr().err

    def test_nan_lambda_flag_is_config_error(self, trace_path, tmp_path, capsys):
        rc = main(["run", "--trace", str(trace_path), "--lambda", "nan", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "lambda_info_per_ms" in capsys.readouterr().err

    def test_infinite_moving_q_scale_is_config_error(self, trace_path, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps({"trace": str(trace_path), "engine": {"moving_q_scale": float("inf")}})
        )
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "moving_q_scale" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "section, field",
        [
            ({"noise": {"box_std": float("nan")}}, "box_std"),
            ({"noise": {"miss_rate": float("inf")}}, "miss_rate"),
            ({"keyframes": {"tau_box_px": float("nan")}}, "tau_box_px"),
            ({"change": {"histogram_threshold": float("nan")}}, "histogram_threshold"),
            ({"change": {"luminance_coeffs": [float("nan"), 0.5, 0.5]}}, "luminance_coeffs"),
            ({"kalman": {"std_weight_position": float("nan")}}, "std_weight_position"),
            ({"change": {"histogram_bins": 32.0}}, "histogram_bins"),
        ],
    )
    def test_bad_section_number_is_config_error_naming_the_field(
        self, trace_path, tmp_path, capsys, section, field
    ):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"trace": str(trace_path), **section}))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("h, w", [(30, 40), (0, 0)])
    def test_mismatched_or_empty_raster_is_trace_error_naming_the_frame(
        self, tmp_path, capsys, h, w
    ):
        frames = []
        for i in range(40):
            rh, rw = (h, w) if i == 17 else (60, 80)
            raw = base64.b64encode(bytes([i]) * (rh * rw * 3)).decode("ascii")
            frames.append(
                {
                    "record": "frame", "index": i, "entities": [],
                    "background": {"x": 0, "y": 0, "w": 640, "h": 480},
                    "pixels": {"w": rw, "h": rh, "rgb_b64": raw},
                }
            )
        header = {
            "record": "header", "schema": "percsched-trace", "version": 1,
            "frame_period_ms": 33.0, "keypoint_count": 17, "frame_count": 40,
        }
        path = tmp_path / "pixels.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in [header] + frames) + "\n")
        rc = main(["run", "--trace", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_TRACE
        assert "frame 17" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"lambda_info_per_ms": float("inf")}, "lambda_info_per_ms"),
            ({"cost_yolo_ms": float("nan")}, "cost_yolo_ms"),
            ({"cost_pose_ms": float("inf")}, "cost_pose_ms"),
            ({"engine": {"stationary_q_scale": float("nan")}}, "stationary_q_scale"),
            ({"engine": {"moving_q_scale": float("nan")}}, "moving_q_scale"),
            ({"engine": {"scheduling_overhead_ms": float("inf")}}, "scheduling_overhead_ms"),
            ({"kalman": {"std_weight_velocity": float("inf")}}, "std_weight_velocity"),
            ({"kalman": {"max_frames_since_update": float("nan")}}, "max_frames_since_update"),
            ({"noise": {"keypoint_std": float("nan")}}, "keypoint_std"),
            ({"noise": {"beta_b": float("inf")}}, "beta_b"),
            ({"keyframes": {"tau_kp_px": float("inf")}}, "tau_kp_px"),
            ({"change": {"histogram_bins": True}}, "histogram_bins"),
        ],
    )
    def test_non_finite_number_rejected_by_name(self, data, field):
        with pytest.raises(ConfigError, match=field):
            RunConfig.from_dict({"trace": "x", **data})

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
