import base64
import json

import pytest

from percsched.cli import EXIT_CONFIG, EXIT_OK, EXIT_TRACE, main
from percsched.config import ConfigError, RunConfig
from percsched.scene import MAX_PIXELS
from percsched.traces import ARCHETYPES, read_trace


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


@pytest.mark.parametrize("argv", [[], ["sweep"], ["--seed", "3"]])
def test_a_missing_or_unknown_command_is_a_usage_error(argv, capsys):
    """argparse refuses it with its usage exit code, before any command runs."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage: percsched" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seed", "-1"),
            ("--fps", "0"),
            ("--fps", "nan"),
            ("--fps", "inf"),
            ("--fps", "-30"),
            # a frame period above 1e6 ms
            ("--fps", "0.0001"),
            ("--keypoints", "0"),
            ("--frames", "1"),
        ],
    )
    def test_bad_flag_is_config_error_naming_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bad.jsonl"
        # a repeated flag takes its last value, so "--frames 1" overrides "--frames 30"
        rc = main(["gen-trace", "--archetype", "static", "--frames", "30", "--out", str(out),
                   flag, value])
        assert rc == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rec: rec.pop("entities"), "malformed record"),
            (lambda rec: rec["entities"][0].update(w=float("nan")), "malformed record"),
            (lambda rec: rec["entities"][0].update(kind="ghost"), "'ghost'"),
            # each of these used to end in exit 4
            (lambda rec: rec["entities"][0].update(id=7), "id must be a string"),
            (lambda rec: rec["entities"][0].update(id=None), "id must be a string"),
            (lambda rec: rec["entities"][0].update(id=[]), "id must be a string"),
            (lambda rec: rec.update(keypoints="x"), "keypoints must be an object"),
            (lambda rec: rec.update(keypoints=[]), "keypoints must be an object"),
            (lambda rec: rec["entities"][0].update(w=1e308), "w must be a finite number"),
            (lambda rec: rec["entities"][0].update(h=1e308), "h must be a finite number"),
        ],
        ids=["missing-field", "nan-box", "bad-kind", "int-id", "null-id", "list-id",
             "str-keypoints", "list-keypoints", "huge-box-w", "huge-box-h"],
    )
    def test_bad_record_is_trace_error_naming_its_line(self, trace_path, capsys, edit, message):
        # line 1 is the header, so frame 2 sits on line 4
        self._corrupt_frame(trace_path, 2, edit)
        rc = main(["run", "--trace", str(trace_path)])
        assert rc == EXIT_TRACE
        err = capsys.readouterr().err
        assert "line 4: frame 2" in err and message in err

    def test_unreadable_record_is_trace_error_naming_its_line(self, trace_path, capsys):
        lines = trace_path.read_text().splitlines()
        lines[3] = lines[3][:-1]
        trace_path.write_text("\n".join(lines) + "\n")
        rc = main(["run", "--trace", str(trace_path)])
        assert rc == EXIT_TRACE
        assert "line 4: unreadable trace record" in capsys.readouterr().err

    def test_duplicate_entity_is_trace_error_naming_frame_and_id(
        self, trace_path, tmp_path, capsys
    ):
        frames = [json.loads(line) for line in trace_path.read_text().splitlines()[1:]]
        eid = frames[5]["entities"][1]["id"]
        self._corrupt_frame(
            trace_path, 5, lambda rec: rec["entities"].append(dict(rec["entities"][1]))
        )
        rc = main(["compare", "--trace", str(trace_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_TRACE
        assert f"frame 5: entity {eid!r} is listed twice" in capsys.readouterr().err

    def test_false_positive_prefix_is_trace_error_naming_frame_and_id(
        self, trace_path, tmp_path, capsys
    ):
        # the detector names a false positive spurious-<frame>; an entity
        # of that name would share its track
        def rename(rec):
            rec["entities"][0]["id"] = "spurious-9"

        self._corrupt_frame(trace_path, 5, rename)
        rc = main(["compare", "--trace", str(trace_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_TRACE
        assert "frame 5: entity id 'spurious-9' starts with 'spurious-'" in (
            capsys.readouterr().err
        )

    def test_nan_frame_period_is_trace_error_naming_the_field(self, trace_path, capsys):
        lines = trace_path.read_text().splitlines()
        head = json.loads(lines[0])
        head["frame_period_ms"] = float("nan")
        lines[0] = json.dumps(head)
        trace_path.write_text("\n".join(lines) + "\n")
        rc = main(["run", "--trace", str(trace_path)])
        assert rc == EXIT_TRACE
        assert "frame_period_ms" in capsys.readouterr().err

    def test_huge_frame_period_is_trace_error_naming_the_field(self, trace_path, tmp_path, capsys):
        # 1e308 is finite, but virtual time overflowed on it and the run exited 4
        self._corrupt_frame(trace_path, -1, lambda head: head.update(frame_period_ms=1e308))
        rc = main(["compare", "--trace", str(trace_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_TRACE
        assert "line 1: invalid trace header: frame_period_ms must be" in capsys.readouterr().err

    def test_non_integer_keypoint_count_is_trace_error_naming_the_field(self, trace_path, capsys):
        lines = trace_path.read_text().splitlines()
        head = json.loads(lines[0])
        head["keypoint_count"] = 17.0
        lines[0] = json.dumps(head)
        trace_path.write_text("\n".join(lines) + "\n")
        rc = main(["run", "--trace", str(trace_path)])
        assert rc == EXIT_TRACE
        err = capsys.readouterr().err
        assert "line 1:" in err and "keypoint_count must be an integer, got 17.0" in err

    @pytest.mark.parametrize("index", [1.0, True], ids=["float", "bool"])
    def test_non_integer_frame_index_is_trace_error_naming_its_line(
        self, trace_path, tmp_path, capsys, index
    ):
        # frame 1 sits on line 3; json writes True as true
        self._corrupt_frame(trace_path, 1, lambda rec: rec.update(index=index))
        rc = main(["compare", "--trace", str(trace_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_TRACE
        err = capsys.readouterr().err
        assert "line 3:" in err and f"index must be an integer, got {index!r}" in err

    def test_negative_frame_index_is_trace_error_naming_the_field(
        self, trace_path, tmp_path, capsys
    ):
        self._corrupt_frame(trace_path, 1, lambda rec: rec.update(index=-1))
        rc = main(["compare", "--trace", str(trace_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_TRACE
        err = capsys.readouterr().err
        assert "line 3:" in err and "index must be an integer in [0, inf), got -1" in err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_header_only_trace_is_trace_error_naming_the_file(
        self, trace_path, tmp_path, capsys, command
    ):
        # a frame_count of 0 promises no count, so only the missing frames are wrong
        header = json.loads(trace_path.read_text().splitlines()[0])
        header["frame_count"] = 0
        trace_path.write_text(json.dumps(header) + "\n")
        args = [command, "--trace", str(trace_path)]
        if command == "compare":
            args += ["--out", str(tmp_path / "o")]
        assert main(args) == EXIT_TRACE
        assert f"trace has no frame records: {trace_path}" in capsys.readouterr().err

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
            ({"change": {"patch_change_threshold": float("nan")}}, "patch_change_threshold"),
            ({"kalman": {"std_weight_position": float("nan")}}, "std_weight_position"),
            ({"change": {"histogram_bins": 32.0}}, "histogram_bins"),
            # a rate above 1 used to run as if it were 1
            ({"noise": {"miss_rate": 1.5}}, "noise.miss_rate"),
            ({"noise": {"false_positive_rate": 7}}, "noise.false_positive_rate"),
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

    @pytest.mark.parametrize(
        "data, field",
        [
            # a JSON string is not a boolean: "false" would be truthy
            ({"engine": {"delete_on_miss": "false"}}, "engine.delete_on_miss"),
            ({"engine": {"force_pose_on_composition": "no"}}, "engine.force_pose_on_composition"),
            # the Joseph covariance update is the only form; its old switch is unknown
            ({"kalman": {"joseph_update": True}}, "kalman.joseph_update"),
            # a boolean is not a rate: true used to drop every detection
            ({"noise": {"miss_rate": True}}, "noise.miss_rate"),
            ({"kalman": {"max_frames_since_update": 2.5}}, "kalman.max_frames_since_update"),
            ({"kalman": {"max_frames_since_update": True}}, "kalman.max_frames_since_update"),
            ({"change": {"intensity_threshold": "30"}}, "change.intensity_threshold"),
            ({"noise": {"beta_a": "2"}}, "noise.beta_a"),
            ({"cost_pose_ms": "80"}, "cost_pose_ms"),
            # a path that is not a string used to end in exit 4
            ({"trace": 7}, "trace must be a string"),
            ({"out_dir": 7}, "out_dir must be a string"),
            ({"sigma_base_path": 7}, "sigma_base_path must be a string"),
        ],
    )
    def test_mistyped_field_is_config_error_naming_it(
        self, trace_path, tmp_path, capsys, data, field
    ):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"trace": str(trace_path), **data}))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, old_default",
        [
            ("change", "luminance_coeffs", [0.299, 0.587, 0.114]),
            ("change", "chi_square_symmetric", True),
            ("change", "normalize_histograms", False),
            ("noise", "keypoint_std", 0.0),
        ],
    )
    def test_removed_field_is_config_error_naming_it(
        self, trace_path, tmp_path, capsys, section, field, old_default
    ):
        """These knobs are gone; a config that still sets one, even to its
        old default, is rejected rather than silently ignored."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps({"trace": str(trace_path), section: {field: old_default}})
        )
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert section in err and field in err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_sigma_table_is_read_once_per_command(
        self, trace_path, tmp_path, monkeypatch, command
    ):
        """Ground truth and every policy run share one pipeline, so one
        command reads its sigma table once."""
        from percsched import config

        load = config.load_sigma_base
        reads = []

        def counted(path):
            reads.append(path)
            return load(path)

        monkeypatch.setattr(config, "load_sigma_base", counted)
        sigmas = tmp_path / "sigmas.json"
        sigmas.write_text(json.dumps([0.05] * read_trace(trace_path).header.keypoint_count))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps({"trace": str(trace_path), "sigma_base_path": str(sigmas)})
        )
        rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert reads == [str(sigmas)]

    @pytest.mark.parametrize(
        "table",
        [
            {"foo": [1]},
            5,
            [None],
            {"sigmas": 5},
            # a boolean is not a sigma: true used to read as 1.0
            [True] + [0.05] * 16,
            [10**400] + [0.05] * 16,
        ],
        ids=[
            "no-sigmas-key", "number", "null-entry", "sigmas-not-a-list", "bool-entry",
            "int-beyond-float",
        ],
    )
    def test_malformed_sigma_table_is_config_error_naming_it(self, tmp_path, capsys, table):
        trace = tmp_path / "trace.jsonl"
        args = ["--frames", "40", "--seed", "3", "--keypoints", "17", "--out", str(trace)]
        assert main(["gen-trace", "--archetype", "interaction", *args]) == EXIT_OK
        sigmas = tmp_path / "sigmas.json"
        sigmas.write_text(json.dumps(table))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"trace": str(trace), "sigma_base_path": str(sigmas)}))
        rc = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert f"sigma table at {sigmas}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"keypoint_count": 17.5}, "keypoint_count"),
            ({"keypoint_count": True}, "keypoint_count"),
            ({"keypoint_count": 0}, "keypoint_count"),
            ({"seed": float("nan")}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": -1}, "seed"),
            ({"seed": True}, "seed"),
            # the trace header is the one statement of the keypoint count
            ({"keypoint_count": 17}, "keypoint_count"),
        ],
    )
    def test_bad_seed_or_keypoint_count_is_config_error_naming_the_field(
        self, trace_path, tmp_path, capsys, data, field
    ):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"trace": str(trace_path), **data}))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert field in capsys.readouterr().err

    def test_negative_seed_flag_is_config_error(self, trace_path, tmp_path, capsys):
        rc = main(["run", "--trace", str(trace_path), "--seed", "-1", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

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

    @pytest.mark.parametrize("field", ["std_weight_position", "std_weight_velocity"])
    def test_integer_weight_beyond_int64_runs_as_the_equal_float(
        self, trace_path, tmp_path, capsys, field
    ):
        """2**70 used to make an object-dtype noise array and exit 4."""
        outcomes = []
        for value in (2**70, float(2**70)):
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps({"trace": str(trace_path), "kalman": {field: value}}))
            rc = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
            outcomes.append((rc, capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("archetype", ARCHETYPES)
    def test_box_jitter_at_the_coordinate_bound_runs(self, tmp_path, archetype):
        """``noise.box_std`` goes up to ``scene.MAX_PIXELS``, the bound of
        every trace coordinate; the covariances stay positive definite there
        on every archetype (they first fail near 1e9)."""
        trace = tmp_path / "trace.jsonl"
        args = ["--frames", "150", "--seed", "3", "--out", str(trace)]
        assert main(["gen-trace", "--archetype", archetype, *args]) == EXIT_OK
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"trace": str(trace), "noise": {"box_std": MAX_PIXELS}}))
        rc = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK

    def test_box_jitter_beyond_the_coordinate_bound_is_config_error(
        self, trace_path, tmp_path, capsys
    ):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"trace": str(trace_path), "noise": {"box_std": 1e7}}))
        rc = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "box_std must be a finite number in [0, 1e+06]" in capsys.readouterr().err

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
            ({"noise": {"confidence_spread": float("nan")}}, "confidence_spread"),
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
