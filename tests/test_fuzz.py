"""Mutation fuzzer for the exit-code contract of ``percsched compare``.

Each example takes one of the four golden traces and a valid config, makes
one mutation to the trace file or the config file, and runs the CLI in
process. The mutations: a field's value swapped to a string, integer,
boolean, null or list; a number set to NaN, ±inf, ±1e308, 1e-300, -0.0 or
one end of the Kalman std weights' interval, 1e-60 or 1e60; a key dropped;
an entity listed twice; two frames swapped; a line cut short.

A run passes when it exits 2 or 3 with a message that names the line, the
frame or the field, or exits 0 with these invariants on every run log:
under ``scheduled`` a module is decided exactly when it is forced or its
net reward is positive; ``to_jsonl(from_jsonl(log))`` gives back the log's
bytes; recall never exceeds keyframe accuracy. Exit 4 fails, unless the
mutation is listed in ``KNOWN_EXIT_4`` with its reason.
"""

import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percsched.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_TRACE, main
from percsched.config import RunConfig
from percsched.engine import EngineConfig, RunLog
from percsched.tracker import KalmanConfig
from percsched.traces import generate_trace, write_trace
from test_golden import SEED, TRACES, make_trace

TYPE_SWAPS = ("x", 7, True, None, [])
NUMBERS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-300, -0.0, 1e-60, 1e60)

# config mutations that are numerical failures rather than type errors (the
# field takes the value, and the run breaks on it), each with its reason
KNOWN_EXIT_4 = {}


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    """The text lines of each golden trace as ``write_trace`` writes it."""
    out = {}
    for name in TRACES:
        path = tmp_path_factory.mktemp("golden") / f"{name}.jsonl"
        write_trace(path, make_trace(name))
        out[name] = path.read_text(encoding="utf-8").splitlines()
    return out


def _paths(value, prefix=()):
    """Every path to a value inside a JSON record, outermost first."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


_DROP = object()


def _get(record, path):
    for key in path:
        record = record[key]
    return record


def _set(record, path, value):
    parent = _get(record, path[:-1])
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def mutations(draw, golden_files):
    """(trace lines, config dict, description, names of the mutated field,
    known exit-4 key or None)."""
    lines = list(golden_files[draw(st.sampled_from(TRACES))])
    config = RunConfig(seed=SEED).to_dict()
    kind = draw(st.sampled_from(["type", "number", "drop", "duplicate", "reorder", "truncate"]))
    if kind == "duplicate":
        i = draw(st.sampled_from([i for i, t in enumerate(lines) if '"entities":[{' in t]))
        rec = json.loads(lines[i])
        rec["entities"].append(draw(st.sampled_from(rec["entities"])))
        lines[i] = json.dumps(rec)
        return lines, config, f"line {i + 1}: entity listed twice", (), None
    if kind == "reorder":
        i, j = sorted(draw(st.lists(st.integers(1, len(lines) - 1), min_size=2, max_size=2,
                                    unique=True)))
        lines[i], lines[j] = lines[j], lines[i]
        return lines, config, f"lines {i + 1} and {j + 1} swapped", (), None
    if kind == "truncate":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i][: draw(st.integers(1, len(lines[i]) - 1))]
        return lines, config, f"line {i + 1} cut short", (), None
    # a field of the config, of the trace header or of one frame record
    i = draw(st.sampled_from([-1, 0, draw(st.integers(1, len(lines) - 1))]))
    record = config if i < 0 else json.loads(lines[i])
    paths = list(_paths(record))
    if kind == "number":
        paths = [p for p in paths if _is_number(_get(record, p))]
    elif kind == "drop":
        paths = [p for p in paths if isinstance(p[-1], str)]
    path = draw(st.sampled_from(paths))
    value = draw({"type": st.sampled_from(TYPE_SWAPS), "number": st.sampled_from(NUMBERS),
                  "drop": st.just(_DROP)}[kind])
    _set(record, path, value)
    if i >= 0:
        lines[i] = json.dumps(record)
    where = "config" if i < 0 else f"line {i + 1}"
    shown = "dropped" if value is _DROP else f"= {value!r}"
    names = tuple(k for k in path if isinstance(k, str))
    known = path + (value,) if i < 0 else None
    return lines, config, f"{where}: {'.'.join(map(str, path))} {shown}", names, known


def _check_run_logs(out: Path):
    reports = json.loads(next(out.glob("comparison-seed*.json")).read_text())
    for report in reports:
        for module, recall in report["recall"].items():
            accuracy = report["keyframe_accuracy"][module]
            if recall is not None and accuracy is not None:
                assert recall <= accuracy, f"{report['policy']} {module}: recall > accuracy"
    for path in out.glob("*.runlog.jsonl"):
        text = path.read_text(encoding="utf-8")
        log = RunLog.from_jsonl(text)
        assert log.to_jsonl() == text, f"{path.name} does not round-trip"
        if path.name.startswith("scheduled-"):
            for rec in log.records:
                for m in rec.decided:
                    assert rec.decided[m] == (rec.forced[m] or rec.net[m] > 0), (
                        f"frame {rec.index} {m}: decided={rec.decided[m]} "
                        f"forced={rec.forced[m]} net={rec.net[m]}"
                    )


def _compare(tmp: Path, lines, config: dict):
    """Run ``percsched compare`` in process on the trace ``lines`` under
    ``config``, writing to ``tmp/o``; (exit code, stderr)."""
    trace = tmp / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if config.get("trace") == "":
        config["trace"] = str(trace)
    (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["compare", "--config", str(tmp / "config.json"), "--out", str(tmp / "o")])
    return rc, err.getvalue()


@settings(max_examples=60)
@given(data=st.data())
def test_every_mutation_exits_with_its_documented_code(golden_files, data):
    lines, config, described, names, known = data.draw(mutations(golden_files))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rc, message = _compare(tmp, lines, config)
        if rc == EXIT_RUNTIME and known in KNOWN_EXIT_4:
            return
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_TRACE), f"{described}: exit {rc}: {message}"
        if rc == EXIT_OK:
            _check_run_logs(tmp / "o")
        else:
            assert any(s in message for s in ["line ", "frame ", *names]), (
                f"{described}: exit {rc} names no line, frame or field: {message}"
            )


@pytest.mark.parametrize(
    "field, value",
    [("std_weight_measurement", 1e-9), ("std_weight_position", 1e6), ("std_weight_velocity", 1e6)],
)
def test_kalman_weights_the_short_update_form_could_not_take(tmp_path, field, value):
    """On this trace the covariance update ``(I - K H) P`` lost positive
    definiteness at each of these weights (exit 4); the Joseph form keeps it."""
    path = tmp_path / "interaction.jsonl"
    write_trace(path, generate_trace("interaction", 40, 3))
    config = RunConfig(kalman=KalmanConfig(**{field: value})).to_dict()
    rc, message = _compare(tmp_path, path.read_text(encoding="utf-8").splitlines(), config)
    assert rc == EXIT_OK, message
    _check_run_logs(tmp_path / "o")


@pytest.mark.parametrize("field", ["stationary_q_scale", "moving_q_scale"])
def test_q_scale_runs_at_its_bound_and_is_refused_past_it(tmp_path, field):
    """Both q scales keep the Kalman variances positive definite up to 1e16
    and lose it near 1e17, so each is bounded at 1e12: 1e12 runs, and 1e13 is
    a config error naming the field."""
    path = tmp_path / "static.jsonl"
    write_trace(path, generate_trace("static", 150, 3))
    lines = path.read_text(encoding="utf-8").splitlines()
    config = RunConfig(engine=EngineConfig(**{field: 1e12})).to_dict()
    rc, message = _compare(tmp_path, lines, config)
    assert rc == EXIT_OK, message
    _check_run_logs(tmp_path / "o")
    config["engine"][field] = 1e13
    rc, message = _compare(tmp_path, lines, config)
    assert rc == EXIT_CONFIG
    assert f"engine.{field} must be a finite number in " in message


STD_WEIGHTS = ("std_weight_position", "std_weight_velocity", "std_weight_measurement")


@pytest.mark.parametrize("field", STD_WEIGHTS)
def test_std_weight_runs_at_its_bounds_and_is_refused_past_them(tmp_path, field):
    """``tests/sweep_kalman_weights.py`` set each Kalman std weight's
    interval to [1e-60, 1e60]: both ends run, and a value past either end,
    such as 1e-300 or 1e308, which used to exit 4, is a config error naming
    the field."""
    path = tmp_path / "interaction.jsonl"
    write_trace(path, generate_trace("interaction", 40, 3))
    lines = path.read_text(encoding="utf-8").splitlines()
    for value in (1e-60, 1e60):
        rc, message = _compare(tmp_path, lines, RunConfig(kalman=KalmanConfig(**{field: value}))
                               .to_dict())
        assert rc == EXIT_OK, message
        _check_run_logs(tmp_path / "o")
    for value in (1e-61, 1e61, 1e-300, 1e308):
        config = RunConfig().to_dict()
        config["kalman"][field] = value
        rc, message = _compare(tmp_path, lines, config)
        assert rc == EXIT_CONFIG, (value, message)
        assert f"kalman.{field} must be a finite number in [1e-60, 1e60]" in message


@pytest.mark.parametrize("weights", list(itertools.product((1e-60, 1e60), repeat=3)))
def test_std_weights_run_together_at_every_corner_of_their_bounds(tmp_path, weights):
    """The sweep breaks one weight at a time; together, a large velocity
    weight over a small measurement weight first overflows the detection gain
    at 1e77 and 1e-77. Every mix of the interval's ends runs."""
    path = tmp_path / "interaction.jsonl"
    write_trace(path, generate_trace("interaction", 40, 3))
    config = RunConfig(kalman=KalmanConfig(**dict(zip(STD_WEIGHTS, weights)))).to_dict()
    rc, message = _compare(tmp_path, path.read_text(encoding="utf-8").splitlines(), config)
    assert rc == EXIT_OK, message
    _check_run_logs(tmp_path / "o")
