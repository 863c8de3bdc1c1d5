"""Sweep the three Kalman std weights and print where scheduled runs break.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/sweep_kalman_weights.py

Each weight in turn takes every power of ten from 1e-323 to 1e308, the
others staying at their defaults, on these cases:

- 40-frame seed-3 ``interaction``, ``static`` and 133-keypoint ``walking``
  traces, each at zero noise and at the golden ``noise`` config;
- the four 120-frame golden traces of ``test_golden.py`` at the default
  config;
- the 40-frame ``interaction`` trace with every coordinate scaled by 1500,
  so that its boxes reach 1e5 px and its coordinates come near the 1e6 px
  bound a trace may give.

A run fails when the scheduled run raises or numpy warns. The script prints,
per weight, the decades that failed on any case and, on each side of the
default, the first failing value, found in steps of a fiftieth of a decade
inside the first failing decade. The weights also break together: for each
d from 50 to 90 it runs every mix of 1e-d and 1e+d for the three weights,
and prints the decades d at which a mix fails. The configs are built past
``KalmanConfig``'s own bounds, so that the sweep can see beyond them.
"""

import dataclasses
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import unchecked  # noqa: E402
from percsched.config import RunConfig  # noqa: E402
from percsched.engine import PolicyKind, run  # noqa: E402
from percsched.scene import Entity, PatchRegion  # noqa: E402
from percsched.tracker import KalmanConfig  # noqa: E402
from percsched.traces import Trace, generate_trace  # noqa: E402
from test_golden import SEED, TRACES, VARIANTS, make_trace  # noqa: E402

FIELDS = ("std_weight_position", "std_weight_velocity", "std_weight_measurement")
DECADES = range(-323, 309)
STEPS = 50
SCALE = 1500.0


def scaled(trace: Trace, factor: float) -> Trace:
    """``trace`` with every coordinate, extent and keypoint times ``factor``."""
    frames = []
    for frame in trace.frames:
        entities = tuple(
            Entity(e.id, e.kind, PatchRegion(*(factor * v for v in dataclasses.astuple(e.region))),
                   e.relevance)
            for e in frame.entities
        )
        keypoints = {eid: pts * factor for eid, pts in frame.keypoints.items()}
        frames.append(dataclasses.replace(frame, entities=entities, keypoints=keypoints))
    header = dataclasses.replace(trace.header, frame_w=int(trace.header.frame_w * factor),
                                 frame_h=int(trace.header.frame_h * factor))
    return Trace(header=header, frames=tuple(frames))


def cases():
    """(name, trace, pipeline) of every case the sweep runs."""
    noise = VARIANTS["noise"].noise
    out = []
    for archetype, keypoints in (("interaction", 17), ("static", 17), ("walking", 133)):
        trace = generate_trace(archetype, 40, 3, keypoint_count=keypoints)
        for label, cfg in (("zero", RunConfig(seed=3)), ("noise", RunConfig(seed=3, noise=noise))):
            out.append((f"{archetype}-{keypoints}/{label}", trace, cfg.pipeline(trace.header)))
    for name in TRACES:
        trace = make_trace(name)
        out.append((f"golden/{name}", trace, RunConfig(seed=SEED).pipeline(trace.header)))
    big = scaled(generate_trace("interaction", 40, 3), SCALE)
    out.append(("interaction-17/x1500", big, RunConfig(seed=3).pipeline(big.header)))
    return out


def fails(trace: Trace, pipe, **weights: float) -> bool:
    kalman = unchecked(KalmanConfig, **weights)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(trace, PolicyKind.SCHEDULED, dataclasses.replace(pipe, kalman=kalman))
    except Exception:  # noqa: BLE001 - any failure counts
        return True
    return False


def first_failure(all_cases, field: str, decade: int, upward: bool) -> float:
    """The first value, walking away from the default, of the decade that
    ends at (upward) or starts at (downward) 10**decade, that fails a case."""
    steps = range(STEPS + 1)
    exponents = [decade - 1 + j / STEPS for j in steps] if upward else [
        decade + 1 - j / STEPS for j in steps
    ]
    for exponent in exponents:
        value = 10.0 ** exponent
        if any(fails(trace, pipe, **{field: value}) for _, trace, pipe in all_cases):
            return value
    return 10.0 ** decade


def sweep() -> dict:
    all_cases = cases()
    report = {}
    for field in FIELDS:
        default = getattr(KalmanConfig(), field)
        failed = {}
        for decade in DECADES:
            names = [name for name, trace, pipe in all_cases
                     if fails(trace, pipe, **{field: 10.0 ** decade})]
            if names:
                failed[decade] = names
        start = round(math.log10(default))
        above = [d for d in failed if d > start]
        below = [d for d in failed if d < start]
        report[field] = {
            "failed_decades": {str(d): names for d, names in sorted(failed.items())},
            "first_failure_above": first_failure(all_cases, field, min(above), True)
            if above else None,
            "first_failure_below": first_failure(all_cases, field, max(below), False)
            if below else None,
        }
        print(field, json.dumps({k: v for k, v in report[field].items()
                                 if k != "failed_decades"}), file=sys.stderr)
    report["mixed_failed_decades"] = [
        d for d in range(50, 91)
        if any(fails(trace, pipe, **dict(zip(FIELDS, mix)))
               for mix in itertools.product((10.0 ** -d, 10.0 ** d), repeat=len(FIELDS))
               for _, trace, pipe in all_cases)
    ]
    print("mixed", report["mixed_failed_decades"][:3], file=sys.stderr)
    return report


if __name__ == "__main__":
    print(json.dumps(sweep(), indent=1, sort_keys=True))
