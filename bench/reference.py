"""Fixed reference work that times the host, not the program under test.

A shared host changes speed by tens of percent within a minute: the same
loop can take 170 ms and 280 ms a few seconds apart. The benchmark runs
``reference_work`` next to every timed call and scales each host time by
``NOMINAL_NS / (time the reference took)``, so every reported host time
reads as on a host where one reference unit takes exactly ``NOMINAL_NS``.
A run measured while the host was slow is then not mistaken for a slower
program. The raw times are printed alongside.

The loop mixes what the engine spends its time on: interpreted Python,
frozen-dataclass copies, small 8x8 numpy algebra, a mask count over a small
raster and JSON encoding. It uses only the standard library and numpy, never
percsched, so no change to the program can move it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from time import perf_counter_ns

import numpy as np

# One reference unit took about this long on the 2-core x86-64 host the
# benchmark was written on; the value only fixes the scale of the reports.
NOMINAL_NS = 3_500_000
_ITERATIONS = 120

_A = np.eye(8) + 0.01 * np.arange(64, dtype=float).reshape(8, 8) / 64.0
_P = np.eye(8) * 4.0
_RASTER = (np.arange(60 * 80, dtype=float).reshape(60, 80) * 7.0) % 97.0


@dataclasses.dataclass(frozen=True)
class _State:
    value: float
    count: int


def reference_work() -> float:
    """One unit of fixed work; the result is returned so none is skipped."""
    state = _State(0.0, 0)
    total = 0.0
    for i in range(_ITERATIONS):
        projected = _A @ _P @ _A.T + np.eye(8) * (1.0 + i * 1e-3)
        sign, logdet = np.linalg.slogdet(projected)
        state = dataclasses.replace(state, value=state.value + logdet * 1e-3, count=state.count + 1)
        busy = int(np.count_nonzero(_RASTER > 30.0 + i % 7))
        row = {"index": i, "value": round(state.value, 6), "busy": busy, "ok": bool(sign > 0)}
        total += len(json.dumps(row, separators=(",", ":"))) + math.log1p(abs(state.value))
    return total


def time_reference() -> int:
    """Nanoseconds one unit of reference work takes now."""
    start = perf_counter_ns()
    reference_work()
    return perf_counter_ns() - start
