"""Per-layer tracing from the benchmark's own files.

Public functions are wrapped at the names the engine and the benchmark call
them through (``percsched.engine.predict``, ``percsched.change_detect.
rgb_histograms`` reached as ``cd.rgb_histograms``, ...), so no code under
``src/`` changes. Tracker functions are therefore counted at the engine's
call sites only; ``detection_info_gain`` calls ``measurement_covariance``
through its own module and that time stays inside its span.

Spans are aggregated in memory per name: calls, total time and the time of
nested traced spans, from which self time follows.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns
from types import ModuleType
from typing import Callable, Dict, List, Tuple


class Tracer:
    """Wraps callables and aggregates their spans while installed."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.child_ns: Dict[str, int] = defaultdict(int)
        # calls that returned True, such as a composition trigger firing
        self.truthy: Dict[str, int] = defaultdict(int)
        # suffix for spans recorded per policy, set by the caller
        self.policy = ""
        self._open: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.total_ns, self.child_ns, self.truthy):
            table.clear()

    def _wrap(self, name: str, fn: Callable, per_policy: bool) -> Callable:
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = f"{name}.{self.policy}" if per_policy else name
            open_spans.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                nested = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                self.calls[key] += 1
                self.total_ns[key] += elapsed
                self.child_ns[key] += nested
            if result is True:
                self.truthy[key] += 1
            return result

        return traced

    def install(self, targets: List[Tuple[object, str, str, bool]]) -> None:
        """Wrap each ``(owner, attribute, span name, per_policy)`` target.

        ``owner`` is a module or a class; class methods stay class methods.
        """
        for owner, attr, name, per_policy in targets:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, per_policy))
            else:
                wrapped = self._wrap(name, original, per_policy)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def layer_targets(
    engine: ModuleType, change_detect: ModuleType, rewards: ModuleType, metrics: ModuleType
) -> List[Tuple[object, str, str, bool]]:
    """The traced boundaries, named ``<layer>.<function>``."""
    return [
        (engine.SimEngine, "step", "engine.step", True),
        (engine.RunLog, "to_jsonl", "engine.runlog_to_jsonl", False),
        (engine.RunLog, "from_jsonl", "engine.runlog_from_jsonl", False),
        (engine, "predict", "tracker.predict", False),
        (engine, "update", "tracker.update", False),
        (engine, "inflate_process_noise", "tracker.inflate_process_noise", False),
        (engine, "init_track", "tracker.init_track", False),
        (engine, "measurement_covariance", "tracker.measurement_covariance", False),
        (engine, "carry_forward", "scene.carry_forward", False),
        (change_detect, "grayscale_diff", "change_detect.grayscale_diff", False),
        (change_detect, "rgb_histograms", "change_detect.rgb_histograms", False),
        (change_detect, "chi_square_shift", "change_detect.chi_square_shift", False),
        (change_detect, "composition_change_trigger", "change_detect.composition_trigger", False),
        (engine, "detection_info_gain", "rewards.detection_info_gain", False),
        (engine, "pre_execution_entropy", "rewards.pre_execution_entropy", False),
        (engine, "post_execution_entropy", "rewards.post_execution_entropy", False),
        (rewards.KeypointConfidenceHistory, "extrapolated", "rewards.extrapolated", False),
        (rewards, "coco_wholebody_sigmas", "rewards.sigma_table_loads", False),
        (engine, "select", "scheduler.select", False),
        (engine, "simulate_detection", "toolkit.simulate_detection", False),
        (engine, "simulate_pose", "toolkit.simulate_pose", False),
        (metrics, "build_report", "metrics.build_report", False),
    ]
