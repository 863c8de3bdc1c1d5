"""Run configuration: one structured file covering every subsystem.

A config maps one-to-one onto the dataclasses of the individual modules;
unknown keys are rejected so typos fail loudly, and parse -> serialize ->
parse is the identity.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Literal, Mapping, Optional, Union, get_args, get_type_hints

from .change_detect import ChangeDetectConfig
from .engine import EngineConfig, PipelineConfig
from .metrics import KeyframeThresholds, LatencyDenominator
from .rewards import RewardConfig, load_sigma_base
from .scene import DETECTION, POSE
from .schema import Count, NonNegative, Positive, check_fields
from .toolkit import NoiseConfig
from .tracker import KalmanConfig
from .traces import TraceHeader

Policy = Literal["parallel", "oracle", "scheduled"]
POLICIES = get_args(Policy)

# Artifact-chosen default trade-off rate; tune per deployment.
DEFAULT_LAMBDA_PER_MS = 0.3


class ConfigError(RuntimeError):
    """Raised for malformed or inconsistent run configs."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, minus the trace contents themselves."""

    trace: str = ""
    policy: Policy = "scheduled"
    seed: Count = 0
    out_dir: str = "runs"
    lambda_info_per_ms: NonNegative = DEFAULT_LAMBDA_PER_MS
    cost_yolo_ms: Positive = 15.0
    cost_pose_ms: Positive = 80.0
    sigma_base_path: Optional[str] = None  # None: packaged table / uniform fallback
    latency_denominator: LatencyDenominator = "activated"
    change: ChangeDetectConfig = field(default_factory=ChangeDetectConfig)
    kalman: KalmanConfig = field(default_factory=KalmanConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    keyframes: KeyframeThresholds = field(default_factory=KeyframeThresholds)

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)

    # -- assembly ----------------------------------------------------------

    def pipeline(self, trace_header: TraceHeader) -> PipelineConfig:
        """Bind this config to a concrete trace; its header gives the keypoint count."""
        sigma_base = None
        if self.sigma_base_path:
            try:
                sigma_base = load_sigma_base(self.sigma_base_path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read sigma table: {exc}") from exc
        try:
            reward = RewardConfig(
                lambda_info_per_ms=self.lambda_info_per_ms,
                cost_ms={DETECTION: self.cost_yolo_ms, POSE: self.cost_pose_ms},
                keypoint_count=trace_header.keypoint_count,
                sigma_base=sigma_base,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return PipelineConfig(
            change=self.change,
            kalman=self.kalman,
            reward=reward,
            noise=self.noise,
            engine=self.engine,
            seed=self.seed,
        )

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        hints = get_type_hints(cls)  # a section's hint is its module's dataclass
        return cls(**{
            name: _section_from_dict(hints[name], value, name)
            if dataclasses.is_dataclass(hints[name]) else value
            for name, value in data.items()
        })

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        return cls.from_dict(data)

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """Apply non-None flag overrides on top of this config."""
        current = self.to_dict()
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in current:
                raise ConfigError(f"unknown override {key!r}")
            current[key] = value
        return RunConfig.from_dict(current)


def _section_from_dict(section_cls: type, value: Any, name: str) -> Any:
    if isinstance(value, section_cls):
        return value
    if not isinstance(value, Mapping):
        raise ConfigError(f"section {name!r} must be an object")
    known = {f.name for f in dataclasses.fields(section_cls)}
    unknown = sorted(f"{name}.{key}" for key in set(value) - known)
    if unknown:
        raise ConfigError(f"unknown config fields: {unknown}")
    try:
        return section_cls(**value)
    except ValueError as exc:
        raise ConfigError(f"{name}.{exc}") from exc
