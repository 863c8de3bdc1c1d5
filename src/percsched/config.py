"""Run configuration: one structured file covering every subsystem.

A config maps one-to-one onto the dataclasses of the individual modules;
unknown keys are rejected so typos fail loudly, and parse -> serialize ->
parse is the identity.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union, get_type_hints

from .change_detect import ChangeDetectConfig
from .engine import EngineConfig, PipelineConfig, default_modules
from .metrics import LATENCY_DENOMINATORS, KeyframeThresholds
from .rewards import RewardConfig, load_sigma_base
from .scene import DETECTION, POSE
from .toolkit import NoiseConfig
from .tracker import KalmanConfig
from .traces import TraceHeader

POLICIES = ("parallel", "oracle", "scheduled")

# Artifact-chosen default trade-off rate; tune per deployment.
DEFAULT_LAMBDA_PER_MS = 0.3


class ConfigError(RuntimeError):
    """Raised for malformed or inconsistent run configs."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, minus the trace contents themselves."""

    trace: str = ""
    policy: str = "scheduled"
    seed: int = 0
    out_dir: str = "runs"
    lambda_info_per_ms: float = DEFAULT_LAMBDA_PER_MS
    cost_yolo_ms: float = 15.0
    cost_pose_ms: float = 80.0
    sigma_base_path: Optional[str] = None  # None: packaged table / uniform fallback
    latency_denominator: str = "activated"
    change: ChangeDetectConfig = field(default_factory=ChangeDetectConfig)
    kalman: KalmanConfig = field(default_factory=KalmanConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    keyframes: KeyframeThresholds = field(default_factory=KeyframeThresholds)

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        # written so that NaN fails every check
        if not 0.0 <= self.lambda_info_per_ms < math.inf:
            raise ConfigError(
                f"lambda_info_per_ms must be finite and non-negative, got {self.lambda_info_per_ms}"
            )
        for name in ("cost_yolo_ms", "cost_pose_ms"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(
                    f"{name} must be finite and positive, got {getattr(self, name)}"
                )
        if self.latency_denominator not in LATENCY_DENOMINATORS:
            raise ConfigError(
                f"latency_denominator must be one of {LATENCY_DENOMINATORS}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")

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
            modules=default_modules(self.cost_yolo_ms, self.cost_pose_ms),
            change=self.change,
            kalman=self.kalman,
            reward=reward,
            noise=self.noise,
            engine=self.engine,
            seed=self.seed,
        )

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if dataclasses.is_dataclass(value):
                section = dataclasses.asdict(value)
                if isinstance(value, ChangeDetectConfig):
                    section["luminance_coeffs"] = list(section["luminance_coeffs"])
                out[f.name] = section
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        known = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        kwargs: Dict[str, Any] = {}
        sections = {
            "change": ChangeDetectConfig,
            "kalman": KalmanConfig,
            "noise": NoiseConfig,
            "engine": EngineConfig,
            "keyframes": KeyframeThresholds,
        }
        _check_field_types(cls, data)
        for name, value in data.items():
            if name in sections:
                kwargs[name] = _section_from_dict(sections[name], value, name)
            else:
                kwargs[name] = value
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

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
    unknown = sorted(set(value) - known)
    if unknown:
        raise ConfigError(f"unknown fields in section {name!r}: {unknown}")
    _check_field_types(section_cls, value, f"{name}.")
    payload = dict(value)
    if section_cls is ChangeDetectConfig and "luminance_coeffs" in payload:
        payload["luminance_coeffs"] = tuple(payload["luminance_coeffs"])
    try:
        return section_cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section {name!r}: {exc}") from exc


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what a JSON value must be for each declared field type, and how to say it
_TYPE_CHECKS = {
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a number"),
    Tuple[float, float, float]: (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_number, v)),
        "three numbers",
    ),
}


def _check_field_types(cls: type, values: Mapping[str, Any], prefix: str = "") -> None:
    """Each value of a bool, int, float or three-float field must be a JSON
    value of that type: a JSON ``"false"`` or ``1`` is not a boolean, and a
    ``"30"`` or ``2.5`` is not an integer."""
    types = get_type_hints(cls)
    for name, value in values.items():
        check = _TYPE_CHECKS.get(types.get(name))
        if check is not None and not check[0](value):
            raise ConfigError(f"{prefix}{name} must be {check[1]}, got {value!r}")
