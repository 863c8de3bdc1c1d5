"""Shared scene-domain types used across the scheduling pipeline.

Everything here is an immutable value object: frame stamps, patch regions
and entities. Instances can be shared freely across threads once
constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

DEFAULT_FRAME_PERIOD_MS = 1000.0 / 30.0


class EntityKind(str, Enum):
    BACKGROUND = "background"
    OBJECT = "object"
    HUMAN = "human"


class MotionStatus(str, Enum):
    MOVING = "moving"
    STATIONARY = "stationary"


# Module identifiers form an open set keyed by short strings; the two
# built-in perception modules ship with fixed ids.
ModuleId = str

DETECTION: ModuleId = "yolo"
POSE: ModuleId = "pose"

BUILTIN_MODULES: Tuple[ModuleId, ...] = (DETECTION, POSE)


@dataclass(frozen=True)
class FrameStamp:
    """Frame counter plus its position on the virtual clock.

    ``time_ms`` is always ``index * frame_period_ms`` for the period the
    stamp was built with; use :meth:`at` so the two never drift apart.
    """

    index: int
    time_ms: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"frame index must be non-negative, got {self.index}")
        if self.time_ms < 0:
            raise ValueError(f"frame time must be non-negative, got {self.time_ms}")

    @classmethod
    def at(cls, index: int, frame_period_ms: float = DEFAULT_FRAME_PERIOD_MS) -> "FrameStamp":
        if frame_period_ms <= 0:
            raise ValueError("frame_period_ms must be positive")
        return cls(index=index, time_ms=index * frame_period_ms)

    def next(self, frame_period_ms: float = DEFAULT_FRAME_PERIOD_MS) -> "FrameStamp":
        return FrameStamp.at(self.index + 1, frame_period_ms)


@dataclass(frozen=True)
class PatchRegion:
    """Axis-aligned pixel rectangle: top-left corner plus extent."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w, self.h)):
            raise ValueError(
                f"patch geometry must be finite, got x={self.x}, y={self.y}, w={self.w}, h={self.h}"
            )
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"patch extent must be positive, got w={self.w}, h={self.h}")

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def scale(self) -> float:
        """Object scale, the square root of the region area."""
        return math.sqrt(self.w * self.h)


@dataclass(frozen=True)
class Entity:
    """One tracked scene element.

    ``relevance`` is an externally supplied weight in [0, 1]; it is never
    computed here.
    """

    id: str
    kind: EntityKind
    region: PatchRegion
    motion: MotionStatus = MotionStatus.STATIONARY
    relevance: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.relevance <= 1.0:
            raise ValueError(f"relevance must lie in [0, 1], got {self.relevance}")

