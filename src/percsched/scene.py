"""Shared scene-domain types used across the scheduling pipeline.

Everything here is an immutable value object: patch regions and entities.
Instances can be shared freely across threads once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Annotated, Tuple

from .schema import Share, check_fields

DEFAULT_FRAME_PERIOD_MS = 1000.0 / 30.0

# the largest coordinate magnitude and box side a trace may give, in pixels;
# far beyond any camera, and far below where box areas and entropies overflow
MAX_PIXELS = 1e6
Coordinate = Annotated[float, f"[{-MAX_PIXELS:g}, {MAX_PIXELS:g}]"]
Extent = Annotated[float, f"(0, {MAX_PIXELS:g}]"]

# the detection simulator names a false positive spurious-<frame>; traces may
# not use the prefix, so a false positive never shares a track with an entity
FALSE_POSITIVE_PREFIX = "spurious-"


class EntityKind(str, Enum):
    BACKGROUND = "background"
    OBJECT = "object"
    HUMAN = "human"


class MotionStatus(str, Enum):
    MOVING = "moving"
    STATIONARY = "stationary"


# Module identifiers are short strings; the engine runs exactly two modules,
# detection and pose, under these ids.
ModuleId = str

DETECTION: ModuleId = "yolo"
POSE: ModuleId = "pose"


@dataclass(frozen=True)
class PatchRegion:
    """Axis-aligned pixel rectangle: top-left corner plus extent."""

    x: Coordinate
    y: Coordinate
    w: Extent
    h: Extent

    __post_init__ = check_fields

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True)
class Entity:
    """One tracked scene element.

    ``relevance`` is an externally supplied weight in [0, 1]; it is never
    computed here.
    """

    id: str
    kind: EntityKind
    region: PatchRegion
    relevance: Share = 1.0

    __post_init__ = check_fields

