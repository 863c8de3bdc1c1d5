"""Per-frame activation selection.

Because rewards are estimated independently per module, the global argmax
over all binary activation vectors decomposes into one sign test per
module: activate iff the net reward is strictly positive or the activation
is forced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

from .rewards import RewardBreakdown
from .scene import FrameStamp, ModuleId


@dataclass(frozen=True)
class ActivationDecision:
    """Binary activation vector for one frame, with its inputs attached."""

    stamp: FrameStamp
    activations: Mapping[ModuleId, bool]
    rewards: Mapping[ModuleId, RewardBreakdown]
    decision_time_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.decision_time_ms < 0:
            raise ValueError("decision_time_ms must be non-negative")
        for module, reward in self.rewards.items():
            expected = reward.forced or reward.net > 0.0
            if self.activations.get(module, False) != expected:
                raise ValueError(
                    f"module {module!r} activation must equal (net > 0 or forced)"
                )


def select(
    stamp: FrameStamp,
    rewards: Mapping[ModuleId, RewardBreakdown],
    decision_time_ms: float = 0.0,
    modules: Optional[Iterable[ModuleId]] = None,
) -> ActivationDecision:
    """Activate each module independently: net > 0 or forced.

    Ties at exactly zero net resolve to inactive. When ``modules`` is given,
    every listed module must have a reward entry.
    """
    if modules is not None:
        missing = [m for m in modules if m not in rewards]
        if missing:
            raise KeyError(f"missing reward entries for modules: {missing}")
    activations: Dict[ModuleId, bool] = {
        module: reward.forced or reward.net > 0.0 for module, reward in rewards.items()
    }
    return ActivationDecision(
        stamp=stamp,
        activations=activations,
        rewards=dict(rewards),
        decision_time_ms=decision_time_ms,
    )

