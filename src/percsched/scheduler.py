"""Per-frame activation selection.

Because rewards are estimated independently per module, the global argmax
over all binary activation vectors decomposes into one sign test per
module: activate iff the net reward is strictly positive or the activation
is forced.
"""

from __future__ import annotations

from typing import Dict, Mapping

from .rewards import RewardBreakdown
from .scene import ModuleId


def select(rewards: Mapping[ModuleId, RewardBreakdown]) -> Dict[ModuleId, bool]:
    """Activate each module independently: net > 0 or forced.

    Ties at exactly zero net resolve to inactive.
    """
    return {module: reward.forced or reward.net > 0.0 for module, reward in rewards.items()}
