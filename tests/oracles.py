"""Reference implementations that the tests check the library against."""

from itertools import combinations
from typing import Mapping

from percsched.rewards import RewardBreakdown
from percsched.scene import FrameStamp, ModuleId
from percsched.scheduler import ActivationDecision


def brute_force_select(
    stamp: FrameStamp,
    rewards: Mapping[ModuleId, RewardBreakdown],
    decision_time_ms: float = 0.0,
) -> ActivationDecision:
    """Exhaustive argmax over all feasible activation vectors.

    Feasible vectors keep every forced module on. Ties in cumulative reward
    resolve to the vector with the fewest activations. An oracle for
    :func:`percsched.scheduler.select`; cost is exponential in the module count.
    """
    names = list(rewards)
    if len(names) > 20:
        raise ValueError("brute force search is limited to 20 modules")
    forced = [m for m in names if rewards[m].forced]
    optional = [m for m in names if not rewards[m].forced]

    best_total = None
    best_set = None
    for count in range(len(optional) + 1):
        for chosen in combinations(optional, count):
            active = set(forced) | set(chosen)
            # summed in declaration order so float totals are reproducible
            total = sum(rewards[m].net for m in names if m in active)
            if best_total is None or total > best_total or (
                total == best_total and len(active) < len(best_set)
            ):
                best_total = total
                best_set = active
    activations = {m: m in best_set for m in names}
    return ActivationDecision(
        stamp=stamp,
        activations=activations,
        rewards=dict(rewards),
        decision_time_ms=decision_time_ms,
    )
