import numpy as np
import pytest

from percsched.rewards import RewardBreakdown
from percsched.scene import DETECTION, POSE
from oracles import brute_force_select
from percsched.scheduler import select


def _reward(net, forced=False):
    return RewardBreakdown(info_gain_nats=net, cost_penalty_nats=0.0, net=net, forced=forced)


def random_reward_map(rng, n):
    """Reward maps mixing exact zeros, forced flags and grid-valued nets."""
    rewards = {}
    for i in range(n):
        roll = rng.random()
        if roll < 0.15:
            net = 0.0
        else:
            net = round(float(rng.uniform(-10, 10)), 3)
        rewards[f"m{i}"] = _reward(net, forced=bool(rng.random() < 0.2))
    return rewards


class TestSelect:
    def test_sign_rule(self):
        decision = select({DETECTION: _reward(5.0), POSE: _reward(-2.0)})
        assert decision == {DETECTION: True, POSE: False}

    def test_forced_overrides_negative_net(self):
        decision = select({DETECTION: _reward(-1.0, forced=True), POSE: _reward(-3.0)})
        assert decision == {DETECTION: True, POSE: False}

    def test_exact_zero_is_inactive(self):
        decision = select({DETECTION: _reward(0.0), POSE: _reward(0.0)})
        assert decision == {DETECTION: False, POSE: False}

    def test_positive_shift_never_deactivates(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rewards = random_reward_map(rng, int(rng.integers(1, 6)))
            base = select(rewards)
            shift = float(rng.uniform(0.001, 5.0))
            shifted = {m: _reward(r.net + shift, r.forced) for m, r in rewards.items()}
            after = select(shifted)
            for m in rewards:
                if base[m]:
                    assert after[m]

    def test_forcing_one_module_leaves_others_alone(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            rewards = random_reward_map(rng, int(rng.integers(2, 6)))
            base = select(rewards)
            victim = sorted(rewards)[int(rng.integers(0, len(rewards)))]
            forced = dict(rewards)
            forced[victim] = _reward(rewards[victim].net, forced=True)
            after = select(forced)
            for m in rewards:
                if m != victim:
                    assert after[m] == base[m]


class TestBruteForce:
    def test_matches_select_on_two_modules(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            rewards = random_reward_map(rng, 2)
            assert brute_force_select(rewards) == select(rewards)

    def test_single_positive_module_on(self):
        decision = brute_force_select({DETECTION: _reward(0.5)})
        assert decision == {DETECTION: True}

    def test_tie_breaks_to_fewest_activations(self):
        rewards = {DETECTION: _reward(0.0), POSE: _reward(0.0)}
        decision = brute_force_select(rewards)
        assert decision == {DETECTION: False, POSE: False}

    def test_forced_constraint_respected(self):
        rewards = {DETECTION: _reward(-5.0, forced=True), POSE: _reward(1.0)}
        decision = brute_force_select(rewards)
        assert decision == {DETECTION: True, POSE: True}

    def test_agreement_across_module_counts(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            rewards = random_reward_map(rng, n)
            assert brute_force_select(rewards) == select(rewards)

    def test_agreement_at_many_modules(self):
        # up to 2**14 activation vectors per map; random_reward_map mixes in
        # forced flags and exact-zero nets
        rng = np.random.default_rng(15)
        for n in range(7, 15):
            for _ in range(10):
                rewards = random_reward_map(rng, n)
                assert brute_force_select(rewards) == select(rewards)

    def test_too_many_modules_rejected(self):
        rewards = {f"m{i}": _reward(1.0) for i in range(21)}
        with pytest.raises(ValueError):
            brute_force_select(rewards)
