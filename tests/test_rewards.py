import math

import numpy as np
import pytest

from percsched.rewards import (
    CONFIDENCE_FLOOR,
    LN_TWO_PI_E,
    SIGMA_FLOOR,
    KeypointConfidenceHistory,
    RewardConfig,
    box_uniform_entropy,
    coco_wholebody_sigmas,
    detection_info_gain,
    detection_reward,
    pose_reward,
    post_execution_entropy,
    pre_execution_entropy,
    sigma_table,
)
from percsched.scene import DETECTION, POSE
from oracles import extrapolate_confidence, keypoint_entropy, keypoint_sigma, measurement_noise
from percsched.tracker import KalmanConfig, TrackBank, init_track, predict

KCFG = KalmanConfig()


def _cfg(lam=0.0, cost_det=15.0, cost_pose=80.0, keypoints=133, **kwargs):
    return RewardConfig(
        lambda_info_per_ms=lam,
        cost_ms={DETECTION: cost_det, POSE: cost_pose},
        keypoint_count=keypoints,
        **kwargs,
    )


def _bank_with_projected(*projected, h=40.0):
    """One track per projected covariance, each box ``h`` high. A bank's
    projected covariance is its position variance ``p_xx``, which all four
    coordinates share, times the identity."""
    for p in projected:
        assert np.array_equal(p, p[0, 0] * np.eye(4))
    n = len(projected)
    return TrackBank(
        tuple(f"t{i}" for i in range(n)),
        np.array([[0, 0, 30, h]] * n, dtype=float),
        np.zeros((n, 4)),
        np.array([p[0, 0] for p in projected]),
        np.zeros(n),
        np.ones(n),
    )


class TestDetectionInfoGain:
    def test_projected_equal_to_noise_gives_zero(self):
        r = measurement_noise(40.0, KCFG)
        t = _bank_with_projected(r)
        assert detection_info_gain(t, [1.0], _cfg(), KCFG) == pytest.approx(0.0)

    def test_scalar_multiple_of_noise(self):
        # det(e^2 R) = e^8 det(R) for a 4x4, so the gain is 0.5 * ln(e^8) = 4
        r = measurement_noise(40.0, KCFG)
        t = _bank_with_projected(np.e**2 * r)
        assert detection_info_gain(t, [1.0], _cfg(), KCFG) == pytest.approx(4.0)

    def test_linear_in_relevance(self):
        r = measurement_noise(40.0, KCFG)
        t = _bank_with_projected(np.e**2 * r)
        half = detection_info_gain(t, [0.5], _cfg(), KCFG)
        full = detection_info_gain(t, [1.0], _cfg(), KCFG)
        assert full == pytest.approx(2 * half)

    def test_zero_relevance_contributes_nothing(self):
        r = measurement_noise(40.0, KCFG)
        t = _bank_with_projected(np.e**2 * r)
        assert detection_info_gain(t, [0.0], _cfg(), KCFG) == 0.0

    def test_empty_list_is_zero(self):
        assert detection_info_gain(TrackBank(), [], _cfg(), KCFG) == 0.0

    def test_additive_over_disjoint_tracks(self):
        r = measurement_noise(40.0, KCFG)
        a = _bank_with_projected(np.e**2 * r)
        b = _bank_with_projected(np.e**4 * r)
        ga = detection_info_gain(a, [1.0], _cfg(), KCFG)
        gb = detection_info_gain(b, [0.7], _cfg(), KCFG)
        both = detection_info_gain(
            _bank_with_projected(np.e**2 * r, np.e**4 * r), [1.0, 0.7], _cfg(), KCFG
        )
        assert both == pytest.approx(ga + gb)

    def test_strictly_increases_with_staleness(self):
        cfg = _cfg()
        track = init_track(TrackBank(), ["t"], np.array([[50.0, 50.0, 30.0, 60.0]]), KCFG)
        last = detection_info_gain(track, [1.0], cfg, KCFG)
        for _ in range(30):
            track = predict(track, KCFG)
            gain = detection_info_gain(track, [1.0], cfg, KCFG)
            assert gain > last
            last = gain


class TestDetectionReward:
    def test_direct_arithmetic(self):
        cfg = _cfg(lam=0.01, cost_det=100.0)
        out = detection_reward(4.0, False, cfg)
        assert out.net == pytest.approx(3.0)
        assert out.cost_penalty_nats == pytest.approx(1.0)

    def test_zero_cost_limit(self):
        out = detection_reward(2.5, False, _cfg(lam=0.0))
        assert out.net == 2.5

    def test_pure_penalty_is_negative(self):
        out = detection_reward(0.0, False, _cfg(lam=0.5))
        assert out.net < 0

    def test_net_identity_is_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            cfg = _cfg(lam=float(rng.uniform(0, 2)))
            gain = float(rng.normal(0, 50))
            out = detection_reward(gain, bool(rng.random() < 0.5), cfg)
            assert out.net == out.info_gain_nats - out.cost_penalty_nats


class TestBoxUniformEntropy:
    def test_unit_box(self):
        assert box_uniform_entropy(1.0, 1.0) == 0.0

    def test_e_by_one(self):
        assert box_uniform_entropy(math.e, 1.0) == pytest.approx(1.0)

    def test_numeric(self):
        assert box_uniform_entropy(50.0, 80.0) == pytest.approx(math.log(4000.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            box_uniform_entropy(0.0, 1.0)


class TestPreExecutionEntropy:
    def test_unit_widened_box(self):
        assert pre_execution_entropy([(0.5, 0.5, 0.5, 0.5, 1.0)], _cfg()) == pytest.approx(0.0)

    def test_e_widened_box_gives_keypoint_count(self):
        val = pre_execution_entropy([(math.e - 0.5, 1.0, 0.5, 0.0, 1.0)], _cfg())
        assert val == pytest.approx(133.0)

    def test_zero_relevance(self):
        assert pre_execution_entropy([(10, 10, 1, 1, 0.0)], _cfg()) == 0.0

    def test_empty(self):
        assert pre_execution_entropy([], _cfg()) == 0.0


class TestExtrapolateConfidence:
    def test_linear_slope(self):
        # slope (0.8-0.9)/(10-5) = -0.02 per frame, five frames ahead
        out = extrapolate_confidence(0.8, 0.9, 10, 5, 15)
        assert out == pytest.approx(0.7)

    def test_zero_distance(self):
        assert extrapolate_confidence(0.8, 0.9, 10, 5, 10) == pytest.approx(0.8)

    def test_floor_clamp(self):
        out = extrapolate_confidence(0.1, 0.9, 10, 9, 30)
        assert out == CONFIDENCE_FLOOR

    def test_upper_clamp(self):
        assert extrapolate_confidence(0.9, 0.1, 10, 9, 30) == 1.0

    def test_equal_frames_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_confidence(0.8, 0.9, 10, 10, 15)


class TestKeypointSigma:
    def test_inverse_e(self):
        assert keypoint_sigma(1 / math.e, 3.0) == pytest.approx(3.0)

    def test_full_confidence_hits_floor(self):
        assert keypoint_sigma(1.0, 3.0) == SIGMA_FLOOR

    def test_numeric(self):
        assert keypoint_sigma(0.5, 2.0) == pytest.approx(2 * math.log(2))


class TestKeypointEntropy:
    def test_unit_sigma(self):
        assert keypoint_entropy(1.0) == pytest.approx(LN_TWO_PI_E)
        assert LN_TWO_PI_E == pytest.approx(2.837877066)

    def test_sigma_e(self):
        assert keypoint_entropy(math.e) == pytest.approx(LN_TWO_PI_E + 2.0)

    def test_doubling_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            sigma = float(rng.uniform(1e-3, 100))
            assert keypoint_entropy(2 * sigma) - keypoint_entropy(sigma) == pytest.approx(
                2 * math.log(2), abs=1e-12
            )

    def test_monotone_nonincreasing_in_confidence(self):
        values = [
            keypoint_entropy(keypoint_sigma(c, 2.0))
            for c in np.linspace(0.01, 1.0, 200)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestPostExecutionEntropy:
    def test_unit_sigmas(self):
        # base 1 and confidence 1/e give sigma exactly 1 for every keypoint
        cfg = _cfg(sigma_base=tuple([1.0] * 133))
        confs = [1 / math.e] * 133
        val = post_execution_entropy([(confs, 1.0, 1.0)], cfg)
        assert val == pytest.approx(133 * LN_TWO_PI_E)
        assert val == pytest.approx(377.4, abs=0.1)

    def test_zero_relevance(self):
        cfg = _cfg(sigma_base=tuple([1.0] * 133))
        assert post_execution_entropy([([0.5] * 133, 0.0, 1.0)], cfg) == 0.0

    def test_two_identical_humans_double(self):
        cfg = _cfg(sigma_base=tuple([1.0] * 133))
        confs = [0.4] * 133
        one = post_execution_entropy([(confs, 1.0, 1.0)], cfg)
        two = post_execution_entropy([(confs, 1.0, 1.0), (confs, 1.0, 1.0)], cfg)
        assert two == pytest.approx(2 * one)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            post_execution_entropy([([0.5] * 10, 1.0, 1.0)], _cfg())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        cfg = _cfg(keypoints=17)
        confs = rng.uniform(0.05, 0.95, size=17)
        base = post_execution_entropy([(list(confs), 1.0, 1.0)], cfg)
        shuffled = post_execution_entropy([(list(rng.permutation(confs)), 1.0, 1.0)], cfg)
        assert shuffled == pytest.approx(base)

    def test_scale_applies_to_base_sigmas(self):
        cfg = _cfg(keypoints=2, sigma_base=(1.0, 1.0))
        confs = [1 / math.e] * 2
        unscaled = post_execution_entropy([(confs, 1.0, 1.0)], cfg)
        scaled = post_execution_entropy([(confs, 1.0, 2.0)], cfg)
        assert scaled - unscaled == pytest.approx(2 * 2 * math.log(2))


class TestPoseReward:
    def test_equal_entropies(self):
        cfg = _cfg(lam=0.1)
        out = pose_reward(5.0, 5.0, False, cfg)
        assert out.info_gain_nats == 0.0
        assert out.net == pytest.approx(-0.1 * 80.0)

    def test_direct_arithmetic(self):
        cfg = _cfg(lam=0.1, cost_pose=80.0)
        out = pose_reward(400.0, 377.4, False, cfg)
        assert out.net == pytest.approx(14.6)

    def test_forced_passthrough(self):
        out = pose_reward(0.0, 100.0, True, _cfg(lam=1.0))
        assert out.forced and out.net < 0
        # the penalty is charged at the pose module's cost
        assert out.cost_penalty_nats == 80.0


class TestConfidenceHistory:
    def test_prior_before_any_sample(self):
        cfg = _cfg(keypoints=3)
        hist = KeypointConfidenceHistory()
        np.testing.assert_array_equal(hist.extrapolated("h", 5, cfg), [0.5, 0.5, 0.5])

    def test_single_sample_holds(self):
        cfg = _cfg(keypoints=2)
        hist = KeypointConfidenceHistory()
        hist.record("h", 3, [0.6, 0.7])
        np.testing.assert_allclose(hist.extrapolated("h", 9, cfg), [0.6, 0.7])

    def test_two_samples_extrapolate(self):
        cfg = _cfg(keypoints=1)
        hist = KeypointConfidenceHistory()
        hist.record("h", 5, [0.9])
        hist.record("h", 10, [0.8])
        np.testing.assert_allclose(hist.extrapolated("h", 15, cfg), [0.7])

    def test_forget(self):
        cfg = _cfg(keypoints=1)
        hist = KeypointConfidenceHistory()
        hist.record("h", 5, [0.9])
        hist.forget("h")
        np.testing.assert_array_equal(hist.extrapolated("h", 6, cfg), [0.5])

    def test_out_of_order_rejected(self):
        cfg = _cfg(keypoints=1)
        hist = KeypointConfidenceHistory()
        hist.record("h", 5, [0.9])
        with pytest.raises(ValueError, match="sample of frame 3 does not follow frame 5"):
            hist.record("h", 3, [0.8])
        # a second sample of the same frame is rejected too, and the first stays
        with pytest.raises(ValueError, match="sample of frame 5 does not follow frame 5"):
            hist.record("h", 5, [0.8])
        np.testing.assert_array_equal(hist.extrapolated("h", 6, cfg), [0.9])


class TestRewardConfig:
    """``cost_ms`` is the engine's one table of module inference times."""

    def test_positive_inference_time(self):
        for cost in (0.0, -15.0):
            with pytest.raises(ValueError, match="cost_ms"):
                _cfg(cost_det=cost)

    @pytest.mark.parametrize(
        "costs",
        [{DETECTION: 15.0}, {DETECTION: 15.0, POSE: 80.0, "depth": 40.0}, {}],
        ids=["missing", "unknown", "empty"],
    )
    def test_modules_are_exactly_detection_and_pose(self, costs):
        with pytest.raises(ValueError, match="exactly the modules 'yolo' and 'pose'"):
            RewardConfig(lambda_info_per_ms=0.3, cost_ms=costs)


class TestSigmaBaseDefaults:
    def test_packaged_table_has_133_entries(self):
        table = coco_wholebody_sigmas()
        assert len(table) == 133
        assert all(s > 0 for s in table)

    def test_resolution_rules(self):
        assert sigma_table(_cfg()) == coco_wholebody_sigmas()
        assert sigma_table(_cfg(keypoints=17)) == (0.05,) * 17

    def test_load_sigma_base_formats(self, tmp_path):
        from percsched.rewards import load_sigma_base

        as_json = tmp_path / "s.json"
        as_json.write_text("[0.1, 0.2, 0.3]")
        assert load_sigma_base(as_json) == (0.1, 0.2, 0.3)
        as_obj = tmp_path / "o.json"
        as_obj.write_text('{"sigmas": [0.5, 0.5]}')
        assert load_sigma_base(as_obj) == (0.5, 0.5)
        as_text = tmp_path / "t.txt"
        as_text.write_text("0.1 0.2\n0.3\n")
        assert load_sigma_base(as_text) == (0.1, 0.2, 0.3)
        bad = tmp_path / "bad.txt"
        bad.write_text("0.1 -0.2")
        with pytest.raises(ValueError):
            load_sigma_base(bad)

    def test_sigma_base_path_flows_through_config(self, tmp_path):
        from percsched.config import ConfigError, RunConfig
        from percsched.traces import TraceHeader

        table = tmp_path / "sigmas.json"
        table.write_text("[0.1, 0.2, 0.3, 0.4, 0.5]")
        cfg = RunConfig(trace="x", sigma_base_path=str(table))
        pipe = cfg.pipeline(TraceHeader(keypoint_count=5))
        assert pipe.reward.sigma_base == (0.1, 0.2, 0.3, 0.4, 0.5)
        with pytest.raises(ConfigError):
            cfg.pipeline(TraceHeader(keypoint_count=3))
        table.write_text("[0.1, 0.2, NaN, 0.4, 0.5]")
        with pytest.raises(ConfigError, match="finite positive"):
            cfg.pipeline(TraceHeader(keypoint_count=5))
