"""The array-form reward kernels equal their scalar references bit for bit.

Run logs store the rewards' floats, so "close" is not enough: every
comparison here is ``==``.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CountingMath,
    TrackState,
    bank_and_relevance,
    keypoint_sigma,
    per_track_detection_info_gain,
    random_pd_block,
    scalar_extrapolated,
    scalar_post_execution_entropy,
    unchecked,
)
from percsched import rewards
from percsched.rewards import (
    CONFIDENCE_FLOOR,
    HeldConfidences,
    KeypointConfidenceHistory,
    RewardConfig,
    detection_info_gain,
    detection_reward,
    post_execution_entropy,
    sigma_table,
)
from percsched.scene import DETECTION, POSE
from percsched.tracker import KalmanConfig, NumericalError

KCFG = KalmanConfig()

confidences = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
scales = st.floats(min_value=0.05, max_value=500.0)
relevances = st.floats(min_value=0.0, max_value=1.0)


def _cfg(keypoints, sigma_base=None):
    return RewardConfig(
        lambda_info_per_ms=0.3,
        cost_ms={DETECTION: 15.0, POSE: 80.0},
        keypoint_count=keypoints,
        sigma_base=sigma_base,
    )


@st.composite
def keypoint_setups(draw):
    """A reward config and 1-3 humans of (confidences, relevance, scale)."""
    count = draw(st.integers(min_value=1, max_value=133))
    sigma_base = draw(
        st.none()
        | st.lists(
            st.floats(min_value=1e-3, max_value=2.0), min_size=count, max_size=count
        ).map(tuple)
    )
    vectors = st.lists(confidences, min_size=count, max_size=count)
    humans = draw(st.lists(st.tuples(vectors, relevances, scales), min_size=1, max_size=3))
    return _cfg(count, sigma_base), humans


class TestPostExecutionEntropy:
    @given(keypoint_setups())
    def test_equals_scalar_keypoint_loop(self, setup):
        cfg, humans = setup
        assert post_execution_entropy(humans, cfg) == scalar_post_execution_entropy(humans, cfg)

    def test_equals_scalar_on_packaged_table(self):
        cfg = _cfg(133)
        rng = np.random.default_rng(3)
        humans = [(rng.uniform(1e-6, 1.0, 133), 0.8, 95.0), (np.ones(133), 0.5, 12.5)]
        assert post_execution_entropy(humans, cfg) == scalar_post_execution_entropy(humans, cfg)

    def test_single_keypoint_logs_are_exact(self):
        # with one keypoint a last-bit difference in ln(conf) reaches the
        # result about once per thousand dense random confidences
        cfg = _cfg(1, sigma_base=(1.0,))
        confs = np.random.default_rng(5).uniform(0.05, 0.95, 5000).tolist()
        mismatched = [
            c
            for c in confs
            if post_execution_entropy([([c], 1.0, 1.0)], cfg)
            != scalar_post_execution_entropy([([c], 1.0, 1.0)], cfg)
        ]
        assert mismatched == []

    @pytest.mark.parametrize("bad", [0.0, -0.25, 1.0 + 1e-12, math.nan, math.inf])
    @given(position=st.integers(min_value=0, max_value=16))
    def test_bad_confidence_raises_keypoint_sigma_error(self, bad, position):
        cfg = _cfg(17)
        confs = [0.5] * 17
        confs[position] = bad
        with pytest.raises(ValueError) as scalar:
            keypoint_sigma(bad, 0.05)
        with pytest.raises(ValueError) as array:
            post_execution_entropy([(confs, 1.0, 1.0)], cfg)
        assert str(array.value) == str(scalar.value)

    def test_first_bad_keypoint_is_reported(self):
        confs = [0.5] * 17
        confs[3], confs[9] = 2.0, -1.0
        with pytest.raises(ValueError, match=r"got 2\.0"):
            post_execution_entropy([(confs, 1.0, 1.0)], _cfg(17))

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
    def test_non_positive_base_sigma_raises(self, scale):
        with pytest.raises(ValueError, match="base sigma must be positive"):
            post_execution_entropy([([0.5] * 17, 1.0, scale)], _cfg(17))


class TestExtrapolated:
    @given(
        data=st.data(),
        count=st.integers(min_value=1, max_value=133),
        k_prev=st.integers(min_value=0, max_value=1000),
        gap=st.integers(min_value=1, max_value=60),
        ahead=st.integers(min_value=0, max_value=120),
    )
    def test_equals_extrapolate_confidence(self, data, count, k_prev, gap, ahead):
        cfg = _cfg(count)
        vectors = st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=count, max_size=count
        )
        prev, last = data.draw(vectors), data.draw(vectors)
        hist = KeypointConfidenceHistory()
        hist.record("h", k_prev, prev)
        hist.record("h", k_prev + gap, last)
        k = k_prev + gap + ahead
        got = hist.extrapolated("h", k, cfg)
        assert got.tolist() == scalar_extrapolated((k_prev + gap, last), (k_prev, prev), k)

    def test_nan_sample_clamps_to_floor_like_the_scalar(self):
        cfg = _cfg(2)
        hist = KeypointConfidenceHistory()
        hist.record("h", 1, [0.5, 0.5])
        hist.record("h", 2, [math.nan, 0.5])
        expected = scalar_extrapolated((2, [math.nan, 0.5]), (1, [0.5, 0.5]), 5)
        assert hist.extrapolated("h", 5, cfg).tolist() == expected == [CONFIDENCE_FLOOR, 0.5]

    @given(
        samples=st.lists(st.floats(min_value=-0.5, max_value=1.5) | st.just(math.nan),
                         min_size=1, max_size=133),
        behind=st.integers(min_value=1, max_value=9),
    )
    def test_held_and_prior_are_read_only_and_exact(self, samples, behind):
        count = len(samples)
        cfg = _cfg(count)
        hist = KeypointConfidenceHistory()
        prior = hist.extrapolated("h", 0, cfg)
        assert prior.tobytes() == np.full(count, rewards.PRIOR_CONFIDENCE).tobytes()
        hist.record("h", 10, samples)
        held = np.clip(np.array(samples), CONFIDENCE_FLOOR, 1.0)
        one = hist.extrapolated("h", 20, cfg)
        hist.record("h", 10 + behind, np.full(count, 0.5))
        # a frame before the last sample holds that sample
        earlier = hist.extrapolated("h", 9 + behind, cfg)
        assert one.tobytes() == held.tobytes()
        assert earlier.tobytes() == np.full(count, 0.5).tobytes()
        for shared in (prior, one, earlier):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0] = 0.25
            # numpy refuses the flag back: the base is read-only too
            with pytest.raises(ValueError):
                shared.flags.writeable = True

    def test_record_after_forget_starts_afresh(self):
        cfg = _cfg(2)
        hist = KeypointConfidenceHistory()
        hist.record("h", 5, [0.9, 0.9])
        hist.record("h", 10, [0.5, 0.5])
        hist.forget("h")
        # an earlier frame is a first sample again, and it is held, not
        # extrapolated from the forgotten pair
        hist.record("h", 3, [0.7, 0.2])
        assert hist.extrapolated("h", 30, cfg).tolist() == [0.7, 0.2]
        hist.record("h", 4, [0.6, 0.3])
        assert hist.extrapolated("h", 6, cfg).tolist() == scalar_extrapolated(
            (4, [0.6, 0.3]), (3, [0.7, 0.2]), 6
        )


def _samples(count, seed):
    """Confidences across (0, 1] with the edges: 1.0 (a sigma under the
    floor), values past 1 and below the floor, and a zero."""
    values = np.random.default_rng(seed).uniform(1e-4, 1.0, count)
    values[:4] = [1.0, 1.5, -0.25, 0.0]
    return values.tolist()


def _history(case, count):
    """A history with one human ``h`` in ``case``, read from frame 25 on,
    and the scalar reference values at a frame."""
    hist = KeypointConfidenceHistory()
    prev, last = _samples(count, 1), _samples(count, 2)
    clamped = [min(1.0, max(CONFIDENCE_FLOOR, s)) for s in last]
    if case == "prior":
        return hist, lambda k: [rewards.PRIOR_CONFIDENCE] * count
    if case == "one sample":
        hist.record("h", 20, last)
        return hist, lambda k: clamped
    if case == "before the last sample":
        hist.record("h", 20, prev)
        hist.record("h", 30, last)
        return hist, lambda k: clamped
    if case == "zero slope":
        prev = list(last)
    elif case == "nan sample":
        last[5] = math.nan
    hist.record("h", 10, prev)
    hist.record("h", 20, last)
    return hist, lambda k: scalar_extrapolated((20, last), (10, prev), k)


HELD_CASES = ("prior", "one sample", "zero slope", "before the last sample")


class TestHeldConfidences:
    """Held confidences keep the sum of their last completed pose entropy
    pass as a memo; the entropy stays the scalar one bit for bit, on first
    use and on every reuse."""

    @pytest.mark.parametrize("count", [17, 133], ids=["uniform", "packaged"])
    @pytest.mark.parametrize("case", [*HELD_CASES, "sloped", "nan sample"])
    def test_equals_scalar_through_the_history(self, case, count):
        cfg = _cfg(count)
        hist, reference = _history(case, count)
        held = case in HELD_CASES
        first = None
        for k, scale in zip(range(25, 29), (37.5, 12.25, 1.0, 0.3)):
            confs = hist.extrapolated("h", k, cfg)
            expected = reference(k)
            assert confs.tolist() == expected
            assert type(confs) is (HeldConfidences if held else np.ndarray)
            got = post_execution_entropy([(confs, 0.75, scale)], cfg)
            assert got == scalar_post_execution_entropy([(expected, 0.75, scale)], cfg)
            if held:
                # one array, its memo keyed by the table and scale of this pass
                first = confs if first is None else first
                assert confs is first
                assert confs.memo[0] is sigma_table(cfg) and confs.memo[1] == scale

    def test_zero_slope_holds_the_last_sample(self):
        cfg = _cfg(133)
        last = _samples(133, 4)
        hist = KeypointConfidenceHistory()
        hist.record("h", 10, last)
        hist.record("h", 13, list(last))
        held = np.clip(np.array(last), CONFIDENCE_FLOOR, 1.0)
        for k in (13, 14, 20, 100, 10_000):
            got = hist.extrapolated("h", k, cfg)
            assert got.tobytes() == held.tobytes()
            assert got.tolist() == scalar_extrapolated((13, last), (10, last), k)

    def test_an_equal_sample_keeps_the_held_array_and_its_memo(self):
        cfg = _cfg(133)
        last = _samples(133, 7)
        hist = KeypointConfidenceHistory()
        hist.record("h", 10, last)
        held = hist.extrapolated("h", 11, cfg)
        post_execution_entropy([(held, 1.0, 5.0)], cfg)
        memo = held.memo
        hist.record("h", 12, list(last))
        got = hist.extrapolated("h", 15, cfg)
        assert got is held and got.memo is memo
        with CountingMath() as counting:
            assert post_execution_entropy([(got, 1.0, 5.0)], cfg) == memo[2]
        assert counting.logs == 0
        expected = scalar_extrapolated((12, last), (10, last), 15)
        assert got.tolist() == expected
        assert post_execution_entropy([(got, 1.0, 6.5)], cfg) == scalar_post_execution_entropy(
            [(expected, 1.0, 6.5)], cfg
        )

    def test_a_slope_that_underflows_to_zero_stays_sloped(self):
        # 5e-324 / 3 rounds to zero, but the samples differ
        hist = KeypointConfidenceHistory()
        hist.record("h", 1, [0.0, 0.5])
        hist.record("h", 4, [5e-324, 0.5])
        got = hist.extrapolated("h", 6, _cfg(2))
        assert type(got) is np.ndarray
        assert got.tolist() == scalar_extrapolated((4, [5e-324, 0.5]), (1, [0.0, 0.5]), 6)

    def test_a_negative_zero_slope_holds_too(self):
        hist = KeypointConfidenceHistory()
        hist.record("h", 1, [0.0, 0.5])
        hist.record("h", 2, [-0.0, 0.5])
        got = hist.extrapolated("h", 9, _cfg(2))
        assert type(got) is HeldConfidences
        assert got.tolist() == scalar_extrapolated((2, [-0.0, 0.5]), (1, [0.0, 0.5]), 9)

    @pytest.mark.parametrize("prev", [math.nan, math.inf])
    def test_a_nan_or_infinite_sample_stays_sloped(self, prev):
        hist = KeypointConfidenceHistory()
        hist.record("h", 1, [prev, 0.5])
        hist.record("h", 2, [math.nan, 0.5])
        got = hist.extrapolated("h", 3, _cfg(2))
        assert type(got) is np.ndarray
        assert got.tolist() == scalar_extrapolated((2, [math.nan, 0.5]), (1, [prev, 0.5]), 3)

    @pytest.mark.parametrize(
        "count, scale",
        [(17, 0.0), (17, -1.0), (17, math.nan), (17, 5e-324), (133, 0.0), (133, math.nan),
         (133, 1e-322)],
    )
    def test_bad_scale_raises_on_every_frame(self, count, scale):
        # 1e-322 times the packaged table underflows to zero from the base
        # sigmas below about 0.025 on, not on the first keypoints
        cfg = _cfg(count)
        hist = KeypointConfidenceHistory()
        hist.record("h", 3, _samples(count, 5))
        confs = hist.extrapolated("h", 4, cfg)
        message = _message(list(confs), scale, cfg)
        assert "base sigma must be positive" in message
        # before a memo is kept, and after a good frame kept one, which a
        # failed pass leaves as it was
        assert _message(confs, scale, cfg) == message
        assert confs.memo is None
        post_execution_entropy([(confs, 1.0, 2.0)], cfg)
        memo = confs.memo
        assert memo[1] == 2.0
        for _ in range(2):
            assert _message(confs, scale, cfg) == message
            assert confs.memo is memo

    @pytest.mark.parametrize("bad", [0.0, -0.25, 1.0 + 1e-12, math.nan, math.inf])
    @pytest.mark.parametrize("position", [0, 9])
    @pytest.mark.parametrize("scale", [2.0, 0.0])
    def test_bad_confidence_raises_on_every_frame(self, bad, position, scale):
        cfg = _cfg(17)
        values = [0.5] * 17
        values[position] = bad
        confs = rewards._held(np.array(values))
        message = _message(values, scale, cfg)
        # a bad confidence at the first keypoint is named ahead of its sigma
        if position == 0 or scale:
            assert message.startswith("confidence must lie in (0, 1]")
        for _ in range(3):
            assert _message(confs, scale, cfg) == message
            assert confs.memo is None

    def test_nan_held_by_the_history_raises_on_every_frame(self):
        cfg = _cfg(17)
        values = [0.5] * 17
        values[6] = math.nan
        message = _message(values, 4.0, cfg)
        hist = KeypointConfidenceHistory()
        hist.record("h", 3, values)
        for k in (3, 4, 9):
            assert _message(hist.extrapolated("h", k, cfg), 4.0, cfg) == message
        # held at a frame before the last sample
        hist.forget("h")
        hist.record("h", 2, [0.5] * 17)
        hist.record("h", 5, values)
        for k in (3, 4):
            assert _message(hist.extrapolated("h", k, cfg), 4.0, cfg) == message

    def test_only_read_only_arrays_keep_a_memo(self):
        cfg = _cfg(17)
        hist = KeypointConfidenceHistory()
        hist.record("h", 3, _samples(17, 6))
        held = hist.extrapolated("h", 4, cfg)
        copy, scaled, view = held.copy(), held * 0.5, held[:]
        for derived in (copy, scaled, view):
            assert type(derived) is HeldConfidences and derived.memo is None
            expected = scalar_post_execution_entropy([(derived.tolist(), 1.0, 3.0)], cfg)
            assert post_execution_entropy([(derived, 1.0, 3.0)], cfg) == expected
        assert copy.memo is None and scaled.memo is None
        assert view.memo is not None and held.memo is None

    @pytest.mark.parametrize("scale", [0.3, math.inf])
    def test_served_without_a_log_from_the_second_use(self, scale):
        cfg = _cfg(133)
        hist, reference = _history("one sample", 133)
        expected = scalar_post_execution_entropy([(reference(25), 0.75, scale)], cfg)
        logs = []
        for k in range(25, 29):
            confs = hist.extrapolated("h", k, cfg)
            # an equal scale, not the same float object
            equal = float(repr(scale))
            with CountingMath() as counting:
                got = post_execution_entropy([(confs, 0.75, equal)], cfg)
            assert struct.pack("<d", got) == struct.pack("<d", expected)
            logs.append(counting.logs)
        assert logs[0] > 0 and logs[1:] == [0, 0, 0]


# scales that repeat across calls, the extremes a memo may be keyed by (inf
# and a subnormal), zero (where the checked pass raises and no memo is
# stored) and any other
memo_scales = st.sampled_from([1.0, 2.5, 37.5, 0.3, 5e-324, 0.0, math.inf]) | scales


def _outcome(compute):
    """A result as its bytes, or the message it raised."""
    try:
        return struct.pack("<d", compute())
    except ValueError as error:
        return str(error)


class TestHeldSumMemo:
    """A held array keeps the per-human sum of its last completed pass, keyed
    by the sigma table object and the scale. Served or recomputed, every
    pass equals the scalar reference bit for bit, across configs whose
    tables differ at one keypoint count and the prior they share."""

    @settings(max_examples=150)
    @given(data=st.data(), count=st.sampled_from([1, 17, 133]))
    def test_equals_scalar_through_reuse(self, data, count):
        own = data.draw(st.lists(st.floats(1e-3, 2.0), min_size=count, max_size=count))
        cfgs = (_cfg(count), _cfg(count, tuple(own)))
        hist = KeypointConfidenceHistory()
        hist.record("h", 1, data.draw(st.lists(confidences, min_size=count, max_size=count)))
        entry = st.tuples(st.sampled_from(["h", "unseen"]), relevances, memo_scales)
        calls = st.tuples(st.sampled_from(cfgs), st.lists(entry, min_size=1, max_size=3))
        for k, (cfg, entries) in enumerate(data.draw(st.lists(calls, min_size=1, max_size=8))):
            humans = [(hist.extrapolated(eid, k + 2, cfg), r, s) for eid, r, s in entries]
            reference = [(confs.tolist(), r, s) for confs, r, s in humans]
            assert _outcome(lambda: post_execution_entropy(humans, cfg)) == _outcome(
                lambda: scalar_post_execution_entropy(reference, cfg)
            )


def _message(confs, scale, cfg):
    with pytest.raises(ValueError) as error:
        post_execution_entropy([(confs, 1.0, scale)], cfg)
    return str(error.value)


IDENTITY = np.array([[1.0] * 4, [0.0] * 4, [1.0] * 4])


def _track(entity_id, blocks, height):
    mean = np.array([10.0, 20.0, 30.0, height, 0.0, 0.0, 0.0, 0.0])
    return TrackState(mean=mean, blocks=np.asarray(blocks, dtype=float), entity_id=entity_id)


def _with_position_variances(p_xx):
    """Identity blocks with ``p_xx`` as the position variance that all four
    coordinates share."""
    blocks = IDENTITY.copy()
    blocks[0] = p_xx
    return blocks


@st.composite
def track_sets(draw):
    """1-8 tracks, each with one random positive-definite 2x2 block shared
    by its four coordinates."""
    count = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    out = []
    for i in range(count):
        cov = random_pd_block(
            rng,
            scale=draw(st.floats(min_value=1e-2, max_value=1e2)),
            ridge=draw(st.floats(min_value=1e-3, max_value=10.0)),
        )
        height = draw(st.floats(min_value=0.1, max_value=2000.0))
        relevance = draw(st.sampled_from([0.0, 1.0]) | relevances)
        out.append((_track(f"t{i}", cov, height), relevance))
    return out


class TestDetectionInfoGain:
    @given(track_sets())
    def test_equals_per_track_formula(self, tracks):
        bank, relevance = bank_and_relevance(tracks)
        assert detection_info_gain(bank, relevance, _cfg(17), KCFG) == (
            per_track_detection_info_gain(tracks, KCFG)
        )

    def test_no_tracks_and_zero_relevance_give_zero(self):
        assert detection_info_gain(*bank_and_relevance([]), _cfg(17), KCFG) == 0.0
        zero = bank_and_relevance([(_track("a", IDENTITY, 40.0), 0.0)])
        assert detection_info_gain(*zero, _cfg(17), KCFG) == 0.0

    def test_first_non_pd_track_is_named(self):
        indefinite = _with_position_variances(-1.0)
        good = _track("a-good", IDENTITY, 40.0)
        skipped = _track("b-skipped", indefinite, 40.0)
        bad = _track("c-bad", indefinite, 40.0)
        also_bad = _track("d-also-bad", np.zeros((3, 4)), 40.0)
        tracks = [(good, 1.0), (skipped, 0.0), (bad, 0.5), (also_bad, 1.0)]
        with pytest.raises(NumericalError, match="'c-bad'"):
            detection_info_gain(*bank_and_relevance(tracks), _cfg(17), KCFG)
        with pytest.raises(NumericalError, match="'c-bad'"):
            per_track_detection_info_gain(tracks, KCFG)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_nan_inf_and_zero_position_variances_are_named(self, value):
        good = _track("a-good", IDENTITY, 40.0)
        bad = _track("c-bad", _with_position_variances(value), 40.0)
        tracks = [(good, 1.0), (bad, 0.5)]
        with pytest.raises(NumericalError, match="'c-bad'"):
            detection_info_gain(*bank_and_relevance(tracks), _cfg(17), KCFG)
        with pytest.raises(NumericalError, match="'c-bad'"):
            per_track_detection_info_gain(tracks, KCFG)

    def test_ratio_underflowing_to_zero_gives_minus_infinity(self):
        # 5e-324 over the noise variance of a 1000 px tall box,
        # (0.05 * 1000) ** 2, rounds to zero, whose log is -inf
        tiny = _track("a-tiny", _with_position_variances(5e-324), 1000.0)
        good = _track("b-good", IDENTITY, 40.0)
        tracks = [(tiny, 1.0), (good, 0.5)]
        assert detection_info_gain(*bank_and_relevance(tracks), _cfg(17), KCFG) == -math.inf

    def test_zero_noise_variance_gives_an_infinite_gain_without_a_warning(self):
        # a measurement weight whose square underflows makes the noise
        # variance zero and the ratio +inf, where Python's division would
        # raise (pytest turns numpy's divide warning into an error); the
        # config refuses such a weight, so it is set past the check, and the
        # reward refuses the gain it gives
        kcfg = unchecked(KalmanConfig, std_weight_measurement=1e-300)
        tracks = [(_track("a", IDENTITY, 40.0), 1.0)]
        gain = detection_info_gain(*bank_and_relevance(tracks), _cfg(17), kcfg)
        assert gain == math.inf
        with pytest.raises(ValueError, match="gain must be finite, got inf"):
            detection_reward(gain, False, _cfg(17))

    def test_later_non_pd_track_is_named_ahead_of_an_underflow(self):
        tiny = _track("a-tiny", _with_position_variances(5e-324), 1000.0)
        bad = _track("b-bad", _with_position_variances(-1.0), 40.0)
        tracks = [(tiny, 1.0), (bad, 1.0)]
        with pytest.raises(NumericalError, match="'b-bad'"):
            detection_info_gain(*bank_and_relevance(tracks), _cfg(17), KCFG)

    def test_one_weight_per_row(self):
        bank, _ = bank_and_relevance([(_track("a", IDENTITY, 40.0), 1.0)])
        with pytest.raises(ValueError, match="relevance"):
            detection_info_gain(bank, [1.0, 1.0], _cfg(17), KCFG)


class TestSigmaTable:
    def test_json_read_at_most_once(self, monkeypatch):
        reads = []
        real_loads = rewards.json.loads

        def counting_loads(text, *args, **kwargs):
            reads.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(rewards.json, "loads", counting_loads)
        rewards.coco_wholebody_sigmas.cache_clear()
        cfg = _cfg(133)
        tables = [sigma_table(cfg) for _ in range(50)]
        assert len(reads) == 1
        assert all(t == tables[0] for t in tables)

    def test_table_cannot_be_written(self):
        table = sigma_table(_cfg(133))
        assert table is rewards.coco_wholebody_sigmas()
        with pytest.raises(TypeError):
            table[0] = -1.0  # type: ignore[index]
        assert all(s > 0 for s in rewards.coco_wholebody_sigmas())

    @pytest.mark.parametrize(
        "keypoints, sigma_base, expected",
        [
            (133, None, None),
            (17, None, (0.05,) * 17),
            (3, (1, np.float64(0.25), 2.0), (1.0, 0.25, 2.0)),
        ],
        ids=["packaged", "uniform", "given"],
    )
    def test_a_tuple_of_floats(self, keypoints, sigma_base, expected):
        table = sigma_table(_cfg(keypoints, sigma_base))
        assert type(table) is tuple and len(table) == keypoints
        assert all(type(s) is float for s in table)
        assert table == (expected or rewards.coco_wholebody_sigmas())

    def test_own_table_is_converted_once_per_distinct_table(self):
        cfg = _cfg(3, (1, np.float64(0.25), 2.0))
        table = sigma_table(cfg)
        assert table == (1.0, 0.25, 2.0) and all(type(s) is float for s in table)
        assert sigma_table(cfg) is table
        assert sigma_table(_cfg(3, (1.0, 0.25, 2.0))) is table

    @pytest.mark.parametrize(
        "keypoints, sigma_base, loads",
        [(133, None, 3), (17, None, 0), (133, (0.1,) * 133, 0)],
        ids=["packaged", "uniform", "given"],
    )
    def test_packaged_table_is_fetched_once_per_call(self, monkeypatch, keypoints, sigma_base, loads):
        # the benchmark counts these fetches: one per post_execution_entropy
        # call at 133 keypoints without a table of one's own
        calls = []
        real = rewards.coco_wholebody_sigmas

        def counting():
            calls.append(None)
            return real()

        monkeypatch.setattr(rewards, "coco_wholebody_sigmas", counting)
        cfg = _cfg(keypoints, sigma_base)
        for _ in range(3):
            post_execution_entropy([(np.full(keypoints, 0.5), 1.0, 10.0)], cfg)
        assert len(calls) == loads
