import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import measurement_noise, process_noise
from percsched.tracker import (
    KalmanConfig,
    NumericalError,
    TrackBank,
    inflate_process_noise,
    init_track,
    measurement_covariance,
    predict,
    update,
)

CFG = KalmanConfig()


def pure_python_det(matrix):
    """LU determinant with partial pivoting, independent of numpy.linalg."""
    a = [list(map(float, row)) for row in matrix]
    n = len(a)
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-300:
            return 0.0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def riccati_prior_fixed_point(f, h, q, r, p0, iterations=3000):
    """Direct iteration of the discrete Riccati recursion to steady state."""
    p = p0.copy()
    for _ in range(iterations):
        s = h @ p @ h.T + r
        k = p @ h.T @ np.linalg.inv(s)
        p_post = p - k @ h @ p
        p = f @ p_post @ f.T + q
    return p


def start(box):
    """A one-track bank, track ``t``, started from ``box``."""
    return init_track(TrackBank(), ["t"], np.array([box], dtype=float), CFG)


def one(mean, covariance):
    """A one-track bank, track ``t``, holding the given state."""
    return TrackBank(("t",), np.array([mean], dtype=float), np.array([covariance], dtype=float))


def measure(bank, z):
    """Update track ``t`` of a one-track bank against ``z``."""
    return update(bank, ["t"], np.array([z], dtype=float), CFG)


class TestInitTrack:
    def test_zero_velocity_init(self):
        t = start([100.0, 100.0, 50.0, 80.0])
        np.testing.assert_array_equal(t.means[0], [100, 100, 50, 80, 0, 0, 0, 0])

    def test_covariance_diagonal_positive(self):
        cov = start([10.0, 10.0, 5.0, 8.0]).covariances[0]
        assert np.all(np.diag(cov) > 0)
        assert np.count_nonzero(cov - np.diag(np.diag(cov))) == 0

    def test_deterministic(self):
        z = [1.0, 2.0, 3.0, 4.0]
        a, b = start(z), start(z)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covariances, b.covariances)

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            start([1.0, 2.0, 0.0, 4.0])

    def test_new_rows_merge_in_id_order(self):
        bank = init_track(TrackBank(), ["m", "c"], np.array([[1.0, 1, 5, 5], [2.0, 2, 6, 6]]), CFG)
        bank = init_track(bank, ["x", "a"], np.array([[3.0, 3, 7, 7], [4.0, 4, 8, 8]]), CFG)
        assert bank.ids == ("a", "c", "m", "x")
        assert bank.means[:, 0].tolist() == [4.0, 2.0, 1.0, 3.0]

    def test_rejects_a_tracked_or_repeated_id(self):
        bank = start([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="'t'"):
            init_track(bank, ["t"], np.array([[1.0, 2.0, 3.0, 4.0]]), CFG)
        with pytest.raises(ValueError, match="'u'"):
            init_track(bank, ["u", "u"], np.ones((2, 4)), CFG)


class TestPredict:
    def test_zero_velocity_zero_noise_fixed_point(self):
        t = start([50.0, 60.0, 20.0, 30.0])
        out = predict(t, CFG, q_scale=0.0)
        np.testing.assert_array_equal(out.means, t.means)

    def test_one_constant_velocity_step(self):
        t = one([0.0, 0.0, 10.0, 10.0, 1.0, 2.0, 0.0, 0.0], np.eye(8))
        out = predict(t, CFG).means[0]
        assert out[0] == 1.0 and out[1] == 2.0
        assert out[2] == 10.0 and out[3] == 10.0

    def test_determinant_grows_under_pd_noise(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(8, 8))
            t = one([0, 0, 20, 20, 0, 0, 0, 0.0], a @ a.T + 8 * np.eye(8))
            out = predict(t, CFG)
            # determinants computed independently of the filter code
            before = pure_python_det(t.covariances[0])
            after = pure_python_det(out.covariances[0])
            assert after >= before * (1 - 1e-12)

    def test_zero_velocity_flag_clears_motion(self):
        t = one([0.0, 0.0, 10.0, 10.0, 3.0, 4.0, 0.0, 0.0], np.eye(8))
        out = predict(t, CFG, zero_velocity=True).means[0]
        assert out[0] == 0.0 and out[1] == 0.0
        assert np.all(out[4:] == 0.0)

    def test_non_pd_covariance_raises(self):
        t = one([0, 0, 10, 10, 0, 0, 0, 0.0], -np.eye(8))
        with pytest.raises(NumericalError):
            predict(t, CFG, q_scale=0.0)

    def test_symmetry_preserved_over_many_steps(self):
        t = start([10.0, 10.0, 30.0, 40.0])
        for _ in range(100):
            t = predict(t, CFG)
            cov = t.covariances[0]
            assert np.max(np.abs(cov - cov.T)) < 1e-9

    def test_empty_bank_is_returned_as_is(self):
        empty = TrackBank()
        assert predict(empty, CFG) is empty


class TestUpdate:
    def test_zero_innovation_keeps_positions(self):
        t = predict(start([10.0, 20.0, 30.0, 40.0]), CFG)
        out = measure(t, t.means[0, :4].copy())
        np.testing.assert_allclose(out.means[0, :4], t.means[0, :4], rtol=1e-12)

    def test_posterior_below_prior_in_loewner_order(self):
        # brute-force eigendecomposition of the projected difference
        rng = np.random.default_rng(6)
        for _ in range(20):
            t = start([10.0, 20.0, 30.0, 40.0])
            for _ in range(int(rng.integers(1, 10))):
                t = predict(t, CFG)
            prior_proj = measurement_covariance(t)[0]
            posterior = measure(t, [12.0, 19.0, 31.0, 39.0])
            post_proj = measurement_covariance(posterior)[0]
            eigs = np.linalg.eigvalsh(prior_proj - post_proj)
            assert np.all(eigs >= -1e-9)

    def test_converges_to_riccati_steady_state(self):
        z = np.array([10.0, 20.0, 30.0, 40.0])
        t = start(z)
        for _ in range(100):
            t = predict(t, CFG)
            t = measure(t, z)
        # independent fixed-point iteration of the same (F, H, Q, R) system
        f = np.eye(8)
        f[:4, 4:] = np.eye(4)
        h = np.zeros((4, 8))
        h[:, :4] = np.eye(4)
        q = process_noise(z[3], CFG)
        r = measurement_noise(z[3], CFG)
        prior_ss = riccati_prior_fixed_point(f, h, q, r, start(z).covariances[0])
        post_ss = prior_ss - prior_ss @ h.T @ np.linalg.inv(
            h @ prior_ss @ h.T + r
        ) @ h @ prior_ss
        filter_posterior = t.covariances[0]
        np.testing.assert_allclose(
            h @ filter_posterior @ h.T, h @ post_ss @ h.T, rtol=1e-6
        )

    def test_joseph_form_matches_standard(self):
        # the update's Joseph form against the standard (I - K H) P, here
        # where the latter is well conditioned
        z = np.array([10.0, 20.0, 30.0, 40.0])
        prior = predict(start(z), CFG)
        p = prior.covariances[0]
        h = np.zeros((4, 8))
        h[:, :4] = np.eye(4)
        k = p @ h.T @ np.linalg.inv(h @ p @ h.T + measurement_noise(prior.means[0, 3], CFG))
        standard = (np.eye(8) - k @ h) @ p
        out = measure(prior, z + 1.0)
        np.testing.assert_allclose(out.covariances[0], standard, atol=1e-9)
        innovation = z + 1.0 - prior.means[0, :4]
        np.testing.assert_allclose(out.means[0], prior.means[0] + k @ innovation, rtol=1e-12)

    def test_bad_measurement_shape(self):
        t = start([10.0, 20.0, 30.0, 40.0])
        with pytest.raises(ValueError):
            measure(t, [1.0, 2.0])

    def test_repeated_or_unknown_id_rejected(self):
        bank = start([10.0, 20.0, 30.0, 40.0])
        with pytest.raises(ValueError, match="'t' is named twice"):
            update(bank, ["t", "t"], np.ones((2, 4)), CFG)
        with pytest.raises(ValueError, match="'u' is not in the bank"):
            update(bank, ["u"], np.ones((1, 4)), CFG)

    def test_only_the_named_rows_change(self):
        bank = init_track(TrackBank(), ["a", "b", "c"], np.array([[1.0, 1, 5, 5]] * 3), CFG)
        out = update(bank, ["b"], np.array([[3.0, 1, 5, 5]]), CFG)
        assert np.array_equal(out.means[[0, 2]], bank.means[[0, 2]])
        assert np.array_equal(out.covariances[[0, 2]], bank.covariances[[0, 2]])
        assert out.means[1, 0] > 1.0


class TestMeasurementCovariance:
    def test_block_extraction(self):
        t = one([0, 0, 10, 10, 0, 0, 0, 0.0], np.diag(np.arange(1.0, 9.0)))
        np.testing.assert_array_equal(measurement_covariance(t), [np.diag([1.0, 2.0, 3.0, 4.0])])

    def test_symmetric_and_pd(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8))
        t = one([0, 0, 10, 10, 0, 0, 0, 0.0], a @ a.T + 8 * np.eye(8))
        proj = measurement_covariance(t)[0]
        np.testing.assert_allclose(proj, proj.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(proj) > 0)


class TestMotionScaling:
    def test_projected_determinant_strictly_increases_without_updates(self):
        t = start([10.0, 20.0, 30.0, 40.0])
        last = np.linalg.det(measurement_covariance(t)[0])
        for _ in range(50):
            t = predict(t, CFG)
            det = np.linalg.det(measurement_covariance(t)[0])
            assert det > last
            last = det

    def test_inflation_matches_full_scale_predict(self):
        t = start([10.0, 20.0, 30.0, 40.0])
        low = predict(t, CFG, q_scale=0.1)
        topped_up = inflate_process_noise(low, ["t"], CFG, 60.0 - 0.1)
        full = predict(t, CFG, q_scale=60.0)
        np.testing.assert_allclose(topped_up.covariances, full.covariances, rtol=1e-12)


class TestTrackBank:
    def test_rows_must_be_sorted_unique_and_shaped(self):
        with pytest.raises(ValueError, match="sorted"):
            TrackBank(("b", "a"), np.zeros((2, 8)), np.zeros((2, 8, 8)))
        with pytest.raises(ValueError, match="sorted"):
            TrackBank(("a", "a"), np.zeros((2, 8)), np.zeros((2, 8, 8)))
        with pytest.raises(ValueError, match="means"):
            TrackBank(("a",), np.zeros((2, 8)), np.zeros((1, 8, 8)))
        with pytest.raises(ValueError, match="covariances"):
            TrackBank(("a",), np.zeros((1, 8)), np.zeros((1, 4, 4)))

    def test_without_drops_rows_and_ignores_strangers(self):
        bank = init_track(TrackBank(), ["a", "b", "c"], np.array([[1.0, 1, 5, 5]] * 3), CFG)
        out = bank.without(["b", "zz"])
        assert out.ids == ("a", "c") and "b" not in out and "a" in out
        assert np.array_equal(out.covariances, bank.covariances[[0, 2]])
        assert bank.without(["zz"]) is bank


# one random filter step: predict (optionally zeroing velocity), update
# against a measurement offset from the predicted box by box-height units,
# or top up process noise as the engine does for a track found to be moving
STEPS = st.one_of(
    st.tuples(st.just("predict"), st.booleans()),
    st.tuples(st.just("update"), st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)),
    st.tuples(st.just("inflate"), st.floats(0.0, 60.0)),
)


class TestCovarianceProperties:
    @pytest.mark.parametrize("q_scale", [0.02, 60.0])
    @settings(max_examples=10)
    @given(
        box=st.tuples(st.floats(0.0, 640.0), st.floats(0.0, 480.0),
                      st.floats(1.0, 300.0), st.floats(1.0, 300.0)),
        steps=st.lists(STEPS, min_size=100, max_size=200),
    )
    def test_symmetric_and_positive_definite_through_long_runs(self, q_scale, box, steps):
        t = start(box)
        for op, arg in steps:
            if op == "predict":
                t = predict(t, CFG, q_scale=q_scale, zero_velocity=arg)
            elif op == "update":
                height = max(float(t.means[0, 3]), 1.0)
                t = measure(t, t.means[0, :4] + height * np.array(arg))
            else:
                t = inflate_process_noise(t, ["t"], CFG, arg)
            cov = t.covariances[0]
            assert np.array_equal(cov, cov.T)
            assert np.all(np.isfinite(cov))
            assert np.linalg.eigvalsh(cov).min() > 0.0


@st.composite
def banks(draw):
    """1-7 tracks, ids in shuffled order, with random positive-definite
    covariances and a per-row process-noise scale and zero-velocity flag."""
    count = draw(st.integers(min_value=1, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    tracks, q_scales, still = [], [], []
    for i in rng.permutation(count).tolist():
        height = draw(st.floats(min_value=0.5, max_value=400.0))
        mean = np.concatenate([
            rng.uniform(0.0, 640.0, size=2), [rng.uniform(1.0, 300.0), height],
            rng.normal(0.0, 5.0, size=4),
        ])
        a = rng.normal(size=(8, 8)) * draw(st.floats(min_value=1e-2, max_value=50.0))
        cov = a @ a.T + np.eye(8) * draw(st.floats(min_value=1e-3, max_value=10.0))
        tracks.append(oracles.TrackState(mean=mean, covariance=cov, entity_id=f"t{i}"))
        q_scales.append(draw(st.sampled_from([0.02, 60.0]) | st.floats(0.0, 100.0)))
        still.append(draw(st.booleans()))
    return tracks, q_scales, still


def assert_rows_equal(bank, tracks):
    """Every bank row equals its oracle track exactly, in id order."""
    expected = sorted(tracks, key=lambda t: t.entity_id)
    assert bank.ids == tuple(t.entity_id for t in expected)
    for row, track in enumerate(expected):
        assert np.array_equal(bank.means[row], track.mean)
        assert np.array_equal(bank.covariances[row], track.covariance)


class TestBankEqualsOneTrackOracle:
    """Each bank operation gives, row for row, exactly what the one-track
    filter in ``tests/oracles.py`` gives. Run logs store floats derived from
    these arrays, so the comparison is ``==``, not a tolerance."""

    @given(banks())
    def test_predict(self, drawn):
        tracks, q_scales, still = drawn
        bank = oracles.bank_of(tracks)
        by_id = {t.entity_id: (q, z) for t, q, z in zip(tracks, q_scales, still)}
        q_rows = [by_id[tid][0] for tid in bank.ids]
        still_rows = [by_id[tid][1] for tid in bank.ids]
        got = predict(bank, CFG, q_scale=np.array(q_rows), zero_velocity=np.array(still_rows))
        want = [oracles.predict(t, CFG, q_scale=q, zero_velocity=z)
                for t, q, z in zip(tracks, q_scales, still)]
        assert_rows_equal(got, want)

    # predicted: update a bank that went through predict first, so the
    # covariances are the filter's own rather than arbitrary ones
    @pytest.mark.parametrize("predicted", [False, True])
    @given(drawn=banks(), offsets=st.lists(st.floats(-3.0, 3.0), min_size=28, max_size=28),
           picks=st.lists(st.booleans(), min_size=7, max_size=7))
    def test_update(self, predicted, drawn, offsets, picks):
        tracks = drawn[0]
        bank = oracles.bank_of(tracks)
        if predicted:
            bank = predict(bank, CFG)
            tracks = [oracles.predict(t, CFG) for t in tracks]
        chosen = [t for t, pick in zip(tracks, picks) if pick] or tracks[:1]
        z = np.array([
            t.mean[:4] + max(float(t.mean[3]), 1.0) * np.array(offsets[4 * i: 4 * i + 4])
            for i, t in enumerate(chosen)
        ])
        got = update(bank, [t.entity_id for t in chosen], z, CFG)
        updated = {t.entity_id: oracles.update(t, zi, CFG) for t, zi in zip(chosen, z)}
        assert_rows_equal(got, [updated.get(t.entity_id, t) for t in tracks])

    @given(drawn=banks(), extra=st.floats(0.0, 100.0),
           picks=st.lists(st.booleans(), min_size=7, max_size=7))
    def test_inflate(self, drawn, extra, picks):
        tracks = drawn[0]
        chosen = [t.entity_id for t, pick in zip(tracks, picks) if pick]
        got = inflate_process_noise(oracles.bank_of(tracks), chosen, CFG, extra)
        assert_rows_equal(got, [
            oracles.inflate_process_noise(t, CFG, extra) if t.entity_id in chosen else t
            for t in tracks
        ])

    @given(drawn=banks(), boxes=st.lists(
        st.tuples(st.floats(0.0, 640.0), st.floats(0.0, 480.0),
                  st.floats(0.5, 300.0), st.floats(0.5, 300.0)),
        min_size=1, max_size=4,
    ))
    def test_init_track(self, drawn, boxes):
        tracks = drawn[0]
        ids = [f"n{i}" for i in range(len(boxes))][::-1]
        got = init_track(oracles.bank_of(tracks), ids, np.array(boxes), CFG)
        started = [oracles.init_track(np.array(b), CFG, tid) for tid, b in zip(ids, boxes)]
        assert_rows_equal(got, tracks + started)

    @given(banks())
    def test_measurement_covariance(self, drawn):
        tracks = sorted(drawn[0], key=lambda t: t.entity_id)
        got = measurement_covariance(oracles.bank_of(tracks))
        assert np.array_equal(got, [oracles.measurement_covariance(t) for t in tracks])


class TestBadCovarianceNamesItsTrack:
    """One Cholesky factorization checks a whole phase; a failure still
    names the first track whose covariance is not positive definite."""

    @staticmethod
    def four_tracks():
        covs = np.array([np.eye(8)] * 4)
        covs[2] = -100.0 * np.eye(8)
        means = np.array([[10.0, 10.0, 10.0, 10.0, 0.0, 0.0, 0.0, 0.0]] * 4)
        return TrackBank(("a", "b", "c", "d"), means, covs)

    def test_predict(self):
        with pytest.raises(NumericalError, match="track 'c'"):
            predict(self.four_tracks(), CFG)

    def test_update(self):
        bank = self.four_tracks()
        with pytest.raises(NumericalError, match="track 'c'"):
            update(bank, list(bank.ids), bank.means[:, :4] + 1.0, CFG)

    def test_inflate(self):
        bank = self.four_tracks()
        with pytest.raises(NumericalError, match="track 'c'"):
            inflate_process_noise(bank, list(bank.ids), CFG, 1.0)
