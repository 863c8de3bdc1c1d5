import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percsched.tracker import (
    KalmanConfig,
    NumericalError,
    TrackState,
    inflate_process_noise,
    init_track,
    measurement_covariance,
    measurement_noise,
    predict,
    process_noise,
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


class TestInitTrack:
    def test_zero_velocity_init(self):
        t = init_track(np.array([100.0, 100.0, 50.0, 80.0]), CFG)
        np.testing.assert_array_equal(t.mean, [100, 100, 50, 80, 0, 0, 0, 0])

    def test_covariance_diagonal_positive(self):
        t = init_track(np.array([10.0, 10.0, 5.0, 8.0]), CFG)
        assert np.all(np.diag(t.covariance) > 0)
        assert np.count_nonzero(t.covariance - np.diag(np.diag(t.covariance))) == 0

    def test_deterministic(self):
        z = np.array([1.0, 2.0, 3.0, 4.0])
        a, b = init_track(z, CFG), init_track(z, CFG)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.covariance, b.covariance)

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            init_track(np.array([1.0, 2.0, 0.0, 4.0]), CFG)


class TestPredict:
    def test_zero_velocity_zero_noise_fixed_point(self):
        t = init_track(np.array([50.0, 60.0, 20.0, 30.0]), CFG)
        out = predict(t, CFG, q_scale=0.0)
        np.testing.assert_array_equal(out.mean, t.mean)

    def test_one_constant_velocity_step(self):
        t = TrackState(
            mean=np.array([0.0, 0.0, 10.0, 10.0, 1.0, 2.0, 0.0, 0.0]),
            covariance=np.eye(8),
        )
        out = predict(t, CFG)
        assert out.mean[0] == 1.0 and out.mean[1] == 2.0
        assert out.mean[2] == 10.0 and out.mean[3] == 10.0

    def test_determinant_grows_under_pd_noise(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(8, 8))
            cov = a @ a.T + 8 * np.eye(8)
            t = TrackState(mean=np.array([0, 0, 20, 20, 0, 0, 0, 0.0]), covariance=cov)
            out = predict(t, CFG)
            # determinants computed independently of the filter code
            before = pure_python_det(t.covariance)
            after = pure_python_det(out.covariance)
            assert after >= before * (1 - 1e-12)

    def test_zero_velocity_flag_clears_motion(self):
        t = TrackState(
            mean=np.array([0.0, 0.0, 10.0, 10.0, 3.0, 4.0, 0.0, 0.0]),
            covariance=np.eye(8),
        )
        out = predict(t, CFG, zero_velocity=True)
        assert out.mean[0] == 0.0 and out.mean[1] == 0.0
        assert np.all(out.mean[4:] == 0.0)

    def test_non_pd_covariance_raises(self):
        t = TrackState(
            mean=np.array([0, 0, 10, 10, 0, 0, 0, 0.0]),
            covariance=-np.eye(8),
        )
        with pytest.raises(NumericalError):
            predict(t, CFG, q_scale=0.0)

    def test_symmetry_preserved_over_many_steps(self):
        t = init_track(np.array([10.0, 10.0, 30.0, 40.0]), CFG)
        for _ in range(100):
            t = predict(t, CFG)
            assert np.max(np.abs(t.covariance - t.covariance.T)) < 1e-9


class TestUpdate:
    def test_zero_innovation_keeps_positions(self):
        t = init_track(np.array([10.0, 20.0, 30.0, 40.0]), CFG)
        t = predict(t, CFG)
        out = update(t, t.mean[:4].copy(), CFG)
        np.testing.assert_allclose(out.mean[:4], t.mean[:4], rtol=1e-12)

    def test_posterior_below_prior_in_loewner_order(self):
        # brute-force eigendecomposition of the projected difference
        rng = np.random.default_rng(6)
        for _ in range(20):
            t = init_track(np.array([10.0, 20.0, 30.0, 40.0]), CFG)
            for _ in range(int(rng.integers(1, 10))):
                t = predict(t, CFG)
            prior_proj = measurement_covariance(t)
            posterior = update(t, np.array([12.0, 19.0, 31.0, 39.0]), CFG)
            post_proj = measurement_covariance(posterior)
            eigs = np.linalg.eigvalsh(prior_proj - post_proj)
            assert np.all(eigs >= -1e-9)

    def test_converges_to_riccati_steady_state(self):
        z = np.array([10.0, 20.0, 30.0, 40.0])
        t = init_track(z, CFG)
        for _ in range(100):
            t = predict(t, CFG)
            t = update(t, z, CFG)
        # independent fixed-point iteration of the same (F, H, Q, R) system
        f = np.eye(8)
        f[:4, 4:] = np.eye(4)
        h = np.zeros((4, 8))
        h[:, :4] = np.eye(4)
        q = process_noise(z[3], CFG)
        r = measurement_noise(z[3], CFG)
        prior_ss = riccati_prior_fixed_point(f, h, q, r, init_track(z, CFG).covariance)
        post_ss = prior_ss - prior_ss @ h.T @ np.linalg.inv(
            h @ prior_ss @ h.T + r
        ) @ h @ prior_ss
        filter_posterior = t.covariance
        np.testing.assert_allclose(
            h @ filter_posterior @ h.T, h @ post_ss @ h.T, rtol=1e-6
        )

    def test_joseph_form_matches_standard(self):
        joseph_cfg = KalmanConfig(joseph_update=True)
        z = np.array([10.0, 20.0, 30.0, 40.0])
        a = update(predict(init_track(z, CFG), CFG), z + 1.0, CFG)
        b = update(predict(init_track(z, joseph_cfg), joseph_cfg), z + 1.0, joseph_cfg)
        np.testing.assert_allclose(a.covariance, b.covariance, atol=1e-9)
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12)

    def test_bad_measurement_shape(self):
        t = init_track(np.array([10.0, 20.0, 30.0, 40.0]), CFG)
        with pytest.raises(ValueError):
            update(t, np.array([1.0, 2.0]), CFG)


class TestMeasurementCovariance:
    def test_block_extraction(self):
        cov = np.diag(np.arange(1.0, 9.0))
        t = TrackState(mean=np.array([0, 0, 10, 10, 0, 0, 0, 0.0]), covariance=cov)
        np.testing.assert_array_equal(measurement_covariance(t), np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_symmetric_and_pd(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8))
        cov = a @ a.T + 8 * np.eye(8)
        t = TrackState(mean=np.array([0, 0, 10, 10, 0, 0, 0, 0.0]), covariance=cov)
        proj = measurement_covariance(t)
        np.testing.assert_allclose(proj, proj.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(proj) > 0)


class TestMotionScaling:
    def test_projected_determinant_strictly_increases_without_updates(self):
        t = init_track(np.array([10.0, 20.0, 30.0, 40.0]), CFG)
        last = np.linalg.det(measurement_covariance(t))
        for _ in range(50):
            t = predict(t, CFG)
            det = np.linalg.det(measurement_covariance(t))
            assert det > last
            last = det

    def test_inflation_matches_full_scale_predict(self):
        t = init_track(np.array([10.0, 20.0, 30.0, 40.0]), CFG)
        low = predict(t, CFG, q_scale=0.1)
        topped_up = inflate_process_noise(low, CFG, 60.0 - 0.1)
        full = predict(t, CFG, q_scale=60.0)
        np.testing.assert_allclose(topped_up.covariance, full.covariance, rtol=1e-12)


# one random filter step: predict (optionally zeroing velocity), update
# against a measurement offset from the predicted box by box-height units,
# or top up process noise as the engine does for a track found to be moving
STEPS = st.one_of(
    st.tuples(st.just("predict"), st.booleans()),
    st.tuples(st.just("update"), st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)),
    st.tuples(st.just("inflate"), st.floats(0.0, 60.0)),
)


class TestCovarianceProperties:
    @pytest.mark.parametrize("joseph", [False, True])
    @pytest.mark.parametrize("q_scale", [0.02, 60.0])
    @settings(max_examples=10)
    @given(
        box=st.tuples(st.floats(0.0, 640.0), st.floats(0.0, 480.0),
                      st.floats(1.0, 300.0), st.floats(1.0, 300.0)),
        steps=st.lists(STEPS, min_size=100, max_size=200),
    )
    def test_symmetric_and_positive_definite_through_long_runs(self, q_scale, joseph, box, steps):
        cfg = KalmanConfig(joseph_update=joseph)
        t = init_track(np.array(box), cfg)
        for op, arg in steps:
            if op == "predict":
                t = predict(t, cfg, q_scale=q_scale, zero_velocity=arg)
            elif op == "update":
                height = max(float(t.mean[3]), 1.0)
                t = update(t, t.mean[:4] + height * np.array(arg), cfg)
            else:
                t = inflate_process_noise(t, cfg, arg)
            assert np.array_equal(t.covariance, t.covariance.T)
            assert np.all(np.isfinite(t.covariance))
            assert np.linalg.eigvalsh(t.covariance).min() > 0.0
