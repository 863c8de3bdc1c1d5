import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import full_covariance, measurement_noise, process_noise, random_pd_block
from percsched.tracker import (
    BLOCK_COLUMNS,
    COLUMNS,
    MEAS_DIM,
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


def one(mean, blocks):
    """A one-track bank, track ``t``, holding the given (8,) mean and (3, 4)
    blocks."""
    track = oracles.TrackState(np.array(mean, dtype=float), np.array(blocks, dtype=float), "t")
    return oracles.bank_of([track])


def mean_at(bank, row=0):
    """A bank row's (8,) mean: its box, then its velocities."""
    return np.concatenate([bank.x[row], bank.v[row]])


def blocks_of(p_xx, p_xv, p_vv):
    """(3, 4) blocks with each entry the same in all four coordinates, or
    given per coordinate."""
    return np.array([np.broadcast_to(np.asarray(e, dtype=float), 4) for e in (p_xx, p_xv, p_vv)])


def blocks_at(bank, row=0):
    """A bank row's (3, 4) blocks: its ``p_xx``, ``p_xv`` and ``p_vv``,
    which all four coordinates share."""
    return blocks_of(bank.p_xx[row], bank.p_xv[row], bank.p_vv[row])


def columns_of(n):
    """Zero constructor columns for ``n`` tracks: ``x`` and ``v`` of shape
    ``(n, 4)``, the block columns of shape ``(n,)``."""
    return [np.zeros((n, MEAS_DIM))] * 2 + [np.zeros(n)] * len(BLOCK_COLUMNS)


IDENTITY = blocks_of(1.0, 0.0, 1.0)


def full(bank, row=0):
    """A bank row's covariance as the 8x8 matrix of its blocks."""
    return full_covariance(blocks_at(bank, row))


def measure(bank, z):
    """Update track ``t`` of a one-track bank against ``z``."""
    return update(bank, ["t"], np.array([z], dtype=float), CFG)


class TestInitTrack:
    def test_zero_velocity_init(self):
        t = start([100.0, 100.0, 50.0, 80.0])
        np.testing.assert_array_equal(mean_at(t), [100, 100, 50, 80, 0, 0, 0, 0])

    def test_covariance_diagonal_positive(self):
        p_xx, p_xv, p_vv = blocks_at(start([10.0, 10.0, 5.0, 8.0]))
        assert np.all(p_xx > 0) and np.all(p_vv > 0)
        assert np.count_nonzero(p_xv) == 0

    def test_deterministic(self):
        z = [1.0, 2.0, 3.0, 4.0]
        a, b = start(z), start(z)
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            start([1.0, 2.0, 0.0, 4.0])

    @pytest.mark.parametrize(
        "box", [[1.0, 2.0, math.nan, 5.0], [math.inf, 2.0, 3.0, 5.0], [1.0, -math.inf, 3.0, 5.0]],
        ids=["nan-width", "inf-centre", "minus-inf-centre"],
    )
    def test_rejects_a_non_finite_box_naming_its_track(self, box):
        boxes = np.array([[1.0, 2.0, 3.0, 4.0], box])
        with pytest.raises(ValueError, match="measurement of track 'u' must be finite"):
            init_track(TrackBank(), ["t", "u"], boxes, CFG)

    def test_new_rows_merge_in_id_order(self):
        bank = init_track(TrackBank(), ["m", "c"], np.array([[1.0, 1, 5, 5], [2.0, 2, 6, 6]]), CFG)
        bank = init_track(bank, ["x", "a"], np.array([[3.0, 3, 7, 7], [4.0, 4, 8, 8]]), CFG)
        assert bank.ids == ("a", "c", "m", "x")
        assert [row[0] for row in bank.x] == [4.0, 2.0, 1.0, 3.0]

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
        np.testing.assert_array_equal(out.x, t.x)
        np.testing.assert_array_equal(out.v, t.v)

    def test_one_constant_velocity_step(self):
        t = one([0.0, 0.0, 10.0, 10.0, 1.0, 2.0, 0.0, 0.0], IDENTITY)
        out = mean_at(predict(t, CFG))
        assert out[0] == 1.0 and out[1] == 2.0
        assert out[2] == 10.0 and out[3] == 10.0

    def test_determinant_grows_under_pd_noise(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = one([0, 0, 20, 20, 0, 0, 0, 0.0], random_pd_block(rng, ridge=2.0))
            out = predict(t, CFG)
            # determinants of the 8x8 covariances, independent of the filter code
            before = pure_python_det(full(t))
            after = pure_python_det(full(out))
            assert after >= before * (1 - 1e-12)

    def test_zero_velocity_flag_clears_motion(self):
        t = one([0.0, 0.0, 10.0, 10.0, 3.0, 4.0, 0.0, 0.0], IDENTITY)
        out = mean_at(predict(t, CFG, zero_velocity=True))
        assert out[0] == 0.0 and out[1] == 0.0
        assert np.all(out[4:] == 0.0)

    def test_non_pd_covariance_raises(self):
        t = one([0, 0, 10, 10, 0, 0, 0, 0.0], -IDENTITY)
        with pytest.raises(NumericalError):
            predict(t, CFG, q_scale=0.0)

    def test_symmetry_preserved_over_many_steps(self):
        # the blocks store p_xv once, so their 8x8 covariance is symmetric by
        # construction; F P F^T only adds, so predicts alone give the 8x8
        # filter's bits, and its covariance stays exactly symmetric too
        t = start([10.0, 10.0, 30.0, 40.0])
        ref = oracles.to_full(oracles.init_track(np.array([10.0, 10.0, 30.0, 40.0]), CFG))
        for _ in range(100):
            t = predict(t, CFG)
            ref = oracles.full_predict(ref, CFG)
            assert np.array_equal(full(t), ref.covariance)
            assert np.array_equal(ref.covariance, ref.covariance.T)

    def test_empty_bank_is_returned_as_is(self):
        empty = TrackBank()
        assert predict(empty, CFG) is empty


class TestUpdate:
    def test_zero_innovation_keeps_positions(self):
        t = predict(start([10.0, 20.0, 30.0, 40.0]), CFG)
        out = measure(t, t.x[0])
        np.testing.assert_allclose(out.x[0], t.x[0], rtol=1e-12)

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
        prior_ss = riccati_prior_fixed_point(f, h, q, r, full(start(z)))
        post_ss = prior_ss - prior_ss @ h.T @ np.linalg.inv(
            h @ prior_ss @ h.T + r
        ) @ h @ prior_ss
        filter_posterior = full(t)
        np.testing.assert_allclose(
            h @ filter_posterior @ h.T, h @ post_ss @ h.T, rtol=1e-6
        )

    def test_joseph_form_matches_standard(self):
        # the update's Joseph form against the standard (I - K H) P, here
        # where the latter is well conditioned
        z = np.array([10.0, 20.0, 30.0, 40.0])
        prior = predict(start(z), CFG)
        p = full(prior)
        h = np.zeros((4, 8))
        h[:, :4] = np.eye(4)
        k = p @ h.T @ np.linalg.inv(h @ p @ h.T + measurement_noise(prior.x[0][3], CFG))
        standard = (np.eye(8) - k @ h) @ p
        out = measure(prior, z + 1.0)
        np.testing.assert_allclose(full(out), standard, atol=1e-9)
        innovation = z + 1.0 - prior.x[0]
        np.testing.assert_allclose(mean_at(out), mean_at(prior) + k @ innovation, rtol=1e-12)

    def test_bad_measurement_shape(self):
        t = start([10.0, 20.0, 30.0, 40.0])
        with pytest.raises(ValueError):
            measure(t, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_measurement_naming_its_track(self, bad):
        bank = init_track(TrackBank(), ["a", "b"], np.array([[1.0, 1, 5, 5]] * 2), CFG)
        z = np.array([[1.0, 1, 5, 5], [2.0, 1, bad, 5]])
        with pytest.raises(ValueError, match="measurement of track 'b' must be finite"):
            update(bank, ["a", "b"], z, CFG)

    def test_repeated_or_unknown_id_rejected(self):
        bank = start([10.0, 20.0, 30.0, 40.0])
        with pytest.raises(ValueError, match="'t' is named twice"):
            update(bank, ["t", "t"], np.ones((2, 4)), CFG)
        with pytest.raises(ValueError, match="'u' is not in the bank"):
            update(bank, ["u"], np.ones((1, 4)), CFG)

    def test_only_the_named_rows_change(self):
        bank = init_track(TrackBank(), ["a", "b", "c"], np.array([[1.0, 1, 5, 5]] * 3), CFG)
        out = update(bank, ["b"], np.array([[3.0, 1, 5, 5]]), CFG)
        for name in COLUMNS:
            column, before = getattr(out, name), getattr(bank, name)
            assert (column[0], column[2]) == (before[0], before[2])
        assert out.x[1][0] > 1.0


class TestMeasurementCovariance:
    def test_block_extraction(self):
        mean = np.array([0, 0, 10, 10, 0, 0, 0, 0.0])
        bank = oracles.bank_of([
            oracles.TrackState(mean, blocks_of(p_xx, 0.5, 9.0), tid)
            for tid, p_xx in (("a", 1.0), ("b", 2.0), ("c", 3.0))
        ])
        np.testing.assert_array_equal(
            measurement_covariance(bank), [np.diag([p] * 4) for p in (1.0, 2.0, 3.0)]
        )

    def test_symmetric_and_pd(self):
        rng = np.random.default_rng(7)
        t = one([0, 0, 10, 10, 0, 0, 0, 0.0], random_pd_block(rng))
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
        for name in ("p_xx", "p_xv", "p_vv"):
            np.testing.assert_allclose(getattr(topped_up, name), getattr(full, name), rtol=1e-12)


class TestTrackBank:
    def test_rows_must_be_sorted_unique_and_shaped(self):
        with pytest.raises(ValueError, match="sorted"):
            TrackBank(("b", "a"), *columns_of(2))
        with pytest.raises(ValueError, match="sorted"):
            TrackBank(("a", "a"), *columns_of(2))
        with pytest.raises(ValueError, match=r"x must have shape \(1, 4\), got \(2, 4\)"):
            TrackBank(("a",), np.zeros((2, 4)), *columns_of(1)[1:])
        for bad, shape in zip(range(1, 5), (r"\(1, 4\)", r"\(1,\)", r"\(1,\)", r"\(1,\)")):
            columns = columns_of(1)
            columns[bad] = np.zeros((1, 8))
            with pytest.raises(ValueError, match=rf"{COLUMNS[bad]} must have shape {shape}"):
                TrackBank(("a",), *columns)

    @pytest.mark.parametrize("name", BLOCK_COLUMNS)
    def test_a_block_column_per_coordinate_is_rejected(self, name):
        # the four coordinates share one block, so a block column with an
        # entry per coordinate, (n, 4), is a layout the bank does not hold
        columns = columns_of(2)
        columns[COLUMNS.index(name)] = np.ones((2, MEAS_DIM))
        with pytest.raises(ValueError, match=rf"{name} must have shape \(2,\), got \(2, 4\)"):
            TrackBank(("a", "b"), *columns)

    def test_columns_stay_tuples_of_python_floats(self):
        # the tracker's speed rests on every column being a tuple with one
        # entry per track, a tuple of four Python floats for x and v and a
        # Python float for each block entry, whichever operation made the
        # bank: a numpy scalar keeps the bits but slows each later operation
        def assert_layout(bank):
            for name in COLUMNS:
                column = getattr(bank, name)
                assert type(column) is tuple and len(column) == len(bank), name
                if name in BLOCK_COLUMNS:
                    assert all(type(value) is float for value in column), name
                    continue
                for row in column:
                    assert type(row) is tuple and len(row) == 4, name
                    assert all(type(value) is float for value in row), name

        boxes = np.array([[1.0, 1, 5, 5], [2.0, 2, 6, 6], [3.0, 3, 7, 7]])
        bank = init_track(TrackBank(), ["c", "a", "b"], np.asfortranarray(boxes), CFG)
        assert_layout(bank)
        bank = predict(bank, CFG, q_scale=np.array([0.5, 1.0, 2.0]),
                       zero_velocity=np.array([True, False, False]))
        assert_layout(bank)
        bank = predict(bank, CFG, q_scale=[np.float64(0.5), 1, 2.0], zero_velocity=[1, 0, 0])
        assert_layout(bank)
        # every row in row order, then a subset out of order
        bank = update(bank, list(bank.ids), np.array(bank.x) + 1.0, CFG)
        assert_layout(bank)
        bank = update(bank, ["c", "a"], np.array(bank.x)[[2, 0]] - 1.0, CFG)
        assert_layout(bank)
        assert_layout(inflate_process_noise(bank, list(bank.ids), CFG, 3.0))
        bank = inflate_process_noise(bank, ["b"], CFG, np.float64(3.0))
        assert_layout(bank)
        assert_layout(bank.without(["b"]))
        assert_layout(TrackBank(("a",), *[np.float32([[1, 2, 3, 4]])] * 2, *[np.float32([1])] * 3))

    def test_without_drops_rows_and_ignores_strangers(self):
        bank = init_track(TrackBank(), ["a", "b", "c"], np.array([[1.0, 1, 5, 5]] * 3), CFG)
        out = bank.without(["b", "zz"])
        assert out.ids == ("a", "c") and "b" not in out and "a" in out
        for name in COLUMNS:
            column = getattr(bank, name)
            assert getattr(out, name) == (column[0], column[2])
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
                height = max(t.x[0][3], 1.0)
                t = measure(t, t.x[0] + height * np.array(arg))
            else:
                t = inflate_process_noise(t, ["t"], CFG, arg)
            cov = full(t)
            assert np.array_equal(cov, cov.T)
            assert np.all(np.isfinite(cov))
            assert np.linalg.eigvalsh(cov).min() > 0.0


# one random step of the one-track oracle: predict at any noise scale, update
# against any finite box, or top up process noise
FINITE = st.floats(-1e6, 1e6)
ORACLE_STEPS = st.one_of(
    st.tuples(st.just("predict"), st.tuples(st.floats(0.0, 100.0), st.booleans())),
    st.tuples(st.just("update"), st.tuples(FINITE, FINITE, FINITE, FINITE)),
    st.tuples(st.just("inflate"), st.floats(0.0, 100.0)),
)


class TestCoordinateBlocksStayEqual:
    """Q, R and the initial covariance weight all four box coordinates by the
    same height, so the four coordinates' blocks get the same IEEE operations
    on the same inputs from ``init_track`` on. The bank stores one block per
    track on the strength of this: the four columns of the oracle's (3, 4)
    blocks stay bitwise equal, signed zeros included."""

    @settings(max_examples=200)
    @given(
        box=st.tuples(FINITE, FINITE, st.floats(1e-3, 1e4), st.floats(1e-3, 1e4)),
        steps=st.lists(ORACLE_STEPS, min_size=1, max_size=60),
    )
    def test_four_columns_stay_bitwise_equal(self, box, steps):
        t = oracles.init_track(np.array(box), CFG, "t")
        for op, arg in steps:
            if op == "predict":
                t = oracles.predict(t, CFG, q_scale=arg[0], zero_velocity=arg[1])
            elif op == "update":
                t = oracles.update(t, np.array(arg), CFG)
            else:
                t = oracles.inflate_process_noise(t, CFG, arg)
            for entry in t.blocks.tolist():
                assert all(e == entry[0] and repr(e) == repr(entry[0]) for e in entry), entry


@st.composite
def banks(draw):
    """1-7 tracks, ids in shuffled order, each with one random
    positive-definite 2x2 block shared by its four coordinates (the form
    every reachable covariance has) and a per-row process-noise scale and zero-velocity flag."""
    count = draw(st.integers(min_value=1, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    tracks, q_scales, still = [], [], []
    for i in rng.permutation(count).tolist():
        height = draw(st.floats(min_value=0.5, max_value=400.0))
        mean = np.concatenate([
            rng.uniform(0.0, 640.0, size=2), [rng.uniform(1.0, 300.0), height],
            rng.normal(0.0, 5.0, size=4),
        ])
        blocks = random_pd_block(
            rng,
            scale=draw(st.floats(min_value=1e-2, max_value=50.0)),
            ridge=draw(st.floats(min_value=1e-3, max_value=10.0)),
        )
        tracks.append(oracles.TrackState(mean=mean, blocks=blocks, entity_id=f"t{i}"))
        q_scales.append(draw(st.sampled_from([0.02, 60.0]) | st.floats(0.0, 100.0)))
        still.append(draw(st.booleans()))
    return tracks, q_scales, still


def assert_rows_equal(bank, tracks):
    """Every bank row equals its oracle track exactly, in id order."""
    expected = sorted(tracks, key=lambda t: t.entity_id)
    assert bank.ids == tuple(t.entity_id for t in expected)
    for row, track in enumerate(expected):
        assert np.array_equal(mean_at(bank, row), track.mean)
        assert np.array_equal(blocks_at(bank, row), track.blocks)


class TestBankEqualsOneTrackOracle:
    """Each bank operation gives, row for row, exactly what the one-track
    two-state filters in ``tests/oracles.py`` give. Run logs store floats derived from
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


class TestDerivedBanksPassTheFullCheck:
    """predict, update and inflate_process_noise build their banks without
    checking the ids and shapes again; each must still pass every check a
    caller's ``TrackBank(...)`` makes."""

    @settings(max_examples=50)
    @given(drawn=banks(), steps=st.lists(
        st.tuples(st.sampled_from(["predict", "update", "inflate"]),
                  st.lists(st.booleans(), min_size=7, max_size=7),
                  st.floats(-3.0, 3.0)),
        min_size=1, max_size=6,
    ))
    def test_every_returned_bank_passes(self, drawn, steps):
        tracks, q_scales, still = drawn
        bank = oracles.bank_of(tracks)
        for op, picks, offset in steps:
            chosen = [tid for tid, pick in zip(bank.ids, picks) if pick]
            if op == "predict":
                n = len(bank)
                bank = predict(bank, CFG, q_scale=np.array(q_scales[:n]),
                               zero_velocity=np.array(still[:n]))
            elif op == "update":
                rows = [bank.ids.index(tid) for tid in chosen]
                bank = update(bank, chosen, np.array(bank.x)[rows] + offset, CFG)
            else:
                bank = inflate_process_noise(bank, chosen, CFG, abs(offset))
            checked = TrackBank(bank.ids, *(getattr(bank, name) for name in COLUMNS))
            assert checked.ids == bank.ids
            for name in COLUMNS:
                assert getattr(checked, name) == getattr(bank, name)

    def test_predict_rejects_a_velocity_flag_per_wrong_row_count(self):
        bank = init_track(TrackBank(), ["a"], np.array([[1.0, 1, 5, 5]]), CFG)
        with pytest.raises(ValueError, match=r"zero_velocity .* got shape \(3,\)"):
            predict(bank, CFG, zero_velocity=np.array([True, False, True]))

    @pytest.mark.parametrize("q_scale", [[1.0, 2.0], np.ones((3, 1))], ids=["two-values", "3x1"])
    def test_predict_rejects_a_noise_scale_per_wrong_row_count(self, q_scale):
        bank = init_track(TrackBank(), list("abc"), np.array([[1.0, 1, 5, 5]] * 3), CFG)
        shape = re.escape(str(np.shape(q_scale)))
        with pytest.raises(ValueError, match=rf"q_scale must be one value or one per row, got shape {shape}"):
            predict(bank, CFG, q_scale=q_scale)


# a block with a NaN or an infinite entry, put in track 'c' of four
NON_FINITE_BLOCK = {
    "nan-p_xv": blocks_of(1.0, math.nan, 1.0),
    "nan-p_xx": blocks_of(math.nan, 0.0, 1.0),
    "inf-p_xx": blocks_of(math.inf, 0.0, 1.0),
    "inf-p_vv": blocks_of(1.0, 0.0, math.inf),
}
# the same entries in one coordinate's block, for the one-track oracle,
# which checks each coordinate
NON_FINITE_BLOCKS = {
    "nan-p_xv": blocks_of(1.0, [0.0, math.nan, 0.0, 0.0], 1.0),
    "nan-p_xx": blocks_of([1.0, 1.0, 1.0, math.nan], 0.0, 1.0),
    "inf-p_xx": blocks_of([math.inf, 1.0, 1.0, 1.0], 0.0, 1.0),
    "inf-p_vv": blocks_of(1.0, 0.0, [1.0, 1.0, math.inf, 1.0]),
}


class TestBadCovarianceNamesItsTrack:
    """One pivot test checks a whole phase; a failure still names the first
    track whose covariance is not positive definite."""

    @staticmethod
    def four_tracks(bad=-100.0 * IDENTITY, bad_height=10.0):
        mean = np.array([10.0, 10.0, 10.0, 10.0, 0.0, 0.0, 0.0, 0.0])
        bad_mean = mean.copy()
        bad_mean[3] = bad_height
        return oracles.bank_of([
            oracles.TrackState(bad_mean, bad, tid) if tid == "c"
            else oracles.TrackState(mean, IDENTITY, tid)
            for tid in "abcd"
        ])

    def test_predict(self):
        with pytest.raises(NumericalError, match="track 'c'"):
            predict(self.four_tracks(), CFG)

    def test_update(self):
        bank = self.four_tracks()
        with pytest.raises(NumericalError, match="track 'c'"):
            update(bank, list(bank.ids), np.array(bank.x) + 1.0, CFG)

    def test_inflate(self):
        bank = self.four_tracks()
        with pytest.raises(NumericalError, match="track 'c'"):
            inflate_process_noise(bank, list(bank.ids), CFG, 1.0)

    @pytest.mark.parametrize("op", ["predict", "update", "inflate"])
    @pytest.mark.parametrize("bad", sorted(NON_FINITE_BLOCK))
    def test_nan_and_inf_blocks_are_named(self, op, bad):
        # Python float arithmetic takes an invalid operation on the way
        # (inf - inf) to a NaN without a warning
        bank = self.four_tracks(NON_FINITE_BLOCK[bad])
        ids = list(bank.ids)
        with pytest.raises(NumericalError, match="track 'c'"):
            if op == "predict":
                predict(bank, CFG)
            elif op == "update":
                update(bank, ids, np.array(bank.x) + 1.0, CFG)
            else:
                inflate_process_noise(bank, ids, CFG, 1.0)

    @pytest.mark.parametrize("op", ["predict", "update", "inflate"])
    def test_nan_height_is_named(self, op):
        # the noise floor max(h, 1.0) keeps a NaN height, as np.maximum
        # does, so the noise it scales makes the new blocks NaN
        bank = self.four_tracks(IDENTITY, bad_height=math.nan)
        ids = list(bank.ids)
        z = np.nan_to_num(np.array(bank.x)) + 1.0
        with pytest.raises(NumericalError, match="track 'c'"):
            if op == "predict":
                predict(bank, CFG)
            elif op == "update":
                update(bank, ids, z, CFG)
            else:
                inflate_process_noise(bank, ids, CFG, 1.0)

    @pytest.mark.parametrize("op", ["predict", "update", "inflate"])
    def test_zero_position_variance_is_named_without_a_warning(self, op):
        # a position weight whose square underflows adds no position noise,
        # so track 'c' keeps p_xx = 0; the pivot test must not divide by it
        # (pytest turns numpy's divide warning into an error). The config
        # refuses such a weight, so it is set past the check, as a bank
        # built by hand may still hold such a block
        cfg = oracles.unchecked(KalmanConfig, std_weight_position=1e-300)
        bank = self.four_tracks(np.zeros((3, 4)))
        ids = list(bank.ids)
        with pytest.raises(NumericalError, match="track 'c'"):
            if op == "predict":
                predict(bank, cfg)
            elif op == "update":
                update(bank, ids, np.array(bank.x) + 1.0, cfg)
            else:
                inflate_process_noise(bank, ids, cfg, 1.0)

    def test_zero_innovation_variance_is_named_without_a_division_error(self):
        # with p_xx = 0 and a measurement weight whose square underflows,
        # S = p_xx + r is 0: IEEE division would give a NaN gain, Python's
        # raises ZeroDivisionError, and the update must do neither
        # (the other tracks are 1e200 px tall, so that their r stays positive;
        # the config refuses the weight, so it is set past the check)
        cfg = oracles.unchecked(KalmanConfig, std_weight_measurement=1e-300)
        tall = np.array([10.0, 10.0, 10.0, 1e200, 0.0, 0.0, 0.0, 0.0])
        short = np.array([10.0, 10.0, 10.0, 10.0, 0.0, 0.0, 0.0, 0.0])
        bank = oracles.bank_of([
            oracles.TrackState(short, np.zeros((3, 4)), tid) if tid == "c"
            else oracles.TrackState(tall, IDENTITY, tid)
            for tid in "abcd"
        ])
        with pytest.raises(NumericalError, match="track 'c'"):
            update(bank, list(bank.ids), np.array(bank.x) + 1.0, cfg)

    @pytest.mark.parametrize(
        "p_xx, p_xv", [(5e-324, 1.0), (0.0, math.inf)], ids=["ratio-overflows", "inf-times-zero"]
    )
    def test_pivot_test_names_its_track_without_a_warning(self, p_xx, p_xv):
        # a top-up whose position noise underflows leaves p_xx and p_xv as
        # they were: p_xv / p_xx overflows in the first case, and the second
        # fails at p_xx = 0 before its infinite p_xv meets a ratio (pytest
        # turns a RuntimeWarning into an error; the config refuses the
        # weight, so it is set past the check)
        cfg = oracles.unchecked(KalmanConfig, std_weight_position=1e-300)
        bank = self.four_tracks(blocks_of(p_xx, p_xv, 1.0))
        with pytest.raises(NumericalError, match="track 'c'"):
            inflate_process_noise(bank, list(bank.ids), cfg, 1.0)

    @pytest.mark.parametrize("bad", sorted(NON_FINITE_BLOCKS))
    def test_oracle_names_nan_and_inf_blocks(self, bad):
        mean = np.array([10.0, 10.0, 10.0, 10.0, 0.0, 0.0, 0.0, 0.0])
        track = oracles.TrackState(mean=mean, blocks=NON_FINITE_BLOCKS[bad], entity_id="c")
        with pytest.raises(NumericalError, match="track 'c'"):
            oracles.predict(track, CFG)


# how far the two-state filters and the 8x8 filter may drift apart, relative
# to each entry's covariance scale (and, for the gain, to max(1, |gain|)).
# The 8x8 filter's LU-solved gain, BLAS summation order and fused
# multiply-adds round differently, and an update that shrinks a covariance
# by orders of magnitude shows the prior's rounding relative to the
# posterior: over 300 runs of 150 of these steps the largest drift seen was
# 3e-9 (a velocity mean), 1.3e-9 (a covariance entry) and 7.6e-10 (a gain).
FULL_FILTER_RTOL = 1e-7


class TestTwoStateFiltersAgreeWithTheFullFilter:
    """Started from the same box and run through the same steps, the
    one-track two-state filters and the textbook 8x8 filter hold the same
    means, covariances and detection gain to within ``FULL_FILTER_RTOL``;
    the 8x8 covariance keeps exact zeros outside the block pattern."""

    @pytest.mark.parametrize("q_scale", [0.02, 60.0])
    @settings(max_examples=25)
    @given(
        box=st.tuples(st.floats(0.0, 640.0), st.floats(0.0, 480.0),
                      st.floats(1.0, 300.0), st.floats(1.0, 300.0)),
        steps=st.lists(STEPS, min_size=1, max_size=120),
    )
    def test_states_and_gains_agree(self, q_scale, box, steps):
        t = oracles.init_track(np.array(box), CFG, "t")
        ref = oracles.to_full(t)
        pattern = full_covariance(np.ones((3, 4))) != 0.0
        for op, arg in steps:
            if op == "predict":
                t = oracles.predict(t, CFG, q_scale=q_scale, zero_velocity=arg)
                ref = oracles.full_predict(ref, CFG, q_scale=q_scale, zero_velocity=arg)
            elif op == "update":
                z = t.mean[:4] + max(float(t.mean[3]), 1.0) * np.array(arg)
                t = oracles.update(t, z, CFG)
                ref = oracles.full_update(ref, z, CFG)
            else:
                t = oracles.inflate_process_noise(t, CFG, arg)
                ref = oracles.full_inflate_process_noise(ref, CFG, arg)
            cov = ref.covariance
            assert np.all(cov[~pattern] == 0.0)
            sd = np.sqrt(np.diag(cov))
            drift = np.abs(full_covariance(t.blocks) - cov) / np.outer(sd, sd)
            assert drift.max() <= FULL_FILTER_RTOL
            mean_drift = np.abs(t.mean - ref.mean) / (np.abs(ref.mean) + sd)
            assert mean_drift.max() <= FULL_FILTER_RTOL
            gain = oracles.per_track_detection_info_gain([(t, 1.0)], CFG)
            full_gain = oracles.full_detection_info_gain(ref, CFG)
            assert abs(gain - full_gain) <= FULL_FILTER_RTOL * max(1.0, abs(full_gain))
