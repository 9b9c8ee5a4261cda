"""Sequential ridge state against direct-solve oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrap import InvalidDimensionError, InvalidInputError, RidgeState
from cbrap.estimator import _BLOCK_BYTES


def direct_solve(lam, zs, rewards):
    """Independent oracle: assemble and solve the normal equations densely."""
    m = zs[0].shape[0]
    A = lam * np.eye(m) + sum(np.outer(z, z) for z in zs)
    b = sum(r * z for z, r in zip(zs, rewards))
    return A, np.linalg.solve(A, b)


class TestInit:
    def test_identity_at_lam_one(self):
        s = RidgeState(3, 1.0)
        np.testing.assert_array_equal(s.A, np.eye(3))
        np.testing.assert_array_equal(s.b, np.zeros(3))
        assert s.t == 0

    def test_inverse_scales_with_lam(self):
        s = RidgeState(2, 4.0)
        np.testing.assert_array_equal(s.A_inv, 0.25 * np.eye(2))

    def test_fresh_estimate_is_zero(self):
        s = RidgeState(1, 1.0)
        np.testing.assert_array_equal(s.estimate(), [0.0])

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidDimensionError):
            RidgeState(0)
        for lam in (0.0, float("inf"), float("nan")):
            with pytest.raises(InvalidInputError, match="lam"):
                RidgeState(2, lam=lam)
        s = RidgeState(2)
        for z in ("ab", [1, [2]], [1 + 2j, 3]):
            with pytest.raises(InvalidInputError):
                s.update(z, 1.0)
            with pytest.raises(InvalidInputError):
                s.weighted_norm(z)
        assert s.t == 0

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, float("nan"), None, "abc",
                                     float("inf")])
    def test_rejects_non_count_sizes(self, bad):
        with pytest.raises(InvalidDimensionError, match="m must"):
            RidgeState(bad)
        with pytest.raises(InvalidInputError, match="refresh_every"):
            RidgeState(2, refresh_every=bad)
        if bad is None or isinstance(bad, str):
            with pytest.raises(InvalidInputError, match="lam"):
                RidgeState(2, lam=bad)


class TestUpdate:
    def test_zero_vector_only_advances_counter(self):
        s = RidgeState(3, 1.0)
        s.update(np.zeros(3), 5.0)
        np.testing.assert_array_equal(s.A, np.eye(3))
        np.testing.assert_array_equal(s.A_inv, np.eye(3))
        np.testing.assert_array_equal(s.b, np.zeros(3))
        assert s.t == 1

    def test_single_coordinate_update(self):
        s = RidgeState(2, 1.0)
        s.update(np.array([1.0, 0.0]), 0.5)
        np.testing.assert_array_equal(s.A, np.diag([2.0, 1.0]))
        np.testing.assert_array_equal(s.b, [0.5, 0.0])
        # hand-solved diag(2,1) theta = (0.5, 0)
        np.testing.assert_allclose(s.estimate(), [0.25, 0.0], rtol=1e-12)

    def test_dimension_mismatch(self):
        s = RidgeState(3, 1.0)
        with pytest.raises(InvalidDimensionError):
            s.update(np.zeros(4), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2j, 0j])
    def test_nonfinite_vector(self, bad):
        s = RidgeState(2, 1.0)
        with pytest.raises(InvalidInputError):
            s.update(np.array([1.0, bad]), 1.0)
        assert s.t == 0
        np.testing.assert_array_equal(s.A, np.eye(2))

    def test_nonfinite_reward(self):
        s = RidgeState(2, 1.0)
        with pytest.raises(InvalidInputError):
            s.update(np.ones(2), float("nan"))

    def test_finite_row_overflowing_the_denominator_leaves_the_state(self):
        # 1 + z'A^-1 z overflows for a finite z, and b + reward * z for a finite
        # z and reward; the update once left A_inv all NaN, or b infinite
        for z, reward, what in (([1e200, 1e200], 1.0, "z'A"), ([1e150, 5e149], 1e200, "b is not")):
            s = RidgeState(2, 1.0)
            s.update(np.array([0.5, 0.3]), 1.0)
            before = (s.A_inv.copy(), s.b.copy(), s.t, [z.copy() for z in s._queue])
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
                with pytest.raises(InvalidInputError, match=f"overflows the ridge update.*{what}"):
                    s.update(np.array(z), reward)
            after = (s.A_inv, s.b, s.t, s._queue)
            for a, b in zip(before[:2], after[:2]):
                np.testing.assert_array_equal(a, b)
                assert a.tobytes() == b.tobytes()
            assert after[2] == before[2] == 1
            assert [z.tobytes() for z in after[3]] == [z.tobytes() for z in before[3]]


class TestWeightedNorm:
    def test_fresh_state_unit_vector(self):
        s = RidgeState(3, 1.0)
        assert s.weighted_norm(np.array([1.0, 0, 0])) == 1.0

    def test_after_one_update(self):
        s = RidgeState(2, 1.0)
        s.update(np.array([1.0, 0.0]), 0.0)
        # A = diag(2, 1), so e1-weight is 1/sqrt(2)
        assert s.weighted_norm(np.array([1.0, 0.0])) == pytest.approx(
            0.7071067811865476, rel=1e-12)

    def test_zero_vector(self):
        s = RidgeState(2, 1.0)
        assert s.weighted_norm(np.zeros(2)) == 0.0

    def test_upper_bounded_by_l2_over_sqrt_lam(self):
        rng = np.random.default_rng(0)
        s = RidgeState(4, lam=2.5)
        for _ in range(60):
            z = rng.standard_normal(4)
            assert s.weighted_norm(z) <= np.linalg.norm(z) / math.sqrt(2.5) + 1e-12
            s.update(rng.standard_normal(4), rng.standard_normal())

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(1)
        s = RidgeState(5, 1.0)
        query = rng.standard_normal(5)
        prev = s.weighted_norm(query)
        for _ in range(50):
            s.update(rng.standard_normal(5), rng.standard_normal())
            cur = s.weighted_norm(query)
            assert cur <= prev + 1e-12
            prev = cur


class TestOracleEquivalence:
    @pytest.mark.parametrize("m", [2, 5])
    def test_hundred_random_updates(self, m):
        rng = np.random.default_rng(m)
        s = RidgeState(m, 1.0)
        zs, rs = [], []
        for _ in range(100):
            z, r = rng.standard_normal(m), rng.standard_normal()
            zs.append(z)
            rs.append(r)
            s.update(z, r)
        A, theta = direct_solve(1.0, zs, rs)
        np.testing.assert_allclose(s.estimate(), theta, rtol=1e-8)
        np.testing.assert_allclose(s.A_inv, np.linalg.inv(A), rtol=1e-8)
        q = rng.standard_normal(m)
        expected = math.sqrt(q @ np.linalg.solve(A, q))
        assert s.weighted_norm(q) == pytest.approx(expected, rel=1e-8)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        m, T = 4, 2000
        zeta = rng.standard_normal(m)
        s = RidgeState(m, 1.0)
        zs, rs = [], []
        for _ in range(T):
            z = rng.standard_normal(m)
            r = float(z @ zeta)
            zs.append(z)
            rs.append(r)
            s.update(z, r)
        _, theta = direct_solve(1.0, zs, rs)
        np.testing.assert_allclose(s.estimate(), theta, rtol=1e-8)
        # ridge bias is O(lam/T) with spanning directions
        assert np.linalg.norm(s.estimate() - zeta) <= 0.01 * np.linalg.norm(zeta)


class TestNumericalInvariants:
    def test_symmetry_preserved(self):
        rng = np.random.default_rng(4)
        s = RidgeState(6, 0.5)
        for _ in range(200):
            s.update(rng.standard_normal(6), rng.standard_normal())
            assert np.max(np.abs(s.A - s.A.T)) <= 1e-12
            assert np.max(np.abs(s.A_inv - s.A_inv.T)) <= 1e-12

    def test_eigenvalue_floor(self):
        rng = np.random.default_rng(5)
        lam = 0.7
        s = RidgeState(5, lam=lam)
        for _ in range(300):
            s.update(rng.standard_normal(5), rng.standard_normal())
        assert np.linalg.eigvalsh(s.A).min() >= lam - 1e-9

    def test_inverse_drift_bounded_every_round(self):
        rng = np.random.default_rng(6)
        s = RidgeState(5, 1.0)
        eye = np.eye(5)
        for _ in range(1000):
            s.update(rng.standard_normal(5), rng.standard_normal())
            assert np.max(np.abs(s.A @ s.A_inv - eye)) <= 1e-6

    def test_refresh_cadence_does_not_change_results(self):
        rng = np.random.default_rng(7)
        updates = [(rng.standard_normal(3), rng.standard_normal()) for _ in range(600)]
        frequent = RidgeState(3, lam=1.0, refresh_every=8)
        rare = RidgeState(3, lam=1.0, refresh_every=10**9)
        for z, r in updates:
            frequent.update(z, r)
            rare.update(z, r)
        np.testing.assert_allclose(frequent.estimate(), rare.estimate(), rtol=1e-9)
        np.testing.assert_allclose(frequent.A_inv, rare.A_inv, rtol=1e-9, atol=1e-12)


class WholeMatrixRidge:
    """Reference: the Sherman-Morrison step on whole matrices, one outer
    product per term, with A written at every update and re-inverted on a
    fixed period.  Counts its refreshes."""

    def __init__(self, m, lam, refresh_every):
        self.A = lam * np.eye(m)
        self.A_inv = (1.0 / lam) * np.eye(m)
        self.b = np.zeros(m)
        self.refresh_every = refresh_every
        self._since_refresh = 0
        self.periodic = 0

    def update(self, z, reward):
        u = self.A_inv @ z
        denom = 1.0 + float(z @ u)
        self.A += np.outer(z, z)
        self.b += reward * z
        self.A_inv -= np.outer(u, u) / denom
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_every:
            self.periodic += 1
            inv = np.linalg.inv(self.A)
            self.A_inv = (inv + inv.T) / 2.0
            self._since_refresh = 0


def stream(kind, m, T, seed):
    """Observations (z, reward): Gaussian, repeated, near-parallel, with
    norms spread over four decades, or one direction so spread."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(m)
    zs = {
        "gaussian": lambda: rng.standard_normal((T, m)),
        "repeated": lambda: np.tile(base, (T, 1)),
        "near-parallel": lambda: base + 1e-4 * rng.standard_normal((T, m)),
        "scaled": lambda: (rng.standard_normal((T, m))
                           * 10.0 ** rng.uniform(-2, 2, (T, 1))),
        "repeated-scaled": lambda: base * 10.0 ** rng.uniform(-2, 2, (T, 1)),
    }[kind]()
    return list(zip(zs, rng.standard_normal(T)))


class TestInPlaceUpdate:
    """The row-block update gives the whole-matrix step's bits."""

    # streams of 207 and 79 rows end with refresh_every - 1 = 15 rows queued
    @pytest.mark.parametrize("m,kind,lam", [
        (1, "gaussian", 1e-9), (1, "scaled", 1e-9), (20, "gaussian", 1e-9),
        (20, "scaled", 1e-3), (300, "near-parallel", 1e-3),
    ])
    def test_bitwise_equal_to_whole_matrix_step(self, m, kind, lam):
        step = _BLOCK_BYTES // (8 * m)
        assert m <= step or (m > 2 * step and m % step)  # 300: three blocks, the last short
        ref = WholeMatrixRidge(m, lam, refresh_every=16)
        s = RidgeState(m, lam, refresh_every=16)
        lazy = RidgeState(m, lam, refresh_every=16)  # A read only by its refreshes
        refresh, refreshes = s._refresh, []
        s._refresh = lambda: (refreshes.append(s.t), refresh())
        for z, r in stream(kind, m, 207 if m < 300 else 79, seed=m):
            ref.update(z, r)
            s.update(z, r)
            lazy.update(z, r)
            assert np.array_equal(s.A, ref.A)
            for state in (s, lazy):
                assert np.array_equal(state.A_inv, ref.A_inv)
                assert np.array_equal(state.b, ref.b)
        assert len(lazy._queue) == 15
        assert np.array_equal(lazy.A, ref.A)
        assert ref.periodic > 0
        assert len(refreshes) == ref.periodic

    def test_builds_no_matrix_sized_temporary(self):
        m = 1500  # an 18 MB inverse, updated in 21-row blocks of 0.25 MB
        zs = np.random.default_rng(0).standard_normal((10, m))
        tracemalloc.start()
        try:
            s = RidgeState(m, 1.0)
            for z in zs:
                s.update(z, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * m * m  # A_inv, and no A until it is read

    def test_refresh_symmetrizes_in_place(self):
        # the refresh's inverse is symmetric: each entry and its mirror are
        # the same (a + b) / 2.0 of the fresh inverse
        m = 300
        s = RidgeState(m, 1.0)
        for z in np.random.default_rng(1).standard_normal((40, m)):
            s.update(z, 1.0)
        inv = np.linalg.inv(s.A)
        s._refresh()
        assert s.A_inv.tobytes() == ((inv + inv.T) / 2.0).tobytes()
        assert (s.A_inv == s.A_inv.T).all()

    @pytest.mark.parametrize("kind", ["repeated-scaled", "near-parallel"])
    @pytest.mark.parametrize("lam", [1e-2, 1.0])
    def test_ill_conditioned_stress(self, kind, lam):
        """The maintained inverse's residual stays within a small multiple of
        a fresh symmetrized inverse's at the same state, even where
        cond(A) ~ 1e9 puts both above 1e-6."""
        m, eye = 20, np.eye(20)
        for seed in range(3):
            s = RidgeState(m, lam)
            for t, (z, r) in enumerate(stream(kind, m, 3000, seed), 1):
                s.update(z, r)
                if t % 97 == 0:
                    inv = np.linalg.inv(s.A)
                    fresh = np.max(np.abs(s.A @ ((inv + inv.T) / 2.0) - eye))
                    assert np.max(np.abs(s.A @ s.A_inv - eye)) <= 50 * fresh

    # m=181 is one 256 KiB block of rows, m=300 three, the last short
    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([1, 7, 181, 300]), lam=st.floats(1e-3, 10.0),
           kind=st.sampled_from(["gaussian", "near-parallel", "scaled"]),
           refresh_every=st.integers(1, 6), refreshes=st.integers(1, 2),
           extra=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_unchecked_step_is_the_update(self, m, lam, kind, refresh_every, refreshes,
                                          extra, seed):
        # the round loop's _absorb and the checked update: one implementation,
        # so the same bits across refreshes; the loop's rows are read-only
        # views of a table, a caller's may be a list
        assert (m <= _BLOCK_BYTES // (8 * m)) == (m < 300)
        checked = RidgeState(m, lam, refresh_every=refresh_every)
        loop = RidgeState(m, lam, refresh_every=refresh_every)
        obs = stream(kind, m, refresh_every * refreshes + extra, seed)
        table = np.array([z for z, _ in obs])
        table.setflags(write=False)
        for (z, r), row in zip(obs, table):
            checked.update(z.tolist(), r)
            loop._absorb(row, float(r))
            assert np.array_equal(loop.A_inv, checked.A_inv)
            assert np.array_equal(loop.b, checked.b)
            assert loop.t == checked.t
        assert loop.t == checked.t == refresh_every * refreshes + extra
        assert np.array_equal(loop.A, checked.A)

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 40), lam=st.floats(1e-2, 10.0),
           kind=st.sampled_from(["repeated", "near-parallel", "scaled"]),
           T=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_inverse_and_estimate_track_the_direct_solve(self, m, lam, kind, T, seed):
        s = RidgeState(m, lam)
        zs, rs = [], []
        for z, r in stream(kind, m, T, seed):
            s.update(z, r)
            zs.append(z)
            rs.append(r)
            assert np.max(np.abs(s.A @ s.A_inv - np.eye(m))) <= 1e-6
        _, theta = direct_solve(lam, zs, rs)
        np.testing.assert_allclose(s.estimate(), theta, rtol=1e-8,
                                   atol=1e-8 * np.abs(theta).max())
