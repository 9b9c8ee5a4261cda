"""Sequential ridge state against direct-solve oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrap import InvalidDimensionError, InvalidInputError, RidgeState
from cbrap.estimator import _BLOCK_BYTES, DRIFT_TOL


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
    product per term, with the drift probe as a second pass.  Counts its
    periodic and drift-triggered refreshes."""

    def __init__(self, m, lam, refresh_every):
        self.A = lam * np.eye(m)
        self.A_inv = (1.0 / lam) * np.eye(m)
        self.b = np.zeros(m)
        self.refresh_every = refresh_every
        self._since_refresh = 0
        self.periodic = self.drift = 0

    def update(self, z, reward):
        u = self.A_inv @ z
        denom = 1.0 + float(z @ u)
        self.A += np.outer(z, z)
        self.b += reward * z
        self.A_inv -= np.outer(u, u) / denom
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_every:
            self.periodic += 1
            self._refresh()
        elif self._drift(z) > DRIFT_TOL:
            self.drift += 1
            self._refresh()

    def _drift(self, z):
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        zh = z / nz
        return float(np.max(np.abs(self.A_inv @ (self.A @ zh) - zh)))

    def _refresh(self):
        inv = np.linalg.inv(self.A)
        self.A_inv = (inv + inv.T) / 2.0
        self._since_refresh = 0


def stream(kind, m, T, seed):
    """Observations (z, reward): Gaussian, repeated, near-parallel, or with
    norms spread over four decades."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(m)
    zs = {
        "gaussian": lambda: rng.standard_normal((T, m)),
        "repeated": lambda: np.tile(base, (T, 1)),
        "near-parallel": lambda: base + 1e-4 * rng.standard_normal((T, m)),
        "scaled": lambda: (rng.standard_normal((T, m))
                           * 10.0 ** rng.uniform(-2, 2, (T, 1))),
    }[kind]()
    return list(zip(zs, rng.standard_normal(T)))


class TestInPlaceUpdate:
    """The row-block update gives the whole-matrix step's bits."""

    # each stream hits both periodic and drift-triggered refreshes
    @pytest.mark.parametrize("m,kind,lam", [
        (1, "gaussian", 1e-9), (1, "scaled", 1e-9), (20, "gaussian", 1e-9),
        (20, "scaled", 1e-3), (300, "near-parallel", 1e-3),
    ])
    def test_bitwise_equal_to_whole_matrix_step(self, m, kind, lam):
        step = _BLOCK_BYTES // (8 * m)
        assert m <= step or (m > 2 * step and m % step)  # 300: three blocks, the last short
        ref = WholeMatrixRidge(m, lam, refresh_every=16)
        s = RidgeState(m, lam, refresh_every=16)
        refresh, refreshes = s._refresh, []
        s._refresh = lambda: (refreshes.append(s.t), refresh())
        for z, r in stream(kind, m, 200 if m < 300 else 80, seed=m):
            ref.update(z, r)
            s.update(z, r)
            assert np.array_equal(s.A, ref.A)
            assert np.array_equal(s.A_inv, ref.A_inv)
            assert np.array_equal(s.b, ref.b)
        assert ref.periodic > 0 and ref.drift > 0
        assert len(refreshes) == ref.periodic + ref.drift

    def test_builds_no_matrix_sized_temporary(self):
        m = 600  # a 2.9 MB state matrix, updated in 54-row blocks of 0.26 MB
        s = RidgeState(m, 1.0)
        z = np.random.default_rng(0).standard_normal(m)
        s.update(z, 1.0)
        tracemalloc.start()
        try:
            s.update(z, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m / 2

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
