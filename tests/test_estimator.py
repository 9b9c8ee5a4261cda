"""Sequential ridge state against direct-solve oracles."""

import math

import numpy as np
import pytest

from cbrap import (ContextVector, InvalidDimensionError, InvalidInputError,
                   RidgeState)


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
        with pytest.raises(InvalidInputError):
            RidgeState(2, lam=0.0)


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

    def test_accepts_context_vector(self):
        s = RidgeState(4, 1.0)
        s.update(ContextVector.sparse(4, [1], [2.0]), 1.0)
        assert s.A[1, 1] == 5.0 and s.b[1] == 2.0

    def test_dimension_mismatch(self):
        s = RidgeState(3, 1.0)
        with pytest.raises(InvalidDimensionError):
            s.update(np.zeros(4), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
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
