"""Closed-form widths, bounds, and their monotonicity."""

import math

import numpy as np
import pytest

from cbrap import (InvalidDimensionError, InvalidInputError, RidgeState,
                   TheoryParams, beta_schedule, confidence_distance,
                   derive_gamma, regret_bound, success_probability)


def params(**kw):
    base = dict(R=1.0, S=1.0, L=1.0, B=1.0, lam=1.0, delta=0.1, eps=0.0, eps1=0.0)
    base.update(kw)
    return TheoryParams(**base)


class TestTheoryParams:
    def test_accepts_valid(self):
        p = params(eps=0.3, eps1=0.2, gamma=0.5)
        assert p.gamma == 0.5

    @pytest.mark.parametrize("bad", [
        dict(R=-0.1), dict(S=0.0), dict(L=-1.0), dict(B=0.0), dict(lam=0.0),
        dict(delta=0.0), dict(delta=1.0), dict(eps=-0.1), dict(eps1=-0.1),
        dict(gamma=1.5),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidInputError):
            params(**bad)

    def test_derived_gamma_consistency(self):
        m, T, eps1 = 16, 50, 0.8
        g = derive_gamma(m, T, eps1)
        assert g == min(1.0, 2 * T * math.exp(-m * eps1**2 / 8))
        params(eps1=eps1, gamma=g)  # validates

    def test_derived_gamma_saturates(self):
        assert derive_gamma(4, 10**6, 0.01) == 1.0


class TestBetaSchedule:
    def test_only_prior_term_when_r_and_eps_zero(self):
        p = params(R=0.0)
        for t in (0, 1, 10, 10**6):
            assert beta_schedule(p, 4, t) == 1.0  # sqrt(lam) * S

    def test_frozen_value_at_t_zero(self):
        # 2 sqrt(log 10) + 1, computed independently
        assert beta_schedule(params(), 4, 0) == pytest.approx(
            4.034854258770293, rel=1e-12)

    def test_eps_term_is_eps_sqrt_t(self):
        with_eps = beta_schedule(params(eps=0.5), 3, 100)
        without = beta_schedule(params(), 3, 100)
        assert with_eps - without == pytest.approx(5.0, rel=1e-12)

    def test_nondecreasing_in_t(self):
        p = params(R=0.3, eps=0.05)
        vals = [beta_schedule(p, 8, t) for t in range(0, 2000, 37)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_scale_parameters(self):
        lo, hi = 0.4, 0.9
        assert beta_schedule(params(R=lo), 4, 10) < beta_schedule(params(R=hi), 4, 10)
        assert beta_schedule(params(S=lo), 4, 10) < beta_schedule(params(S=hi), 4, 10)
        assert beta_schedule(params(eps=lo), 4, 10) < beta_schedule(params(eps=hi), 4, 10)
        assert beta_schedule(params(delta=0.2), 4, 10) < beta_schedule(params(delta=0.01), 4, 10)

    def test_rejects_negative_t(self):
        with pytest.raises(InvalidInputError):
            beta_schedule(params(), 4, -1)


class TestConfidenceSet:
    def test_estimate_always_inside(self):
        rng = np.random.default_rng(0)
        s = RidgeState(3)
        for _ in range(20):
            s.update(rng.standard_normal(3), rng.standard_normal())
        assert confidence_distance(s, s.estimate()) <= 1e-9

    def test_fresh_state_distance_is_l2_scaled(self):
        s = RidgeState(2, lam=1.0)
        mu = np.array([2.0, 0.0])
        assert confidence_distance(s, mu) == 2.0

    def test_distance_matches_direct_quadratic_form(self):
        rng = np.random.default_rng(1)
        s = RidgeState(4, lam=0.5)
        for _ in range(30):
            s.update(rng.standard_normal(4), rng.standard_normal())
        mu = rng.standard_normal(4)
        d = mu - s.estimate()
        assert confidence_distance(s, mu) == pytest.approx(
            math.sqrt(d @ s.A @ d), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            confidence_distance(RidgeState(3), np.zeros(4))


class TestRegretBound:
    def test_frozen_regression_value(self):
        # independent calculator evaluation of the closed form
        assert regret_bound(params(eps1=0.1), 4, 100) == pytest.approx(
            1103.1856429669015, rel=1e-12)

    def test_eps1_zero_leaves_only_sqrt_t_term(self):
        assert regret_bound(params(eps1=0.0), 4, 100) == pytest.approx(
            981.0783027720422, rel=1e-12)

    def test_degenerate_l_vanishes(self):
        assert regret_bound(params(L=1e-12, eps1=0.5), 4, 100) < 1e-9

    @pytest.mark.parametrize("field,lo,hi", [
        ("L", 0.5, 1.0), ("S", 0.5, 1.0), ("R", 0.5, 1.0), ("eps1", 0.1, 0.2),
    ])
    def test_monotone_in_parameters(self, field, lo, hi):
        assert regret_bound(params(**{field: lo}), 8, 500) \
            < regret_bound(params(**{field: hi}), 8, 500)

    def test_monotone_in_horizon(self):
        p = params(eps1=0.05)
        vals = [regret_bound(p, 8, T) for T in (10, 100, 1000, 10000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_dimension_scaling(self):
        # doubling m doubles the explicit m factor while a, b move only
        # logarithmically: the ratio stays within (1.4, 2]
        for T in (1000, 10000, 100000):
            for m in (4, 16, 64):
                ratio = regret_bound(params(), 2 * m, T) / regret_bound(params(), m, T)
                assert 1.4 < ratio <= 2.0, (T, m, ratio)


class TestSuccessProbability:
    def test_frozen_value(self):
        p = TheoryParams(R=1, S=1, L=1, B=1, lam=1, delta=1e-12, eps1=1.0)
        # delta ~ 0: 1 - 2/e
        assert success_probability(p, 8, 1) == pytest.approx(0.2642411176571153, rel=1e-9)

    def test_approaches_one_minus_delta(self):
        p = params(delta=0.1, eps1=1.0)
        assert success_probability(p, 10**4, 10) == pytest.approx(0.9, rel=1e-9)

    def test_clamped_at_zero_for_huge_horizon(self):
        p = params(eps1=0.01)
        assert success_probability(p, 2, 10**9) == 0.0

    def test_range(self):
        for m in (1, 8, 64):
            for T in (1, 100, 10**6):
                v = success_probability(params(eps1=0.3, delta=0.2), m, T)
                assert 0.0 <= v <= 1.0
