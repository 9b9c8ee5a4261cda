"""Closed-form confidence widths and the regret upper bound.

All functions here are pure evaluations of the theory formulas; nothing is
estimated.  The constants live in ``TheoryParams`` and can be certified
bounds or oracle values computed post-hoc from a synthetic ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError, check_array, check_count, check_real, check_type
from .estimator import RidgeState


@dataclass(frozen=True)
class TheoryParams:
    """Constants feeding the confidence-width and regret-bound formulas.

    R      sub-Gaussian scale of the reward noise
    S      bound on the projected parameter norm ||zeta||_2
    L      bound on projected context norms ||z||_2
    B      bound on the absolute mean reward |<x, theta*>|
    lam    ridge regularizer
    delta  confidence parameter in (0, 1)
    eps    absolute inner-product distortion introduced by the projection
    eps1   distortion normalized by ||x|| ||theta*||
    gamma  probability that some context violates the eps bound
    """

    R: float
    S: float
    L: float
    B: float
    lam: float = 1.0
    delta: float = 0.05
    eps: float = 0.0
    eps1: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("S", "L", "B", "lam"):
            check_real(getattr(self, name), name, positive=True)
        R, delta, eps, eps1, gamma = (check_real(getattr(self, name), name)
                                      for name in ("R", "delta", "eps", "eps1", "gamma"))
        if R < 0 or eps < 0 or eps1 < 0:
            raise InvalidInputError("R, eps and eps1 must be nonnegative")
        if not 0.0 < delta < 1.0:
            raise InvalidInputError(f"delta must lie in (0, 1), got {delta}")
        # the derived value min(1, 2T exp(-m eps1^2/8)) saturates at 1
        if not 0.0 <= gamma <= 1.0:
            raise InvalidInputError(f"gamma must lie in [0, 1], got {gamma}")


def derive_gamma(m: int, horizon: int, eps1: float) -> float:
    """Union-bound failure probability min(1, 2*T*exp(-m eps1^2/8)) over a horizon."""
    m, horizon = check_count(m, "m"), check_count(horizon, "horizon", lo=0)
    eps1 = check_real(eps1, "eps1")
    return min(1.0, 2.0 * horizon * math.exp(-m * eps1 * eps1 / 8.0))


def beta_schedule(p: TheoryParams, m: int, t: int) -> float:
    """Confidence width R*sqrt(m log((1+t L^2)/delta)) + sqrt(lam)*S + eps*sqrt(t).

    Nondecreasing in t; the t = 0 value is the width of the prior ellipsoid.
    """
    check_type(p, TheoryParams, "p")
    m, t = check_count(m, "m"), check_count(t, "t", lo=0)
    log_term = math.log((1.0 + t * p.L * p.L) / p.delta)
    return p.R * math.sqrt(m * log_term) + math.sqrt(p.lam) * p.S + p.eps * math.sqrt(t)


def confidence_distance(state: RidgeState, mu) -> float:
    """Weighted distance ||mu - estimate||_A of a candidate from the estimate."""
    check_type(state, RidgeState, "state")
    mu = check_array(mu, "mu", shape=(state.m,))
    d = mu - state.estimate()
    q = float(d @ (state.A @ d))
    return float(math.sqrt(max(q, 0.0)))


def in_confidence_set(state: RidgeState, mu, beta: float) -> bool:
    """Whether mu lies in the ellipsoid {mu : ||mu - estimate||_A <= beta}."""
    beta = check_real(beta, "beta", positive=True)
    return confidence_distance(state, mu) <= beta


def regret_bound(p: TheoryParams, m: int, horizon: int) -> float:
    """Regret upper bound 2 a b m sqrt(T) + 2 (a sqrt(m) + 1) T L S eps1.

    Here a = sqrt(2 log(1 + T L^2/(lam m))) and
    b = R sqrt(log(1 + T L^2/(lam m)) + 2 log(1/delta)) + sqrt(lam) S + B.
    With eps1 = 0 only the sqrt(T) term survives.
    """
    check_type(p, TheoryParams, "p")
    m, horizon = check_count(m, "m"), check_count(horizon, "horizon")
    log_term = math.log(1.0 + horizon * p.L * p.L / (p.lam * m))
    a = math.sqrt(2.0 * log_term)
    b = p.R * math.sqrt(log_term + 2.0 * math.log(1.0 / p.delta)) \
        + math.sqrt(p.lam) * p.S + p.B
    first = 2.0 * a * b * m * math.sqrt(horizon)
    second = 2.0 * (a * math.sqrt(m) + 1.0) * horizon * p.L * p.S * p.eps1
    return max(0.0, first + second)


def success_probability(p: TheoryParams, m: int, horizon: int) -> float:
    """Probability floor (1 - derive_gamma(m, T, eps1)) (1 - delta), clamped to [0, 1]."""
    check_type(p, TheoryParams, "p")
    m, horizon = check_count(m, "m"), check_count(horizon, "horizon")
    # gamma from eps1, not p.gamma: the identity map stores gamma = 0
    return min(1.0, max(0.0, (1.0 - derive_gamma(m, horizon, p.eps1)) * (1.0 - p.delta)))
