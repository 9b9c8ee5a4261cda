"""Arm-selection policies: projected UCB, full-dimensional UCB, and uniform.

The projected policy draws one random matrix up front, maintains the ridge
state in m dimensions and picks the arm maximizing the optimistic score
r_hat + beta * ||z||_{A^-1}.  The full-dimensional baseline is the same
policy with the identity map, and the uniform baseline ignores contexts
entirely.  One round loop runs them all: it draws each round's block, means
and noise once and hands them to every policy it was given, so policies
run together on one environment are paired by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .environment import Environment, RoundRecord
from .errors import InvalidDimensionError, InvalidInputError
from .estimator import RidgeState
from .projection import (ProjectionKind, ProjectionMatrix, SparseBlock,
                         build_projection, dense_block, project_rows)
from .rng import STREAM_UNIFORM, RoundStreams
from .theory import TheoryParams, beta_schedule


@dataclass(frozen=True)
class FixedBeta:
    """Constant exploration factor, the form the round loop was stated with."""

    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise InvalidInputError(f"beta must be finite and positive, got {self.value}")


@dataclass(frozen=True)
class AdaptiveBeta:
    """Exploration factor growing as the round-(t-1) confidence width."""

    params: TheoryParams

    def __post_init__(self):
        if not isinstance(self.params, TheoryParams):
            raise InvalidInputError("AdaptiveBeta needs a complete TheoryParams")


BetaMode = FixedBeta | AdaptiveBeta


@dataclass(frozen=True)
class PolicyConfig:
    """Everything the projected policy needs besides the environment."""

    m: int
    kind: ProjectionKind = ProjectionKind.STANDARD_GAUSSIAN
    beta_mode: BetaMode = field(default_factory=lambda: FixedBeta(1.0))
    lam: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise InvalidDimensionError(f"m must be >= 1, got {self.m}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise InvalidInputError(f"lam must be finite and positive, got {self.lam}")
        if not isinstance(self.beta_mode, (FixedBeta, AdaptiveBeta)):
            raise InvalidInputError(f"unsupported beta_mode: {self.beta_mode!r}")


@dataclass(frozen=True)
class ArmScores:
    """Every arm's decision breakdown as length-K arrays; ucb is exactly r_hat + v."""

    r_hat: np.ndarray
    v: np.ndarray
    ucb: np.ndarray


# Called after each round, once the round's observation is in the state, with
# (t, the round's block of contexts as drawn by Environment.draw_round, the
# chosen arm index).
Observer = Callable[[int, "np.ndarray | SparseBlock", int], None]

# Chooses round t's arm from its block: (chosen, ucb_gap, the z to absorb into
# the ridge state, or None for a policy that keeps no state).
Select = Callable[[int, "np.ndarray | SparseBlock"],
                  "tuple[int, float, np.ndarray | None]"]

# One policy of the round loop: its select, the ridge state that absorbs its
# chosen z (None for a policy that keeps none) and its observer (or None).
Policy = tuple[Select, "RidgeState | None", "Observer | None"]


def _beta_at(mode: BetaMode, m: int) -> Callable[[int], float]:
    if isinstance(mode, FixedBeta):
        return lambda t: mode.value
    # width indexed by the number of observations in the state: t-1 at round t
    return lambda t: beta_schedule(mode.params, m, t - 1)


def cbrap_select(state: RidgeState, projected_contexts, beta: float
                 ) -> tuple[int, ArmScores]:
    """Score every row of a (K, m) block and return (argmax index, scores).

    Ties break toward the lowest arm index, so selection is deterministic.
    """
    if not beta > 0:
        raise InvalidInputError(f"beta must be positive, got {beta}")
    Z = dense_block(projected_contexts, state.m)
    if Z.shape[0] == 0:
        raise InvalidInputError("arm set must be nonempty")
    theta = state.estimate()
    r_hat = Z @ theta
    quad = np.einsum("km,km->k", Z @ state.A_inv, Z)
    v = beta * np.sqrt(np.maximum(quad, 0.0))
    ucb = r_hat + v
    return int(np.argmax(ucb)), ArmScores(r_hat=r_hat, v=v, ucb=ucb)


def _ucb_gap(ucb: np.ndarray, chosen: int) -> float:
    # the best other arm's score is -inf, so the gap inf, for a single arm
    others = ucb.copy()
    others[chosen] = -np.inf
    return float(ucb[chosen] - others.max())


def _run_rounds(env: Environment, T: int, policies: Sequence[Policy],
                rounds: Sequence | None = None) -> list[list[RoundRecord]]:
    """The round loop, running every policy of one environment in lockstep.

    Each round draws its block once from ``env.draw_round`` (or takes it
    from the prefetched ``rounds``) and takes the means and the noise from
    one ``mean_rewards`` and one ``noise_draw`` call.  Then every policy, in
    list order, gets that same read-only block: its ``select`` chooses an
    arm, the loop accounts the reward and the regret, absorbs the chosen z
    into the policy's state and calls its observer.  The state behind a
    round-t decision therefore holds exactly rounds 1..t-1, and an observer
    sees it with round t absorbed.  Returns one round log per policy.
    """
    if T < 1:
        raise InvalidInputError(f"T must be >= 1, got {T}")
    logs: list[list[RoundRecord]] = [[] for _ in policies]
    for t in range(1, T + 1):
        t0 = time.perf_counter_ns()
        block = env.draw_round(t) if rounds is None else rounds[t - 1]
        means = env.mean_rewards(block)
        best = float(means.max())
        noise = env.noise_draw(t)
        shared_ns = time.perf_counter_ns() - t0
        for (select, state, observer), log in zip(policies, logs):
            t1 = time.perf_counter_ns()
            chosen, gap, z = select(t, block)
            mean = float(means[chosen])
            reward = mean + noise
            if z is not None:
                state.update(z, reward)
            if observer is not None:
                observer(t, block, chosen)
            log.append(RoundRecord(t=t, chosen=chosen, reward=reward,
                                   instant_regret=max(0.0, best - mean), ucb_gap=gap,
                                   elapsed_ns=shared_ns + time.perf_counter_ns() - t1))
    return logs


def _ucb_policy(env: Environment, P: ProjectionMatrix | None, lam: float,
                beta_at: Callable[[int], float], observer: Observer | None = None
                ) -> Policy:
    """UCB through P, or LinUCB through the identity map for P=None."""
    if P is None:
        state, to_z = RidgeState(env.n, lam=lam), lambda block: dense_block(block, env.n)
    else:
        state, to_z = RidgeState(P.m, lam=lam), lambda block: project_rows(P, block)

    def select(t, block):
        Z = to_z(block)
        chosen, scores = cbrap_select(state, Z, beta_at(t))
        return chosen, _ucb_gap(scores.ucb, chosen), Z[chosen]
    return select, state, observer


def _uniform_policy(env: Environment, seed: int,
                    observer: Observer | None = None) -> Policy:
    """The control policy: arms drawn uniformly from a seeded stream."""
    arms = RoundStreams(seed, STREAM_UNIFORM)

    def select(t, block):
        return int(arms(t).integers(env.K)), 0.0, None
    return select, None, observer


def cbrap_run(env: Environment, cfg: PolicyConfig, T: int,
              projection: ProjectionMatrix | None = None,
              observer: Observer | None = None) -> list[RoundRecord]:
    """Run the projected UCB policy for T rounds and return the round log.

    The projection is built once, before the round loop, and never
    resampled.  ``projection`` overrides the built matrix (test hook, e.g.
    an explicit orthogonal matrix).
    """
    P = projection if projection is not None \
        else build_projection(cfg.kind, cfg.m, env.n, cfg.seed)
    if P.n != env.n:
        raise InvalidDimensionError(f"projection n={P.n} does not match env n={env.n}")
    if P.m != cfg.m:
        raise InvalidDimensionError(f"projection m={P.m} does not match cfg m={cfg.m}")
    beta_at = _beta_at(cfg.beta_mode, cfg.m)
    return _run_rounds(env, T, [_ucb_policy(env, P, cfg.lam, beta_at, observer)])[0]


def linucb_run(env: Environment, lam: float, beta_mode: BetaMode, T: int,
               observer: Observer | None = None) -> list[RoundRecord]:
    """Full-dimensional UCB baseline: the same policy with the identity map."""
    beta_at = _beta_at(beta_mode, env.n)
    return _run_rounds(env, T, [_ucb_policy(env, None, lam, beta_at, observer)])[0]


def uniform_run(env: Environment, seed: int, T: int,
                observer: Observer | None = None) -> list[RoundRecord]:
    """Control baseline choosing arms uniformly from a seeded stream."""
    return _run_rounds(env, T, [_uniform_policy(env, seed, observer)])[0]
