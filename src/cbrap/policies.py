"""Arm-selection policies: projected UCB, full-dimensional UCB, and uniform.

The projected policy draws one random matrix up front, maintains the ridge
state in m dimensions and picks the arm maximizing the optimistic score
r_hat + beta * ||z||_{A^-1}.  The full-dimensional baseline runs the same
loop with the identity map, and the uniform baseline ignores contexts
entirely.  All three consume the environment's streams identically, so
runs with shared seeds are paired.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .environment import Environment, RoundRecord
from .errors import InvalidDimensionError, InvalidInputError
from .estimator import RidgeState
from .projection import (ProjectionKind, ProjectionMatrix, SparseBlock,
                         build_projection, dense_block, project_rows)
from .rng import STREAM_UNIFORM, derive_rng
from .theory import TheoryParams, beta_schedule

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FixedBeta:
    """Constant exploration factor, the form the round loop was stated with."""

    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise InvalidInputError(f"beta must be positive, got {self.value}")


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
    """Everything the projected policy needs besides the environment.

    ``alpha`` is accepted for interface compatibility but never used; a
    warning is logged when it is set.
    """

    m: int
    kind: ProjectionKind = ProjectionKind.STANDARD_GAUSSIAN
    beta_mode: BetaMode = field(default_factory=lambda: FixedBeta(1.0))
    lam: float = 1.0
    seed: int = 0
    alpha: float | None = None

    def __post_init__(self):
        if self.m < 1:
            raise InvalidDimensionError(f"m must be >= 1, got {self.m}")
        if not self.lam > 0:
            raise InvalidInputError(f"lam must be positive, got {self.lam}")
        if not isinstance(self.beta_mode, (FixedBeta, AdaptiveBeta)):
            raise InvalidInputError(f"unsupported beta_mode: {self.beta_mode!r}")


@dataclass(frozen=True)
class ArmScores:
    """Every arm's decision breakdown as length-K arrays; ucb is exactly r_hat + v."""

    r_hat: np.ndarray
    v: np.ndarray
    ucb: np.ndarray


# Called after each round with (t, the round's block of contexts as drawn by
# Environment.draw_round, the chosen arm index).
Observer = Callable[[int, "np.ndarray | SparseBlock", int], None]


def _beta_for_round(mode: BetaMode, m: int, t: int) -> float:
    if isinstance(mode, FixedBeta):
        return mode.value
    # width indexed by the number of observations in the state: t-1 at round t
    return beta_schedule(mode.params, m, t - 1)


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
    if ucb.shape[0] == 1:
        return float("inf")
    return float(ucb[chosen] - np.delete(ucb, chosen).max())


def _ucb_loop(env: Environment, state: RidgeState, to_z, beta_mode: BetaMode,
              T: int, observer: Observer | None) -> list[RoundRecord]:
    # The state used for the round-t decision holds exactly rounds 1..t-1:
    # the previous round's observation is absorbed at the top of the loop.
    records: list[RoundRecord] = []
    prev_z: np.ndarray | None = None
    prev_reward = 0.0
    for t in range(1, T + 1):
        t0 = time.perf_counter_ns()
        contexts = env.draw_round(t)
        Z = to_z(contexts)
        if t > 1:
            state.update(prev_z, prev_reward)
        beta = _beta_for_round(beta_mode, state.m, t)
        chosen, scores = cbrap_select(state, Z, beta)
        reward = env.realize_reward(contexts, chosen, t)
        regret = env.instant_regret(contexts, chosen)
        prev_z, prev_reward = Z[chosen], reward
        if observer is not None:
            observer(t, contexts, chosen)
        records.append(RoundRecord(t=t, chosen=chosen, reward=reward,
                                   instant_regret=regret,
                                   ucb_gap=_ucb_gap(scores.ucb, chosen),
                                   elapsed_ns=time.perf_counter_ns() - t0))
    return records


def cbrap_run(env: Environment, cfg: PolicyConfig, T: int,
              projection: ProjectionMatrix | None = None,
              observer: Observer | None = None) -> list[RoundRecord]:
    """Run the projected UCB policy for T rounds and return the round log.

    The projection is built once, before the round loop, and never
    resampled.  ``projection`` overrides the built matrix (test hook, e.g.
    an explicit orthogonal matrix).
    """
    if T < 1:
        raise InvalidInputError(f"T must be >= 1, got {T}")
    if cfg.alpha is not None:
        log.warning("PolicyConfig.alpha=%s is accepted but unused", cfg.alpha)
    P = projection if projection is not None \
        else build_projection(cfg.kind, cfg.m, env.n, cfg.seed)
    if P.n != env.n:
        raise InvalidDimensionError(f"projection n={P.n} does not match env n={env.n}")
    if P.m != cfg.m:
        raise InvalidDimensionError(f"projection m={P.m} does not match cfg m={cfg.m}")
    state = RidgeState(cfg.m, lam=cfg.lam)
    return _ucb_loop(env, state, lambda ctxs: project_rows(P, ctxs),
                     cfg.beta_mode, T, observer)


def linucb_run(env: Environment, lam: float, beta_mode: BetaMode, T: int,
               observer: Observer | None = None) -> list[RoundRecord]:
    """Full-dimensional UCB baseline: the same loop with the identity map."""
    if T < 1:
        raise InvalidInputError(f"T must be >= 1, got {T}")
    state = RidgeState(env.n, lam=lam)
    return _ucb_loop(env, state, lambda block: dense_block(block, env.n),
                     beta_mode, T, observer)


def uniform_run(env: Environment, seed: int, T: int,
                observer: Observer | None = None) -> list[RoundRecord]:
    """Control baseline choosing arms uniformly from a seeded stream."""
    if T < 1:
        raise InvalidInputError(f"T must be >= 1, got {T}")
    records = []
    for t in range(1, T + 1):
        t0 = time.perf_counter_ns()
        contexts = env.draw_round(t)
        chosen = int(derive_rng(seed, STREAM_UNIFORM, t).integers(env.K))
        reward = env.realize_reward(contexts, chosen, t)
        regret = env.instant_regret(contexts, chosen)
        if observer is not None:
            observer(t, contexts, chosen)
        records.append(RoundRecord(t=t, chosen=chosen, reward=reward,
                                   instant_regret=regret, ucb_gap=0.0,
                                   elapsed_ns=time.perf_counter_ns() - t0))
    return records
