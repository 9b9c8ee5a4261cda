"""Arm-selection policies: projected UCB, full-dimensional UCB, and uniform.

The projected policy draws one random matrix up front, maintains the ridge
state in m dimensions and picks the arm maximizing the optimistic score
r_hat + beta * ||z||_{A^-1}.  The full-dimensional baseline is the same
policy with the identity map, and the uniform baseline ignores contexts
entirely.  All three run one round loop and consume the environment's
streams identically, so runs with shared seeds are paired.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .environment import Environment, RoundRecord
from .errors import InvalidDimensionError, InvalidInputError
from .estimator import RidgeState
from .projection import (ProjectionKind, ProjectionMatrix, SparseBlock,
                         build_projection, dense_block, project_rows)
from .rng import STREAM_UNIFORM, derive_rng
from .theory import TheoryParams, beta_schedule


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
    """Everything the projected policy needs besides the environment."""

    m: int
    kind: ProjectionKind = ProjectionKind.STANDARD_GAUSSIAN
    beta_mode: BetaMode = field(default_factory=lambda: FixedBeta(1.0))
    lam: float = 1.0
    seed: int = 0

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


# Called after each round, once the round's observation is in the state, with
# (t, the round's block of contexts as drawn by Environment.draw_round, the
# chosen arm index).
Observer = Callable[[int, "np.ndarray | SparseBlock", int], None]

# Chooses round t's arm from its block: (chosen, ucb_gap, the z to absorb into
# the ridge state, or None for a policy that keeps no state).
Select = Callable[[int, "np.ndarray | SparseBlock"],
                  "tuple[int, float, np.ndarray | None]"]


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


def _run_rounds(env: Environment, T: int, select: Select,
                state: RidgeState | None = None, observer: Observer | None = None,
                rounds: Sequence | None = None) -> list[RoundRecord]:
    """The round loop of every policy.

    Each round takes its block from ``env.draw_round`` (or from the
    prefetched ``rounds``), lets ``select`` choose an arm, accounts the
    reward and the regret from one ``mean_rewards`` call, absorbs the chosen
    z into ``state`` and then calls the observer.  The state behind the
    round-t decision therefore holds exactly rounds 1..t-1, and an observer
    sees it with round t absorbed.
    """
    if T < 1:
        raise InvalidInputError(f"T must be >= 1, got {T}")
    records: list[RoundRecord] = []
    for t in range(1, T + 1):
        t0 = time.perf_counter_ns()
        block = env.draw_round(t) if rounds is None else rounds[t - 1]
        chosen, gap, z = select(t, block)
        means = env.mean_rewards(block)
        mean = float(means[chosen])
        reward = mean + env.noise_draw(t)
        if z is not None:
            state.update(z, reward)
        if observer is not None:
            observer(t, block, chosen)
        records.append(RoundRecord(t=t, chosen=chosen, reward=reward,
                                   instant_regret=max(0.0, float(means.max()) - mean),
                                   ucb_gap=gap,
                                   elapsed_ns=time.perf_counter_ns() - t0))
    return records


def _ucb_run(env: Environment, state: RidgeState, to_z, beta_at: Callable[[int], float],
             T: int, observer: Observer | None = None,
             rounds: Sequence | None = None) -> list[RoundRecord]:
    """The UCB policy over the round loop: map the block to z, score, pick."""
    def select(t, block):
        Z = to_z(block)
        chosen, scores = cbrap_select(state, Z, beta_at(t))
        return chosen, _ucb_gap(scores.ucb, chosen), Z[chosen]
    return _run_rounds(env, T, select, state, observer, rounds)


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
    return _ucb_run(env, RidgeState(cfg.m, lam=cfg.lam),
                    lambda block: project_rows(P, block),
                    _beta_at(cfg.beta_mode, cfg.m), T, observer)


def linucb_run(env: Environment, lam: float, beta_mode: BetaMode, T: int,
               observer: Observer | None = None) -> list[RoundRecord]:
    """Full-dimensional UCB baseline: the same policy with the identity map."""
    return _ucb_run(env, RidgeState(env.n, lam=lam),
                    lambda block: dense_block(block, env.n),
                    _beta_at(beta_mode, env.n), T, observer)


def uniform_run(env: Environment, seed: int, T: int,
                observer: Observer | None = None) -> list[RoundRecord]:
    """Control baseline choosing arms uniformly from a seeded stream."""
    def select(t, block):
        return int(derive_rng(seed, STREAM_UNIFORM, t).integers(env.K)), 0.0, None
    return _run_rounds(env, T, select, observer=observer)
