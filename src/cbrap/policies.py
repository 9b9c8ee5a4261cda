"""Arm-selection policies: projected UCB, full-dimensional UCB, and uniform.

The projected policy draws one random matrix up front, maintains the ridge
state in m dimensions and picks the arm maximizing the optimistic score
r_hat + beta * ||z||_{A^-1}.  The full-dimensional baseline is the same
policy with the identity map, and the uniform baseline ignores contexts
entirely.  One round loop runs them all: it takes each table of rounds, with
its means and noise, once from its source (``Environment._tables``) and
hands it to every policy, so policies run together on one environment are
paired by construction.
"""

from __future__ import annotations

import math
import operator
import time
from itertools import repeat
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

try:  # the C kernel np.einsum calls, without np.einsum's Python wrapper (about 1 us a call)
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

from .environment import Environment, RoundRecord, Table
from .errors import (InvalidDimensionError, InvalidInputError, check_count, check_real,
                     check_type)
from .estimator import RidgeState
from .projection import (ProjectionKind, ProjectionMatrix, SparseBlock, _project_table,
                         build_projection, dense_block)
from .rng import STREAM_UNIFORM, _uniform_arms, check_seed
from .theory import TheoryParams, beta_schedule


@dataclass(frozen=True)
class FixedBeta:
    """Constant exploration factor, the form the round loop was stated with."""

    value: float

    def __post_init__(self):
        check_real(self.value, "beta", positive=True)


@dataclass(frozen=True)
class AdaptiveBeta:
    """Exploration factor growing as the round-(t-1) confidence width."""

    params: TheoryParams

    def __post_init__(self):
        check_type(self.params, TheoryParams, "params")


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
        check_count(self.m, "m", InvalidDimensionError)
        check_type(self.kind, ProjectionKind, "kind")
        check_type(self.beta_mode, (FixedBeta, AdaptiveBeta), "beta_mode")
        check_real(self.lam, "lam", positive=True)
        check_seed(self.seed)


@dataclass(frozen=True)
class ArmScores:
    """Every arm's decision breakdown as length-K arrays; ucb is exactly r_hat + v.
    A result record: it holds its fields as given."""

    r_hat: np.ndarray
    v: np.ndarray
    ucb: np.ndarray


# A policy's table step, run once per table as the source yields it: gives
# the table's rounds' (K, dim) rows, in round order, and a finite bound on
# the magnitude of their entries, which the ridge state's checks run on.
Step = Callable[["np.ndarray | SparseBlock"], tuple[Iterable[np.ndarray], float]]

# Chooses round t's arm from the round's rows, as its policy's step gave
# them (None for a policy without a step): (chosen, ucb_gap, the z to absorb
# into the ridge state, or None for a policy that keeps no state).
Select = Callable[[int, "np.ndarray | None"], "tuple[int, float, np.ndarray | None]"]

# One policy of the round loop: its table step (None for a policy that reads
# no contexts), its select and the ridge state that absorbs its chosen z
# (None for a policy that keeps none).
Policy = tuple["Step | None", Select, "RidgeState | None"]


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
    check_type(state, RidgeState, "state")
    beta = check_real(beta, "beta", positive=True)
    Z = dense_block(projected_contexts, state.m)
    if Z.shape[0] == 0:
        raise InvalidInputError("arm set must be nonempty")
    r_hat, v, ucb = map(np.array, _score(state, Z, beta))
    return int(ucb.argmax()), ArmScores(r_hat=r_hat, v=v, ucb=ucb)


def _score(state: RidgeState, Z: np.ndarray, beta: float
           ) -> tuple[list[float], list[float], list[float]]:
    # cbrap_select's (r_hat, v, ucb) on a checked, nonempty (K, m) Z and a
    # positive beta, as lists of Python floats: per arm, v = sqrt(max(q, 0))
    # * beta and ucb = r_hat + v, numpy's float64 operations bit for bit
    # (its maximum keeps a NaN and takes -0.0 to 0.0); q is the quadratic
    # form z'A^-1 z, np.einsum("km,km->k", Z @ A_inv, Z)
    r_hat = (Z @ state._estimate()).tolist()
    v = [math.sqrt(0.0 if q <= 0.0 else q) * beta
         for q in c_einsum("km,km->k", Z @ state.A_inv, Z).tolist()]
    return r_hat, v, list(map(operator.add, r_hat, v))


def _horizon(env: Environment, T: int) -> int:
    # a runner's own arguments, checked before any round is drawn
    check_type(env, Environment, "env")
    return check_count(T, "T")


def _run_rounds(tables: Iterable[Table], policies: Sequence[Policy]
                ) -> list[list[RoundRecord]]:
    """The round loop, running every policy in lockstep on one table source.

    ``tables`` yields (ts, table, means, noise) for rounds 1, 2, ... in
    order: ``Environment._tables`` streams an environment's, and a coverage
    seed replays the (ts, Z, means, noise) tables its oracle scan kept.  Every
    policy, in list order, gets that same read-only table: its step
    prepares the table once, at the table's first round, and each round's
    ``select`` chooses an arm from its rows of the prepared table.  The
    loop accounts the reward and the regret and absorbs the chosen z into
    the policy's state, so the state behind a round-t decision holds
    exactly rounds 1..t-1.  The state absorbs its row unchecked
    (``RidgeState._absorb``): a projected row was checked with its table
    (``projection._project_table``) and a context where the environment
    made it.  What the state checks per update, it checks against the
    bound the step took once per table, max|z| of its rows: it looks at
    ``b`` and the fold of ``A`` only once a running bound on them passes
    1e300.  Every policy's reward and regret are checked here, since
    finite contexts can still give an infinite one.  A table's means become
    Python floats once, with one ``tolist``, and its noise is a list of
    Python floats, so each reward and regret is a Python float, checked by
    ``math.isfinite`` (``check_real`` only makes the error).  numpy's
    floating-point errors are ignored for the whole loop, set once per run,
    since the loop checks every value it keeps: a table's projection, the
    state's denominator, step, ``b`` and fold of ``A``
    (``RidgeState._absorb``), and each reward and regret; so an overflow
    raises its typed error with no numpy warning before it.  The first
    round of a table carries the wait for that table and the policy's step.
    The loop closes a source that has ``close`` when it ends, also when a
    policy raises, so a prefetching source's threads end with the loop.
    Returns one round log per policy.
    """
    logs: list[list[RoundRecord]] = [[] for _ in policies]
    runs = list(enumerate(zip(policies, logs)))  # walked every round
    rows: list = [None] * len(policies)  # each policy's rows of the table being walked
    zmax: list = [None] * len(policies)  # and the bound on their entries
    # locals for the per-round calls; RoundRecord's own __new__ is slower than tuple's
    clock, isfinite, new_record = time.perf_counter_ns, math.isfinite, tuple.__new__
    tables = iter(tables)
    t0 = clock()  # restarted per round: shared_ns times taking a round
    with np.errstate(all="ignore"):  # taken once per run: the loop checks what it keeps
        try:
            for ts, table, means, noise in tables:
                for i, (t, mu, eta) in enumerate(zip(ts, means.tolist(), noise)):  # Python floats
                    best = max(mu)
                    shared_ns = clock() - t0
                    for j, ((step, select, state), log) in runs:
                        t1 = clock()
                        if i == 0:  # the policy's step, timed with the table's first round
                            prepared, zmax[j] = (repeat(None), None) if step is None \
                                else step(table)
                            rows[j] = iter(prepared)
                        chosen, gap, z = select(t, next(rows[j]))
                        mean = mu[chosen]
                        reward = mean + eta
                        if not isfinite(reward):
                            check_real(reward, "reward")  # raises the typed error
                        if z is not None:
                            state._absorb(z, reward, zmax[j])
                        regret = best - mean
                        if not isfinite(regret):
                            check_real(regret, "instant regret")
                        log.append(new_record(RoundRecord, (
                            t, chosen, reward, regret if regret > 0.0 else 0.0, gap,
                            shared_ns + clock() - t1)))
                    t0 = clock()
        finally:
            if hasattr(tables, "close"):  # a source's pool ends with the loop, raise or not
                tables.close()
    return logs


def _ucb_policy(env: Environment, P: ProjectionMatrix | None, lam: float,
                beta_at: Callable[[int], float]) -> Policy:
    """UCB through P, which projects each table once, or LinUCB through the
    identity map for P=None.  LinUCB reads a dense table's slices and
    densifies each sparse round only when that round comes, since a dense
    table of sparse rounds would hold R * K * n floats.  Its rows' bound is
    the table's own maximum, a pass over the table that costs little next
    to LinUCB's n x n work per round."""
    K = env.K
    if P is not None:
        return _scoring_policy(P.m, lam, lambda table: _project_table(P, table, K), beta_at)

    def rows(table):
        if isinstance(table, np.ndarray):
            return table, float(np.abs(table).max())
        return ((table._rows(lo, lo + K).to_dense() for lo in range(0, len(table), K)),
                float(np.abs(table.values).max()))
    return _scoring_policy(env.n, lam, rows, beta_at)


def _scoring_policy(dim: int, lam: float, step: Step, beta_at: Callable[[int], float]
                    ) -> Policy:
    """UCB on a fresh dim-dimensional ridge state: ``step`` gives a table's
    rounds' (K, dim) rows, which select scores and the loop absorbs, and
    the bound on their entries that the state's checks run on."""
    state = RidgeState(dim, lam=lam)

    def select(t, Z):
        ucb = _score(state, Z, beta_at(t))[2]
        total = sum(ucb)  # NaN if a score is: max() skips a later NaN, argmax takes it
        # ties go to the lowest index, as in argmax
        chosen = ucb.index(max(ucb)) if total == total else int(np.argmax(ucb))
        best = ucb[chosen]
        ucb[chosen] = -math.inf  # the max is now the best other score: -inf for one arm
        return chosen, best - max(ucb), Z[chosen]
    return step, select, state


def _uniform_policy(env: Environment, seed: int, T: int) -> Policy:
    """The control policy: arms drawn uniformly from a seeded stream, those
    of rounds 1..T at once (``rng._uniform_arms``) when the policy is built,
    from each round's first raw word without a generator for the round.  It
    reads no contexts, so it has no step."""
    arms = _uniform_arms(check_seed(seed), STREAM_UNIFORM, range(1, T + 1), env.K)
    return None, lambda t, _: (arms[t - 1], 0.0, None), None


def cbrap_run(env: Environment, cfg: PolicyConfig, T: int,
              projection: ProjectionMatrix | None = None) -> list[RoundRecord]:
    """Run the projected UCB policy for T rounds and return the round log.

    The projection is built once, before the round loop, and never
    resampled.  ``projection`` overrides the built matrix (test hook, e.g.
    an explicit orthogonal matrix).
    """
    T = _horizon(env, T)
    check_type(cfg, PolicyConfig, "cfg")
    P = build_projection(cfg.kind, cfg.m, env.n, cfg.seed) if projection is None \
        else check_type(projection, ProjectionMatrix, "projection")
    if P.n != env.n:
        raise InvalidDimensionError(f"projection n={P.n} does not match env n={env.n}")
    if P.m != cfg.m:
        raise InvalidDimensionError(f"projection m={P.m} does not match cfg m={cfg.m}")
    beta_at = _beta_at(cfg.beta_mode, cfg.m)
    return _run_rounds(env._tables(T), [_ucb_policy(env, P, cfg.lam, beta_at)])[0]


def linucb_run(env: Environment, lam: float, beta_mode: BetaMode, T: int
               ) -> list[RoundRecord]:
    """Full-dimensional UCB baseline: the same policy with the identity map."""
    T = _horizon(env, T)
    beta_at = _beta_at(check_type(beta_mode, (FixedBeta, AdaptiveBeta), "beta_mode"), env.n)
    return _run_rounds(env._tables(T), [_ucb_policy(env, None, lam, beta_at)])[0]


def uniform_run(env: Environment, seed: int, T: int) -> list[RoundRecord]:
    """Control baseline choosing arms uniformly from a seeded stream."""
    T = _horizon(env, T)
    return _run_rounds(env._tables(T), [_uniform_policy(env, seed, T)])[0]
