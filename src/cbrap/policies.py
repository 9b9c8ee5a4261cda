"""Arm-selection policies: projected UCB, full-dimensional UCB, and uniform.

The projected policy draws one random matrix up front, maintains the ridge
state in m dimensions and picks the arm maximizing the optimistic score
r_hat + beta * ||z||_{A^-1}.  The full-dimensional baseline is the same
policy with the identity map, and the uniform baseline ignores contexts
entirely.  One round loop runs them all: it takes each table of rounds, with
its means and noise, once from its source and hands it to every policy, so
policies run together on one environment are paired by construction.
"""

from __future__ import annotations

import os
import time
from collections import deque
from itertools import repeat
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .environment import (AlignedSpread, Environment, GaussianUnit, RoundRecord,
                          SparseUniform)
from .errors import (InvalidDimensionError, InvalidInputError, check_count, check_real,
                     check_type)
from .estimator import RidgeState
from .projection import (ProjectionKind, ProjectionMatrix, SparseBlock, _project,
                         build_projection, dense_block)
from .rng import STREAM_UNIFORM, _uniform_arms, check_seed
from .theory import TheoryParams, beta_schedule

_TABLE_BYTES = 1 << 16  # indices and values of a table of sparse rounds
_DENSE_TABLE_BYTES = 1 << 18  # contexts of a table of dense rounds
_GATHER_BYTES = 1 << 16  # columns of P one projection of a table's rows gathers
_ARM_ROUNDS = 256  # rounds of the uniform control's arms drawn at once


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


# Rounds ts drawn as one table: (ts, the table, its (len(ts), K) means, its
# noise).  A dense table is a (len(ts), K, n) array, a sparse one a SparseBlock
# of len(ts) * K rows.
Table = tuple[range, "np.ndarray | SparseBlock", np.ndarray, list]

# A policy's table step, run once per table as the source yields it: gives
# the table's rounds' (K, dim) rows, in round order.
Step = Callable[["np.ndarray | SparseBlock"], Iterable[np.ndarray]]

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
    r_hat, v, ucb = _score(state, Z, beta)
    return int(ucb.argmax()), ArmScores(r_hat=r_hat, v=v, ucb=ucb)


def _score(state: RidgeState, Z: np.ndarray, beta: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # cbrap_select's (r_hat, v, ucb) on a checked, nonempty (K, m) Z and a
    # positive beta; v = beta * sqrt(max(quad, 0)) is worked out in place
    r_hat = Z @ state.estimate()
    v = np.einsum("km,km->k", Z @ state.A_inv, Z)
    np.maximum(v, 0.0, out=v)
    np.sqrt(v, out=v)
    v *= beta
    return r_hat, v, r_hat + v


def _horizon(env: Environment, T: int) -> int:
    # a runner's own arguments, checked before any round is drawn
    check_type(env, Environment, "env")
    return check_count(T, "T")


def _env_table(env: Environment, ts: range) -> Table:
    # rounds ts as one table, with its means and its noise
    if isinstance(env.cfg.context, SparseUniform):
        table = env._sparse_table(ts)
    else:
        table = env._dense_table(ts)
    return ts, table, env._means(table).reshape(len(ts), env.K), env._noise_table(ts)


def _env_tables(env: Environment, T: int) -> Iterator[Table]:
    """Rounds 1..T of ``env`` as tables, in order, the last one stopping at T.

    A SparseUniform table takes ``_TABLE_BYTES`` of indices and values, a
    dense one (GaussianUnit, AlignedSpread or replay) ``_DENSE_TABLE_BYTES``
    of contexts but at least two rounds: each is drawn and checked once,
    with its means taken once and its noise drawn from generators built
    for the whole table (``Environment._noise_table``).

    A GaussianUnit or AlignedSpread table is a pure function of (seed,
    ts), and numpy fills it without holding the GIL.  So when such a run
    spans more than one table and at least 2 CPUs are usable, its tables
    are drawn ahead, with their means and noise, on a pool of 2 threads
    that the generator creates and shuts down, at most 3 tables beyond the
    one yielded.  Replay tables, views of their dataset, stay inline: no
    measurement has shown a pool paying off for their means and noise.
    Sparse tables stay inline too: their draw holds the GIL, and drawn
    ahead they made a T=1000 cbrap-sg run at n=4000 about 20% slower.  A
    table that raises at round t is redrawn a round at a time, so the
    rounds before t come first and round t's error is raised when that
    round is taken.
    """
    K, gen = env.K, env.cfg.context
    if isinstance(gen, SparseUniform):
        R = max(1, _TABLE_BYTES // (16 * K * int(gen.nnz)))
    else:  # tables of one round pay the pool's hand-off every round
        R = max(2, _DENSE_TABLE_BYTES // (8 * K * env.n))
    firsts = range(1, T + 1, R)  # each table's first round

    def rounds(lo: int) -> range:
        return range(lo, min(lo + R, T + 1))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    pool = None
    if isinstance(gen, (GaussianUnit, AlignedSpread)) and len(firsts) > 1 and cpus > 1:
        from concurrent.futures import ThreadPoolExecutor  # 3-4 ms to import: here, not in set-up
        pool = ThreadPoolExecutor(2)
        ahead = deque(pool.submit(_env_table, env, rounds(lo)) for lo in firsts[:3])
    try:
        for j, lo in enumerate(firsts):
            ts = rounds(lo)
            try:
                if pool is None:
                    table = _env_table(env, ts)
                else:
                    table = ahead.popleft().result()
                    if j + 3 < len(firsts):
                        ahead.append(pool.submit(_env_table, env, rounds(firsts[j + 3])))
            except Exception as error:
                if len(ts) > 1:  # a round at a time: the failing round raises its own error
                    for t in ts:
                        yield _env_table(env, range(t, t + 1))
                raise error
            yield table
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _run_rounds(tables: Iterable[Table], policies: Sequence[Policy]
                ) -> list[list[RoundRecord]]:
    """The round loop, running every policy in lockstep on one table source.

    ``tables`` yields (ts, table, means, noise) for rounds 1, 2, ... in
    order: ``_env_tables`` streams an environment's, and a coverage seed
    replays the (ts, Z, means, noise) tables its oracle scan kept.  Every
    policy, in list order, gets that same read-only table: its step
    prepares the table once, at the table's first round, and each round's
    ``select`` chooses an arm from its rows of the prepared table.  The
    loop accounts the reward and the regret and absorbs the chosen z into
    the policy's state, so the state behind a round-t decision holds
    exactly rounds 1..t-1.  The state absorbs its row unchecked
    (``RidgeState._absorb``): a projected row was checked with its table
    (``_project_table``) and a context where the environment made it; the
    reward is checked here.  A table's means become Python floats once,
    with one ``tolist``, so the best and the chosen mean need no numpy
    scalar and each logged reward and regret is a Python float, whatever
    the source.  The first round of a table carries the wait for that
    table and the policy's step.  The loop closes a source that has
    ``close`` when it ends, also when a policy raises, so a prefetching
    source's threads end with the loop.  Returns one round log per policy.
    """
    logs: list[list[RoundRecord]] = [[] for _ in policies]
    rows: list = [None] * len(policies)  # each policy's rows of the table being walked
    tables = iter(tables)
    t0 = time.perf_counter_ns()  # restarted per round: shared_ns times taking a round
    try:
        for ts, table, means, noise in tables:
            for i, (t, mu, eta) in enumerate(zip(ts, means.tolist(), noise)):  # Python floats
                best = max(mu)
                shared_ns = time.perf_counter_ns() - t0
                for j, ((step, select, state), log) in enumerate(zip(policies, logs)):
                    t1 = time.perf_counter_ns()
                    if i == 0:  # the policy's step, timed with the table's first round
                        rows[j] = repeat(None) if step is None else iter(step(table))
                    chosen, gap, z = select(t, next(rows[j]))
                    mean = mu[chosen]
                    reward = mean + eta
                    if z is not None:
                        state._absorb(z, check_real(reward, "reward"))
                    log.append(RoundRecord(t, chosen, reward, max(0.0, best - mean), gap,
                                           shared_ns + time.perf_counter_ns() - t1))
                t0 = time.perf_counter_ns()
    finally:
        if hasattr(tables, "close"):  # a source's pool ends with the loop, raise or not
            tables.close()
    return logs


def _project_table(P: ProjectionMatrix, table: "np.ndarray | SparseBlock", K: int
                   ) -> np.ndarray:
    """The (R, K, m) projections of a table of R rounds of K rows each, for
    the round loop's projected policies and the oracle scan alike.

    A dense (R, K, n) table is one stacked product, which gives each round's
    slice its own round's bits; one 2-D product over its R * K rows could
    differ in the last bit.  A sparse table is projected in chunks of rows
    whose gathered columns take at most ``_GATHER_BYTES``: the stacked
    product gives each row its own round's kernel, and so its bits, at any
    stack height.

    The projections are checked here, once per table, since finite contexts
    and a finite P can still overflow: the round loop and the coverage
    check read them unchecked.
    """
    if isinstance(table, np.ndarray):
        Z = _project(P, table)
    else:
        Z = np.empty((len(table), P.m))
        step = max(1, _GATHER_BYTES // (8 * P.m * table.indices.shape[1]))
        for lo in range(0, len(table), step):
            Z[lo:lo + step] = _project(P, table._rows(lo, lo + step))
        Z = Z.reshape(-1, K, P.m)
    if not np.isfinite(Z).all():
        raise InvalidInputError("projected contexts must be finite")
    return Z


def _ucb_policy(env: Environment, P: ProjectionMatrix | None, lam: float,
                beta_at: Callable[[int], float]) -> Policy:
    """UCB through P, which projects each table once, or LinUCB through the
    identity map for P=None.  LinUCB reads a dense table's slices and
    densifies each sparse round only when that round comes, since a dense
    table of sparse rounds would hold R * K * n floats."""
    K = env.K
    if P is not None:
        return _scoring_policy(P.m, lam, lambda table: _project_table(P, table, K), beta_at)

    def rows(table):
        if isinstance(table, np.ndarray):
            return table
        return (table._rows(lo, lo + K).to_dense() for lo in range(0, len(table), K))
    return _scoring_policy(env.n, lam, rows, beta_at)


def _scoring_policy(dim: int, lam: float, step: Step, beta_at: Callable[[int], float]
                    ) -> Policy:
    """UCB on a fresh dim-dimensional ridge state: ``step`` gives a table's
    rounds' (K, dim) rows, which select scores and absorbs."""
    state = RidgeState(dim, lam=lam)

    def select(t, Z):
        ucb = _score(state, Z, beta_at(t))[2]
        chosen = int(ucb.argmax())  # ties go to the lowest index
        scores = ucb.tolist()
        best = scores[chosen]
        scores[chosen] = -np.inf  # the max is now the best other score: -inf for one arm
        return chosen, best - max(scores), Z[chosen]
    return step, select, state


def _uniform_policy(env: Environment, seed: int, T: int) -> Policy:
    """The control policy: arms drawn uniformly from a seeded stream, those
    of ``_ARM_ROUNDS`` rounds at once (``rng._uniform_arms``) but none past
    round T, the run's last.  It reads no contexts, so it has no step."""
    seed, K = check_seed(seed), env.K
    lo, arms = 1, []  # the rounds drawn last: lo, lo + 1, ...

    def select(t, _):
        nonlocal lo, arms
        if not 0 <= t - lo < len(arms):
            lo, arms = t, _uniform_arms(seed, STREAM_UNIFORM,
                                        range(t, min(t + _ARM_ROUNDS, T + 1)), K)
        return arms[t - lo], 0.0, None
    return None, select, None


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
    return _run_rounds(_env_tables(env, T), [_ucb_policy(env, P, cfg.lam, beta_at)])[0]


def linucb_run(env: Environment, lam: float, beta_mode: BetaMode, T: int
               ) -> list[RoundRecord]:
    """Full-dimensional UCB baseline: the same policy with the identity map."""
    T = _horizon(env, T)
    beta_at = _beta_at(check_type(beta_mode, (FixedBeta, AdaptiveBeta), "beta_mode"), env.n)
    return _run_rounds(_env_tables(env, T), [_ucb_policy(env, None, lam, beta_at)])[0]


def uniform_run(env: Environment, seed: int, T: int) -> list[RoundRecord]:
    """Control baseline choosing arms uniformly from a seeded stream."""
    T = _horizon(env, T)
    return _run_rounds(_env_tables(env, T), [_uniform_policy(env, seed, T)])[0]
