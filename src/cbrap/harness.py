"""Experiment runner: paired policy runs, validators, CSV/JSON artifacts.

An experiment executes one or more policies over a shared list of seeds.
Each seed builds one environment, and every policy runs on it in one
lockstep round loop that draws each round's contexts and noise once, so
the policies of an experiment are paired by construction.  Two further
experiments validate the theory: a coverage run checking that the
projected true parameter stays inside the confidence ellipsoid, and a
distortion-tail run comparing Monte Carlo exceedance rates against the
closed-form bound.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .environment import (CONTEXT_GENERATORS, Environment, EnvConfig, Replay, RoundRecord,
                          Table, _read_lines, env_config_from_dict, make_env, pop_number)
from .errors import (ConfigError, DatasetError, InvalidDimensionError, InvalidInputError,
                     check_count, check_int, check_real, check_type)
from .policies import (AdaptiveBeta, FixedBeta, Policy, _beta_at, _run_rounds,
                       _scoring_policy, _ucb_policy, _uniform_policy)
from .projection import (ProjectionKind, ProjectionMatrix, SparseBlock, _project_table,
                         _row_norms, build_projection, kaban_failure_bound,
                         sg_distortion_sample)
from .rng import (STREAM_DISTORTION, STREAM_PROJECTION, STREAM_SEEDS, STREAM_UNIFORM,
                  check_seed, derive_seed)
# confidence_distance is unused here but stays importable: perfbench's tracer
# wraps cbrap.harness.confidence_distance
from .theory import (TheoryParams, _confidence_distance, beta_schedule, confidence_distance,
                     derive_gamma, regret_bound, success_probability)

ALGOS = ("cbrap-sg", "cbrap-rs", "linucb", "uniform")

_PROJECTION_KINDS = {
    "cbrap-sg": ProjectionKind.STANDARD_GAUSSIAN,
    "cbrap-rs": ProjectionKind.RANDOM_SIGN_DENSE,
}


@dataclass(frozen=True)
class ExperimentConfig:
    env: EnvConfig
    m: int
    T: int
    algos: tuple[str, ...] = ("cbrap-sg",)
    beta: float = 1.0
    adaptive_beta: bool = False
    lam: float = 1.0
    delta: float = 0.05
    seeds: tuple[int, ...] = (0,)
    out_dir: str | None = None
    timing_in_csv: bool = False  # real timings make reruns non-identical

    def __post_init__(self):
        check_type(self.env, EnvConfig, "env", ConfigError)
        if self.env.seed != 0:  # a run replaces it with each of seeds
            raise ConfigError("env.seed: not an experiment field; give a run's seeds as 'seeds'")
        if not 1 <= check_int(self.m, "m", ConfigError) <= self.env.n:
            raise ConfigError(f"m: need 1 <= m <= n, got m={self.m}, n={self.env.n}")
        check_count(self.T, "T", ConfigError)
        if not check_type(self.algos, (tuple, list), "algos", ConfigError):
            raise ConfigError("algos: need at least one policy")
        for a in self.algos:
            if a not in ALGOS:
                raise ConfigError(f"algos: unknown policy '{a}', expected one of {ALGOS}")
        if len(set(self.algos)) < len(self.algos):
            # each algo's artifacts are named after it, so a repeat would overwrite them
            raise ConfigError(f"algos: each policy may appear once, got {list(self.algos)}")
        for name in ("adaptive_beta", "timing_in_csv"):
            check_type(getattr(self, name), bool, name, ConfigError)
        if self.out_dir is not None:
            check_type(self.out_dir, str, "out_dir", ConfigError)
        check_real(self.beta, "beta", ConfigError, positive=not self.adaptive_beta)
        check_real(self.lam, "lam", ConfigError, positive=True)
        if not 0.0 < check_real(self.delta, "delta", ConfigError) < 1.0:
            raise ConfigError(f"delta: must lie in (0, 1), got {self.delta}")
        if not check_type(self.seeds, (tuple, list), "seeds", ConfigError):
            raise ConfigError("seeds: need at least one seed")
        if len({check_seed(seed, "seeds", ConfigError) for seed in self.seeds}) < len(self.seeds):
            # a repeat would overwrite its artifacts and count its run twice
            raise ConfigError(f"seeds: each seed may appear once, got {list(self.seeds)}")
        ctx = self.env.context
        if isinstance(ctx, Replay) and ctx.dataset.n_rounds < self.T:
            raise ConfigError(f"T: the replay dataset has {ctx.dataset.n_rounds} "
                              f"rounds, fewer than T={self.T}")


@dataclass
class AlgoSummary:
    """One algo's results over an experiment's seeds, held as given."""
    algo: str
    regret_curves: list[np.ndarray]  # one read-only nondecreasing length-T curve per seed
    final_regret_mean: float
    final_regret_std: float
    mean_round_latency_ns: float  # post warm-up


@dataclass
class ExperimentSummary:
    """An experiment's config, its algos' results and its theory, held as given."""
    config: dict
    T: int
    seeds: list[int]
    algos: list[AlgoSummary]
    theory_bound: float | None = None
    success_probability: float | None = None

    def algo(self, name: str) -> AlgoSummary:
        for a in self.algos:
            if a.algo == name:
                return a
        raise InvalidInputError(f"no algo {name!r} in this summary; it has "
                                f"{[a.algo for a in self.algos]}")


def oracle_theory_params(env: Environment, P: ProjectionMatrix | None, *,
                         R: float, delta: float, lam: float, T: int) -> TheoryParams:
    """Theory constants measured from the ground truth over the full stream.

    Context streams do not depend on the policy's actions, so the scan can
    run ahead of any bandit run.  ``P=None`` means the identity map, for
    which the distortion terms are exactly zero.
    """
    check_type(env, Environment, "env")
    if check_type(P, (ProjectionMatrix, type(None)), "P") is not None and P.n != env.n:
        raise InvalidDimensionError(f"projection n={P.n} does not match env n={env.n}")
    T = check_count(T, "T", lo=0)
    return _oracle_scan(env, P, R=R, delta=delta, lam=lam, T=T, keep=False)[0]


def _oracle_scan(env: Environment, P: ProjectionMatrix | None, *, R: float,
                 delta: float, lam: float, T: int, keep: bool
                 ) -> tuple[TheoryParams, list[Table] | None]:
    """``oracle_theory_params`` in one pass over the tables of the round
    source the loop reads (``Environment._tables``, which draws dense
    tables ahead on its pool).  Each table is projected once, by the
    helper the loop's projected policies use (``projection._project_table``).
    A dense table is priced and normed once too, in stacked products over
    its (R, K, n) slices, which give each row its own round's bits; one 2-D
    product over its R * K rows could differ in the last bit.  A sparse
    table is densified a round at a time.
    With ``keep`` it also returns the (ts, Z, means, noise) tables it
    scanned, Z their projections, for the round loop to replay; else None.

    B is taken from ``X @ theta*``, one matrix-vector product per round,
    not from the tables' means, which are per-row dots (``Environment._means``).
    The two differ in the last bit on most rows (8,470 of 10,000 at n=200,
    K=10, T=1000, seed 0).  B keeps the product because the per-seed
    coverage digests pin the parameters it gives.  The identity map
    (``P=None``) has no distortion, so its gamma is 0.
    """
    theta = env.theta_star
    with np.errstate(over="ignore"):  # a norm squares through dot: inf is the error below
        zeta = theta if P is None else P.entries @ theta
        S, theta_norm = float(np.linalg.norm(zeta)), float(np.linalg.norm(theta))
    # S is a bound: floored away from zero for degenerate streams, checked before any draw
    S = check_real(max(S, 1e-12), "S", positive=True)
    check_real(theta_norm, "||theta*||")
    # per row: ||z||, <x, theta*>, <z, zeta> and ||x||; maxima taken at the end
    z_norm, x_theta, z_zeta, x_norm = np.empty((4, T, env.K))
    kept: list[Table] | None = [] if keep else None

    def scan(lo: int, X: np.ndarray, Z: np.ndarray) -> None:
        # the (R, K, .) rows of rounds lo+1 .. lo+R, as stacked products
        hi = lo + len(X)
        x_theta[lo:hi] = X @ theta
        z_norm[lo:hi] = _row_norms(Z)
        z_zeta[lo:hi] = Z @ zeta
        x_norm[lo:hi] = _row_norms(X)
    with closing(env._tables(T)) as tables:
        for ts, table, means, noise in tables:
            lo = ts[0] - 1
            Z = None if P is None else _project_table(P, table, env.K)
            if isinstance(table, SparseBlock):  # densified a round at a time
                for i in range(len(ts)):
                    X = table._rows(i * env.K, (i + 1) * env.K).to_dense()[None]
                    scan(lo + i, X, X if Z is None else Z[i:i + 1])
            else:
                scan(lo, table, table if Z is None else Z)
            if kept is not None:
                kept.append((ts, Z, means, noise))
    L = float(np.max(z_norm, initial=0.0))
    B = float(np.max(np.abs(x_theta), initial=0.0))
    eps = float(np.max(np.abs(z_zeta - x_theta), initial=0.0))
    x_max = float(np.max(x_norm, initial=0.0))
    eps1 = eps / (x_max * theta_norm) if x_max > 0 and theta_norm > 0 else 0.0
    # L and B are bounds too, floored likewise
    params = TheoryParams(R=R, S=S, L=max(L, 1e-12), B=max(B, 1e-12),
                          lam=lam, delta=delta, eps=eps, eps1=eps1,
                          gamma=0.0 if P is None else derive_gamma(P.m, T, eps1))
    return params, kept


def _policy(cfg: ExperimentConfig, env: Environment, algo: str, seed: int
            ) -> tuple[Policy, TheoryParams | None]:
    """One algo's policy on one seed's environment, with the oracle constants
    of its adaptive width (None for a fixed width or the uniform control)."""
    if algo == "uniform":
        return _uniform_policy(env, derive_seed(seed, STREAM_UNIFORM), cfg.T), None
    kind = _PROJECTION_KINDS.get(algo)  # None: linucb, the identity map
    P = None if kind is None \
        else build_projection(kind, cfg.m, env.n, derive_seed(seed, STREAM_PROJECTION))
    if not cfg.adaptive_beta:
        return _ucb_policy(env, P, cfg.lam, _beta_at(FixedBeta(cfg.beta), cfg.m)), None
    params = oracle_theory_params(env, P, R=env.noise.sub_gaussian_r,
                                  delta=cfg.delta, lam=cfg.lam, T=cfg.T)
    beta_at = _beta_at(AdaptiveBeta(params), env.n if P is None else cfg.m)
    return _ucb_policy(env, P, cfg.lam, beta_at), params


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run every algo on every seed, write artifacts, and summarize.

    Each seed builds one environment and runs all algos on it in lockstep,
    so they see the same blocks and the same noise.  Per-round CSVs are
    written with ``elapsed_ns`` zeroed unless ``timing_in_csv`` is set, so
    identical configs produce byte-identical CSVs; real latencies still
    feed the summary statistics.  Only the CSVs are byte-stable:
    ``summary.json`` of a rerun differs in each algo's measured
    ``mean_round_latency_ns`` and, in another directory, in ``out_dir``.
    ``out_dir`` is made when the first seed's CSVs are written: a run that
    raises before then leaves none, and a run of several seeds that raises
    later leaves the finished seeds' CSVs and no ``summary.json``.
    Finite regrets whose sum over a seed's rounds overflows raise
    ``InvalidInputError`` before that seed's CSVs are written, and so do
    final regrets whose mean or std over seeds does, before ``summary.json``.
    """
    check_type(cfg, ExperimentConfig, "cfg", ConfigError)
    warmup = min(50, cfg.T // 10)
    curves: list[list[np.ndarray]] = [[] for _ in cfg.algos]
    latencies: list[list[int]] = [[] for _ in cfg.algos]
    params: list[list[TheoryParams]] = [[] for _ in cfg.algos]
    for seed in cfg.seeds:
        env = make_env(replace(cfg.env, seed=seed))
        built = [_policy(cfg, env, algo, seed) for algo in cfg.algos]
        logs = _run_rounds(env._tables(cfg.T), [policy for policy, _ in built])
        cums = [_cum_regret(records, algo) for algo, records in zip(cfg.algos, logs)]
        if cfg.out_dir is not None:
            os.makedirs(cfg.out_dir, exist_ok=True)
        for i, (algo, (_, p), records, cum) in enumerate(zip(cfg.algos, built, logs, cums)):
            if p is not None:
                params[i].append(p)
            curves[i].append(cum)
            latencies[i].extend(r.elapsed_ns for r in records[warmup:])
            if cfg.out_dir is not None:
                # tuple's __new__: the named tuple's own, and its _replace, are slower
                out = records if cfg.timing_in_csv else [
                    tuple.__new__(RoundRecord, (t, chosen, reward, regret, gap, 0))
                    for t, chosen, reward, regret, gap, _ in records]
                emit_csv(out, os.path.join(cfg.out_dir, f"{algo}_seed{seed}.csv"))
    summaries = [AlgoSummary(
        algo=algo,
        regret_curves=curves[i],
        final_regret_mean=_over_seeds(np.mean, [c[-1] for c in curves[i]], algo),
        final_regret_std=_over_seeds(np.std, [c[-1] for c in curves[i]], algo),
        mean_round_latency_ns=float(np.mean(latencies[i])),
    ) for i, algo in enumerate(cfg.algos)]
    flat = [p for per_algo in params for p in per_algo]  # summed algo by algo
    bounds = [regret_bound(p, cfg.m, cfg.T) for p in flat]
    succs = [success_probability(p, cfg.m, cfg.T) for p in flat]
    summary = ExperimentSummary(
        config=experiment_config_to_dict(cfg),
        T=cfg.T,
        seeds=list(cfg.seeds),
        algos=summaries,
        theory_bound=float(np.mean(bounds)) if bounds else None,
        success_probability=float(np.mean(succs)) if succs else None,
    )
    if cfg.out_dir is not None:
        emit_summary(summary, os.path.join(cfg.out_dir, "summary.json"))
    return summary


def _cum_regret(records: Sequence[RoundRecord], algo: str) -> np.ndarray:
    """A run's read-only cumulative regret curve.  The loop checked each
    round's regret, but finite ones can overflow their sum, which is then
    an ``InvalidInputError``: the sum is nondecreasing, so its end says."""
    with np.errstate(over="ignore"):
        cum = np.cumsum([r.instant_regret for r in records])
    if not math.isfinite(cum[-1]):
        raise InvalidInputError(f"{algo}: the sum of its finite regrets overflows to {cum[-1]}")
    cum.setflags(write=False)
    return cum


def _over_seeds(stat, finals: list, algo: str) -> float:
    # stat (np.mean or np.std) of an algo's final regrets, which can overflow
    # though each is finite: an InvalidInputError, without numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(stat(finals))
    if not math.isfinite(value):
        raise InvalidInputError(f"{algo}: the {stat.__name__} of its final regrets over seeds "
                                f"overflows to {value}")
    return value


# --- coverage of the confidence ellipsoid ---------------------------------

@dataclass(frozen=True)
class SeedCoverage:
    """One coverage seed's outcome, held as given."""
    seed: int
    covered: bool
    first_violation: int | None
    cum_regret: float
    regret_bound: float
    success_probability: float
    params: TheoryParams


@dataclass
class CoverageResult:
    """A coverage experiment's outcome over its seeds, held as given."""
    coverage_rate: float
    per_seed: list[SeedCoverage]
    first_violation_hist: dict[int, int]

    @property
    def dominance_fraction(self) -> float:
        """Fraction of seeds whose empirical regret stayed below the bound."""
        ok = sum(1 for s in self.per_seed if s.cum_regret <= s.regret_bound)
        return ok / len(self.per_seed)


def _coverage_seed(cfg: ExperimentConfig, kind: ProjectionKind, seed: int,
                   beta_scale: float) -> SeedCoverage:
    env = make_env(replace(cfg.env, seed=seed))
    P = build_projection(kind, cfg.m, env.n, derive_seed(seed, STREAM_PROJECTION))
    # one pass draws, checks and projects each table; the loop replays the
    # scanned (ts, Z, means, noise) tables, so no table of contexts outlives the scan
    params, tables = _oracle_scan(env, P, R=env.noise.sub_gaussian_r, delta=cfg.delta,
                                  lam=cfg.lam, T=cfg.T, keep=True)
    zeta = P.entries @ env.theta_star
    # the scaled width after t observations, for t = 0 .. T
    width = [beta_scale * beta_schedule(params, cfg.m, t) for t in range(cfg.T + 1)]
    step, select, state = _scoring_policy(cfg.m, cfg.lam, lambda Z: Z, lambda t: width[t - 1])
    first_violation: int | None = None

    def check(t: int) -> None:
        # the state holds rounds 1..t; it and zeta are this seed's own, so the
        # distance is unchecked
        nonlocal first_violation
        if t > 0 and first_violation is None and _confidence_distance(state, zeta) > width[t]:
            first_violation = t

    # round t's select first checks the state as the loop left it, with rounds 1..t-1
    [records] = _run_rounds(tables, [(step, lambda t, Z: check(t - 1) or select(t, Z), state)])
    check(cfg.T)
    return SeedCoverage(
        seed=seed,
        covered=first_violation is None,
        first_violation=first_violation,
        cum_regret=float(_cum_regret(records, cfg.algos[0])[-1]),
        regret_bound=regret_bound(params, cfg.m, cfg.T),
        success_probability=success_probability(params, cfg.m, cfg.T),
        params=params,
    )


def coverage_experiment(cfg: ExperimentConfig, num_seeds: int,
                        beta_scale: float = 1.0) -> CoverageResult:
    """Check that the projected true parameter stays in every ellipsoid.

    It reads ``cfg``'s env, m, T, algos, lam, delta and seeds, and not its
    adaptive_beta, out_dir or timing_in_csv.  For each seed the theory
    constants (including the distortion) are measured from the ground truth
    and the projected policy runs through the policies' round loop with the
    oracle width times ``beta_scale``, so a ``beta`` other than 1.0 is a
    ConfigError before any seed runs.
    The state that holds rounds 1..t is checked before round t+1's select,
    and after the loop for t = T: the distance of zeta = M theta* from the
    estimate is compared with the width after t observations.
    ``cfg.algos`` names the one projected policy checked, ``cbrap-sg`` or
    ``cbrap-rs``; anything else is a ConfigError before any seed runs.
    """
    check_type(cfg, ExperimentConfig, "cfg", ConfigError)
    num_seeds = check_count(num_seeds, "num_seeds", ConfigError)
    check_real(beta_scale, "beta_scale", ConfigError, positive=True)
    if cfg.beta != 1.0:
        raise ConfigError(f"beta: coverage does not read it (its width is the oracle width "
                          f"times beta_scale), got {cfg.beta}")
    if isinstance(cfg.env.context, Replay):
        raise ConfigError("coverage_experiment needs a synthetic environment "
                          "(replay contexts are unsupported)")
    if len(cfg.algos) != 1 or cfg.algos[0] not in _PROJECTION_KINDS:
        raise ConfigError(f"algos: coverage runs exactly one of {sorted(_PROJECTION_KINDS)}, "
                          f"got {list(cfg.algos)}")
    kind = _PROJECTION_KINDS[cfg.algos[0]]
    seeds = [cfg.seeds[i] if i < len(cfg.seeds) else derive_seed(cfg.seeds[-1], STREAM_SEEDS, i)
             for i in range(num_seeds)]
    per_seed = [_coverage_seed(cfg, kind, seed, beta_scale) for seed in seeds]
    hist = Counter(s.first_violation for s in per_seed if not s.covered)
    rate = sum(1 for s in per_seed if s.covered) / len(per_seed)
    return CoverageResult(coverage_rate=rate, per_seed=per_seed,
                          first_violation_hist=dict(sorted(hist.items())))


# --- distortion tail vs closed-form bound ----------------------------------

@dataclass(frozen=True)
class KabanCell:
    """One (m, eps1) cell of a distortion-tail table, held as given."""
    m: int
    eps1: float
    trials: int
    empirical_rate: float
    bound: float
    slack: float
    violated: bool


def kaban_experiment(m_list: Sequence[int], eps1_list: Sequence[float],
                     trials: int, seed: int = 0) -> list[KabanCell]:
    """Empirical exceedance rate of the normalized distortion per (m, eps1).

    One distortion sample of ``trials`` fresh m x m Gaussian projections is
    drawn per m and compared against every eps1.  A cell is flagged violated
    when the rate exceeds the bound, allowing three-sigma binomial slack on
    cells whose bound is below 1e-3.
    """
    # every (m, eps1) is checked before any sampling starts
    trials = check_count(trials, "trials", ConfigError)
    check_seed(seed, "seed", ConfigError)
    m_list = [check_count(m, "m_list", ConfigError)
              for m in check_type(m_list, (list, tuple), "m_list", ConfigError)]
    eps1_list = [check_real(eps1, "eps1_list", ConfigError, positive=True)
                 for eps1 in check_type(eps1_list, (list, tuple), "eps1_list", ConfigError)]
    bounds = [[kaban_failure_bound(m, eps1) for eps1 in eps1_list] for m in m_list]
    cells = []
    for i, m in enumerate(m_list):
        errs = sg_distortion_sample(m, m, trials, derive_seed(seed, STREAM_DISTORTION, i))
        for eps1, bound in zip(eps1_list, bounds[i]):
            rate = float(np.mean(errs > eps1))
            slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials) \
                if bound < 1e-3 else 0.0
            cells.append(KabanCell(m=int(m), eps1=float(eps1), trials=trials,
                                   empirical_rate=rate, bound=bound, slack=slack,
                                   violated=rate > bound + slack))
    return cells


# --- artifacts --------------------------------------------------------------

_CSV_HEADER = "t,chosen,reward,instant_regret,cum_regret,elapsed_ns"


def emit_csv(records: Sequence[RoundRecord], path: str) -> None:
    """Write a round log; cum_regret is the running sum of instant_regret."""
    check_type(path, (str, os.PathLike), "path")
    if not all(isinstance(r, RoundRecord) for r in check_type(records, (list, tuple), "records")):
        raise InvalidInputError("records: expected RoundRecord items")
    lines, cum = [_CSV_HEADER], 0.0
    for r in records:
        cum += r.instant_regret
        lines.append(f"{r.t},{r.chosen},{r.reward!r},{r.instant_regret!r},{cum!r},"
                     f"{r.elapsed_ns}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_round_csv(path: str) -> list[RoundRecord]:
    """Parse an emitted round log back into records, checking the cum column."""
    lines = _read_lines(path, DatasetError)
    if not lines or lines[0] != _CSV_HEADER:
        raise DatasetError(f"{path}: line 1: expected header {_CSV_HEADER!r}")
    records = []
    cum = 0.0
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise DatasetError(f"{path}: line {i}: expected 6 columns, got {len(parts)}")
        try:
            rec = RoundRecord(t=int(parts[0]), chosen=int(parts[1]),
                              reward=float(parts[2]), instant_regret=float(parts[3]),
                              ucb_gap=0.0, elapsed_ns=int(parts[5]))
            logged = float(parts[4])
        except ValueError as exc:
            raise DatasetError(f"{path}: line {i}: {exc}") from exc
        cum += rec.instant_regret
        if logged != cum:
            raise DatasetError(f"{path}: line {i}: cum_regret {parts[4]} != running sum {cum!r}")
        records.append(rec)
    return records


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())  # a numpy float is written as a Python one
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "nan", "inf" or "-inf": JSON has no such numbers
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # the fields themselves: asdict would deep-copy every curve first
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isfinite(value).all():
            return value.tolist()  # Python floats, all of them finite
        return _jsonable(value.tolist())
    return value


def emit_summary(summary: ExperimentSummary | CoverageResult | list, path: str) -> None:
    """Write a summary as pretty-printed JSON with a trailing newline; a
    non-finite float is written as the string "inf", "-inf" or "nan"."""
    if not isinstance(summary, (ExperimentSummary, CoverageResult)) and not (
            isinstance(summary, list) and all(isinstance(c, KabanCell) for c in summary)):
        raise InvalidInputError(f"summary: expected a summary or KabanCell list, got {summary!r}")
    check_type(path, (str, os.PathLike), "path")
    text = json.dumps(_jsonable(summary), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


# --- config files -----------------------------------------------------------

def experiment_config_to_dict(cfg: ExperimentConfig) -> dict:
    # cfg's config file, keyed t and lambda and without env.seed (always 0:
    # a run takes each of seeds in its place); a replay's rows are left out,
    # so only a synthetic config reads back.  The fields themselves: asdict
    # would copy them
    d = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    d["t"], d["lambda"] = d.pop("T"), d.pop("lam")
    ctx = cfg.env.context
    env_d = {"n": cfg.env.n, "k": cfg.env.K, "theta_norm": cfg.env.theta_norm}
    env_d["context"] = next(name for name, gen in CONTEXT_GENERATORS.items()
                            if isinstance(ctx, gen))
    if not isinstance(ctx, Replay):
        env_d.update(dataclasses.asdict(ctx))
    env_d["noise"] = cfg.env.noise.kind.value
    if cfg.env.noise.scale:
        env_d["noise_r"] = cfg.env.noise.scale
    d["env"] = env_d
    return _jsonable(d)  # algos and seeds as lists


def parse_seeds(seeds) -> tuple[int, ...]:
    """Seeds given as a comma-separated string, one value, or a list, each
    string read as a base-10 integer.  Every seed must then be an integer,
    so ``1.5`` and ``True`` are rejected rather than truncated."""
    if isinstance(seeds, str):
        seeds = [s for s in seeds.split(",") if s]
    elif not isinstance(seeds, (list, tuple)):
        seeds = [seeds]
    try:
        seeds = [int(s) if isinstance(s, str) else s for s in seeds]
    except ValueError as exc:
        raise ConfigError(f"seeds: expected integers, got {seeds!r}") from exc
    return tuple(check_int(s, "seeds", ConfigError) for s in seeds)


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    d = dict(d)
    env = env_config_from_dict(env_d := d.pop("env", None))
    if "seed" in env_d:  # a seed of 0 too, which ExperimentConfig would take
        raise ConfigError("env.seed: not an experiment field; give a run's seeds as 'seeds'")
    m = pop_number(d, "m", int)
    T = pop_number(d, "t", int)
    algos = d.pop("algos", "cbrap-sg")
    if isinstance(algos, str):
        algos = [a for a in algos.split(",") if a]
    elif not (isinstance(algos, list) and all(isinstance(a, str) for a in algos)):
        raise ConfigError(f"algos: expected str or list of str, got {algos!r}")
    seeds = parse_seeds(d.pop("seeds", 0))
    cfg = ExperimentConfig(
        env=env, m=m, T=T, algos=tuple(algos),
        beta=pop_number(d, "beta", float, 1.0),
        adaptive_beta=d.pop("adaptive_beta", False),
        lam=pop_number(d, "lambda", float, 1.0),
        delta=pop_number(d, "delta", float, 0.05),
        seeds=seeds,
        out_dir=d.pop("out_dir", None),
        timing_in_csv=d.pop("timing_in_csv", False),
    )
    if d:
        raise ConfigError(f"unknown experiment config fields: {sorted(d)}")
    return cfg


def _read_config(path: str) -> dict:
    try:
        raw = json.loads("\n".join(_read_lines(path, ConfigError)))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return raw


def load_experiment_config(path: str) -> ExperimentConfig:
    return experiment_config_from_dict(_read_config(path))
