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
import operator
import os
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .environment import (CONTEXT_GENERATORS, Environment, EnvConfig, Replay,
                          RoundRecord, env_config_from_dict, make_env, pop_number)
from .errors import ConfigError, DatasetError, InvalidInputError
from .policies import (AdaptiveBeta, FixedBeta, Policy, _beta_at, _run_rounds,
                       _ucb_policy, _uniform_policy)
from .projection import (ProjectionKind, ProjectionMatrix, build_projection,
                         dense_block, kaban_failure_bound, project_rows,
                         sg_distortion_sample)
from .rng import STREAM_PROJECTION, STREAM_UNIFORM, check_seed, derive_seed
from .theory import (TheoryParams, beta_schedule, confidence_distance,
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
        if not isinstance(self.env, EnvConfig):
            raise ConfigError(f"env: expected EnvConfig, got {type(self.env).__name__}")
        if self.m < 1 or self.m > self.env.n:
            raise ConfigError(f"m: need 1 <= m <= n, got m={self.m}, n={self.env.n}")
        if self.T < 1:
            raise ConfigError(f"T: must be >= 1, got {self.T}")
        if not self.algos:
            raise ConfigError("algos: need at least one policy")
        for a in self.algos:
            if a not in ALGOS:
                raise ConfigError(f"algos: unknown policy '{a}', expected one of {ALGOS}")
        if not self.adaptive_beta and not (self.beta > 0 and math.isfinite(self.beta)):
            raise ConfigError(f"beta: must be finite and positive, got {self.beta}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ConfigError(f"lam: must be finite and positive, got {self.lam}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta: must lie in (0, 1), got {self.delta}")
        if not self.seeds:
            raise ConfigError("seeds: need at least one seed")
        for seed in self.seeds:
            try:
                check_seed(seed)
            except InvalidInputError as exc:
                raise ConfigError(f"seeds: {exc}") from exc
        ctx = self.env.context
        if isinstance(ctx, Replay) and ctx.dataset.n_rounds < self.T:
            raise ConfigError(f"T: the replay dataset has {ctx.dataset.n_rounds} "
                              f"rounds, fewer than T={self.T}")


@dataclass
class AlgoSummary:
    algo: str
    regret_curves: list[list[float]]  # one nondecreasing length-T curve per seed
    final_regret_mean: float
    final_regret_std: float
    mean_round_latency_ns: float  # post warm-up


@dataclass
class ExperimentSummary:
    config: dict
    T: int
    seeds: list[int]
    algos: list[AlgoSummary]
    theory_bound: float | None = None
    success_probability: float | None = None
    coverage_rate: float | None = None

    def algo(self, name: str) -> AlgoSummary:
        for a in self.algos:
            if a.algo == name:
                return a
        raise KeyError(name)


def oracle_theory_params(env: Environment, P: ProjectionMatrix | None, *,
                         R: float, delta: float, lam: float, T: int,
                         rounds: Sequence | None = None) -> TheoryParams:
    """Theory constants measured from the ground truth over the full stream.

    Context streams do not depend on the policy's actions, so the scan can
    run ahead of any bandit run.  ``P=None`` means the identity map, for
    which the distortion terms are exactly zero; ``rounds`` may supply the
    prefetched blocks of ``draw_round`` to avoid re-drawing the stream.
    """
    theta = env.theta_star
    zeta = theta if P is None else P.entries @ theta
    S = float(np.linalg.norm(zeta))
    L = B = eps = x_max = 0.0
    for t in range(1, T + 1):
        block = env.draw_round(t) if rounds is None else rounds[t - 1]
        X = dense_block(block, env.n)
        Z = X if P is None else project_rows(P, block)
        means = X @ theta
        L = max(L, float(np.max(np.linalg.norm(Z, axis=1))))
        B = max(B, float(np.max(np.abs(means))))
        eps = max(eps, float(np.max(np.abs(Z @ zeta - means))))
        x_max = max(x_max, float(np.max(np.linalg.norm(X, axis=1))))
    theta_norm = float(np.linalg.norm(theta))
    eps1 = eps / (x_max * theta_norm) if x_max > 0 and theta_norm > 0 else 0.0
    # S, L, B are bounds; floor them away from zero for degenerate streams
    return TheoryParams(R=R, S=max(S, 1e-12), L=max(L, 1e-12), B=max(B, 1e-12),
                        lam=lam, delta=delta, eps=eps, eps1=eps1,
                        gamma=derive_gamma(P.m if P is not None else env.n, T, eps1))


def _policy(cfg: ExperimentConfig, env: Environment, algo: str, seed: int
            ) -> tuple[Policy, TheoryParams | None]:
    """One algo's policy on one seed's environment, with the oracle constants
    of its adaptive width (None for a fixed width or the uniform control)."""
    if algo == "uniform":
        return _uniform_policy(env, derive_seed(seed, STREAM_UNIFORM)), None
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
    identical configs produce byte-identical files; real latencies still
    feed the summary statistics.
    """
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
    warmup = min(50, cfg.T // 10)
    curves: list[list[list[float]]] = [[] for _ in cfg.algos]
    latencies: list[list[int]] = [[] for _ in cfg.algos]
    params: list[list[TheoryParams]] = [[] for _ in cfg.algos]
    for seed in cfg.seeds:
        env = make_env(replace(cfg.env, seed=seed))
        built = [_policy(cfg, env, algo, seed) for algo in cfg.algos]
        logs = _run_rounds(env, cfg.T, [policy for policy, _ in built])
        for i, (algo, (_, p), records) in enumerate(zip(cfg.algos, built, logs)):
            if p is not None:
                params[i].append(p)
            cum = np.cumsum([r.instant_regret for r in records])
            curves[i].append([float(v) for v in cum])
            latencies[i].extend(r.elapsed_ns for r in records[warmup:])
            if cfg.out_dir is not None:
                out = records if cfg.timing_in_csv \
                    else [dataclasses.replace(r, elapsed_ns=0) for r in records]
                emit_csv(out, os.path.join(cfg.out_dir, f"{algo}_seed{seed}.csv"))
    summaries = [AlgoSummary(
        algo=algo,
        regret_curves=curves[i],
        final_regret_mean=float(np.mean([c[-1] for c in curves[i]])),
        final_regret_std=float(np.std([c[-1] for c in curves[i]])),
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


# --- coverage of the confidence ellipsoid ---------------------------------

@dataclass(frozen=True)
class SeedCoverage:
    seed: int
    covered: bool
    first_violation: int | None
    cum_regret: float
    regret_bound: float
    success_probability: float
    params: TheoryParams


@dataclass
class CoverageResult:
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
    rounds = [env.draw_round(t) for t in range(1, cfg.T + 1)]
    params = oracle_theory_params(env, P, R=env.noise.sub_gaussian_r,
                                  delta=cfg.delta, lam=cfg.lam, T=cfg.T, rounds=rounds)
    zeta = P.entries @ env.theta_star
    select, state, _ = _ucb_policy(
        env, P, cfg.lam, lambda t: beta_scale * beta_schedule(params, cfg.m, t - 1))
    first_violation: int | None = None

    def check(t: int, block, chosen: int) -> None:
        # the loop has absorbed round t, so the state holds t observations
        nonlocal first_violation
        if first_violation is None and confidence_distance(state, zeta) \
                > beta_scale * beta_schedule(params, cfg.m, t):
            first_violation = t

    [records] = _run_rounds(env, cfg.T, [(select, state, check)], rounds)
    return SeedCoverage(
        seed=seed,
        covered=first_violation is None,
        first_violation=first_violation,
        cum_regret=float(np.cumsum([r.instant_regret for r in records])[-1]),
        regret_bound=regret_bound(params, cfg.m, cfg.T),
        success_probability=success_probability(params, cfg.m, cfg.T),
        params=params,
    )


def coverage_experiment(cfg: ExperimentConfig, num_seeds: int,
                        beta_scale: float = 1.0) -> CoverageResult:
    """Check that the projected true parameter stays in every ellipsoid.

    For each seed the theory constants (including the distortion) are
    measured from the ground truth and the projected policy runs through
    the policies' round loop with the adaptive width times ``beta_scale``.
    After each round, once the loop has absorbed it, the distance of
    zeta = M theta* from the estimate is compared with the round's width.
    """
    if num_seeds < 1:
        raise ConfigError(f"num_seeds must be >= 1, got {num_seeds}")
    if not (beta_scale > 0 and math.isfinite(beta_scale)):
        raise ConfigError(f"beta_scale must be finite and positive, got {beta_scale}")
    if isinstance(cfg.env.context, Replay):
        raise ConfigError("coverage_experiment needs a synthetic environment "
                          "(replay contexts are unsupported)")
    kind = _PROJECTION_KINDS.get(cfg.algos[0], ProjectionKind.STANDARD_GAUSSIAN)
    seeds = [cfg.seeds[i] if i < len(cfg.seeds) else derive_seed(cfg.seeds[-1], 99, i)
             for i in range(num_seeds)]
    per_seed = [_coverage_seed(cfg, kind, seed, beta_scale) for seed in seeds]
    hist = Counter(s.first_violation for s in per_seed if not s.covered)
    rate = sum(1 for s in per_seed if s.covered) / len(per_seed)
    return CoverageResult(coverage_rate=rate, per_seed=per_seed,
                          first_violation_hist=dict(sorted(hist.items())))


# --- distortion tail vs closed-form bound ----------------------------------

@dataclass(frozen=True)
class KabanCell:
    m: int
    eps1: float
    trials: int
    empirical_rate: float
    bound: float
    slack: float
    violated: bool


def kaban_experiment(m_list: Sequence[int], eps1_list: Sequence[float],
                     trials: int, seed: int = 0, n: int | None = None
                     ) -> list[KabanCell]:
    """Empirical exceedance rate of the normalized distortion per (m, eps1).

    One distortion sample of ``trials`` fresh Gaussian projections is drawn
    per m and compared against every eps1.  A cell is flagged violated when
    the rate exceeds the bound, allowing three-sigma binomial slack on
    cells whose bound is below 1e-3.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    try:  # every (m, eps1) is checked before any sampling starts
        bounds = [[kaban_failure_bound(m, eps1) for eps1 in eps1_list] for m in m_list]
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc
    cells = []
    for i, m in enumerate(m_list):
        errs = sg_distortion_sample(m, n or m, trials, derive_seed(seed, 17, i))
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
    cum = 0.0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for r in records:
            cum += r.instant_regret
            fh.write(f"{r.t},{r.chosen},{r.reward!r},{r.instant_regret!r},"
                     f"{cum!r},{r.elapsed_ns}\n")


def load_round_csv(path: str) -> list[RoundRecord]:
    """Parse an emitted round log back into records, checking the cum column."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
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
            cum += rec.instant_regret
            if float(parts[4]) != cum:
                raise DatasetError(
                    f"{path}: line {i}: cum_regret {parts[4]} != running sum {cum!r}")
        except ValueError as exc:
            raise DatasetError(f"{path}: line {i}: {exc}") from exc
        records.append(rec)
    return records


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def emit_summary(summary: ExperimentSummary | CoverageResult | list, path: str) -> None:
    """Write a summary as pretty-printed JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- config files -----------------------------------------------------------

def experiment_config_to_dict(cfg: ExperimentConfig) -> dict:
    d = dataclasses.asdict(cfg)
    env = d.pop("env")
    ctx = cfg.env.context
    env_d = {"n": cfg.env.n, "k": cfg.env.K, "seed": cfg.env.seed,
             "theta_norm": cfg.env.theta_norm}
    env_d["context"] = next(name for name, gen in CONTEXT_GENERATORS.items()
                            if isinstance(ctx, gen))
    if not isinstance(ctx, Replay):
        env_d.update(dataclasses.asdict(ctx))
    env_d["noise"] = cfg.env.noise.kind.value
    if cfg.env.noise.scale:
        env_d["noise_r"] = cfg.env.noise.scale
    d["env"] = env_d
    d["algos"] = list(cfg.algos)
    d["seeds"] = list(cfg.seeds)
    return _jsonable(d)


def parse_seeds(seeds) -> tuple[int, ...]:
    """Seeds given as a comma-separated string, one integer, or a list.

    Strings are read as base-10 integers; any other value must already be
    an integer, so ``1.5`` and ``True`` are rejected rather than truncated.
    """
    if isinstance(seeds, str):
        seeds = [s for s in seeds.split(",") if s]
    elif isinstance(seeds, int):
        seeds = [seeds]
    try:
        if any(isinstance(s, bool) for s in seeds):
            raise TypeError("a bool is not a seed")
        return tuple(int(s) if isinstance(s, str) else operator.index(s)
                     for s in seeds)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seeds: expected integers, got {seeds!r}") from exc


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    d = dict(d)
    env = env_config_from_dict(d.pop("env", None))
    m = pop_number(d, "m", int)
    T = pop_number(d, "t", int, d.pop("T", None))
    algos = d.pop("algos", d.pop("algo", "cbrap-sg"))
    if isinstance(algos, str):
        algos = [a for a in algos.split(",") if a]
    seeds = parse_seeds(d.pop("seeds", d.pop("seed", 0)))
    cfg = ExperimentConfig(
        env=env, m=m, T=T, algos=tuple(algos),
        beta=pop_number(d, "beta", float, 1.0),
        adaptive_beta=pop_number(d, "adaptive_beta", bool, False),
        lam=pop_number(d, "lambda", float, d.pop("lam", 1.0)),
        delta=pop_number(d, "delta", float, 0.05),
        seeds=seeds,
        out_dir=d.pop("out_dir", None),
        timing_in_csv=pop_number(d, "timing_in_csv", bool, False),
    )
    if d:
        raise ConfigError(f"unknown experiment config fields: {sorted(d)}")
    return cfg


def load_experiment_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return experiment_config_from_dict(raw)
