"""The benchmark's workloads: generated configs, the ops that run them, and
the checks on what they return.

Every op is one call into cbrap's public API made by a single caller that
waits for it to return: a closed loop with one client.  An op is one
(algo, seed) policy run through ``run_experiment``, one coverage seed
through ``coverage_experiment``, or one ``kaban_experiment`` sweep, whose
cells are counted as separate ops.

A run is a sequence of cycles, each on a seed derived from the workload
seed and the cycle index.  The first ``core_cycles`` cycles are the fixed
core: ``regret_ratio`` and the traced split come from it, so they depend
on the seed alone.  Further cycles fill the rest of the measuring time and
add samples to the timings, which are medians over ops or cycles, scaled
to a reference machine speed (see calibration.py).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cbrap
from calibration import REF_CALIBRATION_S, calibrate, scale
from cbrap.rng import STREAM_PROJECTION, derive_seed

M = 20
K = 10
NOISE_R = 0.1
LAM = 1.0
BETA = 1.0
DELTA = 0.05
KABAN_M = (8, 32, 128)
KABAN_EPS1 = (0.25, 0.5, 0.75, 1.0)
KABAN_CELLS = len(KABAN_M) * len(KABAN_EPS1)


@dataclass(frozen=True)
class Sizes:
    n: int
    T: int                 # horizon of cbrap-sg, uniform and coverage runs
    core_cycles: int
    linucb_T: int = 0      # 0: the workload runs no linucb
    pair_T: int = 0        # horizon of the paired run_experiment check
    ref_rounds: int = 0    # rounds recomputed by the reference UCB check
    kaban_trials: int = 0  # 0: the workload runs no kaban sweep


@dataclass(frozen=True)
class Workload:
    name: str
    theory: bool           # coverage + kaban instead of artifact-writing runs
    context: Callable[[], object]
    full: Sizes
    tiny: Sizes

    def sizes(self, tiny: bool) -> Sizes:
        return self.tiny if tiny else self.full

    def env_config(self, sizes: Sizes, seed: int):
        return cbrap.EnvConfig(n=sizes.n, K=K, context=self.context(),
                               noise=cbrap.NoiseSpec.gaussian(NOISE_R), seed=seed)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("dense-n2000", False, lambda: cbrap.GaussianUnit(),
             full=Sizes(n=2000, T=1000, core_cycles=3, linucb_T=12, pair_T=12,
                        ref_rounds=300),
             tiny=Sizes(n=200, T=60, core_cycles=2, linucb_T=5, pair_T=5,
                        ref_rounds=30)),
    Workload("sparse-n4000", False, lambda: cbrap.SparseUniform(nnz=5),
             full=Sizes(n=4000, T=1000, core_cycles=4, pair_T=50, ref_rounds=300),
             tiny=Sizes(n=400, T=60, core_cycles=2, pair_T=20, ref_rounds=30)),
    Workload("theory-validation", True, lambda: cbrap.GaussianUnit(),
             full=Sizes(n=200, T=1000, core_cycles=8, kaban_trials=500),
             tiny=Sizes(n=50, T=100, core_cycles=2, kaban_trials=100)),
)}


def cycle_seed(seed: int, cycle: int) -> int:
    """The environment seed of one cycle, a pure function of (seed, cycle)."""
    return int(np.random.SeedSequence([seed, cycle]).generate_state(1)[0])


def build_first(w: Workload, sizes: Sizes, seed: int):
    """Set-up: the first cycle's environment and projection matrix."""
    s = cycle_seed(seed, 0)
    env = cbrap.make_env(w.env_config(sizes, s))
    P = cbrap.build_projection(cbrap.ProjectionKind.STANDARD_GAUSSIAN, M, sizes.n,
                               derive_seed(s, STREAM_PROJECTION))
    return env, P


@dataclass
class Op:
    kind: str              # cbrap | uniform | linucb | coverage | kaban
    cycle: int
    seed: int
    units: int             # rounds, or kaban trials x number of m values
    call: Callable[[], object]
    out_dir: str | None = None
    seconds: float = 0.0
    calibration_s: float = REF_CALIBRATION_S
    result: object = None
    error: str | None = None

    @property
    def attempted(self) -> int:
        return KABAN_CELLS if self.kind == "kaban" else 1


def _experiment_op(w, sizes, kind, algo, T, cycle, seed, tmp) -> Op:
    out_dir = None if tmp is None else os.path.join(tmp, f"c{cycle}-{algo}")
    cfg = cbrap.ExperimentConfig(env=w.env_config(sizes, 0), m=M, T=T, algos=(algo,),
                                 beta=BETA, lam=LAM, delta=DELTA, seeds=(seed,),
                                 out_dir=out_dir)
    return Op(kind, cycle, seed, T, lambda: cbrap.run_experiment(cfg), out_dir=out_dir)


def cycle_ops(w: Workload, sizes: Sizes, cycle: int, seed: int, tmp: str) -> list[Op]:
    s = cycle_seed(seed, cycle)
    if not w.theory:
        ops = [_experiment_op(w, sizes, "cbrap", "cbrap-sg", sizes.T, cycle, s, tmp),
               _experiment_op(w, sizes, "uniform", "uniform", sizes.T, cycle, s, tmp)]
        if sizes.linucb_T:
            ops.append(_experiment_op(w, sizes, "linucb", "linucb", sizes.linucb_T,
                                      cycle, s, tmp))
        return ops
    cov_cfg = cbrap.ExperimentConfig(env=w.env_config(sizes, 0), m=M, T=sizes.T,
                                     lam=LAM, delta=DELTA, seeds=(s,))
    trials = sizes.kaban_trials
    return [
        Op("coverage", cycle, s, sizes.T,
           lambda: cbrap.coverage_experiment(cov_cfg, 1)),
        # no artifacts: this workload writes none
        _experiment_op(w, sizes, "uniform", "uniform", sizes.T, cycle, s, None),
        Op("kaban", cycle, s, trials * len(KABAN_M),
           lambda: cbrap.kaban_experiment(KABAN_M, KABAN_EPS1, trials, seed=s)),
    ]


def run_op(op: Op) -> None:
    """Run and time one op, calibrating the machine speed around it."""
    before = calibrate()
    t0 = time.perf_counter()
    try:
        op.result = op.call()
    except Exception:  # an op that raises is counted as failed; the run goes on
        op.error = traceback.format_exc()
    op.seconds = time.perf_counter() - t0
    op.calibration_s = (before + calibrate()) / 2


def run_cycle(w: Workload, sizes: Sizes, cycle: int, seed: int, tmp: str | None,
              ops: list[Op], before_op: Callable[[int], None] | None = None) -> None:
    """Run one cycle's ops, appending them to ``ops``; ``before_op``
    receives each op's index in ``ops`` before it runs."""
    for op in cycle_ops(w, sizes, cycle, seed, tmp):
        if before_op is not None:
            before_op(len(ops))
        run_op(op)
        ops.append(op)


def run_cycles(w: Workload, sizes: Sizes, seed: int, tmp: str,
               fill_seconds: float) -> list[Op]:
    """Run the core cycles, then more cycles until ``fill_seconds`` have
    passed since the start."""
    ops: list[Op] = []
    start = time.perf_counter()
    cycle = 0
    while cycle < sizes.core_cycles or time.perf_counter() - start < fill_seconds:
        run_cycle(w, sizes, cycle, seed, tmp, ops)
        cycle += 1
    return ops


# --- checks -----------------------------------------------------------------

def _csv_path(op: Op) -> str:
    algo = {"cbrap": "cbrap-sg"}.get(op.kind, op.kind)
    return os.path.join(op.out_dir, f"{algo}_seed{op.seed}.csv")


def _check_round_csv(path: str, T: int) -> None:
    """Reload a per-round CSV through the package and check its rows."""
    records = cbrap.load_round_csv(path)  # checks the cum_regret column
    if len(records) != T:
        raise ValueError(f"{path}: {len(records)} rows, expected {T}")
    if [r.t for r in records] != list(range(1, T + 1)):
        raise ValueError(f"{path}: round column is not 1..{T}")
    regret = np.array([r.instant_regret for r in records])
    if not np.all(np.isfinite(regret)) or np.any(regret < 0):
        raise ValueError(f"{path}: instant regret not finite and non-negative")


def op_failures(op: Op) -> list[str]:
    """Problems with one op's output; kaban reports one per violated cell."""
    if op.error is not None:
        return [op.error] * op.attempted
    if op.kind == "kaban":
        return [f"kaban cell m={c.m} eps1={c.eps1} violated: rate {c.empirical_rate} "
                f"> bound {c.bound} + slack {c.slack}" for c in op.result if c.violated]
    try:
        if op.kind == "coverage":
            (s,) = op.result.per_seed
            if not (math.isfinite(s.cum_regret) and s.cum_regret >= 0):
                raise ValueError(f"coverage seed {op.seed}: regret {s.cum_regret}")
            return []
        curve = op.result.algos[0].regret_curves[0]
        if len(curve) != op.units or not np.all(np.isfinite(curve)) or min(curve) < 0:
            raise ValueError(f"{op.kind} seed {op.seed}: bad regret curve")
        if op.out_dir is not None:
            _check_round_csv(_csv_path(op), op.units)
            with open(os.path.join(op.out_dir, "summary.json"), encoding="utf-8") as fh:
                json.load(fh)
    except (OSError, ValueError, cbrap.CbrapError) as exc:
        return [f"{op.kind} seed {op.seed}: {exc}"]
    return []


def _dense_rows(contexts, n: int) -> np.ndarray:
    # accepts ContextVectors or array rows, so the check outlives a change
    # of draw_round's return type
    return np.stack([c.to_dense() if hasattr(c, "to_dense") else np.asarray(c, float)
                     for c in contexts]).reshape(-1, n)


def reference_mismatches(w: Workload, sizes: Sizes, op: Op) -> int:
    """Recompute the first ``ref_rounds`` cbrap-sg choices with a direct ridge
    solve and count the rounds whose chosen arm differs from the CSV's.

    The contexts come from ``draw_round`` and the matrix from
    ``build_projection`` with the experiment's seed derivation; the state at
    round t holds rounds 1..t-1 (the start-of-next-round update), fed with
    the arm and reward the program logged, so one differing round does not
    desynchronize the rest.
    """
    records = cbrap.load_round_csv(_csv_path(op))
    env = cbrap.make_env(w.env_config(sizes, op.seed))
    P = cbrap.build_projection(cbrap.ProjectionKind.STANDARD_GAUSSIAN, M, sizes.n,
                               derive_seed(op.seed, STREAM_PROJECTION)).entries
    A = LAM * np.eye(M)
    b = np.zeros(M)
    mismatches = 0
    for t in range(1, sizes.ref_rounds + 1):
        Z = _dense_rows(env.draw_round(t), sizes.n) @ P.T
        sol = np.linalg.solve(A, np.column_stack([b, Z.T]))
        width = np.sqrt(np.maximum(np.einsum("km,mk->k", Z, sol[:, 1:]), 0.0))
        ucb = Z @ sol[:, 0] + BETA * width
        rec = records[t - 1]
        mismatches += int(np.argmax(ucb)) != rec.chosen
        z = Z[rec.chosen]
        A += np.outer(z, z)
        b += rec.reward * z
    return mismatches


def paired_check(w: Workload, sizes: Sizes, ops: list[Op], tmp: str) -> str | None:
    """Run every algo of the workload on the first seed in one
    ``run_experiment`` call, so its pairing check runs, and compare each CSV
    with the first rows of the separate run's CSV."""
    by_kind: dict[str, Op] = {}
    for op in ops:
        if op.cycle == 0 and op.out_dir is not None:
            by_kind.setdefault(op.kind, op)
    first = list(by_kind.values())
    algos = tuple({"cbrap": "cbrap-sg"}.get(op.kind, op.kind) for op in first)
    out_dir = os.path.join(tmp, "paired")
    cfg = cbrap.ExperimentConfig(env=w.env_config(sizes, 0), m=M, T=sizes.pair_T,
                                 algos=algos, beta=BETA, lam=LAM, delta=DELTA,
                                 seeds=(first[0].seed,), out_dir=out_dir)
    try:
        cbrap.run_experiment(cfg)
        for op in first:
            name = os.path.basename(_csv_path(op))
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                paired = fh.read().splitlines()
            with open(_csv_path(op), encoding="utf-8") as fh:
                single = fh.read().splitlines()[:sizes.pair_T + 1]
            if paired != single:
                return f"paired {name} differs from the separate run's first rows"
    except (OSError, RuntimeError, cbrap.CbrapError) as exc:
        return f"paired run_experiment failed: {exc}"
    return None


@dataclass
class Checked:
    attempted: int
    failures: list[str]
    reference_mismatches: int = 0


def check(w: Workload, sizes: Sizes, ops: list[Op], tmp: str) -> Checked:
    """Every output check of a run; each failure counts against ``attempted``."""
    out = Checked(sum(op.attempted for op in ops),
                  [f for op in ops for f in op_failures(op)])
    if not w.theory:
        out.attempted += 1 + sizes.ref_rounds
        problem = paired_check(w, sizes, ops, tmp)
        if problem:
            out.failures.append(problem)
        ref = next(op for op in ops if op.kind == "cbrap" and op.cycle == 0)
        try:
            out.reference_mismatches = reference_mismatches(w, sizes, ref)
        except (OSError, ValueError, cbrap.CbrapError) as exc:
            out.failures.extend([f"reference check failed: {exc}"] * sizes.ref_rounds)
        else:
            out.failures.extend([f"reference UCB choice differs on seed {ref.seed}"]
                                * out.reference_mismatches)
    return out


# --- metrics ----------------------------------------------------------------

def scaled_seconds(op: Op) -> float:
    return scale(op.seconds, op.calibration_s)


def _raw(op: Op) -> float:
    return op.seconds


def _rate(ops: list[Op], kind: str, seconds=scaled_seconds) -> float:
    rates = [op.units / seconds(op) for op in ops if op.kind == kind and op.error is None]
    return statistics.median(rates) if rates else float("nan")


def _final_regret(op: Op) -> float:
    if op.kind == "coverage":
        return op.result.per_seed[0].cum_regret
    return op.result.algos[0].final_regret_mean


def regret_ratio(w: Workload, sizes: Sizes, ops: list[Op]) -> float:
    policy = "coverage" if w.theory else "cbrap"
    core = [op for op in ops if op.cycle < sizes.core_cycles and op.error is None]
    mine = [_final_regret(op) for op in core if op.kind == policy]
    base = [_final_regret(op) for op in core if op.kind == "uniform"]
    if not mine or not base:
        return float("nan")
    return statistics.fmean(mine) / statistics.fmean(base)


def cycle_wall(ops: list[Op], seconds=scaled_seconds) -> float:
    """Median over cycles of the wall time of one cycle's ops."""
    cycles: dict[int, float] = {}
    for op in ops:
        cycles[op.cycle] = cycles.get(op.cycle, 0.0) + seconds(op)
    return statistics.median(cycles.values())


def end_to_end(w: Workload, sizes: Sizes, ops: list[Op]) -> dict:
    """The gated metrics (besides set-up, memory and ok_frac), by name."""
    return {
        "cycle_wall_s": cycle_wall(ops),
        "cbrap_rounds_per_s": _rate(ops, "coverage" if w.theory else "cbrap"),
        "uniform_rounds_per_s": _rate(ops, "uniform"),
        "regret_ratio": regret_ratio(w, sizes, ops),
    }


def details(w: Workload, sizes: Sizes, ops: list[Op]) -> dict:
    """Workload-specific figures that are reported but not gated."""
    out = {"ops": {kind: sum(1 for op in ops if op.kind == kind)
                   for kind in sorted({op.kind for op in ops})},
           "calibration_s": statistics.median(op.calibration_s for op in ops),
           "raw_cycle_wall_s": cycle_wall(ops, _raw),
           "raw_cbrap_rounds_per_s": _rate(ops, "coverage" if w.theory else "cbrap", _raw),
           "raw_uniform_rounds_per_s": _rate(ops, "uniform", _raw)}
    if sizes.linucb_T:
        out["linucb_rounds_per_s"] = _rate(ops, "linucb")
    if w.theory:
        cov = [op for op in ops if op.kind == "coverage" and op.error is None
               and op.cycle < sizes.core_cycles]
        out["coverage_seeds_per_s"] = _rate(ops, "coverage") / sizes.T
        out["coverage_rate"] = (sum(op.result.coverage_rate for op in cov) / len(cov)
                                if cov else float("nan"))
        out["kaban_trials_per_s"] = _rate(ops, "kaban")
    return out
