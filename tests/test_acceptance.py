"""End-to-end acceptance suite.

Each test enforces one numbered criterion at its stated tolerance and
prints one pass/fail line.  Statistical criteria use fixed seeds, so every
run is reproducible; binomial slack constants were computed offline and
are frozen inline.
"""

import math
import time

import numpy as np
import pytest

from cbrap import (AlignedSpread, EnvConfig, ExperimentConfig, FixedBeta,
                   NoiseSpec, PolicyConfig, ProjectionKind,
                   ProjectionMatrix, RidgeState, cbrap_run, cbrap_select,
                   coverage_experiment, kaban_experiment, linucb_run,
                   make_env, project_rows, run_experiment, uniform_run)
from cbrap.rng import STREAM_PROJECTION, STREAM_UNIFORM, derive_seed


def report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_orthogonal_equivalence():
    n, K, T, n_seeds, beta = 16, 5, 500, 20, 1.0
    t0 = time.perf_counter()
    max_ucb_diff = 0.0
    arms_equal = True
    for seed in range(n_seeds):
        env = make_env(EnvConfig(n=n, K=K, context=AlignedSpread(),
                                 noise=NoiseSpec.gaussian(0.1), seed=seed))
        Q, _ = np.linalg.qr(np.random.default_rng(1000 + seed).standard_normal((n, n)))
        P = ProjectionMatrix.from_entries(Q)
        state_p, state_l = RidgeState(n), RidgeState(n)
        for t in range(1, T + 1):
            contexts = env.draw_round(t)
            X = contexts
            Zp = project_rows(P, contexts)
            chosen_p, scores_p = cbrap_select(state_p, Zp, beta)
            chosen_l, scores_l = cbrap_select(state_l, X, beta)
            arms_equal &= chosen_p == chosen_l
            max_ucb_diff = max(max_ucb_diff, float(np.max(
                np.abs(scores_p.ucb - scores_l.ucb))))
            reward = env.realize_reward(contexts, chosen_p, t)
            state_p.update(Zp[chosen_p], reward)
            state_l.update(X[chosen_l], reward)
    elapsed = time.perf_counter() - t0
    ok = arms_equal and max_ucb_diff <= 1e-9 and elapsed < 5.0
    report(1, "orthogonal equivalence", ok,
           f"arms identical={arms_equal}, max |ucb diff|={max_ucb_diff:.3e} "
           f"(tol 1e-9), runtime {elapsed:.2f}s (<5s)")


def test_criterion_2_estimator_oracle():
    t0 = time.perf_counter()
    worst_est = worst_norm = worst_eye = 0.0
    for m in (2, 5, 20):
        rng = np.random.default_rng(m)
        state = RidgeState(m, lam=1.0)
        A = np.eye(m)
        b = np.zeros(m)
        eye = np.eye(m)
        query = rng.standard_normal(m)
        for t in range(1, 1001):
            z = rng.standard_normal(m)
            r = rng.standard_normal()
            state.update(z, r)
            A += np.outer(z, z)
            b += r * z
            worst_eye = max(worst_eye, np.max(np.abs(state.A @ state.A_inv - eye)))
            if t % 50 == 0 or t == 1000:
                ref = np.linalg.solve(A, b)
                err = np.linalg.norm(state.estimate() - ref) / np.linalg.norm(ref)
                worst_est = max(worst_est, err)
                wn_ref = math.sqrt(query @ np.linalg.solve(A, query))
                worst_norm = max(worst_norm,
                                 abs(state.weighted_norm(query) - wn_ref) / wn_ref)
    elapsed = time.perf_counter() - t0
    ok = worst_est <= 1e-8 and worst_norm <= 1e-8 and worst_eye <= 1e-6 \
        and elapsed < 5.0
    report(2, "estimator oracle", ok,
           f"estimate rel err {worst_est:.2e} (tol 1e-8), "
           f"weighted-norm rel err {worst_norm:.2e} (tol 1e-8), "
           f"max |A A_inv - I| {worst_eye:.2e} (tol 1e-6), "
           f"runtime {elapsed:.2f}s (<5s)")


def test_criterion_3_kaban_tail_bound():
    t0 = time.perf_counter()
    cells = kaban_experiment([8, 32, 128], [0.25, 0.5, 0.75, 1.0],
                             trials=100_000, seed=20240801)
    elapsed = time.perf_counter() - t0
    violations = [c for c in cells if c.violated]
    worst = max((c.empirical_rate - c.bound for c in cells), default=0.0)
    ok = not violations and elapsed < 60.0
    report(3, "distortion tail bound", ok,
           f"12 cells, 1e5 trials each, violations={len(violations)}, "
           f"worst rate-bound margin {worst:+.3e}, runtime {elapsed:.1f}s (<60s)")


@pytest.fixture(scope="module")
def coverage_result():
    cfg = ExperimentConfig(
        env=EnvConfig(n=200, K=10, noise=NoiseSpec.gaussian(0.1)),
        m=20, T=1000, delta=0.05, seeds=(0,),
    )
    t0 = time.perf_counter()
    result = coverage_experiment(cfg, 200)
    return result, time.perf_counter() - t0


def test_criterion_4_confidence_set_coverage(coverage_result):
    result, elapsed = coverage_result
    # 3-sigma binomial slack below the 95% target at 200 seeds (frozen)
    threshold = 0.95 - 0.04623310502226732
    ok = result.coverage_rate >= threshold and elapsed < 120.0
    report(4, "confidence-set coverage", ok,
           f"coverage {result.coverage_rate:.4f} >= {threshold:.4f} "
           f"(200 seeds, T=1000), runtime {elapsed:.1f}s (<120s)")


def test_criterion_5_regret_bound_dominance(coverage_result):
    result, elapsed = coverage_result
    succ = float(np.mean([s.success_probability for s in result.per_seed]))
    slack = 3.0 * math.sqrt(max(succ * (1 - succ), 1e-12) / len(result.per_seed))
    threshold = max(0.0, succ - slack)
    frac = result.dominance_fraction
    ok = frac >= threshold
    report(5, "regret-bound dominance", ok,
           f"regret <= bound in {frac:.4f} of seeds "
           f">= success probability {succ:.4f} - slack (runtime shared with 4)")


def test_criterion_6_regret_quality():
    # instance and thresholds frozen after pilot runs: fixed 10-dim nuisance
    # subspace, beta = 1.0; pilot passed 12/12 seeds
    n, m, K, T = 500, 25, 10, 2000
    gen = AlignedSpread(low=0.0, high=0.95, noise_scale=0.3, nuisance_dim=10)
    passes = 0
    ratios, windows = [], []
    t0 = time.perf_counter()
    for seed in range(12):
        env = make_env(EnvConfig(n=n, K=K, context=gen,
                                 noise=NoiseSpec.gaussian(0.1), seed=seed))
        cfg = PolicyConfig(m=m, kind=ProjectionKind.STANDARD_GAUSSIAN,
                           beta_mode=FixedBeta(1.0),
                           seed=derive_seed(seed, STREAM_PROJECTION))
        inst = [r.instant_regret for r in cbrap_run(env, cfg, T)]
        final_uniform = sum(r.instant_regret for r in
                            uniform_run(env, derive_seed(seed, STREAM_UNIFORM), T))
        ratio = sum(inst) / final_uniform
        w = T // 10
        window = float(np.mean(inst[-w:])) / max(float(np.mean(inst[:w])), 1e-12)
        ratios.append(ratio)
        windows.append(window)
        if ratio <= 0.5 and window <= 0.25:
            passes += 1
    elapsed = time.perf_counter() - t0
    ok = passes >= 10
    report(6, "regret quality", ok,
           f"{passes}/12 seeds passed (need >=10): "
           f"final-regret ratio max {max(ratios):.3f} (<=0.5), "
           f"last/first decile ratio max {max(windows):.3f} (<=0.25), "
           f"runtime {elapsed:.1f}s")


def test_criterion_7_performance():
    n, m, K, T, warmup = 2000, 20, 10, 2000, 50
    env = make_env(EnvConfig(n=n, K=K, noise=NoiseSpec.gaussian(0.1), seed=0))
    cfg = PolicyConfig(m=m, kind=ProjectionKind.STANDARD_GAUSSIAN, seed=1)
    t0 = time.perf_counter()
    rec_c = cbrap_run(env, cfg, T)
    cbrap_wall = time.perf_counter() - t0
    rec_l = linucb_run(env, 1.0, FixedBeta(1.0), T)
    mean_c = float(np.mean([r.elapsed_ns for r in rec_c[warmup:]]))
    mean_l = float(np.mean([r.elapsed_ns for r in rec_l[warmup:]]))
    ok = mean_c < mean_l and cbrap_wall < 10.0 \
        and all(r.elapsed_ns > 0 for r in rec_c)
    report(7, "performance", ok,
           f"per-round mean: projected {mean_c / 1e6:.3f} ms < "
           f"full-dimensional {mean_l / 1e6:.3f} ms "
           f"({mean_l / mean_c:.1f}x); full projected run {cbrap_wall:.2f}s (<10s)")


def test_criterion_8_determinism(tmp_path):
    import os
    cfg = dict(
        env=EnvConfig(n=30, K=4, noise=NoiseSpec.gaussian(0.2)),
        m=6, T=50, algos=("cbrap-sg", "linucb", "uniform"), seeds=(1, 2),
    )
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(ExperimentConfig(**cfg, out_dir=out_a))
    run_experiment(ExperimentConfig(**cfg, out_dir=out_b))
    csvs = sorted(f for f in os.listdir(out_a) if f.endswith(".csv"))
    identical = all(
        open(os.path.join(out_a, f), "rb").read()
        == open(os.path.join(out_b, f), "rb").read()
        for f in csvs)
    ok = identical and len(csvs) == 6
    report(8, "determinism", ok,
           f"{len(csvs)} per-round CSVs byte-identical across reruns: {identical}")
