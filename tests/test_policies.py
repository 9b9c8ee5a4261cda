"""Arm selection and full runs: tie-breaking, pairing, update placement."""

import gc
import math
import os
import sys
import threading
import tracemalloc
import warnings
from contextlib import closing
from dataclasses import replace
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbrap import (AdaptiveBeta, AlignedSpread, EndOfDataError, EnvConfig, ExperimentConfig,
                   FixedBeta, GaussianUnit, InvalidInputError, NoiseSpec, PolicyConfig,
                   ProjectionKind, ProjectionMatrix, Replay, ReplayDataset,
                   RidgeState, SparseBlock, SparseUniform, TheoryParams,
                   build_projection, cbrap_run, cbrap_select, coverage_experiment,
                   environment, harness, linucb_run, make_env, policies, project_rows,
                   projection, run_experiment, uniform_run)
from cbrap.rng import STREAM_CONTEXT, STREAM_UNIFORM, derive_rng


def record_key(r):
    """All deterministic fields (elapsed_ns is wall time and may differ)."""
    return (r.t, r.chosen, r.reward, r.instant_regret, r.ucb_gap)


def env_rounds(env, T):
    """The round source's tables walked a round at a time: each round's
    block (its table's slice or rows), its (K,) means and its noise."""
    with closing(env._tables(T)) as tables:
        for ts, table, means, noise in tables:
            for i in range(len(ts)):
                block = table[i] if isinstance(table, np.ndarray) \
                    else table._rows(i * env.K, (i + 1) * env.K)
                yield block, means[i], noise[i]


def tables_of_one_round(env, T):
    """Rounds 1..T as tables of one round each, every round drawn, priced
    and given its noise on its own."""
    for t in range(1, T + 1):
        block = env.draw_round(t)
        table = block[None] if isinstance(block, np.ndarray) else block
        yield range(t, t + 1), table, env._means(block)[None], [env.noise_draw(t)]


def projected_alone(P):
    """A step for tables of one round: the round's block projected on its own."""
    def step(table):
        Z = projection._project(P, table[0] if isinstance(table, np.ndarray) else table)
        return [Z], float(np.abs(Z).max())
    return step


# lam and beta over six decades; the kinds of rows a score is asked about;
# quadratic forms a ridge state never gives, forced to reach every branch
DECADES = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
ROW_KINDS = ("drawn", "drawn", "-0.0", "zero", "repeat")
SPECIAL_Q = (-0.0, 0.0, -1e-300, 5e-324, 1e-300, 0.5, 1e300, math.inf, math.nan)


class TestSelect:
    def test_single_arm(self):
        chosen, scores = cbrap_select(RidgeState(3), np.zeros((1, 3)), 1.0)
        assert chosen == 0 and scores.ucb.shape == (1,)

    def test_nonzero_arm_wins_on_fresh_state(self):
        Z = np.zeros((5, 2))
        Z[3] = [1.0, 0.0]
        chosen, scores = cbrap_select(RidgeState(2), Z, 1.0)
        assert chosen == 3
        assert scores.ucb[3] == 1.0  # v = beta * ||e1||_{I} on the fresh state
        assert all(u == 0.0 for i, u in enumerate(scores.ucb) if i != 3)

    def test_ties_break_to_lowest_index(self):
        Z = np.tile([0.3, -0.2], (4, 1))
        chosen, _ = cbrap_select(RidgeState(2), Z, 0.7)
        assert chosen == 0

    def test_ucb_is_exactly_r_hat_plus_v(self):
        rng = np.random.default_rng(0)
        state = RidgeState(4)
        for _ in range(30):
            state.update(rng.standard_normal(4), rng.standard_normal())
        _, scores = cbrap_select(state, rng.standard_normal((6, 4)), 2.0)
        for ucb, r_hat, v in zip(scores.ucb, scores.r_hat, scores.v):
            assert ucb == r_hat + v
            assert v >= 0.0

    def test_chosen_dominates(self):
        rng = np.random.default_rng(1)
        state = RidgeState(3)
        state.update(rng.standard_normal(3), 1.0)
        chosen, scores = cbrap_select(state, rng.standard_normal((8, 3)), 1.3)
        assert all(scores.ucb[chosen] >= u for u in scores.ucb)

    def test_argmax_invariant_under_shift_and_scale(self):
        rng = np.random.default_rng(2)
        state = RidgeState(3)
        chosen, scores = cbrap_select(state, rng.standard_normal((5, 3)), 1.0)
        ucbs = scores.ucb
        for c in (-3.0, 0.1, 42.0):
            assert int(np.argmax(ucbs + c)) == chosen
            assert int(np.argmax(ucbs * abs(c))) == chosen

    def test_empty_arm_set_rejected(self):
        with pytest.raises(InvalidInputError):
            cbrap_select(RidgeState(3), np.empty((0, 3)), 1.0)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(InvalidInputError):
            cbrap_select(RidgeState(2), np.zeros((2, 2)), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(scores=st.lists(st.one_of(st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
                                     st.floats(-1e6, 1e6)), min_size=1, max_size=12))
    @example(scores=[0.25])
    @example(scores=[2.0, 0.25, 2.0, 2.0])
    def test_the_loop_s_gap_is_the_argmax_margin(self, scores):
        # the loop's select takes the arm and the gap from _score's list of
        # Python floats; they must equal the numpy path: argmax, the chosen
        # score set to -inf, then max
        ucb = np.array(scores)
        chosen = int(ucb.argmax())
        rest = ucb.copy()
        rest[chosen] = -np.inf
        want = (chosen, float(ucb[chosen] - rest.max()))
        Z = np.arange(2.0 * len(scores)).reshape(-1, 2)
        _, select, _ = policies._scoring_policy(2, 1.0, None, lambda t: 1.0)
        with mock.patch.object(policies, "_score", lambda state, Z, beta: (
                None, None, list(scores))):
            got, gap, z = select(1, Z)
        assert (got, gap) == want and type(gap) is float
        assert np.array_equal(z, Z[chosen])
        assert len(scores) > 1 or gap == math.inf

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=st.integers(1, 8), K=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           lam=DECADES, beta=DECADES, updates=st.integers(0, 20),
           kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=12, max_size=12),
           forced_q=st.none() | st.lists(st.sampled_from(SPECIAL_Q), min_size=12, max_size=12))
    @example(m=3, K=1, seed=0, lam=1.0, beta=1.0, updates=0, kinds=["-0.0"] * 12,
             forced_q=None)
    @example(m=2, K=5, seed=1, lam=1e-3, beta=1e3, updates=6,
             kinds=["drawn", "repeat", "zero", "-0.0", "repeat"] + ["drawn"] * 7, forced_q=None)
    @example(m=2, K=4, seed=2, lam=1.0, beta=2.0, updates=3, kinds=["drawn"] * 12,
             forced_q=[-0.0, 0.5, math.nan, math.inf] + [0.0] * 8)
    def test_scores_equal_a_numpy_reference_bit_for_bit(self, m, K, seed, lam, beta,
                                                        updates, kinds, forced_q):
        # _score works in Python floats; it, the loop's select and cbrap_select
        # must give the bytes of numpy's float64 path: maximum, sqrt, *=, +,
        # argmax, and the gap with the chosen score set to -inf.  A forced
        # quadratic form reaches the values a ridge state never gives it
        # (-0.0, NaN, inf, a negative), where Python's and numpy's rules differ
        rng = np.random.default_rng(seed)
        _, select, state = policies._scoring_policy(m, lam, None, lambda t: beta)
        for z in rng.standard_normal((updates, m)):
            state.update(z, float(rng.standard_normal()))
        rows = []
        for kind in kinds[:K]:
            rows.append({"drawn": rng.standard_normal(m), "-0.0": np.full(m, -0.0),
                         "zero": np.zeros(m)}.get(kind, rows[-1] if rows else np.ones(m)))
        Z = np.array(rows)
        r_hat = Z @ state.estimate()
        q = np.einsum("km,km->k", Z @ state.A_inv, Z) if forced_q is None \
            else np.array(forced_q[:K])
        v = q.copy()
        np.maximum(v, 0.0, out=v)
        np.sqrt(v, out=v)
        v *= beta
        ucb = r_hat + v
        chosen = int(ucb.argmax())
        rest = ucb.copy()
        rest[chosen] = -np.inf
        gap = float(ucb[chosen]) - float(rest.max())
        with mock.patch.object(policies, "c_einsum", policies.c_einsum if forced_q is None
                               else lambda *args: q.copy()):
            scores = policies._score(state, Z, beta)
            got, got_gap, z = select(1, Z)
            selected, arm_scores = cbrap_select(state, Z, beta)
        for want, kernel, array in zip((r_hat, v, ucb), scores,
                                       (arm_scores.r_hat, arm_scores.v, arm_scores.ucb)):
            assert all(type(x) is float for x in kernel)
            assert np.array(kernel).tobytes() == want.tobytes() == array.tobytes()
        assert got == selected == chosen and z is not None and np.array_equal(z, Z[chosen])
        assert np.float64(got_gap).tobytes() == np.float64(gap).tobytes()


class TestBetaModes:
    def test_fixed_rejects_nonpositive(self):
        for beta in (0.0, float("inf"), float("nan")):
            with pytest.raises(InvalidInputError, match="beta"):
                FixedBeta(beta)

    def test_adaptive_carries_params(self):
        p = TheoryParams(R=0.1, S=1, L=1, B=1, delta=0.05)
        cfg = PolicyConfig(m=4, beta_mode=AdaptiveBeta(p))
        assert cfg.beta_mode.params.R == 0.1

    def test_config_validation(self):
        with pytest.raises(Exception):
            PolicyConfig(m=0)
        for lam in (0.0, float("inf")):
            with pytest.raises(InvalidInputError, match="lam"):
                PolicyConfig(m=2, lam=lam)


def aligned_replay_env(seed=21, n=10, K=4, T=30):
    """Only arm 0 is nonzero and it points along theta*, so it is optimal."""
    base = make_env(EnvConfig(n=n, K=K, seed=seed))
    rows = np.zeros((T * K, n))
    rows[::K] = 0.9 * base.theta_star
    ds = ReplayDataset(n=n, K=K, rows=rows)
    return make_env(EnvConfig(n=n, K=K, context=Replay(ds), seed=seed))


class TestCbrapRun:
    def test_single_round_run(self):
        env = make_env(EnvConfig(n=6, K=3, seed=1))
        records = cbrap_run(env, PolicyConfig(m=3, seed=2), 1)
        assert len(records) == 1 and records[0].t == 1

    def test_noiseless_aligned_instance_has_zero_regret(self):
        env = aligned_replay_env()
        cfg = PolicyConfig(m=5, beta_mode=FixedBeta(0.05), seed=3)
        records = cbrap_run(env, cfg, 30)
        assert sum(r.instant_regret for r in records) == 0.0
        assert all(r.chosen == 0 for r in records)

    def test_deterministic_records(self):
        env = make_env(EnvConfig(n=12, K=4, noise=NoiseSpec.gaussian(0.2), seed=5))
        cfg = PolicyConfig(m=4, seed=6)
        a = cbrap_run(env, cfg, 40)
        b = cbrap_run(env, cfg, 40)
        assert [record_key(r) for r in a] == [record_key(r) for r in b]

    def test_round_t_state_holds_rounds_up_to_t_minus_one(self):
        # replay the log through a fresh estimator and re-derive each decision
        env = make_env(EnvConfig(n=10, K=4, noise=NoiseSpec.gaussian(0.1), seed=7))
        P = ProjectionMatrix.from_entries(
            np.random.default_rng(8).standard_normal((4, 10)) / 2.0)
        beta = 0.8
        cfg = PolicyConfig(m=4, beta_mode=FixedBeta(beta))
        records = cbrap_run(env, cfg, 25, projection=P)
        for t in range(1, 26):
            shadow = RidgeState(4)
            for i in range(1, t):
                Z_i = project_rows(P, env.draw_round(i))
                shadow.update(Z_i[records[i - 1].chosen], records[i - 1].reward)
            Z_t = project_rows(P, env.draw_round(t))
            chosen, _ = cbrap_select(shadow, Z_t, beta)
            assert chosen == records[t - 1].chosen, f"round {t}"

    def test_alpha_is_rejected(self):
        with pytest.raises(TypeError):
            PolicyConfig(m=2, alpha=1.5)

    def test_projection_shape_checked(self):
        env = make_env(EnvConfig(n=6, K=2, seed=9))
        with pytest.raises(Exception):
            cbrap_run(env, PolicyConfig(m=2), 2,
                      projection=ProjectionMatrix.from_entries(np.eye(5)))


class TestLinucbRun:
    def test_single_round_zero_contexts(self):
        ds = ReplayDataset(n=3, K=2, rows=np.zeros((2, 3)))
        env = make_env(EnvConfig(n=3, K=2, context=Replay(ds),
                                 noise=NoiseSpec.gaussian(0.4), seed=10))
        records = linucb_run(env, 1.0, FixedBeta(1.0), 1)
        assert records[0].chosen == 0
        assert records[0].reward == env.noise_draw(1)

    def test_orthogonal_projection_matches_linucb(self):
        # m = n with orthonormal rows preserves scores, hence decisions.
        # Unit-norm context generators create an exact K-way tie at round 1
        # that floating-point noise would break arbitrarily, so use contexts
        # with distinct norms.
        for seed in (1, 2, 3):
            env = make_env(EnvConfig(n=8, K=4, context=AlignedSpread(),
                                     noise=NoiseSpec.gaussian(0.1), seed=seed))
            Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((8, 8)))
            records_p = cbrap_run(env, PolicyConfig(m=8, beta_mode=FixedBeta(1.0)),
                                  60, projection=ProjectionMatrix.from_entries(Q))
            records_l = linucb_run(env, 1.0, FixedBeta(1.0), 60)
            assert [r.chosen for r in records_p] == [r.chosen for r in records_l]
            gaps_p = np.array([r.ucb_gap for r in records_p])
            gaps_l = np.array([r.ucb_gap for r in records_l])
            np.testing.assert_allclose(gaps_p, gaps_l, atol=1e-9)


class TestUniformRun:
    def test_single_arm(self):
        env = make_env(EnvConfig(n=4, K=1, seed=11))
        records = uniform_run(env, 12, 20)
        assert all(r.chosen == 0 for r in records)
        assert sum(r.instant_regret for r in records) == 0.0

    def test_deterministic(self):
        env = make_env(EnvConfig(n=6, K=3, noise=NoiseSpec.gaussian(0.3), seed=13))
        a = uniform_run(env, 14, 50)
        b = uniform_run(env, 14, 50)
        assert [record_key(r) for r in a] == [record_key(r) for r in b]
        c = uniform_run(env, 15, 50)
        assert [r.chosen for r in a] != [r.chosen for r in c]

    def test_mean_regret_matches_mean_gap_oracle(self):
        # E[regret_t | contexts] = max_k mean_k - avg_k mean_k under uniform play
        env = make_env(EnvConfig(n=10, K=4, seed=16))
        T = 4000
        records = uniform_run(env, 17, T)
        total = sum(r.instant_regret for r in records)
        expected = 0.0
        var_sum = 0.0
        for t in range(1, T + 1):
            means = env.mean_rewards(env.draw_round(t))
            gaps = means.max() - means
            expected += gaps.mean()
            var_sum += gaps.var()
        assert abs(total - expected) <= 5.0 * math.sqrt(var_sum)


    def test_arms_are_drawn_once_per_run(self, tmp_path, monkeypatch):
        # the arms of rounds 1..T in one draw, when the policy is built, each
        # the integers(K) of its round's own generator
        env, seed = make_env(EnvConfig(n=4, K=7, seed=5)), 2**63 + 5
        drawn, arms = [], policies._uniform_arms
        monkeypatch.setattr(policies, "_uniform_arms",
                            lambda *args: drawn.append(args[2]) or arms(*args))
        for T in (1, 256, 257, 1027):  # the last crosses t = 1024
            drawn.clear()
            records = uniform_run(env, seed, T)
            assert drawn == [range(1, T + 1)]
            assert [r.chosen for r in records] == \
                [int(derive_rng(seed, STREAM_UNIFORM, t).integers(7)) for t in range(1, T + 1)]
        drawn.clear()
        run_experiment(ExperimentConfig(env=replace(env.cfg, seed=0), m=2, T=261,
                                        algos=("uniform",), seeds=(1,),
                                        out_dir=str(tmp_path)))
        assert drawn == [range(1, 262)]


class TestRoundLoop:
    @pytest.mark.parametrize("kind", ["gaussian", "sparse", "aligned", "replay"])
    def test_logged_reward_and_regret_are_the_environment_s(self, kind):
        # the loop takes both from one mean_rewards call; they must equal the
        # public per-round accounting bit for bit
        n, K, T = 30, 4, 40
        if kind == "replay":
            rows = np.random.default_rng(19).standard_normal((T * K, n))
            ctx = Replay(ReplayDataset(n=n, K=K, rows=rows))
        else:
            ctx = {"gaussian": GaussianUnit(), "sparse": SparseUniform(nnz=3),
                   "aligned": AlignedSpread()}[kind]
        env = make_env(EnvConfig(n=n, K=K, context=ctx,
                                 noise=NoiseSpec.gaussian(0.3), seed=20))
        runs = [cbrap_run(env, PolicyConfig(m=5, seed=21), T),
                linucb_run(env, 1.0, FixedBeta(1.0), T),
                uniform_run(env, 22, T)]
        for records in runs:
            for r in records:
                block = env.draw_round(r.t)
                assert r.reward == env.realize_reward(block, r.chosen, r.t)
                assert r.instant_regret == env.instant_regret(block, r.chosen)

    def test_ucb_gap_is_the_margin_over_the_best_other_arm(self):
        one = cbrap_run(make_env(EnvConfig(n=6, K=1, seed=23)), PolicyConfig(m=3), 5)
        assert all(r.ucb_gap == math.inf for r in one)
        many = cbrap_run(make_env(EnvConfig(n=6, K=4, seed=23)), PolicyConfig(m=3), 20)
        assert all(0.0 <= r.ucb_gap < math.inf for r in many)
        assert uniform_run(make_env(EnvConfig(n=6, K=4, seed=23)), 24, 3)[0].ucb_gap == 0.0

    @pytest.mark.parametrize("kind", ["dense", "sparse", "replay"])
    def test_the_loop_reads_only_its_source(self, kind):
        # rounds drawn up front and rounds streamed as the loop asks give the
        # same logs: the loop touches nothing but the source it is handed
        n, K, T = 16, 3, 30
        ctx = {"dense": GaussianUnit(), "sparse": SparseUniform(nnz=2),
               "replay": Replay(ReplayDataset(
                   n=n, K=K, rows=np.random.default_rng(28).standard_normal((T * K, n))))}
        env = make_env(EnvConfig(n=n, K=K, context=ctx[kind],
                                 noise=NoiseSpec.gaussian(0.2), seed=29))
        P = build_projection(ProjectionKind.STANDARD_GAUSSIAN, 4, n, 30)

        def lockstep(rounds):
            return policies._run_rounds(rounds, [
                policies._ucb_policy(env, P, 1.0, lambda t: 1.0),
                policies._ucb_policy(env, None, 1.0, lambda t: 1.0),
                policies._uniform_policy(env, 31, T),
            ])
        drawn = lockstep(list(env._tables(T)))
        streamed = lockstep(env._tables(T))
        for a, b in zip(drawn, streamed):
            assert len(a) == T
            assert [record_key(r) for r in a] == [record_key(r) for r in b]

    def test_a_hand_built_source_is_logged_round_by_round(self):
        Z = np.random.default_rng(32).standard_normal((3, 4, 2))
        means = np.random.default_rng(33).standard_normal((3, 4))
        noise = [0.25, -0.5, 0.125]
        rounds = list(zip(Z, means, noise))
        tables = [(range(1, 3), Z[:2], means[:2], noise[:2]),
                  (range(3, 4), Z[2:], means[2:], noise[2:])]
        [records] = policies._run_rounds(
            iter(tables), [policies._scoring_policy(2, 1.0, lambda Z: (Z, float(np.abs(Z).max())),
                                                    lambda t: 1.0)])
        assert [r.t for r in records] == [1, 2, 3]
        for r, (_, mu, noise) in zip(records, rounds):
            assert r.reward == mu[r.chosen] + noise
            assert type(r.reward) is float and type(r.instant_regret) is float
            assert r.instant_regret == max(0.0, float(mu.max() - mu[r.chosen]))

    def test_a_coverage_replay_makes_floats_of_one_table_s_means_at_a_time(
            self, monkeypatch):
        # a coverage seed replays the tables its oracle scan kept: the loop
        # must never hold more than one table's means as Python floats
        tolist_rounds, replayed, runs = [], [], []

        class Means(np.ndarray):
            def tolist(self):
                tolist_rounds.append(len(self))
                return super().tolist()
        scan, run_rounds = harness._oracle_scan, policies._run_rounds

        def scanned(*args, **kwargs):
            params, kept = scan(*args, **kwargs)
            replayed.extend((ts, Z, means.view(Means), noise) for ts, Z, means, noise in kept)
            return params, replayed
        monkeypatch.setattr(harness, "_oracle_scan", scanned)
        monkeypatch.setattr(harness, "_run_rounds",
                            lambda *args: runs.append(run_rounds(*args)) or runs[-1])
        rounds_a_table(monkeypatch, 16, 3, 8)
        T = 1000
        coverage_experiment(ExperimentConfig(
            env=EnvConfig(n=8, K=3, noise=NoiseSpec.gaussian(0.1)), m=2, T=T), 1)
        assert sum(tolist_rounds) == T and max(tolist_rounds) == 16 < T
        [[records]] = runs
        means = np.concatenate([np.asarray(means) for _, _, means, _ in replayed])
        noise = [eta for _, _, _, table_noise in replayed for eta in table_noise]
        for r, mu, eta in zip(records, means, noise, strict=True):
            assert r.reward == mu[r.chosen] + eta and type(r.reward) is float
            assert r.instant_regret == max(0.0, float(mu.max() - mu[r.chosen]))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_an_overflowing_projection_is_rejected_before_any_score(self, kind):
        # finite contexts through a finite P can overflow: the projected
        # table is checked once, before any select scores one of its rows
        n, K, T = 3, 2, 4
        if kind == "dense":
            rows = np.full((T * K, n), 1e10)
            ctx = Replay(ReplayDataset(n=n, K=K, rows=rows))
        else:
            ctx = SparseUniform(nnz=n)  # a row whose values sum past 1.06 overflows
        env = make_env(EnvConfig(n=n, K=K, context=ctx, seed=39))
        P = ProjectionMatrix.from_entries(np.full((2, n), 1e300 if kind == "dense" else 1.7e308))
        scored = []
        score = policies._score
        with mock.patch.object(policies, "_score",
                               lambda *a: scored.append(a[1]) or score(*a)), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a score of an infinite row warns first
            warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
            with pytest.raises(InvalidInputError, match="projected contexts must be finite"):
                cbrap_run(env, PolicyConfig(m=2), T, projection=P)
        assert not scored

    @pytest.mark.parametrize("runner", ["cbrap", "linucb"])
    def test_a_finite_row_that_overflows_the_state_is_rejected(self, runner):
        # finite replay rows of norm 1e200 overflow 1 + z'A^-1 z, and rows of
        # norm 1e150 under a theta* of norm 1e60 overflow b + reward * z; the
        # runs once went on to the end with an all-NaN A_inv or an infinite b,
        # picking arm 0 every round.  The typed error is all: numpy's overflow
        # warning (an error under this suite's filterwarnings) once came first
        n, K, T = 4, 3, 50
        drawn = make_env(EnvConfig(n=n, K=K, seed=40))
        rows = np.concatenate([drawn.draw_round(t) for t in range(1, T + 1)])
        for scale, theta_norm, what in ((1e200, 1.0, "z'A"), (1e150, 1e60, "b is not")):
            env = make_env(EnvConfig(n=n, K=K, theta_norm=theta_norm, context=Replay(
                ReplayDataset(n=n, K=K, rows=rows * scale))))
            run = {"cbrap": lambda: cbrap_run(env, PolicyConfig(m=2), T),
                   "linucb": lambda: linucb_run(env, 1.0, FixedBeta(1.0), T)}[runner]
            with pytest.raises(InvalidInputError, match=f"overflows the ridge update.*{what}"):
                run()

    @pytest.mark.parametrize("runner", ["cbrap", "linucb"])
    def test_a_finite_row_whose_fold_overflows_a_is_rejected(self, runner):
        # replay rows of about 3e153 at lam = 1e10 pass the denominator, u u^T
        # and b checks, but their z z^T piles up in A: the refresh at t = 512
        # once warned "overflow encountered in multiply", inverted an infinite
        # A, and round 513's update blamed its own row.  The loop raises at the
        # update whose fold would overflow A, with no numpy warning, and leaves
        # that update's state as it was
        n, K, T = 4, 3, 520
        drawn = make_env(EnvConfig(n=n, K=K, seed=41))
        rows = np.concatenate([drawn.draw_round(t) for t in range(1, T + 1)])
        env = make_env(EnvConfig(n=n, K=K, theta_norm=1e-100, context=Replay(
            ReplayDataset(n=n, K=K, rows=rows * 3e153))))
        P = None if runner == "linucb" else build_projection(
            ProjectionKind.STANDARD_GAUSSIAN, 2, n, 42)
        step, select, state = policies._ucb_policy(env, P, 1e10, lambda t: 1.0)
        absorb, seen = state._absorb, []

        def recording(z, reward, zmax):
            seen.append((z.copy(), state.A.copy(), state.A_inv.copy(), state.b.copy()))
            absorb(z, reward, zmax)
        state._absorb = recording
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"^z overflows the ridge update: "
                                                        r"A \+ z z\^T is not finite$"):
                policies._run_rounds(env._tables(T), [(step, select, state)])
        z, A, A_inv, b = seen[-1]
        assert 2 < len(seen) < 100 and state.t == len(seen) - 1
        with np.errstate(over="ignore"):
            assert not np.isfinite(A + z[:, None] * z).all()
        for before, after in ((A, state.A), (A_inv, state.A_inv), (b, state.b)):
            assert before.tobytes() == after.tobytes()

    @pytest.mark.parametrize("theta_norm, what", [(1.5e8, "instant regret"), (1e10, "reward")])
    def test_a_finite_replay_whose_regret_or_reward_overflows_is_rejected(
            self, theta_norm, what):
        # rows of +-1e300 give means of +-1.5e308, whose gap overflows, or
        # means that overflow themselves; the uniform control, which keeps no
        # state, once logged an infinite regret or reward and ran on.  The
        # typed error is all: numpy's overflow warning (an error under this
        # suite's filterwarnings) once came first
        rows = np.array([[1e300], [-1e300]] * 3)
        env = make_env(EnvConfig(n=1, K=2, theta_norm=theta_norm,
                                 context=Replay(ReplayDataset(n=1, K=2, rows=rows))))
        with pytest.raises(InvalidInputError, match=f"^{what} must be finite, got -?inf$"):
            uniform_run(env, 0, 3)

    @pytest.mark.parametrize("T", [0, -1])
    @pytest.mark.parametrize("runner", ["cbrap", "linucb", "uniform"])
    def test_runners_check_the_horizon(self, runner, T):
        env = make_env(EnvConfig(n=6, K=3, seed=34))
        run = {"cbrap": lambda: cbrap_run(env, PolicyConfig(m=3), T),
               "linucb": lambda: linucb_run(env, 1.0, FixedBeta(1.0), T),
               "uniform": lambda: uniform_run(env, 35, T)}[runner]
        with pytest.raises(InvalidInputError, match="T must be >= 1"):
            run()


class TestPairing:
    def test_policies_share_context_and_noise_streams(self):
        cfg = EnvConfig(n=10, K=3, noise=NoiseSpec.gaussian(0.2), seed=18)
        env_a, env_b = make_env(cfg), make_env(cfg)
        seen = []
        for env in (env_a, env_b):
            seen.append((env.draw_round(3), env.noise_draw(3)))
        np.testing.assert_array_equal(seen[0][0], seen[1][0])
        assert seen[0][1] == seen[1][1]

    def test_lockstep_policies_observe_the_same_block_object(self, monkeypatch):
        # one _run_rounds call draws each table once and hands that table
        # to every policy's step; each log is the one its policy makes alone
        monkeypatch.setattr(environment, "_TABLE_BYTES", 8 * 16 * 3 * 2)  # 8 rounds a table
        env = make_env(EnvConfig(n=12, K=3, context=SparseUniform(nnz=2),
                                 noise=NoiseSpec.gaussian(0.2), seed=25))
        P = build_projection(ProjectionKind.STANDARD_GAUSSIAN, 4, 12, 26)
        seen, stepped = [[], [], []], [[], [], []]  # rounds selected, tables stepped

        def observed(policy, i):
            step, select, state = policy

            def recording(table):
                stepped[i].append(table)
                return (repeat(None), None) if step is None else step(table)

            def selecting(t, rows):
                seen[i].append(t)
                return select(t, rows)
            return recording, selecting, state
        logs = policies._run_rounds(env._tables(30), [
            observed(policies._ucb_policy(env, P, 1.0, lambda t: 1.0), 0),
            observed(policies._ucb_policy(env, None, 1.0, lambda t: 1.0), 1),
            observed(policies._uniform_policy(env, 27, 30), 2),
        ])
        assert seen == [list(range(1, 31))] * 3
        assert [len(tables) for tables in stepped] == [4] * 3
        for table, table1, table2 in zip(*stepped):
            assert table is table1 and table is table2
        alone = [cbrap_run(env, PolicyConfig(m=4), 30, projection=P),
                 linucb_run(env, 1.0, FixedBeta(1.0), 30), uniform_run(env, 27, 30)]
        for log, single in zip(logs, alone):
            assert list(map(record_key, log)) == list(map(record_key, single))


class TestKernels:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 6), n=st.integers(1, 40),
           sparse=st.booleans(), data=st.data())
    def test_kernels_equal_the_checked_entry_points_bit_for_bit(self, seed, K, n,
                                                                 sparse, data):
        # the round loop and the oracle scan call these on blocks draw_round
        # has checked; they must give the public functions' bytes
        m = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        if sparse:
            nnz = data.draw(st.integers(1, n))
            indices = np.stack([np.sort(rng.choice(n, size=nnz, replace=False))
                                for _ in range(K)])
            block = SparseBlock(n, indices, rng.standard_normal((K, nnz)))
        else:
            block = projection.as_block(rng.standard_normal((K, n)), n)
        env = make_env(EnvConfig(n=n, K=K, seed=seed))
        P = build_projection(ProjectionKind.STANDARD_GAUSSIAN, m, n, seed)
        Z = project_rows(P, block)
        assert projection._project(P, block).tobytes() == Z.tobytes()
        assert env._means(block).tobytes() == env.mean_rewards(block).tobytes()
        state = RidgeState(m, lam=data.draw(st.floats(0.01, 10.0)))
        for z in rng.standard_normal((3, m)):
            state.update(z, float(rng.standard_normal()))
        beta = data.draw(st.floats(0.01, 10.0))
        chosen, scores = cbrap_select(state, Z, beta)
        kernel_scores = policies._score(state, Z, beta)
        assert int(np.argmax(kernel_scores[2])) == chosen
        for name, kernel in zip(("r_hat", "v", "ucb"), kernel_scores):
            assert all(type(x) is float for x in kernel)
            assert np.array(kernel).tobytes() == getattr(scores, name).tobytes()


# (n, nnz), nnz = 1 and nnz = n included
table_shapes = st.integers(1, 600).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from([1, n]) | st.integers(1, n)))


class TestTables:
    """A sparse round's means and projection are taken for its whole table
    at once; each row must keep the bits of its own round's products."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=table_shapes, K=st.integers(1, 6),
           m=st.integers(1, 12), T=st.integers(1, 40),
           scattered=st.lists(st.integers(1, 300), max_size=4))
    @example(seed=0, shape=(500, 100), K=5, m=8, T=30, scattered=[])  # 8 rounds a table
    @example(seed=1, shape=(300, 300), K=6, m=12, T=12, scattered=[])  # 1 round a table
    @example(seed=2, shape=(1, 1), K=1, m=1, T=5, scattered=[9000])  # 4096 rounds a table
    @example(seed=3, shape=(500, 100), K=4, m=12, T=30, scattered=[])  # 6-row chunks
    def test_table_rows_keep_each_round_s_bits(self, seed, shape, K, m, T, scattered):
        n, nnz = shape
        m = min(m, n)
        env = make_env(EnvConfig(n=n, K=K, context=SparseUniform(nnz),
                                 noise=NoiseSpec.gaussian(0.1), seed=seed))
        Ps = [build_projection(kind, m, n, seed) for kind in ProjectionKind]

        def check_projections(table, blocks):
            # each round's rows of the table's projection, against its block's own
            for P in Ps:
                Z, zmax = projection._project_table(P, table, K)
                assert zmax == np.abs(Z).max()
                assert Z.shape == (len(blocks), K, m)
                for z, block in zip(Z, blocks, strict=True):
                    assert z.tobytes() == projection._project(P, block).tobytes()
        t = 0
        for ts, table, means, _ in env._tables(T):
            blocks = [table._rows(i * K, (i + 1) * K) for i in range(len(ts))]
            check_projections(table, blocks)
            for block, mu in zip(blocks, means, strict=True):
                t += 1
                assert mu.tobytes() == env._means(block).tobytes()
                for s in scattered[t - 1:t]:
                    # a draw out of order is a table of its round alone, and leaves
                    # the run's tables as they are
                    drawn = env.draw_round(s)
                    check_projections(drawn, [drawn])
        assert t == T

        # cbrap-sg, cbrap-rs and linucb in lockstep log what they log with
        # each round projected and priced on its own
        tables = policies._run_rounds(env._tables(T), [
            policies._ucb_policy(env, P, 1.0, lambda t: 1.0) for P in [*Ps, None]])
        alone = policies._run_rounds(
            tables_of_one_round(env, T),
            [policies._scoring_policy(m, 1.0, projected_alone(P), lambda t: 1.0) for P in Ps]
            + [policies._ucb_policy(env, None, 1.0, lambda t: 1.0)])
        for a, b in zip(tables, alone):
            assert list(map(record_key, a)) == list(map(record_key, b))

    @pytest.mark.parametrize("n, K, nnz", [(400, 10, 5), (2000, 3, 1500)])
    def test_tables_tile_the_run(self, n, K, nnz, monkeypatch):
        env = make_env(EnvConfig(n=n, K=K, context=SparseUniform(nnz), seed=4))
        R = max(1, environment._TABLE_BYTES // (16 * K * nnz))  # 81, then 1
        tables, draw = [], env._sparse_table
        monkeypatch.setattr(env, "_sparse_table", lambda ts: tables.append(ts) or draw(ts))
        for T in (R - 1, R, R + 1, 3 * R + 5):
            tables.clear()
            assert sum(len(ts) for ts, *_ in env._tables(T)) == T
            assert [t for ts in tables for t in ts] == list(range(1, T + 1))
            assert all(1 <= len(ts) <= R for ts in tables)

    def test_a_run_leaves_the_environment_as_built(self, tmp_path, monkeypatch):
        cfg = EnvConfig(n=400, K=10, context=SparseUniform(nnz=5),
                        noise=NoiseSpec.gaussian(0.1), seed=3)
        built = []  # each environment, with its attributes as __init__ left them

        def build(spec):
            env = make_env(spec)
            built.append((env, dict(vars(env))))
            return env
        monkeypatch.setattr(harness, "make_env", build)
        cbrap_run(build(cfg), PolicyConfig(m=20, seed=1), 200)  # 3 tables
        # the adaptive width scans each UCB algo's rounds before the loop
        run_experiment(ExperimentConfig(env=replace(cfg, seed=0), m=20, T=200,
                                        adaptive_beta=True,
                                        algos=("cbrap-sg", "linucb", "uniform"),
                                        seeds=(1, 2), out_dir=str(tmp_path)))
        assert len(built) == 3
        for env, attributes in built:
            assert vars(env).keys() == attributes.keys()
            assert all(vars(env)[k] is v for k, v in attributes.items())

    def test_a_sparse_run_leaves_no_reference_cycle(self):
        # a table linked to itself is freed only by the cyclic collector,
        # which lets every drawn table pile up between its runs
        env = make_env(EnvConfig(n=400, K=10, context=SparseUniform(nnz=5),
                                 noise=NoiseSpec.gaussian(0.1), seed=3))
        cbrap_run(env, PolicyConfig(m=20, seed=1), 5)
        gc.collect()
        gc.disable()
        try:
            records = cbrap_run(env, PolicyConfig(m=20, seed=1), 300)  # 4 tables
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(records) == 300


    @pytest.mark.parametrize("runner", ["cbrap", "uniform"])
    def test_a_sparse_run_allocates_no_dense_block(self, runner):
        # the paper's regime: a sparse round costs in m and nnz, not in n, so
        # no run of SparseUniform rounds builds a (K, n) array of floats;
        # LinUCB densifies by design and is left out
        n, K = 200_000, 10
        env = make_env(EnvConfig(n=n, K=K, context=SparseUniform(nnz=5),
                                 noise=NoiseSpec.gaussian(0.1), seed=14))
        P = build_projection(ProjectionKind.STANDARD_GAUSSIAN, 8, n, 15)  # 12.8 MB
        run = {"cbrap": lambda T: cbrap_run(env, PolicyConfig(m=8, seed=15), T, projection=P),
               "uniform": lambda T: uniform_run(env, 16, T)}[runner]
        run(5)  # imports and first-use caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert len(run(200)) == 200
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < K * n * 8


POOLED = len(os.sched_getaffinity(0)) >= 2 if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1) >= 2
DENSE = {"gaussian": GaussianUnit(), "aligned": AlignedSpread(),
         "nuisance": AlignedSpread(nuisance_dim=3)}


def rounds_a_table(monkeypatch, R, K, n):
    # dense tables of R rounds of (K, n) contexts
    monkeypatch.setattr(environment, "_DENSE_TABLE_BYTES", R * 8 * K * n)


def one_cpu(monkeypatch):
    # the round source sees one usable CPU, and so draws every table inline
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


class TestDenseTables:
    """A dense round's table is drawn and priced at once, the round loop and
    the oracle scan project it at once, and the scan takes its products a
    table at a time; each slice must keep the bits of its own round drawn
    alone."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), context=st.sampled_from(sorted(DENSE)),
           n=st.integers(4, 300), K=st.integers(1, 12), m=st.integers(1, 12),
           lo=st.integers(1, 40) | st.integers(990, 1024), R=st.integers(1, 40))
    @example(seed=0, context="gaussian", n=200, K=10, m=12, lo=1017, R=16)  # across t = 1024
    @example(seed=1, context="nuisance", n=50, K=10, m=5, lo=1, R=40)
    @example(seed=2, context="aligned", n=300, K=1, m=12, lo=1020, R=9)  # one-row rounds
    def test_table_rows_keep_each_round_s_bits(self, seed, context, n, K, m, lo, R):
        env = make_env(EnvConfig(n=n, K=K, context=DENSE[context],
                                 noise=NoiseSpec.gaussian(0.1), seed=seed))
        ts, table, means, noise = env._table(range(lo, lo + R))
        assert table.shape == (R, K, n) and not table.flags.writeable
        Ps = [build_projection(kind, min(m, n), n, seed) for kind in ProjectionKind]
        Zs = [projection._project_table(P, table, K)[0] for P in Ps]
        for i, t in enumerate(ts):
            alone = env.draw_round(t)
            assert table[i].tobytes() == alone.tobytes()
            assert means[i].tobytes() == env._means(alone).tobytes()
            assert noise[i] == env.noise_draw(t)
            for P, Z in zip(Ps, Zs):
                assert Z[i].tobytes() == projection._project(P, alone).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), context=st.sampled_from(sorted(DENSE)),
           n=st.integers(4, 120), K=st.integers(1, 10), R=st.integers(1, 12),
           T=st.integers(1, 60))
    @example(seed=3, context="gaussian", n=200, K=10, R=16, T=40)  # the default at n=200
    @example(seed=4, context="aligned", n=4, K=1, R=7, T=1030)  # across t = 1024
    def test_runs_and_scans_keep_each_round_s_bits(self, seed, context, n, K, R, T):
        env = make_env(EnvConfig(n=n, K=K, context=DENSE[context],
                                 noise=NoiseSpec.gaussian(0.1), seed=seed))
        m = min(n, 5)
        Ps = [build_projection(kind, m, n, seed) for kind in ProjectionKind]
        blocks = [env.draw_round(t) for t in range(1, T + 1)]
        # cbrap-sg, cbrap-rs and linucb in lockstep log what they log with
        # each round drawn, projected and priced on its own
        alone = policies._run_rounds(
            tables_of_one_round(env, T),
            [policies._scoring_policy(m, 1.0, projected_alone(P), lambda t: 1.0) for P in Ps]
            + [policies._ucb_policy(env, None, 1.0, lambda t: 1.0)])
        P = Ps[0]
        with pytest.MonkeyPatch.context() as patch:
            rounds_a_table(patch, R, K, n)  # two rounds at least
            tables = policies._run_rounds(env._tables(T), [
                policies._ucb_policy(env, P, 1.0, lambda t: 1.0) for P in [*Ps, None]])
            params, kept = harness._oracle_scan(
                env, P, R=0.1, delta=0.1, lam=1.0, T=T, keep=True)
        Z, means = (np.concatenate([table[i] for table in kept]) for i in (1, 2))
        noise = [eta for _, _, _, table_noise in kept for eta in table_noise]
        for a, b in zip(tables, alone):
            assert list(map(record_key, a)) == list(map(record_key, b))
        # the scan keeps each round's own projection and means, and its
        # constants are those of the same rounds replayed one at a time
        for t, b in enumerate(blocks, 1):
            assert Z[t - 1].tobytes() == projection._project(P, b).tobytes()
            assert means[t - 1].tobytes() == env._means(b).tobytes()
            assert noise[t - 1] == env.noise_draw(t)
        replay = make_env(replace(env.cfg, context=Replay(
            ReplayDataset(n=n, K=K, rows=np.concatenate(blocks)))))
        assert (replay.theta_star == env.theta_star).all()
        one_round = harness._oracle_scan(replay, P, R=0.1, delta=0.1, lam=1.0, T=T,
                                         keep=False)[0]
        assert repr(one_round) == repr(params)


class TestReplayTables:
    """A replay's rounds come in dense tables too, each a read-only view of
    its dataset's rows."""

    @pytest.mark.parametrize("context", ["gaussian", "aligned"])
    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    def test_a_replay_of_a_run_s_rounds_writes_that_run_s_artifacts(
            self, context, adaptive, tmp_path, monkeypatch):
        # the same seed gives the replay the run's theta*, noise, projections
        # and uniform arms; its tables must log what the run's tables log
        n, K, T, seed = 30, 4, 60, 3
        rounds_a_table(monkeypatch, 7, K, n)  # 9 tables, the last of 4 rounds
        env = EnvConfig(n=n, K=K, context=DENSE[context], noise=NoiseSpec.gaussian(0.1),
                        seed=seed)
        drawn = make_env(env)
        rows = np.concatenate([drawn.draw_round(t) for t in range(1, T + 1)])
        replay = replace(env, context=Replay(ReplayDataset(n=n, K=K, rows=rows)))
        tables = [table for _, table, _, _ in make_env(replay)._tables(T)]
        assert len(tables) == 9 and all(
            not table.flags.writeable and np.shares_memory(table, replay.context.dataset.rows)
            for table in tables)

        def artifacts(env_cfg, name):
            out = tmp_path / name
            summary = run_experiment(ExperimentConfig(
                env=replace(env_cfg, seed=0), m=5, T=T,
                algos=("cbrap-sg", "cbrap-rs", "linucb", "uniform"), adaptive_beta=adaptive,
                seeds=(seed,), out_dir=str(out)))
            csvs = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
            return csvs, (repr(summary.theory_bound), repr(summary.success_probability))
        dense, replayed = artifacts(env, "dense"), artifacts(replay, "replay")
        assert len(dense[0]) == 4 and (dense[1] != ("None", "None")) == adaptive
        assert replayed == dense

    @pytest.mark.parametrize("R", [None, 4], ids=["one-table", "tables-of-4"])
    @pytest.mark.parametrize("runner", ["cbrap", "linucb", "uniform"])
    def test_a_run_past_the_data_names_its_first_missing_round(self, runner, R, monkeypatch):
        n, K = 6, 2
        if R is not None:
            rounds_a_table(monkeypatch, R, K, n)  # round 31 in the table of rounds 29..32
        rows = np.random.default_rng(40).standard_normal((30 * K, n))
        env = make_env(EnvConfig(n=n, K=K, context=Replay(ReplayDataset(n=n, K=K, rows=rows)),
                                 noise=NoiseSpec.gaussian(0.1), seed=41))
        draw, drawn = env._dense_table, []
        monkeypatch.setattr(env, "_dense_table", lambda ts: drawn.append(ts) or draw(ts))
        run = {"cbrap": lambda: cbrap_run(env, PolicyConfig(m=3), 45),
               "linucb": lambda: linucb_run(env, 1.0, FixedBeta(1.0), 45),
               "uniform": lambda: uniform_run(env, 42, 45)}[runner]
        with pytest.raises(EndOfDataError,
                           match=r"^replay dataset has 30 rounds, round 31 requested$"):
            run()
        assert any(ts[0] < 31 < ts[-1] for ts in drawn)  # raised inside a multi-round table
        assert drawn[-1] == (range(1, 46) if R is None else range(29, 33))  # the table of round 31


class TestRoundsAhead:
    """A dense run of more than one table has its tables drawn ahead on a
    thread pool where 2 CPUs are usable; it must log, scan and fail exactly
    as a run drawn inline does."""

    @pytest.mark.parametrize("context", sorted(DENSE))
    def test_the_pool_changes_no_artifact(self, context, tmp_path, monkeypatch):
        def artifacts(name, R=None, cpus=None):
            with monkeypatch.context() as patch:
                if R is not None:
                    rounds_a_table(patch, R, 4, 30)
                if cpus == 1:
                    one_cpu(patch)
                out = tmp_path / name
                env = EnvConfig(n=30, K=4, context=DENSE[context],
                                noise=NoiseSpec.gaussian(0.1), seed=0)
                # the adaptive width scans each UCB algo's rounds before the loop
                run_experiment(ExperimentConfig(env=env, m=5, T=60, algos=(
                    "cbrap-sg", "linucb", "uniform"), adaptive_beta=True, seeds=(1, 2),
                    out_dir=str(out)))
                coverage = coverage_experiment(ExperimentConfig(env=env, m=5, T=60), 2)
            csvs = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
            return csvs, [repr(s.params) for s in coverage.per_seed]
        one_table = artifacts("one-table")  # 60 rounds of 960 bytes
        inline, pooled = artifacts("inline", R=7, cpus=1), artifacts("pooled", R=7)
        assert len(one_table[0]) == 6
        assert one_table == inline == pooled

    @pytest.mark.parametrize("context", sorted(DENSE))
    def test_rounds_drawn_ahead_are_the_rounds_drawn_one_by_one(self, context):
        T = 40
        for n in (200, 2000):  # tables of 16 rounds, and of 2
            env = make_env(EnvConfig(n=n, K=10, context=DENSE[context],
                                     noise=NoiseSpec.gaussian(0.1), seed=5))
            start = threading.active_count()
            threads = []
            for t, (block, means, noise) in enumerate(env_rounds(env, T), 1):
                threads.append(threading.active_count())
                alone = env.draw_round(t)
                assert block.tobytes() == alone.tobytes()
                assert means.tobytes() == env._means(alone).tobytes()
                assert noise == env.noise_draw(t)
            assert t == T
            assert (max(threads) > start) == POOLED  # the pool drew them, where it runs
            assert threading.active_count() == start

    def test_pool_threads_share_the_round_streams_safely(self, monkeypatch):
        # both threads read the environment and the memoized seed-word tables,
        # here across a table boundary (t = 1024), switching as often as Python can
        rounds_a_table(monkeypatch, 3, 3, 20)
        env = make_env(EnvConfig(n=20, K=3, context=AlignedSpread(nuisance_dim=2),
                                 noise=NoiseSpec.gaussian(0.1), seed=9))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = list(env_rounds(env, 1100))
        finally:
            sys.setswitchinterval(interval)
        for t, (block, means, noise) in enumerate(pooled, 1):
            alone = env.draw_round(t)
            assert block.tobytes() == alone.tobytes()
            assert means.tobytes() == env._means(alone).tobytes()
            assert noise == env.noise_draw(t)

    # one table of 12 rounds drawn inline, or tables of 4 drawn ahead
    @pytest.mark.parametrize("R", [None, 4], ids=["inline", "pooled"])
    def test_a_draw_error_reaches_the_caller_unchanged(self, R, monkeypatch):
        if R is not None:
            rounds_a_table(monkeypatch, R, 3, 20)
        env = make_env(EnvConfig(n=20, K=3, seed=6))
        error, round_rngs = RuntimeError("round 7"), environment.round_rngs

        def failing(seed, stream, ts):
            for t, rng in zip(ts, round_rngs(seed, stream, ts)):
                if stream == STREAM_CONTEXT and t == 7:
                    raise error
                yield rng
        monkeypatch.setattr(environment, "round_rngs", failing)
        start, taken = threading.active_count(), []
        with pytest.raises(RuntimeError) as info:
            for t, _ in enumerate(env_rounds(env, 12), 1):
                taken.append(t)
        assert info.value is error
        assert taken == ([] if R is None else [1, 2, 3, 4])  # the tables before round 7's
        assert threading.active_count() == start

    def test_no_thread_outlives_a_run(self, monkeypatch):
        rounds_a_table(monkeypatch, 3, 3, 20)
        env = make_env(EnvConfig(n=20, K=3, noise=NoiseSpec.gaussian(0.1), seed=7))
        start = threading.active_count()
        cbrap_run(env, PolicyConfig(m=4), 40)
        assert threading.active_count() == start

        def select(t, rows):
            if t == 3:
                raise ValueError("policy fails at round 3")
            return 0, 0.0, None
        with pytest.raises(ValueError, match="round 3") as info:
            policies._run_rounds(env._tables(40), [(None, select, None)])
        assert info.traceback  # the kept traceback holds the loop's frame
        assert threading.active_count() == start

        error = RuntimeError("draw fails")

        def draw(ts):
            raise error
        monkeypatch.setattr(env, "_dense_table", draw)
        with pytest.raises(RuntimeError) as info:
            uniform_run(env, 8, 40)
        assert info.value is error
        assert threading.active_count() == start
