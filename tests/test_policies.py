"""Arm selection and full runs: tie-breaking, pairing, update placement."""

import math

import numpy as np
import pytest

from cbrap import (AdaptiveBeta, AlignedSpread, EnvConfig, FixedBeta,
                   GaussianUnit, InvalidInputError, NoiseSpec, PolicyConfig,
                   ProjectionKind, ProjectionMatrix, Replay, ReplayDataset,
                   RidgeState, SparseUniform, TheoryParams, build_projection,
                   cbrap_run, cbrap_select, linucb_run, make_env, policies,
                   project_rows, uniform_run)


def record_key(r):
    """All deterministic fields (elapsed_ns is wall time and may differ)."""
    return (r.t, r.chosen, r.reward, r.instant_regret, r.ucb_gap)


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
                      projection=ProjectionMatrix.identity(5))


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


class TestPairing:
    def test_policies_share_context_and_noise_streams(self):
        cfg = EnvConfig(n=10, K=3, noise=NoiseSpec.gaussian(0.2), seed=18)
        env_a, env_b = make_env(cfg), make_env(cfg)
        seen = []
        for env in (env_a, env_b):
            seen.append((env.draw_round(3), env.noise_draw(3)))
        np.testing.assert_array_equal(seen[0][0], seen[1][0])
        assert seen[0][1] == seen[1][1]

    def test_lockstep_policies_observe_the_same_block_object(self):
        # one _run_rounds call draws each round once and hands that block
        # to every policy; each log is the one its policy makes alone
        env = make_env(EnvConfig(n=12, K=3, context=SparseUniform(nnz=2),
                                 noise=NoiseSpec.gaussian(0.2), seed=25))
        P = build_projection(ProjectionKind.STANDARD_GAUSSIAN, 4, 12, 26)
        seen = [[], [], []]

        def observer(i):
            return lambda t, block, chosen: seen[i].append((t, block))
        logs = policies._run_rounds(env, 30, [
            policies._ucb_policy(env, P, 1.0, lambda t: 1.0, observer(0)),
            policies._ucb_policy(env, None, 1.0, lambda t: 1.0, observer(1)),
            policies._uniform_policy(env, 27, observer(2)),
        ])
        assert [[t for t, _ in s] for s in seen] == [list(range(1, 31))] * 3
        for (_, block), (_, block1), (_, block2) in zip(*seen):
            assert block is block1 and block is block2
        alone = [cbrap_run(env, PolicyConfig(m=4), 30, projection=P),
                 linucb_run(env, 1.0, FixedBeta(1.0), 30), uniform_run(env, 27, 30)]
        for log, single in zip(logs, alone):
            assert list(map(record_key, log)) == list(map(record_key, single))
