"""Environments: streams, noise moments, regret accounting, replay format."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrap import (AlignedSpread, ConfigError, DatasetError,
                   EndOfDataError, EnvConfig, GaussianUnit, InvalidInputError,
                   NoiseSpec, Replay, ReplayDataset, SparseBlock, SparseUniform,
                   environment, load_context_dataset, make_env, save_context_dataset)
from cbrap.rng import ROUND_CHUNK, STREAM_CONTEXT, _bounded, _sparse_plan, derive_rng

N_NOISE = 100_000


@pytest.fixture(scope="module")
def gaussian_noise():
    env = make_env(EnvConfig(n=4, K=2, noise=NoiseSpec.gaussian(1.0), seed=42))
    return np.array([env.noise_draw(t) for t in range(1, N_NOISE + 1)])


@pytest.fixture(scope="module")
def uniform_noise():
    env = make_env(EnvConfig(n=4, K=2, noise=NoiseSpec.bounded_uniform(1.0), seed=43))
    return np.array([env.noise_draw(t) for t in range(1, N_NOISE + 1)])


class TestMakeEnv:
    def test_theta_rescaled_exactly(self):
        for target in (1.0, 2.5):
            env = make_env(EnvConfig(n=3, K=2, seed=1, theta_norm=target))
            assert np.linalg.norm(env.theta_star) == pytest.approx(target, abs=1e-12)

    def test_same_seed_same_theta(self):
        a = make_env(EnvConfig(n=10, K=2, seed=9))
        b = make_env(EnvConfig(n=10, K=2, seed=9))
        np.testing.assert_array_equal(a.theta_star, b.theta_star)

    def test_theta_independent_of_context_generator(self):
        a = make_env(EnvConfig(n=10, K=2, seed=9))
        b = make_env(EnvConfig(n=10, K=2, context=SparseUniform(3), seed=9))
        np.testing.assert_array_equal(a.theta_star, b.theta_star)

    def test_dict_spec(self):
        env = make_env({"n": 6, "k": 3, "context": "sparse-uniform", "nnz": 2,
                        "noise": "gaussian", "noise_r": 0.2, "seed": 5})
        assert env.n == 6 and env.K == 3
        assert env.noise.sub_gaussian_r == 0.2

    def test_dict_spec_replay(self, tmp_path):
        rng = np.random.default_rng(30)
        ds = ReplayDataset(n=3, K=2, rows=rng.standard_normal((6, 3)))
        path = str(tmp_path / "ctx.csv")
        save_context_dataset(ds, path)
        env = make_env({"n": 3, "k": 2, "context": "replay", "replay_path": path})
        np.testing.assert_array_equal(env.draw_round(1)[0], ds.rows[0])
        with pytest.raises(ConfigError, match="replay_path"):
            make_env({"n": 3, "k": 2, "context": "replay"})

    def test_bad_dict_names_field(self):
        with pytest.raises(ConfigError, match="context"):
            make_env({"n": 4, "k": 2, "context": "nope"})
        with pytest.raises(ConfigError, match="unknown env config fields"):
            make_env({"n": 4, "k": 2, "bogus": 1})

    @pytest.mark.parametrize("value", [0.0, float("inf"), float("nan")])
    def test_theta_norm_and_noise_scale_finite_and_positive(self, value):
        with pytest.raises(ConfigError, match="theta_norm"):
            EnvConfig(n=4, K=2, theta_norm=value)
        for spec in (NoiseSpec.gaussian, NoiseSpec.bounded_uniform):
            with pytest.raises(ConfigError, match="noise scale"):
                spec(value)

    def test_a_finite_theta_norm_that_overflows_theta_is_a_config_error(self):
        # theta_norm / ||raw|| overflows where ||raw|| < 0.44: the run once
        # warned "overflow encountered in scalar divide" (an error under this
        # suite's filterwarnings) and went on to an infinite reward
        with pytest.raises(ConfigError, match=r"^theta_norm: 8e\+307 overflows theta\*$"):
            make_env(EnvConfig(n=1, K=2, theta_norm=8e307))
        env = make_env(EnvConfig(n=40, K=2, theta_norm=1.7e308))  # ||raw|| is about 5
        assert np.linalg.norm(env.theta_star / 1e300) == pytest.approx(1.7e8, rel=1e-12)

    @pytest.mark.parametrize("theta_norm,norm", [(1e200, "inf"), (1e-200, "0.0")])
    def test_an_aligned_axis_whose_norm_overflows_or_vanishes_is_a_config_error(
            self, theta_norm, norm):
        # ||theta*|| squares through dot: at 1e200 it overflowed with numpy's
        # "overflow encountered in dot" and left an all-zero axis, so every
        # context lost its c * u part; at 1e-200 the division warned "divide
        # by zero" and made the axis non-finite
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"theta_norm: {theta_norm} gives ||theta*|| = {norm}, ")):
            make_env(EnvConfig(n=20, K=3, context=AlignedSpread(), theta_norm=theta_norm,
                               seed=1))
        env = make_env(EnvConfig(n=20, K=3, context=AlignedSpread(), theta_norm=1e150, seed=1))
        assert np.linalg.norm(env._direction) == pytest.approx(1.0, rel=1e-12)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            make_env(EnvConfig(n=0, K=2))
        with pytest.raises(ConfigError):
            make_env(EnvConfig(n=4, K=0))
        # every check runs when the config is built, before any environment
        for context, name in [(SparseUniform(nnz=5), "nnz"), (SparseUniform(nnz=0), "nnz"),
                              (AlignedSpread(nuisance_dim=4), "nuisance_dim")]:
            with pytest.raises(ConfigError, match=name):
                EnvConfig(n=4, K=2, context=context)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="seed"):
                EnvConfig(n=4, K=2, seed=seed)


class TestDrawRound:
    def test_gaussian_unit_norms(self):
        env = make_env(EnvConfig(n=20, K=6, seed=2))
        for x in env.draw_round(1):
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(x) <= 1.0 + 1e-12

    def test_sparse_uniform_support(self):
        env = make_env(EnvConfig(n=1000, K=4, context=SparseUniform(nnz=5), seed=3))
        block = env.draw_round(7)
        assert isinstance(block, SparseBlock) and block.indices.shape == (4, 5)
        assert np.all(np.diff(block.indices, axis=1) > 0)
        np.testing.assert_allclose(np.linalg.norm(block.values, axis=1), 1.0, atol=1e-12)
        assert np.all(np.count_nonzero(block.to_dense(), axis=1) == 5)

    def test_aligned_spread_mean_rewards_in_band(self):
        gen = AlignedSpread(low=0.1, high=0.9, noise_scale=0.2)
        env = make_env(EnvConfig(n=50, K=8, context=gen, seed=4))
        for t in (1, 5, 11):
            X = env.draw_round(t)
            assert np.all(np.linalg.norm(X, axis=1) <= 1.0 + 1e-12)
            means = env.mean_rewards(X)
            assert np.all((0.1 - 1e-9 <= means) & (means <= 0.9 + 1e-9))

    def test_deterministic_per_round(self):
        env = make_env(EnvConfig(n=12, K=3, seed=6))
        a = env.draw_round(5)
        b = env.draw_round(5)
        np.testing.assert_array_equal(a, b)
        c = env.draw_round(6)
        assert not np.array_equal(a[0], c[0])

    def test_round_index_must_be_positive(self):
        env = make_env(EnvConfig(n=4, K=2, seed=0))
        with pytest.raises(InvalidInputError):
            env.draw_round(0)

    @pytest.mark.parametrize("call", ["draw_round", "noise_draw", "realize_reward"])
    @pytest.mark.parametrize("context", [SparseUniform(nnz=2), GaussianUnit()])
    @pytest.mark.parametrize("t", [2.5, np.float64(2.0), True, np.bool_(True), "2", None])
    def test_round_index_must_be_an_integer(self, call, context, t):
        # a sparse draw once served round 2 for 2.5, and a bool ran as round 1;
        # without noise, noise_draw reads no generator that would check t
        env = make_env(EnvConfig(n=6, K=3, context=context, seed=1))
        run = {"draw_round": lambda: env.draw_round(t),
               "noise_draw": lambda: env.noise_draw(t),
               "realize_reward": lambda: env.realize_reward(np.zeros((3, 6)), 0, t)}[call]
        with pytest.raises(InvalidInputError, match="expected an integer round index"):
            run()

    @pytest.mark.parametrize("call", ["draw_round", "noise_draw", "realize_reward"])
    @pytest.mark.parametrize("context", ["gaussian", "sparse", "aligned", "replay"])
    def test_round_index_must_fit_a_uint64(self, call, context):
        # a dense or sparse draw of round 2**64 once raised a bare OverflowError
        ctx = {"gaussian": GaussianUnit(), "sparse": SparseUniform(nnz=2),
               "aligned": AlignedSpread(),
               "replay": Replay(ReplayDataset(n=6, K=3, rows=np.ones((6, 6))))}[context]
        env = make_env(EnvConfig(n=6, K=3, context=ctx, noise=NoiseSpec.gaussian(0.1),
                                 seed=1))
        run = {"draw_round": lambda: env.draw_round(2**64),
               "noise_draw": lambda: env.noise_draw(2**64),
               "realize_reward": lambda: env.realize_reward(np.zeros((3, 6)), 0, 2**64)}[call]
        with pytest.raises(InvalidInputError, match=f"round index must be a uint64, got {2**64}"):
            run()

    @pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.gaussian(0.1)])
    @pytest.mark.parametrize("t", [0, -1])
    def test_noise_draw_rejects_rounds_below_one(self, noise, t):
        # as draw_round and realize_reward do; round 0 once drew a value, and
        # without noise any negative round read 0.0
        env = make_env(EnvConfig(n=5, K=2, noise=noise, seed=1))
        with pytest.raises(InvalidInputError, match=f"round index must be >= 1, got {t}"):
            env.noise_draw(t)

    @pytest.mark.parametrize("context", [SparseUniform(nnz=2), GaussianUnit()])
    def test_numpy_integer_round_indices_pass(self, context):
        env = make_env(EnvConfig(n=6, K=3, context=context,
                                 noise=NoiseSpec.gaussian(0.1), seed=1))
        for t in (np.int64(3), np.uint64(3), np.int8(3)):
            np.testing.assert_array_equal(list(env.draw_round(t)), list(env.draw_round(3)))
            assert env.noise_draw(t) == env.noise_draw(3)


def block_env(kind, n=40, K=5, seed=8):
    gen = {"gaussian": GaussianUnit(), "sparse": SparseUniform(nnz=4),
           "aligned": AlignedSpread(), "nuisance": AlignedSpread(nuisance_dim=3)}
    if kind == "replay":
        rows = np.random.default_rng(seed).standard_normal((3 * K, n))
        ctx = Replay(ReplayDataset(n=n, K=K, rows=rows))
    else:
        ctx = gen[kind]
    return make_env(EnvConfig(n=n, K=K, context=ctx,
                              noise=NoiseSpec.gaussian(0.3), seed=seed))


BLOCK_KINDS = ["gaussian", "sparse", "aligned", "nuisance", "replay"]


class TestBlocks:
    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    def test_block_is_read_only_and_iterates_as_k_rows(self, kind):
        env = block_env(kind)
        block = env.draw_round(2)
        assert block.shape == (5, 40) and len(block) == 5
        rows = list(block)
        assert len(rows) == 5
        dense = np.stack([r.to_dense() if hasattr(r, "to_dense") else np.asarray(r)
                          for r in rows])
        assert dense.shape == (5, 40)
        if isinstance(block, SparseBlock):
            np.testing.assert_array_equal(dense, block.to_dense())
            arrays = (block.indices, block.values)
        else:
            assert block.dtype == np.float64
            arrays = (block,)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    def test_rewards_bitwise_equal_per_row_products(self, kind):
        # the CSV reward and regret columns depend on these exact bits
        env = block_env(kind)
        for t in (1, 3):
            block = env.draw_round(t)
            if isinstance(block, SparseBlock):
                means = [float(block.values[k] @ env.theta_star[block.indices[k]])
                         for k in range(5)]
                dense = block.to_dense()
            else:
                means = [float(x @ env.theta_star) for x in block]
                dense = block
            assert env.mean_rewards(block).tolist() == means
            for k in range(5):
                assert env.realize_reward(block, k, t) == means[k] + env.noise_draw(t)
                assert env.instant_regret(block, k) == max(0.0, max(means) - means[k])
                # a caller's list of rows gives the values of the dense block
                assert env.instant_regret(list(block), k) == env.instant_regret(dense, k)

    def test_sparse_draws_keep_per_arm_call_order(self):
        # the block equals, byte for byte, the per-arm loop that drew, sorted
        # and normalized each row in turn; rounds 1-1100 cross the round
        # streams' 1,024-round table boundary, and at n = 10001 choice moves
        # from Floyd's sampling (nnz = 200) to its tail shuffle (nnz = 201);
        # the round source's tables of rounds hold the same blocks
        def per_arm(seed, n, K, nnz, t):
            rng = derive_rng(seed, STREAM_CONTEXT, t)
            indices = np.empty((K, nnz), dtype=np.int64)
            values = np.empty((K, nnz))
            for k in range(K):
                indices[k] = np.sort(rng.choice(n, size=nnz, replace=False))
                vals = rng.uniform(-1.0, 1.0, size=nnz)
                nv = math.sqrt(vals @ vals)
                values[k] = vals / nv if nv > 0 else vals
            return indices, values
        for seed, n, K, nnz, T in [(0, 4000, 10, 5, 1100), (7, 4000, 3, 1, 1100),
                                   (2**40 + 3, 300, 4, 17, 1100), (11, 6, 3, 6, 1100),
                                   (5, 10001, 3, 200, 40), (5, 10001, 3, 201, 40),
                                   (13, 10001, 2, 10001, 10), (13, 1, 3, 1, 40)]:
            env = make_env(EnvConfig(n=n, K=K, context=SparseUniform(nnz), seed=seed))
            for ts, table, _, _ in env._tables(T):
                for i, t in enumerate(ts):
                    indices, values = per_arm(seed, n, K, nnz, t)
                    for block in (env.draw_round(t), table._rows(i * K, (i + 1) * K)):
                        assert block.indices.tobytes() == indices.tobytes()
                        assert block.values.tobytes() == values.tobytes()

    def test_nonfinite_caller_block_rejected(self):
        env = block_env("gaussian")
        X = np.array(env.draw_round(1))
        X[3, 7] = np.nan
        with pytest.raises(InvalidInputError):
            env.realize_reward(X, 0, 1)
        with pytest.raises(InvalidInputError):
            env.instant_regret(X, 0)


def per_arm_block(seed, n, K, nnz, t):
    # each arm's choice and uniform calls on round t's generator, sorted and
    # normalized row by row
    rng = derive_rng(seed, STREAM_CONTEXT, t)
    indices = np.empty((K, nnz), dtype=np.int64)
    values = np.empty((K, nnz))
    for k in range(K):
        indices[k] = np.sort(rng.choice(n, size=nnz, replace=False))
        vals = rng.uniform(-1.0, 1.0, size=nnz)
        nv = math.sqrt(vals @ vals)
        values[k] = vals / nv if nv > 0 else vals
    return indices, values


table_shapes = st.one_of(
    # Floyd's sampling, with nnz = n drawn often
    st.integers(1, 60).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from([1, n]) | st.integers(1, n))),
    # choice's tail shuffle, just past its switch and up to nnz = n
    st.integers(10001, 11000).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(n // 50 + 1, n // 50 + 3) | st.integers(n - 2, n))),
)


def access_orders(rounds):
    # rounds: the rounds in a table of the round source
    return st.one_of(
        # sequential over the round source's first table's end, into the next
        st.just([1, *range(max(2, rounds - 1), rounds + 3)]),
        # sequential across a table of the round streams' seed words
        st.integers(ROUND_CHUNK - 6, ROUND_CHUNK).map(lambda s: list(range(s, s + 8))),
        # scattered
        st.lists(st.integers(1, 3 * rounds + 2 * ROUND_CHUNK), min_size=1, max_size=5),
        # repeated
        st.lists(st.integers(1, 3), min_size=2, max_size=6),
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), shape=table_shapes, K=st.integers(1, 3),
       data=st.data())
def test_table_draws_equal_single_draws(seed, shape, K, data):
    # a table of rounds starting at any round holds, byte for byte, each
    # round's draw_round and per-arm calls, and a round's rows pass every
    # check of a caller's SparseBlock
    n, nnz = shape
    env = make_env(EnvConfig(n=n, K=K, context=SparseUniform(nnz), seed=seed))
    R = max(1, environment._TABLE_BYTES // (16 * K * nnz))
    as_int = data.draw(st.sampled_from([int, np.int64]))  # t may be a NumPy integer
    order = data.draw(access_orders(R))
    for t in order:
        block = env.draw_round(as_int(t))
        table = env._sparse_table(range(t, t + R))
        # the table's ends and every round of the order it holds
        for i in sorted({0, R - 1} | {s - t for s in order if t <= s < t + R}):
            rows = table._rows(i * K, (i + 1) * K)
            indices, values = per_arm_block(seed, n, K, nnz, t + i)
            for got in (rows, block) if i == 0 else (rows,):
                assert got.indices.tobytes() == indices.tobytes()
                assert got.values.tobytes() == values.tobytes()
            checked = SparseBlock(n, rows.indices, rows.values)
            assert checked.indices.shape == (K, nnz) and not rows.values.flags.writeable


def test_table_round_with_a_rejected_draw(monkeypatch):
    # round 210 of seed 0 holds a draw Lemire's step rejects, so the round
    # source's table of rounds 205-210 (6 rounds a table at this shape)
    # redraws it on its own
    n, K, nnz = 10001, 3, 201
    plan = _sparse_plan(n, nnz, K)
    words = derive_rng(0, STREAM_CONTEXT, 210).bit_generator.random_raw(plan.words)
    assert _bounded(np.concatenate([[np.uint64(0)], words]), plan)[1].any()
    env = make_env(EnvConfig(n=n, K=K, context=SparseUniform(nnz), seed=0))
    tables, draw = [], env._sparse_table
    monkeypatch.setattr(env, "_sparse_table", lambda ts: tables.append(ts) or draw(ts))
    blocks = [table._rows(i * K, (i + 1) * K)
              for ts, table, _, _ in env._tables(211) for i in range(len(ts))]
    assert range(205, 211) in tables and len(tables) == 36
    for t in (208, 209, 210, 211):
        block = blocks[t - 1]
        indices, values = per_arm_block(0, n, K, nnz, t)
        assert block.indices.tobytes() == indices.tobytes()
        assert block.values.tobytes() == values.tobytes()


class TestReplay:
    def make_dataset(self):
        rows = np.arange(12.0).reshape(4, 3)  # 2 rounds, K=2, n=3
        return ReplayDataset(n=3, K=2, rows=rows)

    def test_rows_replayed_in_order(self):
        ds = self.make_dataset()
        env = make_env(EnvConfig(n=3, K=2, context=Replay(ds), seed=1))
        round1 = env.draw_round(1)
        np.testing.assert_array_equal(round1[0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(round1[1], [3.0, 4.0, 5.0])
        round2 = env.draw_round(2)
        np.testing.assert_array_equal(round2[1], [9.0, 10.0, 11.0])

    def test_exhaustion_raises(self):
        env = make_env(EnvConfig(n=3, K=2, context=Replay(self.make_dataset()), seed=1))
        with pytest.raises(EndOfDataError):
            env.draw_round(3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            make_env(EnvConfig(n=4, K=2, context=Replay(self.make_dataset()), seed=1))


class TestRewards:
    def test_noiseless_reward_is_inner_product(self):
        env = make_env(EnvConfig(n=8, K=2, seed=10))
        X = env.draw_round(1)
        assert env.realize_reward(X, 0, 1) == float(X[0] @ env.theta_star)

    def test_zero_context_gives_pure_noise(self):
        env = make_env(EnvConfig(n=8, K=2, noise=NoiseSpec.gaussian(0.3), seed=11))
        for t in (1, 2, 9):
            assert env.realize_reward(np.zeros((1, 8)), 0, t) == env.noise_draw(t)

    def test_reward_decomposes_exactly(self):
        env = make_env(EnvConfig(n=8, K=2, noise=NoiseSpec.gaussian(1.0), seed=42))
        X = env.draw_round(1)
        for t in range(1, 100):
            assert env.realize_reward(X, 0, t) == \
                env.mean_rewards(X)[0] + env.noise_draw(t)

    def test_sample_mean_at_fixed_context(self, gaussian_noise):
        # mean of 1e5 rewards within 5 sigma = 5 R / sqrt(1e5) of the true mean
        env = make_env(EnvConfig(n=8, K=2, noise=NoiseSpec.gaussian(1.0), seed=42))
        mean = env.mean_rewards(env.draw_round(1))[0]
        sample = mean + gaussian_noise  # decomposition verified above
        assert abs(sample.mean() - mean) < 0.015811388300841896

    def test_noise_same_for_all_arms(self):
        env = make_env(EnvConfig(n=8, K=3, noise=NoiseSpec.gaussian(0.5), seed=12))
        xs = env.draw_round(4)
        means = env.mean_rewards(xs)
        etas = {env.realize_reward(xs, k, 4) - means[k] for k in range(3)}
        assert len({round(e, 12) for e in etas}) == 1

    def test_clip_rewards_is_rejected(self):
        with pytest.raises(ConfigError, match="clip_rewards"):
            make_env({"n": 4, "k": 2, "clip_rewards": True})


class TestNoiseMoments:
    def test_zero_mean(self, gaussian_noise, uniform_noise):
        tol = 5.0 / math.sqrt(N_NOISE)  # 5 R / sqrt(N), R = 1
        assert abs(gaussian_noise.mean()) < tol
        assert abs(uniform_noise.mean()) < tol

    @pytest.mark.parametrize("lam", [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    def test_sub_gaussian_moment_bound(self, lam, gaussian_noise, uniform_noise):
        r = 1.0
        bound = math.exp(lam * lam * r * r / 2.0)
        # sampling slack: 5 sigma of the empirical MGF mean
        slack = 5.0 * math.sqrt((math.exp(lam * lam * r * r) - 1.0) / N_NOISE)
        for eta in (gaussian_noise, uniform_noise):
            assert np.exp(lam * eta).mean() <= bound * (1.0 + slack)

    def test_bounded_uniform_support(self, uniform_noise):
        assert np.all(np.abs(uniform_noise) <= 1.0)


class TestInstantRegret:
    def test_zero_for_argmax(self):
        env = make_env(EnvConfig(n=10, K=5, seed=14))
        xs = env.draw_round(3)
        best = int(np.argmax(env.mean_rewards(xs)))
        assert env.instant_regret(xs, best) == 0.0

    def test_known_gap(self):
        base = make_env(EnvConfig(n=6, K=2, seed=15))
        th = base.theta_star  # unit norm
        rows = np.stack([0.9 * th, 0.4 * th])
        ds = ReplayDataset(n=6, K=2, rows=rows)
        env = make_env(EnvConfig(n=6, K=2, context=Replay(ds), seed=15))
        xs = env.draw_round(1)
        assert env.instant_regret(xs, 1) == pytest.approx(0.5, rel=1e-9)
        assert env.instant_regret(xs, 0) == 0.0

    def test_matches_direct_computation(self):
        env = make_env(EnvConfig(n=12, K=6, seed=16))
        xs = env.draw_round(2)
        means = [float(x @ env.theta_star) for x in xs]
        for k in range(6):
            assert env.instant_regret(xs, k) == pytest.approx(
                max(means) - means[k], abs=1e-15)

    def test_index_out_of_range(self):
        env = make_env(EnvConfig(n=4, K=2, seed=0))
        with pytest.raises(InvalidInputError):
            env.instant_regret(env.draw_round(1), 2)


class TestDatasetCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "ctx.csv"
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        ds = ReplayDataset(n=3, K=2, rows=rng.standard_normal((4, 3)))
        path = str(tmp_path / "out.csv")
        save_context_dataset(ds, path)
        back = load_context_dataset(path)
        assert back.n == 3 and back.K == 2 and back.n_rounds == 2
        np.testing.assert_array_equal(back.rows, ds.rows)

    def test_shape(self, tmp_path):
        path = self.write(tmp_path, "dim=3,arms=2\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n")
        ds = load_context_dataset(path)
        assert ds.rows.shape == (4, 3) and ds.n_rounds == 2

    def test_malformed_number_names_line(self, tmp_path):
        path = self.write(tmp_path, "dim=2,arms=1\n1,2\n1,oops\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_context_dataset(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = self.write(tmp_path, "dim=2,arms=1\n1,2,3\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_context_dataset(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "cols=2\n1,2\n")
        with pytest.raises(DatasetError, match="line 1"):
            load_context_dataset(path)

    def test_rows_not_divisible_by_arms(self, tmp_path):
        path = self.write(tmp_path, "dim=2,arms=2\n1,2\n3,4\n5,6\n")
        with pytest.raises(DatasetError, match="divisible"):
            load_context_dataset(path)

    def test_missing_file(self):
        with pytest.raises(DatasetError):
            load_context_dataset("/nonexistent/ctx.csv")


class TestNoiseSpecValidation:
    def test_kinds(self):
        assert NoiseSpec.none().sub_gaussian_r == 0.0
        assert NoiseSpec.gaussian(0.5).sub_gaussian_r == 0.5
        assert NoiseSpec.bounded_uniform(2.0).sub_gaussian_r == 2.0

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigError):
            NoiseSpec.gaussian(0.0)
        with pytest.raises(ConfigError):
            NoiseSpec.bounded_uniform(-1.0)
