"""Round-stream derivation against numpy's SeedSequence + PCG64 seeding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrap import (AlignedSpread, EnvConfig, GaussianUnit, InvalidInputError,
                   NoiseSpec, SparseUniform, make_env, uniform_run)
from cbrap.rng import (ROUND_CHUNK, STREAM_CONTEXT, STREAM_NOISE, STREAM_PROJECTION,
                       STREAM_THETA, STREAM_UNIFORM, RoundStreams, _sparse_bounds,
                       _sparse_draw, derive_rng, pcg64_state, seed_words)

STREAMS = (STREAM_THETA, STREAM_CONTEXT, STREAM_NOISE, STREAM_UNIFORM, STREAM_PROJECTION)

seeds = st.integers(0, 2**64 - 1)
streams = st.one_of(st.sampled_from(STREAMS), st.integers(0, 2**64 - 1))
rounds = st.one_of(
    st.integers(0, 10**6),
    # both sides of a table edge
    st.builds(lambda c, d: c * ROUND_CHUNK + d, st.integers(1, 10**6 // ROUND_CHUNK),
              st.sampled_from([-1, 0, 1, ROUND_CHUNK - 1])),
    # where t becomes two 32-bit entropy words, and the last table
    st.integers(2**32 - 2 * ROUND_CHUNK, 2**32 + 2 * ROUND_CHUNK),
    st.integers(2**64 - ROUND_CHUNK, 2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(seed=seeds, stream=streams, t=rounds)
def test_table_matches_seed_sequence(seed, stream, t):
    lo = t - t % ROUND_CHUNK
    words = seed_words(seed, stream, lo)[t - lo]
    key = np.random.SeedSequence([seed, stream, t])
    np.testing.assert_array_equal(words, key.generate_state(4, np.uint64))
    assert pcg64_state(words.tolist()) == np.random.PCG64(key).state


def draws(g: np.random.Generator, k: int) -> list:
    # integers() first: the previous round's last draw leaves a buffered
    # 32-bit half in the bit generator, which a round's start must drop
    return [g.integers(k), g.standard_normal(3), g.uniform(-1.0, 1.0, size=2),
            g.choice(100, size=5, replace=False), g.integers(k, dtype=np.uint32)]


@settings(max_examples=100, deadline=None)
@given(seed=seeds, stream=streams, ts=st.lists(rounds, min_size=1, max_size=6),
       k=st.integers(1, 2**32))
def test_draws_equal_a_fresh_generator(seed, stream, ts, k):
    round_rng = RoundStreams(seed, stream)
    for t in ts:
        got, want = draws(round_rng(t), k), draws(derive_rng(seed, stream, t), k)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


sparse_shapes = st.one_of(
    # Floyd's sampling, with n = 1 and nnz = n drawn often
    st.integers(1, 60).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from([1, n]) | st.integers(1, n))),
    # either side of choice's switch to the tail shuffle at nnz = n // 50 + 1,
    # and the tail shuffle up to nnz = n
    st.integers(10001, 12000).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(n // 50 - 1, n // 50 + 2) | st.integers(n - 300, n))),
    # bounds where Lemire's 32-bit draw rejects about half its words, and
    # past 2**32, where it draws 64-bit words; no environment is this wide
    st.tuples(st.sampled_from([2**31 + 3, 3 * 2**30 + 7, 2**32 - 5, 2**32 + 9]),
              st.integers(1, 8)),
)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, shape=sparse_shapes, K=st.integers(1, 4), lead=st.booleans())
def test_sparse_draw_equals_per_arm_calls(seed, shape, K, lead):
    # one integers call gives what K per-arm choice and uniform calls give,
    # sorted, and leaves the bit generator in the same state; a leading
    # integers() call starts the round on a buffered 32-bit half
    n, nnz = shape
    got_rng, want_rng = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    if lead:
        got_rng.integers(10), want_rng.integers(10)
    indices, values = _sparse_draw(got_rng, _sparse_bounds(n, nnz), n, nnz, K)
    for k in range(K):
        assert indices[k].tobytes() == \
            np.sort(want_rng.choice(n, size=nnz, replace=False)).tobytes()
        assert values[k].tobytes() == want_rng.uniform(-1.0, 1.0, size=nnz).tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("t", [-1, 2**64])
def test_round_outside_uint64_rejected(t):
    with pytest.raises(InvalidInputError, match="round index"):
        RoundStreams(3, STREAM_CONTEXT)(t)


def fresh_env(cfg: EnvConfig):
    """An environment that builds a new generator for every draw."""
    env = make_env(cfg)
    env._context_rng = lambda t: derive_rng(env.seed, STREAM_CONTEXT, t)
    env._noise_rng = lambda t: derive_rng(env.seed, STREAM_NOISE, t)
    return env


@pytest.mark.parametrize("context", [GaussianUnit(), SparseUniform(nnz=3),
                                     AlignedSpread(), AlignedSpread(nuisance_dim=4)])
@pytest.mark.parametrize("noise", [NoiseSpec.gaussian(0.3), NoiseSpec.bounded_uniform(0.3)])
def test_out_of_order_draws_equal_fresh_generators(context, noise):
    cfg = EnvConfig(n=12, K=3, context=context, noise=noise, seed=2**63 + 5)
    env, ref = make_env(cfg), fresh_env(cfg)
    for t in (1500, 3, 1500, 1024, 1025):
        got, want = env.draw_round(t), ref.draw_round(t)
        for a, b in [(got, want)] if isinstance(got, np.ndarray) \
                else [(got.indices, want.indices), (got.values, want.values)]:
            np.testing.assert_array_equal(a, b)
        assert env.noise_draw(t) == ref.noise_draw(t)


def test_uniform_arms_equal_fresh_generators():
    env = make_env(EnvConfig(n=6, K=5, seed=4))
    records = uniform_run(env, 2**40 + 1, 1100)
    assert [r.chosen for r in records] == \
        [int(derive_rng(2**40 + 1, STREAM_UNIFORM, t).integers(5)) for t in range(1, 1101)]
