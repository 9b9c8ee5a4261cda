"""Round-stream derivation against numpy's SeedSequence + PCG64 seeding."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cbrap.environment
import cbrap.rng
from cbrap import (AlignedSpread, EnvConfig, GaussianUnit, InvalidInputError,
                   NoiseSpec, ProjectionKind, SparseUniform, build_projection,
                   make_env, uniform_run)
from cbrap.rng import (ROUND_CHUNK, STREAM_CONTEXT, STREAM_NOISE, STREAM_UNIFORM, _bounded,
                       _plan, _sparse_bounds, _sparse_indices, _sparse_rounds, _tail_shuffles,
                       _uniform_arms, check_seed, derive_rng, round_rng, round_rngs,
                       seed_words)

STREAMS = tuple(v for k, v in vars(cbrap.rng).items() if k.startswith("STREAM_"))

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
    assert round_rng(seed, stream, t).bit_generator.state == np.random.PCG64(key).state


def test_stream_ids_are_distinct():
    assert len(STREAMS) == 7 and len(set(STREAMS)) == len(STREAMS)


def test_seed_word_tables_are_shared_and_read_only():
    table = seed_words(7, STREAM_NOISE, ROUND_CHUNK)
    assert seed_words(7, STREAM_NOISE, ROUND_CHUNK) is table and table.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0


def test_round_generator_stays_its_round():
    # building round 2's generator leaves round 1's where it was
    g1 = round_rng(5, STREAM_CONTEXT, 1)
    g2 = round_rng(5, STREAM_CONTEXT, 2)
    assert g1 is not g2
    for g, t in ((g1, 1), (g2, 2)):
        np.testing.assert_array_equal(g.standard_normal(4),
                                      derive_rng(5, STREAM_CONTEXT, t).standard_normal(4))


def draws(g: np.random.Generator, k: int) -> list:
    # integers() first: the previous round's last draw leaves a buffered
    # 32-bit half in the bit generator, which a round's start must drop
    return [g.integers(k), g.standard_normal(3), g.uniform(-1.0, 1.0, size=2),
            g.choice(100, size=5, replace=False), g.integers(k, dtype=np.uint32)]


@settings(max_examples=100, deadline=None)
@given(seed=seeds, stream=streams, ts=st.lists(rounds, min_size=1, max_size=6),
       k=st.integers(1, 2**32))
def test_draws_equal_a_fresh_generator(seed, stream, ts, k):
    for t in ts:
        got, want = draws(round_rng(seed, stream, t), k), draws(derive_rng(seed, stream, t), k)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


# (first round, rounds): short tables anywhere, and tables that cross a
# seed-word table's edge, t = 1024 among them
tables = st.one_of(
    st.tuples(st.integers(0, 10**6), st.integers(0, 40)),
    st.builds(lambda c, d, R: (c * ROUND_CHUNK - d, R + d), st.integers(1, 8),
              st.integers(0, 40), st.integers(0, 40)),
    st.tuples(st.integers(2**64 - 2 * ROUND_CHUNK, 2**64 - 41), st.integers(0, 40)),
)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, stream=streams, table=tables, K=st.integers(1, 2**32 + 8),
       scale=st.floats(1e-3, 10.0))
@example(seed=2**63 + 5, stream=STREAM_CONTEXT, table=(1000, 50), K=10, scale=0.1)
@example(seed=2**63 + 5, stream=STREAM_UNIFORM, table=(2 * ROUND_CHUNK - 3, 1030), K=3,
         scale=1.0)  # three seed-word tables
@example(seed=1, stream=STREAM_UNIFORM, table=(5, 300), K=2**31 + 3, scale=1.0)  # rejections
def test_table_generators_equal_fresh_generators(seed, stream, table, K, scale):
    # every per-round quantity a table draws equals derive_rng(seed, stream, t)'s own call
    lo, R = table
    ts = range(lo, lo + R)
    fresh = [derive_rng(seed, stream, t) for t in ts]
    rngs = list(round_rngs(seed, stream, ts))
    assert len(rngs) == R
    for rng, want in zip(rngs, fresh):
        assert rng.bit_generator.state == want.bit_generator.state
    words = [rng.bit_generator.random_raw(3).tolist() for rng in round_rngs(seed, stream, ts)]
    assert words == [derive_rng(seed, stream, t).bit_generator.random_raw(3).tolist()
                     for t in ts]
    X = np.empty((R, 2, 3))
    for x, rng in zip(X, round_rngs(seed, stream, ts)):
        rng.standard_normal(out=x)
    for x, t in zip(X, ts):
        assert x.tobytes() == derive_rng(seed, stream, t).standard_normal((2, 3)).tobytes()
    arms = _uniform_arms(seed, stream, ts, K)
    assert arms == [int(derive_rng(seed, stream, t).integers(K)) for t in ts]
    assert all(type(a) is int for a in arms)
    if lo >= 1:  # an environment's rounds
        for noise, draw in [(NoiseSpec.gaussian(scale), lambda g: g.standard_normal() * scale),
                            (NoiseSpec.bounded_uniform(scale), lambda g: g.uniform(-scale, scale))]:
            env = make_env(EnvConfig(n=2, K=1, noise=noise, seed=seed))
            got = env._noise_table(ts)
            assert got == [env.noise_draw(t) for t in ts]
            assert got == [float(draw(derive_rng(seed, STREAM_NOISE, t))) for t in ts]
            assert all(type(v) is float for v in got)


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
@given(seed=seeds, shape=sparse_shapes, K=st.integers(1, 4), lo=st.integers(1, 2**64 - 3),
       rounds=st.integers(1, 3))
def test_sparse_draw_equals_per_arm_calls(seed, shape, K, lo, rounds):
    # a table of rounds drawn from raw words gives what K per-arm choice and
    # uniform calls on each round's generator give, sorted; past n = 2**32
    # every round makes those calls
    n, nnz = shape
    ts = range(lo, lo + rounds)
    indices, values = _sparse_rounds(seed, STREAM_CONTEXT, ts, n, nnz, K)
    for r, t in enumerate(ts):
        want_rng = derive_rng(seed, STREAM_CONTEXT, t)
        for k in range(r * K, (r + 1) * K):
            assert indices[k].tobytes() == \
                np.sort(want_rng.choice(n, size=nnz, replace=False)).tobytes()
            assert values[k].tobytes() == want_rng.uniform(-1.0, 1.0, size=nnz).tobytes()


def fixed_up(seed: int, n: int, nnz: int, rows: int):
    """``_sparse_indices`` on a table of one-arm rows, each from a fresh
    PCG64 keyed by (seed, row), with the rows numpy's bounded draw rejects
    left out; and which of the kept rows' Floyd draws repeat."""
    plan = _plan(_sparse_bounds(n, nnz))
    key = [np.random.SeedSequence([seed, i]) for i in range(rows)]
    ext = np.zeros((rows, plan.words + 1), dtype=np.uint64)
    for row, k in zip(ext, key):
        row[1:] = np.random.PCG64(k).random_raw(plan.words)
    draws, rejected, raw = _bounded(ext, plan)
    kept = np.flatnonzero(~rejected.any(axis=1))
    floyd = draws[kept, nnz - 1::-1] if _tail_shuffles(n, nnz) else draws[kept, :nnz]
    sorted_draws = np.sort(floyd.astype(np.int64), axis=1)
    repeats = (sorted_draws[:, 1:] == sorted_draws[:, :-1]).any(axis=1)
    indices, _ = _sparse_indices(draws[kept], raw[kept], n, nnz)
    want = [np.sort(np.random.Generator(np.random.PCG64(key[i])).choice(n, nnz, replace=False))
            for i in kept]
    return indices, want, repeats


floyd_shapes = st.one_of(
    st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    # the tail shuffle, where about one row in eight keeps every draw
    st.integers(10001, 10400).flatmap(lambda n: st.tuples(st.just(n), st.just(n // 50 + 1))),
)


@settings(max_examples=80, deadline=None)
@given(seed=seeds, shape=floyd_shapes, rows=st.integers(1, 40))
@example(seed=2**63 + 5, shape=(20, 5), rows=40)
@example(seed=3, shape=(10001, 201), rows=40)
def test_floyd_fix_up_equals_choice_row_by_row(seed, shape, rows):
    # the fix-up runs only on the rows whose draws repeat; every row still
    # gets choice's sample, whichever rows the table mixes
    indices, want, _ = fixed_up(seed, *shape, rows)
    assert len(indices) == len(want)
    for got, w in zip(indices, want):
        assert got.tobytes() == w.tobytes()


@pytest.mark.parametrize("seed, n, nnz", [(2**63 + 5, 20, 5), (3, 10001, 201)])
def test_floyd_tables_mix_repeating_rows(seed, n, nnz):
    # the examples above draw tables whose rows both repeat and do not
    _, _, repeats = fixed_up(seed, n, nnz, 40)
    assert repeats.any() and not repeats.all()


@settings(max_examples=200, deadline=None)
@given(seed=seeds, shape=sparse_shapes.filter(lambda s: s[0] <= 2**32), K=st.integers(1, 4))
def test_rejection_flag_is_exact(seed, shape, K):
    # a rejected draw takes one more 32-bit half, so r rejections end the
    # per-arm calls r/2 words past the plan's or on the other buffered half:
    # _bounded flags a round exactly when they end anywhere else
    n, nnz = shape
    bounds = np.tile(_sparse_bounds(n, nnz), K)
    plan = _plan(bounds)
    words = np.random.PCG64(seed).random_raw(plan.words)
    flagged = _bounded(np.concatenate([[np.uint64(0)], words]), plan)[1].any()
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(K):
        rng.choice(n, size=nnz, replace=False), rng.uniform(-1.0, 1.0, size=nnz)
    planned = np.random.PCG64(seed)
    planned.random_raw(plan.words)
    halves = np.count_nonzero((bounds > np.uint64(0)) & (bounds < np.uint64(2**32)))
    end = rng.bit_generator.state
    assert flagged == (end["state"] != planned.state["state"]
                       or end["has_uint32"] != halves % 2)


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), True, np.bool_(True), "3", None])
def test_non_integer_seed_rejected(seed):
    # a float seed once ran as its integer part, and a bool as 0 or 1
    with pytest.raises(InvalidInputError, match="expected an integer seed"):
        check_seed(seed)
    with pytest.raises(InvalidInputError, match="expected an integer seed"):
        derive_rng(seed, STREAM_CONTEXT)
    with pytest.raises(InvalidInputError, match="expected an integer seed"):
        build_projection(ProjectionKind.STANDARD_GAUSSIAN, 2, 4, seed=seed)


def test_numpy_integer_seeds_pass():
    assert check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    assert type(check_seed(np.int32(7))) is int
    with pytest.raises(InvalidInputError, match="uint64"):
        check_seed(np.int64(-1))


@pytest.mark.parametrize("t", [1.5, 2.0, np.float64(2.0), True, np.bool_(True), "3", None])
def test_non_integer_round_rejected(t):
    with pytest.raises(InvalidInputError, match="expected an integer round index"):
        round_rng(3, STREAM_CONTEXT, t)


def test_numpy_integer_rounds_pass():
    for t in (np.uint64(2**64 - 1), np.int32(7)):
        assert round_rng(3, STREAM_CONTEXT, t).bit_generator.state \
            == derive_rng(3, STREAM_CONTEXT, int(t)).bit_generator.state


@pytest.mark.parametrize("t", [-1, 2**64])
def test_round_outside_uint64_rejected(t):
    with pytest.raises(InvalidInputError, match="round index"):
        round_rng(3, STREAM_CONTEXT, t)


def fresh_draws(cfg: EnvConfig, ts) -> list:
    """Rounds ts' contexts and noise from an environment whose every draw
    builds its generator with ``derive_rng``, where ``round_rngs`` and
    ``round_rng`` are looked up."""
    env = make_env(cfg)
    with pytest.MonkeyPatch.context() as mp:
        for module in (cbrap.environment, cbrap.rng):
            mp.setattr(module, "round_rngs", lambda seed, stream, ts: (
                derive_rng(seed, stream, t) for t in ts))
        mp.setattr(cbrap.rng, "round_rng", derive_rng)
        return [(env.draw_round(t), env.noise_draw(t)) for t in ts]


@pytest.mark.parametrize("context", [GaussianUnit(), SparseUniform(nnz=3),
                                     AlignedSpread(), AlignedSpread(nuisance_dim=4)])
@pytest.mark.parametrize("noise", [NoiseSpec.gaussian(0.3), NoiseSpec.bounded_uniform(0.3)])
def test_out_of_order_draws_equal_fresh_generators(context, noise):
    cfg = EnvConfig(n=12, K=3, context=context, noise=noise, seed=2**63 + 5)
    env, ts = make_env(cfg), (1500, 3, 1500, 1024, 1025)
    for t, (want, eta) in zip(ts, fresh_draws(cfg, ts)):
        got = env.draw_round(t)
        for a, b in [(got, want)] if isinstance(got, np.ndarray) \
                else [(got.indices, want.indices), (got.values, want.values)]:
            np.testing.assert_array_equal(a, b)
        assert env.noise_draw(t) == eta


def test_uniform_arms_equal_fresh_generators():
    env = make_env(EnvConfig(n=6, K=5, seed=4))
    records = uniform_run(env, 2**40 + 1, 1100)
    assert [r.chosen for r in records] == \
        [int(derive_rng(2**40 + 1, STREAM_UNIFORM, t).integers(5)) for t in range(1, 1101)]


@pytest.mark.parametrize("seed", [True, -1])
def test_uniform_seed_checked_with_a_warm_memo(seed):
    # seed 1's tables are memoized, and their key takes True for 1
    env = make_env(EnvConfig(n=4, K=3, seed=2))
    uniform_run(env, 1, 3)
    with pytest.raises(InvalidInputError, match="seed"):
        uniform_run(env, seed, 3)
