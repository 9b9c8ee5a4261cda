"""Deterministic stream derivation.

Every random quantity in the package is a pure function of (seed, stream
id, index), so runs replay bit-identically and independent streams never
alias: parameter draws, per-round contexts, per-round noise and the
uniform policy's choices all live on separate stream ids.

The generator of key (seed, stream, t) is
``default_rng(SeedSequence([seed, stream, t]))``.  One-off draws build it
with ``derive_rng``; a table of rounds takes one fresh generator a round
from ``round_rngs`` (one round from ``round_rng``), which hashes the keys
of a table of rounds at once and hands round t's words to numpy's own
PCG64 seeding, so every draw is bit-for-bit the same.
"""

from __future__ import annotations

import functools
import sys
from typing import Iterator, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidInputError, check_int

STREAM_THETA = 0
STREAM_CONTEXT = 1
STREAM_NOISE = 2
STREAM_UNIFORM = 3
STREAM_PROJECTION = 4
STREAM_DISTORTION = 17  # kaban_experiment's distortion sample of its i-th m
STREAM_SEEDS = 99  # coverage_experiment's seeds past the configured ones

_UINT64_MAX = 2**64 - 1
ROUND_CHUNK = 1024  # rounds per table of seed words

# numpy's SeedSequence hash constants (NEP 19)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
# uint64 scalars, so numpy 1.x's value-based casting and NEP 50 agree on dtypes
_ZERO, _ONE = np.uint64(0), np.uint64(1)
_HALF, _RAW = np.uint64(2**32), np.uint64(_UINT64_MAX)
_BIG = int(sys.byteorder == "big")  # the high half of a uint64 comes first in memory


def check_seed(seed: int, name: str = "seed", error: type = InvalidInputError) -> int:
    """``seed`` as a Python int if it is an integer (``errors.check_int``)
    that fits in an unsigned 64-bit integer."""
    if not 0 <= (seed := check_int(seed, name, error)) <= _UINT64_MAX:
        raise error(f"{name}: seed must be a uint64, got {seed}")
    return seed


def derive_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, stream, index); same key, same stream."""
    key = np.random.SeedSequence([check_seed(seed), int(stream), int(index)])
    return np.random.default_rng(key)


def derive_seed(seed: int, stream: int, index: int = 0) -> int:
    """A uint64 sub-seed keyed by (seed, stream, index)."""
    key = np.random.SeedSequence([check_seed(seed), int(stream), int(index)])
    return int(key.generate_state(1, np.uint64)[0])


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative int, low word first."""
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays; each call steps the
    multiplier, as numpy's does."""
    h = init

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * mult & _M32
        value = value * np.uint32(h)
        return value ^ value >> np.uint32(16)
    return hashmix


@functools.lru_cache(maxsize=8)  # 32 KiB a table; the key takes True for 1
def seed_words(seed: int, stream: int, lo: int) -> np.ndarray:
    """``SeedSequence([seed, stream, t]).generate_state(4, np.uint64)`` for
    the ``ROUND_CHUNK`` rounds t = lo, lo+1, ..., as a shared, read-only and
    C-contiguous (ROUND_CHUNK, 4) uint64 array.  ``lo`` is a multiple of
    ``ROUND_CHUNK``, so every t in the table has as many 32-bit words, and
    SeedSequence's pool of four uint32 words is hashed for all of them at
    once in uint32 arrays.
    """
    t = np.uint64(lo) + np.arange(ROUND_CHUNK, dtype=np.uint64)
    zero = np.zeros(ROUND_CHUNK, dtype=np.uint32)
    entropy = [np.uint32(w) + zero for w in _words(check_seed(seed)) + _words(stream)]
    entropy += [(t >> np.uint64(32 * i)).astype(np.uint32)
                for i in range(len(_words(lo + ROUND_CHUNK - 1)))]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ r >> np.uint32(16)

    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashout = _hasher(_INIT_B, _MULT_B)  # 8 uint32 words, the pool cycled
    out = np.array([hashout(pool[i % 4]) for i in range(8)], dtype=np.uint64)
    words = (out[1::2] << np.uint64(32) | out[0::2]).T.copy()  # little-endian pairs
    words.setflags(write=False)
    return words


class _Words(ISeedSequence):
    """Four uint64 seed words for numpy's PCG64, which seeds itself from the
    buffer ``generate_state(4, np.uint64)`` returns: C-contiguous words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def round_rngs(seed: int, stream: int, ts: range) -> Iterator[np.random.Generator]:
    """Fresh generators for rounds ts, in order, each equal to
    ``derive_rng(seed, stream, t)`` bit for bit: numpy's PCG64 seeded from
    round t's row of ``seed_words``, whose table is fetched once for each
    ``ROUND_CHUNK`` the rounds cross.  ``ts`` is a range of uint64 round
    indices, not checked again: a run's rounds come from its checked
    horizon, and ``round_rng`` checks its one round."""
    for lo in range(ts.start - ts.start % ROUND_CHUNK, ts.stop, ROUND_CHUNK):
        for row in seed_words(seed, stream, lo)[max(ts.start - lo, 0):ts.stop - lo]:
            yield np.random.Generator(np.random.PCG64(_Words(row)))


def _round_index(t: int) -> int:
    """``t`` as a Python int if it is an integer (numpy's too, but not a
    bool) that fits in an unsigned 64-bit integer."""
    if not 0 <= (t := check_int(t, "round index")) <= _UINT64_MAX:
        raise InvalidInputError(f"round index must be a uint64, got {t}")
    return t


def round_rng(seed: int, stream: int, t: int) -> np.random.Generator:
    """Round t's generator alone: ``round_rngs`` of one round, ``t`` checked."""
    t = _round_index(t)
    return next(round_rngs(seed, stream, range(t, t + 1)))


def _tail_shuffles(n: int, nnz: int) -> bool:
    # choice's own switch from Floyd's sampling to a partial shuffle of arange(n)
    return n > 10000 and nnz > n // 50


def _sparse_bounds(n: int, nnz: int) -> np.ndarray:
    """The inclusive bounds of the draws one arm's ``choice(n, nnz,
    replace=False)`` and ``uniform(-1.0, 1.0, nnz)`` make, in stream order:
    Floyd's j = n-nnz ... n-1 and its shuffle's i = nnz-1 ... 1 (or the
    tail shuffle's i = n-1 ... max(n-nnz, 1)), then nnz raw 64-bit words."""
    if _tail_shuffles(n, nnz):
        picks = np.arange(n - 1, max(n - nnz, 1) - 1, -1)
    else:
        picks = np.concatenate([np.arange(n - nnz, n), np.arange(nnz - 1, 0, -1)])
    return np.concatenate([picks.astype(np.uint64),
                           np.full(nnz, _UINT64_MAX, dtype=np.uint64)])


class _Plan(NamedTuple):
    """Where numpy's bounded draws over a list of bounds read PCG64's stream
    from a fresh state when none is rejected.  Words are numbered as in a
    row of ``ext``: word 0 is spare, then come the raw words in stream
    order.  ``half`` numbers the 32-bit halves of a row in memory order."""

    half: np.ndarray  # (H,) the half each draw below 2**64-1 reads
    excl: np.ndarray  # (H,) uint64: their bounds + 1
    thr: np.ndarray   # (H,) uint32: Lemire's rejection thresholds 2**32 mod excl
    raw: np.ndarray   # (V,) the word each draw of bound 2**64-1 returns
    words: int        # raw words the draws take


def _plan(bounds: np.ndarray) -> _Plan | None:
    """The stream positions of ``random_bounded_uint64`` over ``bounds`` on
    a fresh PCG64 state: a bound below 2**32 takes one 32-bit half as
    ``next_uint32`` hands them out (a new word's low half first, its high
    half kept for the next one, however many 64-bit words come between),
    the bound 2**64-1 takes a whole word, and a zero bound takes nothing;
    it reads some half, times 1.  None if a bound needs numpy's 64-bit
    draw, which only n > 2**32 gives a sparse round."""
    raw = bounds == _RAW
    if (bounds[~raw] >= _HALF).any():
        return None
    half = ~raw & (bounds > _ZERO)
    new = half & (np.cumsum(half) % 2 == 1) | raw  # the draws that take a new word
    word = np.cumsum(new)
    (pos,) = np.nonzero(half)
    high = pos[1::2]
    word[high] = word[pos[:high.size * 2:2]]  # a high half is in its low half's word
    at = 2 * word + _BIG
    at[high] ^= 1
    excl = bounds[~raw] + _ONE
    return _Plan(half=at[~raw], excl=excl, thr=(_HALF % excl).astype(np.uint32),
                 raw=word[raw], words=int(np.count_nonzero(new)))


def _bounded(ext: np.ndarray, plan: _Plan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's bounded draws on each row of ``ext``, read where ``plan``
    places them: the draws below 2**64-1 in order, with which of them
    Lemire's rejection step turns down, and the raw words of the rest.

    A draw is Lemire's multiply-shift: (half * excl) >> 32, rejected if the
    product's low 32 bits fall below 2**32 mod excl; the bound 2**32-1,
    which numpy hands the half itself, gives the same.
    """
    m = ext.view(np.uint32).take(plan.half, axis=-1) * plan.excl
    m32 = m.view(np.uint32)
    return m32[..., 1 - _BIG::2], m32[..., _BIG::2] < plan.thr, ext.take(plan.raw, axis=-1)


def _sparse_indices(draws: np.ndarray, raw: np.ndarray, n: int, nnz: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Rows' sorted indices and raw values from their bounded draws over
    ``_sparse_bounds(n, nnz)``, one row per arm: the draws below 2**64-1
    and the raw words.

    ``uniform`` returns -1.0 + 2.0 * ((word >> 11) * 2**-53), which is
    (word >> 11) * 2**-52 - 1.0 exactly.  The shuffle's draws only move the
    sample, which is sorted anyway, and the tail shuffle keeps the set
    Floyd's rule keeps from its draws in reverse order (each step's bound
    is the matching column's j).
    """
    values = (raw >> np.uint64(11)) * 2.0**-52
    values -= 1.0
    rows = raw.shape[0]
    if nnz == n:  # every index, whatever the draws
        return np.tile(np.arange(n), (rows, 1)), values
    draws = (draws[:, nnz - 1::-1] if _tail_shuffles(n, nnz) else draws[:, :nnz]).astype(np.int64)
    indices = np.sort(draws, axis=1)
    repeats = indices[:, 1:] == indices[:, :-1]
    (fix,) = np.nonzero(repeats.any(axis=1))
    if not fix.size:  # Floyd's rule keeps every draw
        return indices, values
    # Floyd's rule, on the rows whose draws repeat: a draw already taken
    # becomes its column's bound j.  It is taken if it repeats an earlier
    # draw, or if it is the j of an earlier column whose draw was taken;
    # such links point back, so iterating from the repeats settles every column.
    draws, repeats = draws[fix], repeats[fix]
    col, arms = np.arange(nnz), np.arange(fix.size)[:, None]
    order = np.sort(draws * nnz + col, axis=1) % nnz  # equal draws stay in column order
    repeat = np.zeros(draws.shape, dtype=bool)
    repeat[arms, order[:, 1:]] = repeats
    back = draws - (n - nnz)  # the column whose j the draw equals, never a later one
    linked = back >= 0
    back[~linked] = 0
    taken = repeat
    while not np.array_equal(taken, nxt := repeat | linked & taken[arms, back]):
        taken = nxt
    indices[fix] = np.sort(np.where(taken, col + (n - nnz), draws), axis=1)
    return indices, values


@functools.lru_cache(maxsize=4)
def _sparse_plan(n: int, nnz: int, K: int) -> _Plan | None:
    """``_plan`` of K arms' ``_sparse_bounds(n, nnz)``, read-only: the last
    four shapes' plans are kept and shared, so each is built once."""
    plan = _plan(np.tile(_sparse_bounds(n, nnz), K))
    for a in () if plan is None else (plan.half, plan.excl, plan.thr, plan.raw):
        a.setflags(write=False)
    return plan


def _sparse_rounds(seed: int, stream: int, ts: range, n: int, nnz: int, K: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """K arms' sorted indices and raw values for each of rounds ts, stacked
    into (len(ts) * K, nnz) arrays, as K calls of ``choice(n, nnz,
    replace=False)`` then ``uniform(-1.0, 1.0, nnz)`` on ``round_rng(seed,
    stream, t)`` give them.

    The draws read the words where ``_sparse_plan(n, nnz, K)`` places them.
    Every round starts on a fresh state, so each takes its ``plan.words``
    words with one ``random_raw`` call, and one bounded draw and one Floyd
    step serve the whole table.  A round with a rejected draw, which shifts
    every later one, makes the per-arm calls on its generator instead, and
    so does every round when the plan is None (n > 2**32).
    """
    plan = _sparse_plan(n, nnz, K)
    rows = len(ts) * K
    if plan is None:
        indices, values = np.empty((rows, nnz), dtype=np.int64), np.empty((rows, nnz))
        redraw = range(len(ts))
    else:
        ext = np.zeros((len(ts), plan.words + 1), dtype=np.uint64)
        for row, rng in zip(ext, round_rngs(seed, stream, ts)):
            row[1:] = rng.bit_generator.random_raw(plan.words)
        draws, rejected, raw = _bounded(ext, plan)
        indices, values = _sparse_indices(draws.reshape(rows, -1), raw.reshape(rows, -1),
                                          n, nnz)
        redraw = np.flatnonzero(rejected.any(axis=1))
    for r in redraw:
        rng = round_rng(seed, stream, ts[r])
        for k in range(r * K, (r + 1) * K):
            indices[k] = np.sort(rng.choice(n, nnz, replace=False))
            values[k] = rng.uniform(-1.0, 1.0, nnz)
    return indices, values


def _uniform_arms(seed: int, stream: int, ts: range, K: int) -> list[int]:
    """``int(round_rng(seed, stream, t).integers(K))`` for each of rounds
    ts, a table at a time: ``integers(K)`` on a fresh state is Lemire's
    32-bit bounded draw on the low half of its first raw word (nothing for
    K = 1), so one ``_bounded`` over the rounds' first words replays it.  A
    rejected round makes its own ``integers(K)`` call, and so does every
    round when K > 2**32, which takes numpy's 64-bit draw."""
    plan = _plan(np.array([K - 1], dtype=np.uint64))
    if plan is None:
        return [int(rng.integers(K)) for rng in round_rngs(seed, stream, ts)]
    ext = np.zeros((len(ts), plan.words + 1), dtype=np.uint64)
    if plan.words:
        ext[:, 1] = [rng.bit_generator.random_raw() for rng in round_rngs(seed, stream, ts)]
    draws, rejected, _ = _bounded(ext, plan)
    arms = draws[:, 0].tolist()
    for r in np.flatnonzero(rejected[:, 0]):
        arms[r] = int(round_rng(seed, stream, ts[r]).integers(K))
    return arms
