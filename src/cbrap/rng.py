"""Deterministic stream derivation.

Every random quantity in the package is a pure function of (seed, stream
id, index), so runs replay bit-identically and independent streams never
alias: parameter draws, per-round contexts, per-round noise and the
uniform policy's choices all live on separate stream ids.

The generator of key (seed, stream, t) is
``default_rng(SeedSequence([seed, stream, t]))``.  One-off draws build it
with ``derive_rng``; per-round streams come from ``RoundStreams``, which
hashes the keys of a table of rounds at once, seeds PCG64 from round t's
words as numpy does and sets one reused generator to that state, so every
draw is bit-for-bit the same.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

STREAM_THETA = 0
STREAM_CONTEXT = 1
STREAM_NOISE = 2
STREAM_UNIFORM = 3
STREAM_PROJECTION = 4

_UINT64_MAX = 2**64 - 1
ROUND_CHUNK = 1024  # rounds per table of seed words

# numpy's SeedSequence hash constants (NEP 19) and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT, _M128 = (2549297995355413924 << 64) + 4865540595714422341, 2**128 - 1


def check_seed(seed: int) -> int:
    """Validate that ``seed`` fits in an unsigned 64-bit integer."""
    try:
        seed = int(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"seed must be an integer, got {seed!r}") from exc
    if not 0 <= seed <= _UINT64_MAX:
        raise InvalidInputError(f"seed must be a uint64, got {seed}")
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


def seed_words(seed: int, stream: int, lo: int) -> np.ndarray:
    """``SeedSequence([seed, stream, t]).generate_state(4, np.uint64)`` for
    the ``ROUND_CHUNK`` rounds t = lo, lo+1, ..., as a (ROUND_CHUNK, 4)
    uint64 array.  ``lo`` is a multiple of ``ROUND_CHUNK``, so every t in the
    table has as many 32-bit words, and SeedSequence's pool of four uint32
    words is hashed for all of them at once in uint32 arrays.
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
    return (out[1::2] << np.uint64(32) | out[0::2]).T  # little-endian word pairs


def pcg64_state(words: list[int]) -> dict:
    """The state ``PCG64`` takes from four uint64 seed words, in the form
    its ``state`` setter reads: inc = (initseq << 1) | 1, then two 128-bit
    LCG steps around adding initstate, with no buffered 32-bit half."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state, "inc": inc}}


class RoundStreams:
    """Round generators of one (seed, stream): calling it with t returns the
    generator ``derive_rng(seed, stream, t)`` builds, bit for bit.

    Every call returns the same Generator object, set to round t's start, so
    a draw belongs to the latest call.  The table of ``ROUND_CHUNK`` rounds'
    seed words that holds t is built on first use, and only that table is
    kept: 32 KiB, where Python ints of every round's state would take
    several times that.  One instance must not be called from two threads
    at once.
    """

    def __init__(self, seed: int, stream: int):
        self.seed, self.stream = check_seed(seed), int(stream)
        self._lo, self._words = -ROUND_CHUNK, None
        self._bitgen = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bitgen)

    def __call__(self, t: int) -> np.random.Generator:
        if not 0 <= t <= _UINT64_MAX:
            raise InvalidInputError(f"round index must be a uint64, got {t}")
        i = t - self._lo
        if not 0 <= i < ROUND_CHUNK:
            self._lo = t - t % ROUND_CHUNK
            self._words = seed_words(self.seed, self.stream, self._lo)
            i = t - self._lo
        self._bitgen.state = pcg64_state(self._words[i].tolist())
        return self._gen
