"""Deterministic stream derivation.

Every random quantity in the package is a pure function of (seed, stream
id, index), so runs replay bit-identically and independent streams never
alias: parameter draws, per-round contexts, per-round noise and the
uniform policy's choices all live on separate stream ids.
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
