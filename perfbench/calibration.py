"""Machine-speed calibration for timings taken on a shared machine.

On the 2-core shared VM this benchmark was written on, the speed of a
single process changes by up to 2x within minutes (neighbouring load, not
descheduling: CPU time moves with wall time).  ``calibrate`` times a fixed
loop of the same kind of work as a cbrap round -- small numpy calls,
per-arm Python objects, a rank-one inverse update and hashing -- written
here so that no change to the package can change it.  Timings are scaled
by ``REF_CALIBRATION_S / calibration``, i.e. to the speed at which this
loop takes ``REF_CALIBRATION_S``.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# Median calibrate() time on the reference machine (2-core x86-64 VM,
# numpy 2.4, Python 3.11).
REF_CALIBRATION_S = 0.013

_ROUNDS, _K, _N, _M = 60, 10, 200, 20
_P = np.random.default_rng(3).standard_normal((_M, _N)) / np.sqrt(_M)


class _Context:
    __slots__ = ("values", "dim")

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite context")
        self.values = values
        self.dim = values.shape[0]


def calibrate() -> float:
    """Seconds taken by a fixed 60-round projected-UCB loop at n=200, m=20."""
    t0 = time.perf_counter()
    A_inv = np.eye(_M)
    b = np.zeros(_M)
    digest = hashlib.blake2b(digest_size=16)
    log = []
    for t in range(_ROUNDS):
        rng = np.random.default_rng(np.random.SeedSequence([7, 1, t]))
        X = rng.standard_normal((_K, _N))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        contexts = [_Context(row) for row in X]
        Z = np.stack([c.values for c in contexts]) @ _P.T
        width = np.sqrt(np.maximum(np.einsum("km,km->k", Z @ A_inv, Z), 0.0))
        ucb = Z @ (A_inv @ b) + width
        k = int(np.argmax(ucb))
        z = Z[k]
        u = A_inv @ z
        A_inv -= np.outer(u, u) / (1.0 + float(z @ u))
        b += 0.1 * z
        for c in contexts:
            digest.update(c.values.tobytes())
        log.append((t, k, float(ucb[k])))
    return time.perf_counter() - t0


def scale(seconds: float, calibration_s: float) -> float:
    """``seconds`` at the reference machine speed."""
    return seconds * REF_CALIBRATION_S / calibration_s
