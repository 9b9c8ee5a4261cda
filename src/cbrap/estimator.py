"""Sequential ridge regression in the projected space.

The state is the pair of sufficient statistics A = lam*I + sum z z^T and
b = sum reward * z.  The inverse of A is maintained incrementally with the
Sherman-Morrison identity (O(m^2) per update) instead of re-inverting each
round, and is re-inverted directly every ``refresh_every`` updates.  An
update writes only A_inv and b: it queues a copy of z, and the queued rows
(at most ``refresh_every`` of them) are folded into A when A is read, by a
refresh, ``theory.confidence_distance`` or the ``A`` property.  Until then
A does not exist, so a full-dimensional LinUCB state holds one n x n matrix.

The residual ||A A_inv - I||_max stays below 1e-6 on the acceptance
streams, but it scales with the condition number of A (Higham 2002,
*Accuracy and Stability of Numerical Algorithms*, section 14), so no update
rule can promise it for every input.  On a repeated direction scaled by
10^U(-2,2) at lam=1e-2, where cond(A) reaches about 2.5e9, it reaches 2.5e-6,
against 1.4e-6 for a fresh symmetrized inverse at the same state; the stress
test in tests/test_estimator.py bounds that ratio by 50 (worst seen: 16).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (InvalidDimensionError, InvalidInputError, check_array, check_count,
                     check_real)

_BLOCK_BYTES = 1 << 18  # bytes of A or A_inv rows updated per pass: a block stays in cache


def _scaled_eye(m: int, c: float) -> np.ndarray:
    eye = np.eye(m)
    eye *= c  # in place: c * np.eye(m) bit for bit, without a second m x m array
    return eye


class RidgeState:
    """Mutable estimator state (A, A_inv, b, t) for one bandit run.

    Single-writer: updates must not overlap reads, which the policy layer
    guarantees by scoring only between updates.
    """

    def __init__(self, m: int, lam: float = 1.0, refresh_every: int = 512):
        self.m = m = check_count(m, "m", InvalidDimensionError)
        self.lam = check_real(lam, "lam", positive=True)
        self._A = None  # lam*I plus the folded rows, built at the first read
        self._queue: list[np.ndarray] = []  # copies of the rows not yet in A
        self.A_inv = _scaled_eye(m, 1.0 / self.lam)
        self.b = np.zeros(m)
        self.t = 0
        self.refresh_every = check_count(refresh_every, "refresh_every")
        step = max(1, _BLOCK_BYTES // (8 * m))
        self._blocks = [slice(lo, lo + step) for lo in range(0, m, step)]

    @property
    def A(self) -> np.ndarray:
        """lam*I + sum z z^T.

        Queued rows are folded in one block of rows at a time, each block
        taking every row in arrival order, so every entry gets the same adds
        in the same order as when each update wrote A itself.
        """
        if self._A is None:
            self._A = _scaled_eye(self.m, self.lam)
        for s in self._blocks if self._queue else ():
            block = self._A[s]
            for z in self._queue:
                block += z[s, None] * z
        self._queue.clear()
        return self._A

    def update(self, z, reward: float) -> None:
        """Absorb one observation: A += z z^T, b += reward * z.

        A_inv changes in place, one block of rows at a time, so no m x m
        temporary is built; every entry gets the same arithmetic as the
        whole-matrix Sherman-Morrison step.  A copy of z waits for the next
        read of A, so the caller's block is not kept alive.  A finite z and
        reward that would overflow the state raise ``InvalidInputError``
        before any change.
        """
        self._absorb(check_array(z, "vector values", shape=(self.m,)),
                     check_real(reward, "reward"))

    def _absorb(self, z: np.ndarray, reward: float) -> None:
        # update without its checks: z a finite float64 (m,) array, reward a
        # finite float; the round loop's rows are checked once per table
        A_inv = self.A_inv
        u = A_inv @ z
        denom = 1.0 + float(z @ u)  # >= 1 since A_inv is positive definite
        if not math.isfinite(denom):  # a finite z can overflow it: raise before any change
            raise InvalidInputError(f"z overflows the ridge update: 1 + z'A^-1 z = {denom}")
        b = self.b + reward * z
        if not np.isfinite(b).all():  # and so can a finite z and reward
            raise InvalidInputError("reward * z overflows the ridge update: b is not finite")
        for s in self._blocks:
            d = u[s, None] * u  # the block's u u^T / denom, as one temporary
            d /= denom
            A_inv[s] -= d
        self._queue.append(z.copy())
        self.b = b
        self.t += 1
        if self.t % self.refresh_every == 0:
            self._refresh()

    def _refresh(self) -> None:
        # a fresh inverse, symmetrized: an entry and its mirror both get (a + b) / 2.0
        inv = np.linalg.inv(self.A)
        self.A_inv = (inv + inv.T) / 2.0

    def estimate(self) -> np.ndarray:
        """Current ridge estimate A_inv @ b (the zero vector before any data)."""
        return self.A_inv @ self.b

    def weighted_norm(self, z) -> float:
        """sqrt(z^T A_inv z), the exploration width before the beta factor."""
        z = check_array(z, "vector values", shape=(self.m,))
        q = float(z @ (self.A_inv @ z))
        return float(np.sqrt(max(q, 0.0)))
