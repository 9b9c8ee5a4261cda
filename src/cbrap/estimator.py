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

import numpy as np

from .errors import InvalidDimensionError, check_array, check_count, check_real

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
        self._since_refresh = 0
        step = max(1, _BLOCK_BYTES // (8 * m))
        self._blocks = [slice(lo, lo + step) for lo in range(0, m, step)]

    @property
    def A(self) -> np.ndarray:
        """lam*I + sum z z^T.

        Queued rows are folded in one block of rows at a time, each block
        taking every row in arrival order, so every entry gets the same adds
        in the same order as when each update wrote A itself.  A block takes
        the outer products of as many rows at once as fit ``_BLOCK_BYTES``,
        then adds them one by one; a block that fills it alone, or a queue
        of one row (a read of A after each update), takes one row's product
        at a time.
        """
        if self._A is None:
            self._A = _scaled_eye(self.m, self.lam)
        queue = self._queue
        for s in self._blocks if queue else ():
            block = self._A[s]
            step = _BLOCK_BYTES // (8 * block.size)
            if step < 2 or len(queue) == 1:
                for z in queue:
                    block += z[s, None] * z
                continue
            for lo in range(0, len(queue), step):
                Q = np.array(queue[lo:lo + step])
                for o in Q[:, s, None] * Q[:, None, :]:  # each row's z[s, None] * z
                    block += o
        queue.clear()
        return self._A

    def update(self, z, reward: float) -> None:
        """Absorb one observation: A += z z^T, b += reward * z.

        A_inv changes in place, one block of rows at a time, so no m x m
        temporary is built; every entry gets the same arithmetic as the
        whole-matrix Sherman-Morrison step.  A copy of z waits for the next
        read of A, so the caller's block is not kept alive.
        """
        z = check_array(z, "vector values", shape=(self.m,))
        reward = check_real(reward, "reward")
        A_inv = self.A_inv
        u = A_inv @ z
        denom = 1.0 + float(z @ u)  # >= 1 since A_inv is positive definite
        for s in self._blocks:
            d = u[s, None] * u  # the block's u u^T / denom, as one temporary
            d /= denom
            A_inv[s] -= d
        self._queue.append(z.copy())
        self.b += reward * z
        self.t += 1
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_every:
            self._refresh()

    def _refresh(self) -> None:
        # (inv + inv.T) / 2.0 in place, a pair of row blocks at a time: an
        # entry and its mirror both get (a + b) / 2.0, and no temporary
        # outgrows a block (inv += inv.T would copy all of inv.T first)
        inv = np.linalg.inv(self.A)
        for i, s in enumerate(self._blocks):
            for r in self._blocks[i:]:
                half = inv[s, r] + inv[r, s].T
                half /= 2.0
                inv[s, r] = half
                inv[r, s] = half.T
        self.A_inv = inv
        self._since_refresh = 0

    def estimate(self) -> np.ndarray:
        """Current ridge estimate A_inv @ b (the zero vector before any data)."""
        return self.A_inv @ self.b

    def weighted_norm(self, z) -> float:
        """sqrt(z^T A_inv z), the exploration width before the beta factor."""
        z = check_array(z, "vector values", shape=(self.m,))
        q = float(z @ (self.A_inv @ z))
        return float(np.sqrt(max(q, 0.0)))
