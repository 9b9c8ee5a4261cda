"""Sequential ridge regression in the projected space.

The state is the pair of sufficient statistics A = lam*I + sum z z^T and
b = sum reward * z; raw observation matrices are never stored.  The inverse
of A is maintained incrementally with the Sherman-Morrison identity
(O(m^2) per update) instead of re-inverting each round, and is re-inverted
directly every ``refresh_every`` updates or whenever drift along the update
direction exceeds ``DRIFT_TOL``, which keeps ||A A_inv - I||_max below 1e-6
throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidDimensionError, InvalidInputError
from .projection import ContextVector

DRIFT_TOL = 1e-8
_BLOCK_BYTES = 1 << 18  # bytes of A and A_inv rows updated per pass: a block stays in cache


def _as_vector(z, m: int) -> np.ndarray:
    if isinstance(z, ContextVector):
        if z.dim != m:
            raise InvalidDimensionError(f"vector dim {z.dim} does not match m={m}")
        return z.to_dense()
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (m,):
        raise InvalidDimensionError(f"vector shape {z.shape} does not match ({m},)")
    if not np.isfinite(z).all():
        raise InvalidInputError("vector values must be finite")
    return z


class RidgeState:
    """Mutable estimator state (A, A_inv, b, t) for one bandit run.

    Single-writer: updates must not overlap reads, which the policy layer
    guarantees by scoring only between updates.
    """

    def __init__(self, m: int, lam: float = 1.0, refresh_every: int = 512):
        m = int(m)
        if m < 1:
            raise InvalidDimensionError(f"m must be >= 1, got {m}")
        if not (lam > 0 and math.isfinite(lam)):
            raise InvalidInputError(f"lam must be finite and positive, got {lam}")
        self.m = m
        self.lam = float(lam)
        self.A = self.lam * np.eye(m)
        self.A_inv = (1.0 / self.lam) * np.eye(m)
        self.b = np.zeros(m)
        self.t = 0
        self.refresh_every = int(refresh_every)
        self._since_refresh = 0

    def update(self, z, reward: float) -> None:
        """Absorb one observation: A += z z^T, b += reward * z.

        A and A_inv change in place, one block of rows at a time, so no m x m
        temporary is built; every entry gets the same arithmetic as the
        whole-matrix Sherman-Morrison step.  The drift probe
        A_inv (A zh) - zh along zh = z / ||z|| rides in the same passes.
        """
        z = _as_vector(z, self.m)
        reward = float(reward)
        if not np.isfinite(reward):
            raise InvalidInputError(f"reward must be finite, got {reward}")
        A, A_inv = self.A, self.A_inv
        u = A_inv @ z
        denom = 1.0 + float(z @ u)  # >= 1 since A_inv is positive definite
        nz = math.sqrt(z @ z)
        zh = z / nz if nz else z
        w, y = np.empty_like(z), np.empty_like(z)
        step = max(1, _BLOCK_BYTES // (8 * self.m))
        blocks = [slice(lo, lo + step) for lo in range(0, self.m, step)]
        for s in blocks:
            A[s] += z[s, None] * z
            w[s] = A[s] @ zh
        for s in blocks:
            A_inv[s] -= u[s, None] * u / denom
            y[s] = A_inv[s] @ w
        self.b += reward * z
        self.t += 1
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_every or np.abs(y - zh).max() > DRIFT_TOL:
            self._refresh()

    def _refresh(self) -> None:
        inv = np.linalg.inv(self.A)
        self.A_inv = (inv + inv.T) / 2.0
        self._since_refresh = 0

    def estimate(self) -> np.ndarray:
        """Current ridge estimate A_inv @ b (the zero vector before any data)."""
        return self.A_inv @ self.b

    def weighted_norm(self, z) -> float:
        """sqrt(z^T A_inv z), the exploration width before the beta factor."""
        z = _as_vector(z, self.m)
        q = float(z @ (self.A_inv @ z))
        return float(np.sqrt(max(q, 0.0)))

