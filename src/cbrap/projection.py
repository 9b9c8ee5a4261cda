"""Random projection matrices and the linear map z = Mx.

A projection matrix is drawn once from a seeded counter-based stream and
then fixed for the whole run.  Three entry distributions are supported:

* ``STANDARD_GAUSSIAN`` -- i.i.d. normal entries with variance 1/m,
* ``RANDOM_SIGN_DENSE`` -- entries +-1/sqrt(m) with probability 1/2 each,
* ``RANDOM_SIGN_SPARSE`` -- entries +-sqrt(3/m) with probability 1/6 each
  and 0 with probability 2/3.

All three approximately preserve inner products: for a Gaussian matrix and
fixed vectors x, theta, the probability that the normalized distortion
exceeds eps1 is below ``kaban_failure_bound(m, eps1)``.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidDimensionError, InvalidInputError
from .rng import check_seed


class ProjectionKind(enum.Enum):
    """Entry distribution family for a projection matrix."""

    STANDARD_GAUSSIAN = "sg"
    RANDOM_SIGN_DENSE = "rs-dense"
    RANDOM_SIGN_SPARSE = "rs-sparse"


class ContextVector:
    """Feature vector for one arm, stored dense or as sorted index/value pairs.

    Sparse vectors keep ``indices`` strictly increasing and below ``dim``;
    projecting one costs O(m * nnz) instead of O(m * n).
    """

    __slots__ = ("dim", "values", "indices")

    def __init__(self, dim: int, values: np.ndarray, indices: np.ndarray | None = None):
        dim = int(dim)
        if dim < 1:
            raise InvalidDimensionError(f"dim must be positive, got {dim}")
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidInputError("values must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("context values must be finite")
        if indices is None:
            if values.shape[0] != dim:
                raise InvalidDimensionError(
                    f"dense vector has {values.shape[0]} values but dim={dim}"
                )
        else:
            indices = np.asarray(indices, dtype=np.int64)
            if indices.shape != values.shape:
                raise InvalidDimensionError("indices and values must have equal length")
            if indices.size and (indices[0] < 0 or indices[-1] >= dim):
                raise InvalidDimensionError("sparse indices must lie in [0, dim)")
            if indices.size > 1 and not np.all(np.diff(indices) > 0):
                raise InvalidInputError("sparse indices must be strictly increasing")
        self.dim = dim
        self.values = values
        self.indices = indices

    @staticmethod
    def dense(values: Sequence[float] | np.ndarray) -> "ContextVector":
        values = np.asarray(values, dtype=np.float64)
        return ContextVector(values.shape[0], values)

    @staticmethod
    def sparse(dim: int, indices: Sequence[int], values: Sequence[float]) -> "ContextVector":
        return ContextVector(dim, np.asarray(values, dtype=np.float64),
                             np.asarray(indices, dtype=np.int64))

    @property
    def is_sparse(self) -> bool:
        return self.indices is not None

    @property
    def nnz(self) -> int:
        if self.indices is None:
            return int(np.count_nonzero(self.values))
        return int(self.values.shape[0])

    def to_dense(self) -> np.ndarray:
        if self.indices is None:
            return self.values
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def dot_dense(self, other: np.ndarray) -> float:
        """Inner product with a dense vector of matching dimension."""
        if other.shape[0] != self.dim:
            raise InvalidDimensionError(
                f"dot of dim {self.dim} vector with length-{other.shape[0]} array"
            )
        if self.indices is None:
            return float(self.values @ other)
        return float(self.values @ other[self.indices])

    def __repr__(self) -> str:
        tag = "sparse" if self.is_sparse else "dense"
        return f"ContextVector({tag}, dim={self.dim}, nnz={self.nnz})"


def as_context(x: "ContextVector | np.ndarray | Sequence[float]") -> ContextVector:
    """Coerce an array-like to a dense ContextVector; pass ContextVectors through."""
    if isinstance(x, ContextVector):
        return x
    return ContextVector.dense(x)


class SparseBlock:
    """One round's K sparse contexts, all with the same number of nonzeros.

    ``indices`` is a read-only (K, nnz) int64 array whose rows are strictly
    increasing and lie in [0, dim); ``values`` is the matching read-only
    (K, nnz) float64 array.  Both are checked once for the whole block.
    Iterating yields the K rows as sparse ContextVectors.
    """

    __slots__ = ("dim", "indices", "values")

    def __init__(self, dim: int, indices: np.ndarray, values: np.ndarray):
        dim = int(dim)
        if dim < 1:
            raise InvalidDimensionError(f"dim must be positive, got {dim}")
        indices = _read_only(np.ascontiguousarray(indices, dtype=np.int64))
        values = _read_only(np.ascontiguousarray(values, dtype=np.float64))
        if indices.ndim != 2 or indices.shape != values.shape:
            raise InvalidDimensionError(
                "indices and values must be (K, nnz) arrays of one shape")
        if not np.isfinite(values).all():
            raise InvalidInputError("context values must be finite")
        if indices.size:
            # with rows strictly increasing, the end columns bound every entry
            if (indices[:, 0] < 0).any() or (indices[:, -1] >= dim).any():
                raise InvalidDimensionError("sparse indices must lie in [0, dim)")
            if not (np.diff(indices, axis=1) > 0).all():
                raise InvalidInputError("sparse indices must be strictly increasing")
        self.dim = dim
        self.indices = indices
        self.values = values

    @property
    def shape(self) -> tuple[int, int]:
        return (self.indices.shape[0], self.dim)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __getitem__(self, k: int) -> ContextVector:
        return ContextVector(self.dim, self.values[k], self.indices[k])

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.put_along_axis(out, self.indices, self.values, axis=1)
        return out

    def __repr__(self) -> str:
        return f"SparseBlock(K={len(self)}, dim={self.dim}, nnz={self.indices.shape[1]})"


def _read_only(a: np.ndarray) -> np.ndarray:
    # a view, so the caller's own array keeps its flags
    a = a.view()
    a.setflags(write=False)
    return a


def as_block(contexts, n: int) -> "np.ndarray | SparseBlock":
    """One round's contexts as a checked, read-only block of K rows of length n.

    A SparseBlock passes through.  An array becomes a C-contiguous float64
    (K, n) array, a 1-D array being one row.  A sequence of ContextVectors
    or rows is stacked once: into a SparseBlock when every row is sparse
    with one nonzero count, into a dense array otherwise.  Every value is
    checked finite with one test over the block.
    """
    if isinstance(contexts, SparseBlock):
        if contexts.dim != n:
            raise InvalidDimensionError(f"block dim {contexts.dim} does not match n={n}")
        return contexts
    if isinstance(contexts, np.ndarray):
        block = np.atleast_2d(np.ascontiguousarray(contexts, dtype=np.float64))
    else:
        rows = [as_context(c) for c in contexts]
        if any(c.dim != n for c in rows):
            raise InvalidDimensionError(f"every context must have dim {n}")
        if rows and all(c.is_sparse for c in rows) and len({c.nnz for c in rows}) == 1:
            return SparseBlock(n, np.stack([c.indices for c in rows]),
                               np.stack([c.values for c in rows]))
        block = np.stack([c.to_dense() for c in rows]) if rows else np.empty((0, n))
    if block.ndim != 2 or block.shape[1] != n:
        raise InvalidDimensionError(f"contexts must form a K x {n} block, got {block.shape}")
    if not np.isfinite(block).all():
        raise InvalidInputError("context values must be finite")
    return _read_only(block)


def dense_block(contexts, n: int) -> np.ndarray:
    """``as_block`` with a sparse block expanded to its (K, n) dense array."""
    block = as_block(contexts, n)
    return block.to_dense() if isinstance(block, SparseBlock) else block


class ProjectionMatrix:
    """Fixed m x n random matrix together with its construction recipe.

    Immutable after construction (entries are marked read-only), so a single
    instance can be shared across threads.  Matrices built by
    ``build_projection`` are bit-identical functions of (kind, m, n, seed).
    """

    __slots__ = ("kind", "m", "n", "entries", "seed")

    def __init__(self, kind: ProjectionKind | None, m: int, n: int,
                 entries: np.ndarray, seed: int):
        entries = np.ascontiguousarray(entries, dtype=np.float64)
        if entries.shape != (m, n):
            raise InvalidDimensionError(
                f"entries shape {entries.shape} does not match ({m}, {n})"
            )
        if not np.all(np.isfinite(entries)):
            raise InvalidInputError("projection entries must be finite")
        entries.setflags(write=False)
        self.kind = kind
        self.m = int(m)
        self.n = int(n)
        self.entries = entries
        self.seed = int(seed)

    @staticmethod
    def from_entries(entries: np.ndarray, seed: int = 0) -> "ProjectionMatrix":
        """Test hook: wrap explicit entries; no distributional invariants claimed."""
        entries = np.asarray(entries, dtype=np.float64)
        if entries.ndim != 2:
            raise InvalidDimensionError("entries must be a 2-d array")
        return ProjectionMatrix(None, entries.shape[0], entries.shape[1], entries, seed)

    @staticmethod
    def identity(n: int) -> "ProjectionMatrix":
        """Test hook: the identity map (m = n), which preserves everything."""
        return ProjectionMatrix(None, n, n, np.eye(n), 0)

    def __repr__(self) -> str:
        kind = self.kind.value if self.kind is not None else "explicit"
        return f"ProjectionMatrix({kind}, m={self.m}, n={self.n}, seed={self.seed})"


def build_projection(kind: ProjectionKind, m: int, n: int, seed: int) -> ProjectionMatrix:
    """Draw the fixed m x n projection matrix for the given construction.

    Entries come from a single Philox (counter-based) stream keyed by
    ``seed`` and are laid out row-major, so reconstruction from
    (kind, m, n, seed) is exact on any platform.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 1 or m > n:
        raise InvalidDimensionError(f"need 1 <= m <= n, got m={m}, n={n}")
    seed = check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    if kind is ProjectionKind.STANDARD_GAUSSIAN:
        entries = rng.standard_normal((m, n)) / math.sqrt(m)
    elif kind is ProjectionKind.RANDOM_SIGN_DENSE:
        scale = 1.0 / math.sqrt(m)
        entries = np.where(rng.random((m, n)) < 0.5, scale, -scale)
    elif kind is ProjectionKind.RANDOM_SIGN_SPARSE:
        # +-sqrt(3/m) w.p. 1/6 each, zero w.p. 2/3
        scale = math.sqrt(3.0 / m)
        u = rng.random((m, n))
        entries = np.where(u < 1.0 / 6.0, scale, np.where(u >= 5.0 / 6.0, -scale, 0.0))
    else:
        raise InvalidInputError(f"unknown projection kind: {kind!r}")
    return ProjectionMatrix(kind, m, n, entries, seed)


def project(P: ProjectionMatrix, x: ContextVector | np.ndarray) -> ContextVector:
    """Apply z = Mx, exploiting sparsity of x when present."""
    x = as_context(x)
    if x.dim != P.n:
        raise InvalidDimensionError(f"context dim {x.dim} does not match n={P.n}")
    if x.indices is not None:
        z = P.entries[:, x.indices] @ x.values
    else:
        z = P.entries @ x.values
    return ContextVector.dense(z)


def project_rows(P: ProjectionMatrix, contexts) -> np.ndarray:
    """Project one round's block of contexts, returning the (K, m) rows z_y.

    A dense block is one matrix product.  A sparse block is projected row
    by row as ``M[:, idx] @ vals``, O(m * nnz) per row, so each row equals
    ``project`` of that row bit for bit.
    """
    block = as_block(contexts, P.n)
    if isinstance(block, np.ndarray):
        return block @ P.entries.T
    Z = np.empty((len(block), P.m))
    for k, (idx, vals) in enumerate(zip(block.indices, block.values)):
        Z[k] = P.entries[:, idx] @ vals
    return Z


def inner_product_error(P: ProjectionMatrix, x: ContextVector | np.ndarray,
                        theta: ContextVector | np.ndarray) -> float:
    """Normalized inner-product distortion |<x,theta> - <Mx,Mtheta>| / (|x||theta|)."""
    x, theta = as_context(x), as_context(theta)
    if x.dim != P.n or theta.dim != P.n:
        raise InvalidDimensionError(
            f"x.dim={x.dim}, theta.dim={theta.dim} must both equal n={P.n}"
        )
    nx, nt = x.norm(), theta.norm()
    if nx == 0.0 or nt == 0.0:
        raise DegenerateInputError("inner_product_error requires nonzero-norm inputs")
    raw = x.dot_dense(theta.to_dense())
    projected = float(project(P, x).values @ project(P, theta).values)
    return abs(raw - projected) / (nx * nt)


def kaban_failure_bound(m: int, eps1: float) -> float:
    """Tail bound min(1, 2 exp(-m eps1^2 / 8)) on the normalized distortion.

    This is the probability, over the draw of a Gaussian projection, that
    ``inner_product_error`` exceeds ``eps1`` for any fixed vector pair.
    """
    m = int(m)
    eps1 = float(eps1)
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if not (math.isfinite(eps1) and eps1 > 0):
        raise InvalidInputError(f"eps1 must be finite and positive, got {eps1}")
    return min(1.0, 2.0 * math.exp(-m * eps1 * eps1 / 8.0))


def sg_distortion_sample(m: int, n: int, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo sample of normalized distortions under Gaussian projection.

    Each trial has the law of ``inner_product_error`` for a fresh m x n
    Gaussian matrix (variance-1/m entries, as ``build_projection`` draws)
    and an independent uniform pair of unit vectors x, theta in R^n, yet
    costs three scalar draws instead of m * n + 2n normals.

    The construction is exact in law.  A Gaussian M is rotation invariant,
    so with c = <x, theta> and theta = c x + s y (y a unit vector orthogonal
    to x, s = sqrt(1 - c^2)), sqrt(m) Mx and sqrt(m) My are independent
    N(0, I_m) vectors g1, g2 and

        <Mx, Mtheta> = (c |g1|^2 + s <g1, g2>) / m.

    Here |g1|^2 = Q ~ chi^2_m, and <g1, g2> = sqrt(Q) W with W ~ N(0, 1)
    independent of Q.  For uniform unit vectors, (1 + c) / 2 ~
    Beta((n-1)/2, (n-1)/2) when n >= 2, and c = +-1 with probability 1/2
    each when n = 1.  A trial is |c - (c Q + s sqrt(Q) W) / m|.

    The arrays of c, Q and W are drawn in that order from one Philox stream
    keyed by ``seed``.  The sample is a fixed function of (m, n, trials,
    seed), but it is not the sample an m x n matrix per trial would give
    for the same seed: only the law is the same.
    """
    if m < 1 or n < m:
        raise InvalidDimensionError(f"need 1 <= m <= n, got m={m}, n={n}")
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=check_seed(seed)))
    if n == 1:
        c = np.where(rng.random(trials) < 0.5, 1.0, -1.0)
    else:
        c = 2.0 * rng.beta((n - 1) / 2.0, (n - 1) / 2.0, trials) - 1.0
    Q = rng.chisquare(m, trials)
    W = rng.standard_normal(trials)
    s = np.sqrt(1.0 - c * c)
    return np.abs(c - (c * Q + s * np.sqrt(Q) * W) / m)
