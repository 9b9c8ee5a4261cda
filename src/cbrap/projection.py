"""Random projection matrices and the linear map z = Mx.

A projection matrix is drawn once from a seeded counter-based stream and
then fixed for the whole run.  Two entry distributions are supported:

* ``STANDARD_GAUSSIAN`` -- i.i.d. normal entries with variance 1/m,
* ``RANDOM_SIGN_DENSE`` -- entries +-1/sqrt(m) with probability 1/2 each.

Both approximately preserve inner products: for a Gaussian matrix and
fixed vectors x, theta, the probability that the normalized distortion
exceeds eps1 is below ``kaban_failure_bound(m, eps1)``.
"""

from __future__ import annotations

import enum
import math
import numpy as np

from .errors import (DegenerateInputError, InvalidDimensionError, InvalidInputError,
                     check_array, check_count, check_real, check_type)
from .rng import check_seed
from .theory import derive_gamma

_GATHER_BYTES = 1 << 16  # columns of P one projection of a table's rows gathers

class ProjectionKind(enum.Enum):
    """Entry distribution family for a projection matrix."""

    STANDARD_GAUSSIAN = "sg"
    RANDOM_SIGN_DENSE = "rs-dense"

    @classmethod
    def _missing_(cls, value):
        raise InvalidInputError(f"unknown projection kind {value!r}")


class SparseBlock:
    """One round's K sparse contexts, all with the same number of nonzeros.

    ``indices`` is a read-only (K, nnz) int64 array whose rows are strictly
    increasing and lie in [0, dim); ``values`` is the matching read-only
    (K, nnz) float64 array.  Both are checked once for the whole block.
    Iterating yields the K rows as dense length-dim arrays, as a dense
    block's rows iterate.  The round source (``Environment._tables``)
    draws a table of sparse rounds as one checked block, and
    ``_project_table`` and the oracle scan take its rounds' rows, or chunks
    of rows, through ``_rows``, which shares the checked arrays and checks
    nothing again.
    """

    __slots__ = ("dim", "indices", "values")

    def __init__(self, dim: int, indices: np.ndarray, values: np.ndarray):
        dim = check_count(dim, "dim", InvalidDimensionError)
        indices = _read_only(np.ascontiguousarray(
            check_array(indices, "sparse indices", integer=True)))
        values = _read_only(np.ascontiguousarray(check_array(values, "context values")))
        if indices.ndim != 2 or indices.shape != values.shape:
            raise InvalidDimensionError(
                "indices and values must be (K, nnz) arrays of one shape")
        if indices.size:
            # with rows strictly increasing, the end columns bound every entry
            if (indices[:, 0] < 0).any() or (indices[:, -1] >= dim).any():
                raise InvalidDimensionError("sparse indices must lie in [0, dim)")
            if not (indices[:, 1:] > indices[:, :-1]).all():
                raise InvalidInputError("sparse indices must be strictly increasing")
        self.dim = dim
        self.indices = indices
        self.values = values

    def _rows(self, lo: int, hi: int) -> "SparseBlock":
        # rows lo:hi of this checked block, sharing its read-only arrays
        block = object.__new__(SparseBlock)
        block.dim, block.indices, block.values = self.dim, self.indices[lo:hi], self.values[lo:hi]
        return block

    @property
    def shape(self) -> tuple[int, int]:
        return (self.indices.shape[0], self.dim)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __iter__(self):
        return iter(self.to_dense())

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

    A SparseBlock passes through.  Anything else (a (K, n) array, one row,
    or a list of rows) becomes a C-contiguous float64 (K, n) array in one
    conversion, a single row being a 1-row block; complex or non-numeric
    input is refused.  Every value is checked finite with one test over the
    block.
    """
    if isinstance(contexts, SparseBlock):
        if contexts.dim != n:
            raise InvalidDimensionError(f"block dim {contexts.dim} does not match n={n}")
        return contexts
    block = np.atleast_2d(np.ascontiguousarray(check_array(contexts, "context values")))
    if block.ndim != 2 or block.shape[1] != n:
        raise InvalidDimensionError(f"contexts must form a K x {n} block, got {block.shape}")
    return _read_only(block)


def dense_block(contexts, n: int) -> np.ndarray:
    """``as_block`` with a sparse block expanded to its (K, n) dense array."""
    block = as_block(contexts, n)
    return block.to_dense() if isinstance(block, SparseBlock) else block


def _row_norms(X: np.ndarray) -> np.ndarray:
    # np.linalg.norm(X, axis=-1) of a real X bit for bit, which sums the same
    # squares, without its conj() copy of X
    return np.sqrt(np.add.reduce(X * X, axis=-1))


class ProjectionMatrix:
    """Fixed m x n random matrix together with its construction recipe.

    Immutable after construction (entries are marked read-only), so a single
    instance can be shared across threads.  Matrices built by
    ``build_projection`` are bit-identical functions of (kind, m, n, seed).
    """

    __slots__ = ("kind", "m", "n", "entries", "seed")

    def __init__(self, kind: ProjectionKind | None, m: int, n: int,
                 entries: np.ndarray, seed: int):
        check_type(kind, (ProjectionKind, type(None)), "kind")
        m = check_count(m, "m", InvalidDimensionError)
        n = check_count(n, "n", InvalidDimensionError)
        entries = np.ascontiguousarray(check_array(entries, "projection entries", shape=(m, n)))
        entries.setflags(write=False)
        self.kind = kind
        self.m = m
        self.n = n
        self.entries = entries
        self.seed = check_seed(seed)

    @staticmethod
    def from_entries(entries: np.ndarray, seed: int = 0) -> "ProjectionMatrix":
        """Test hook: wrap explicit entries; no distributional invariants claimed."""
        entries = check_array(entries, "projection entries")
        if entries.ndim != 2:
            raise InvalidDimensionError("entries must be a 2-d array")
        return ProjectionMatrix(None, entries.shape[0], entries.shape[1], entries, seed)

    def __repr__(self) -> str:
        kind = self.kind.value if self.kind is not None else "explicit"
        return f"ProjectionMatrix({kind}, m={self.m}, n={self.n}, seed={self.seed})"


def build_projection(kind: ProjectionKind, m: int, n: int, seed: int) -> ProjectionMatrix:
    """Draw the fixed m x n projection matrix for the given construction.

    Entries come from a single Philox (counter-based) stream keyed by
    ``seed`` and are laid out row-major, so reconstruction from
    (kind, m, n, seed) is exact on any platform.
    """
    m, n = check_count(m, "m", InvalidDimensionError), check_count(n, "n", InvalidDimensionError)
    if m > n:
        raise InvalidDimensionError(f"need 1 <= m <= n, got m={m}, n={n}")
    seed = check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    if kind is ProjectionKind.STANDARD_GAUSSIAN:
        entries = rng.standard_normal((m, n)) / math.sqrt(m)
    elif kind is ProjectionKind.RANDOM_SIGN_DENSE:
        scale = 1.0 / math.sqrt(m)
        entries = np.where(rng.random((m, n)) < 0.5, scale, -scale)
    else:
        raise InvalidInputError(f"unknown projection kind: {kind!r}")
    return ProjectionMatrix(kind, m, n, entries, seed)


def project_rows(P: ProjectionMatrix, contexts) -> np.ndarray:
    """Project one round's block of contexts, returning the (K, m) rows z_y.

    A dense block is one matrix product.  A sparse block is one gather and
    one stacked product, O(m * nnz) per row: row k is ``M[:, idx_k] @ vals_k``
    bit for bit.  ``M[:, idx_k]`` is column-major, so numpy hands each row
    to BLAS's column-major matrix-vector kernel; the gather ``M.T[indices]``
    with its last two axes swapped gives every row that same layout.  A
    row-major gather (``np.take(M, indices, axis=1)``, or a contiguous copy
    of the batch) takes the row-major kernel, which differs in the last bit.
    A single context is a 1-row block.
    """
    check_type(P, ProjectionMatrix, "P")
    return _project(P, as_block(contexts, P.n))


def _project(P: ProjectionMatrix, block: "np.ndarray | SparseBlock") -> np.ndarray:
    # project_rows on a block as_block has already checked
    if isinstance(block, np.ndarray):
        return block @ P.entries.T
    # (K, m, nnz) with strides (., 8, 8m): each row's M[:, idx] layout
    cols = P.entries.T[block.indices].swapaxes(1, 2)
    return (cols @ block.values[:, :, None])[:, :, 0]


def _project_table(P: ProjectionMatrix, table: "np.ndarray | SparseBlock", K: int
                   ) -> tuple[np.ndarray, float]:
    """The (R, K, m) projections of a table of R rounds of K rows each, for
    the round loop's projected policies and the oracle scan alike.

    A dense (R, K, n) table is one stacked product, which gives each round's
    slice its own round's bits; one 2-D product over its R * K rows could
    differ in the last bit.  A sparse table is projected in chunks of rows
    whose gathered columns take at most ``_GATHER_BYTES``: the stacked
    product gives each row its own round's kernel, and so its bits, at any
    stack height.

    Returns the projections and their largest magnitude, max|Z|, which
    checks them here, once per table, since finite contexts and a finite P
    can still overflow: a NaN or an infinity carries through the maximum.
    The round loop and the coverage check read the projections unchecked,
    and the maximum bounds the rows that the ridge state absorbs
    (``RidgeState._absorb``).
    """
    if isinstance(table, np.ndarray):
        Z = _project(P, table)
    else:
        Z = np.empty((len(table), P.m))
        step = max(1, _GATHER_BYTES // (8 * P.m * table.indices.shape[1]))
        for lo in range(0, len(table), step):
            Z[lo:lo + step] = _project(P, table._rows(lo, lo + step))
        Z = Z.reshape(-1, K, P.m)
    zmax = float(np.abs(Z).max())
    if not zmax < math.inf:
        raise InvalidInputError("projected contexts must be finite")
    return Z, zmax


def inner_product_error(P: ProjectionMatrix, x: np.ndarray, theta: np.ndarray) -> float:
    """Normalized inner-product distortion |<x,theta> - <Mx,Mtheta>| / (|x||theta|).

    ``x`` and ``theta`` are finite length-n vectors with nonzero norms.
    """
    check_type(P, ProjectionMatrix, "P")
    x, theta = dense_block(x, P.n), dense_block(theta, P.n)
    if len(x) != 1 or len(theta) != 1:
        raise InvalidDimensionError(f"x and theta must each be one length-{P.n} vector")
    x, theta = x[0], theta[0]
    nx, nt = float(np.linalg.norm(x)), float(np.linalg.norm(theta))
    if nx == 0.0 or nt == 0.0:
        raise DegenerateInputError("inner_product_error requires nonzero-norm inputs")
    raw = float(x @ theta)
    projected = float((P.entries @ x) @ (P.entries @ theta))
    return abs(raw - projected) / (nx * nt)


def kaban_failure_bound(m: int, eps1: float) -> float:
    """Tail bound min(1, 2 exp(-m eps1^2 / 8)) on the normalized distortion.

    This is the probability, over the draw of a Gaussian projection, that
    ``inner_product_error`` exceeds ``eps1`` for any fixed vector pair.
    """
    m, eps1 = check_count(m, "m"), check_real(eps1, "eps1", positive=True)
    return derive_gamma(m, 1, eps1)


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
    m, n = check_count(m, "m", InvalidDimensionError), check_count(n, "n", InvalidDimensionError)
    if n < m:
        raise InvalidDimensionError(f"need 1 <= m <= n, got m={m}, n={n}")
    trials = check_count(trials, "trials")
    rng = np.random.Generator(np.random.Philox(key=check_seed(seed)))
    if n == 1:
        c = np.where(rng.random(trials) < 0.5, 1.0, -1.0)
    else:
        c = 2.0 * rng.beta((n - 1) / 2.0, (n - 1) / 2.0, trials) - 1.0
    Q = rng.chisquare(m, trials)
    W = rng.standard_normal(trials)
    s = np.sqrt(1.0 - c * c)
    return np.abs(c - (c * Q + s * np.sqrt(Q) * W) / m)
