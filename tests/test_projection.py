"""Projection matrices: construction invariants, the linear map, distortion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cbrap import (DegenerateInputError, InvalidDimensionError,
                   InvalidInputError, ProjectionKind, ProjectionMatrix,
                   SparseBlock, build_projection, inner_product_error,
                   kaban_failure_bound, project_rows, sg_distortion_sample)
from cbrap.projection import _project, as_block

SG = ProjectionKind.STANDARD_GAUSSIAN
RS = ProjectionKind.RANDOM_SIGN_DENSE


class TestBuild:
    def test_sg_m1_entry_is_standard_normal(self):
        # with m = 1 the variance-1/m law is N(0, 1); check moments over seeds
        draws = np.array([build_projection(SG, 1, 1, s).entries[0, 0]
                          for s in range(4000)])
        assert abs(draws.mean()) < 5.0 / math.sqrt(4000)
        # chi-square 99.9% band for the sample variance of 4000 normals
        assert 0.928046682085705 < draws.var(ddof=1) < 1.0752297383061356

    def test_rs_dense_entries_are_half(self):
        P = build_projection(RS, 4, 10, 123)
        assert np.all(np.abs(P.entries) == 0.5)  # 1/sqrt(4) exactly
        assert P.entries.shape == (4, 10)

    def test_sg_variance_in_chi_square_band(self):
        # 32768 samples of N(0, 1/64); 99.9% two-sided band for s^2 * m,
        # frozen from the chi-square quantiles chi2.ppf(.0005|.9995, N-1)/(N-1)
        P = build_projection(SG, 64, 512, 20240801)
        ratio = P.entries.var(ddof=1) * 64
        assert 0.9744921473558198 < ratio < 1.0259077457538817

    def test_sg_mean_near_zero(self):
        P = build_projection(SG, 64, 512, 7)
        assert abs(P.entries.mean()) < 5.0 / (8 * math.sqrt(32768))

    @pytest.mark.parametrize("kind", [SG, RS])
    def test_deterministic_reconstruction(self, kind):
        a = build_projection(kind, 5, 17, 777)
        b = build_projection(kind, 5, 17, 777)
        assert np.array_equal(a.entries, b.entries)
        c = build_projection(kind, 5, 17, 778)
        assert not np.array_equal(a.entries, c.entries)

    @pytest.mark.parametrize("kind", [SG, RS])
    def test_single_stream_row_major_order(self, kind):
        # the m*n stream is consumed row-major, so reshaping commutes with
        # building at another m (after undoing the 1/sqrt(m) scale, which is
        # exact for power-of-two sqrt(m))
        flat = {m: build_projection(kind, m, 16 // m, 5).entries.ravel() * math.sqrt(m)
                for m in (1, 4)}
        np.testing.assert_array_equal(flat[1], flat[4])

    def test_entries_read_only(self):
        P = build_projection(SG, 2, 4, 0)
        with pytest.raises(ValueError):
            P.entries[0, 0] = 1.0

    @pytest.mark.parametrize("m,n", [(0, 4), (5, 4), (-1, 3)])
    def test_invalid_dimensions(self, m, n):
        with pytest.raises(InvalidDimensionError):
            build_projection(SG, m, n, 0)

    def test_rs_dense_row_squared_norms(self):
        # n * (1/m): exact when 1/sqrt(m) is a power of two
        for m in (1, 4, 16):
            P = build_projection(RS, m, 32, 3)
            sq = np.sum(P.entries**2, axis=1)
            np.testing.assert_array_equal(sq, np.full(m, 32.0 / m))
        P = build_projection(RS, 3, 32, 3)
        np.testing.assert_allclose(np.sum(P.entries**2, axis=1), 32.0 / 3, rtol=1e-12)


class TestContextVector:
    """A single context vector is a 1-row block, dense or sparse."""

    def test_dense_roundtrip(self):
        x = as_block([1.0, -2.0, 0.0], 3)
        assert x.shape == (1, 3) and x.dtype == np.float64 and not x.flags.writeable
        np.testing.assert_array_equal(x, [[1.0, -2.0, 0.0]])
        # a list of rows stacks into one block
        np.testing.assert_array_equal(as_block([[1.0, 0.0], [0.0, 2.0]], 2), np.diag([1.0, 2.0]))

    def test_sparse_roundtrip(self):
        x = SparseBlock(6, [[1, 4]], [[2.0, -1.0]])
        assert x.shape == (1, 6) and len(x) == 1
        assert as_block(x, 6) is x
        np.testing.assert_array_equal(x.to_dense(), [[0, 2.0, 0, 0, -1.0, 0]])
        (row,) = x  # iterates as dense rows
        np.testing.assert_array_equal(row, [0, 2.0, 0, 0, -1.0, 0])
        assert np.linalg.norm(row) == pytest.approx(math.sqrt(5.0))

    def test_sparse_dot(self):
        P = ProjectionMatrix.from_entries([[10.0, 0.0, 0.0, 1.0]])
        x = SparseBlock(4, [[0, 3]], [[1.0, 2.0]])
        np.testing.assert_array_equal(project_rows(P, x), [[12.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            as_block([1.0, np.nan], 2)
        with pytest.raises(InvalidInputError):
            SparseBlock(2, [[0, 1]], [[1.0, np.inf]])

    def test_rejects_unsorted_indices(self):
        with pytest.raises(InvalidInputError):
            SparseBlock(5, [[3, 1]], [[1.0, 1.0]])

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(InvalidDimensionError):
            SparseBlock(5, [[1, 5]], [[1.0, 1.0]])
        with pytest.raises(InvalidDimensionError):
            as_block(SparseBlock(5, [[1, 4]], [[1.0, 1.0]]), 4)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(InvalidInputError):
            SparseBlock(5, [[2, 2]], [[1.0, 1.0]])


class TestProject:
    """The map z = Mx on 1-row blocks."""

    def test_zero_vector_maps_to_zero(self):
        P = build_projection(SG, 3, 8, 1)
        np.testing.assert_array_equal(project_rows(P, np.zeros(8)), np.zeros((1, 3)))

    def test_identity_hook_is_identity(self):
        P = ProjectionMatrix.from_entries(np.eye(5))
        x = np.arange(5.0)
        np.testing.assert_array_equal(project_rows(P, x), [x])

    def test_explicit_entries_matvec(self):
        P = ProjectionMatrix.from_entries([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(project_rows(P, np.ones(3)), [[6.0, 1.0]])

    def test_sparse_matches_dense_path(self):
        rng = np.random.default_rng(4)
        P = build_projection(SG, 6, 40, 2)
        idx = np.sort(rng.choice(40, size=7, replace=False))
        vals = rng.standard_normal(7)
        sparse = SparseBlock(40, [idx], [vals])
        np.testing.assert_allclose(project_rows(P, sparse),
                                   project_rows(P, sparse.to_dense()), rtol=1e-12)

    def test_project_rows_matches_loop(self):
        rng = np.random.default_rng(5)
        P = build_projection(RS, 4, 12, 9)
        ctxs = [rng.standard_normal(12) for _ in range(5)]
        Z = project_rows(P, ctxs)
        for i, c in enumerate(ctxs):
            np.testing.assert_allclose(Z[i], project_rows(P, c)[0], rtol=1e-12)

    def test_dimension_mismatch(self):
        P = build_projection(SG, 3, 8, 1)
        with pytest.raises(InvalidDimensionError):
            project_rows(P, np.zeros(9))
        with pytest.raises(InvalidDimensionError):
            project_rows(P, SparseBlock(9, [[0]], [[1.0]]))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        P = build_projection(SG, 5, 20, 31)
        for _ in range(50):
            a, b = rng.standard_normal(2) * 3
            x, y = rng.standard_normal(20), rng.standard_normal(20)
            lhs = project_rows(P, a * x + b * y)
            rhs = a * project_rows(P, x) + b * project_rows(P, y)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def random_sparse_block(seed, K, n, nnz):
    rng = np.random.default_rng(seed)
    indices = np.stack([np.sort(rng.choice(n, size=nnz, replace=False))
                        for _ in range(K)])
    values = rng.standard_normal((K, nnz))
    values /= np.linalg.norm(values, axis=1, keepdims=True)
    return SparseBlock(n, indices, values)


class TestBlocks:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 8),
           n=st.integers(1, 60), data=st.data())
    def test_sparse_block_projection_matches_dense_product(self, seed, K, n, data):
        nnz = data.draw(st.integers(1, n))
        m = data.draw(st.integers(1, n))
        kind = data.draw(st.sampled_from([SG, RS]))
        block = random_sparse_block(seed, K, n, nnz)
        P = build_projection(kind, m, n, seed)
        np.testing.assert_allclose(project_rows(P, block),
                                   block.to_dense() @ P.entries.T, rtol=0, atol=1e-12)

    def test_sparse_rows_project_like_single_contexts(self):
        block = random_sparse_block(3, 6, 50, 4)
        P = build_projection(SG, 5, 50, 8)
        Z = project_rows(P, block)
        assert Z.shape == (6, 5)
        for z, idx, vals in zip(Z, block.indices, block.values):
            np.testing.assert_array_equal(z, P.entries[:, idx] @ vals)
        # the corners, and the benchmark's sparse shape (K=10, n=4000, nnz=5, m=20)
        for K, n, nnz, m in [(1, 1, 1, 1), (1, 64, 64, 1), (1, 4000, 1, 20),
                             (10, 4000, 5, 20), (32, 64, 64, 64), (3, 500, 17, 4),
                             (10, 200, 200, 20)]:
            for seed, kind in enumerate([SG, RS] * 3):
                self.check_sparse_kernel(seed, K, n, nnz, m, kind)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 32),
           n=st.integers(1, 80), data=st.data())
    def test_sparse_kernel_is_the_per_row_product_byte_for_byte(self, seed, K, n, data):
        # the batch must hand each row to the kernel M[:, idx] @ vals takes;
        # a row-major gather takes another and differs in the last bit
        nnz = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
        m = data.draw(st.one_of(st.just(1), st.integers(1, n)))
        kind = data.draw(st.sampled_from([SG, RS]))
        self.check_sparse_kernel(seed, K, n, nnz, m, kind)

    @staticmethod
    def check_sparse_kernel(seed, K, n, nnz, m, kind):
        block = random_sparse_block(seed, K, n, nnz)
        P = build_projection(kind, m, n, seed)
        ref = np.stack([P.entries[:, idx] @ vals
                        for idx, vals in zip(block.indices, block.values)])
        got = _project(P, block)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_sparse_block_is_read_only(self):
        block = random_sparse_block(4, 3, 20, 2)
        assert block.shape == (3, 20) and len(block) == 3
        with pytest.raises(ValueError):
            block.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            block.indices[0, 0] = 1

    @pytest.mark.parametrize("indices,values,error", [
        ([[0, 2], [1, 3]], [[1.0, np.nan], [1.0, 1.0]], InvalidInputError),
        ([[0, 2], [3, 1]], [[1.0, 1.0], [1.0, 1.0]], InvalidInputError),
        ([[0, 2], [2, 2]], [[1.0, 1.0], [1.0, 1.0]], InvalidInputError),
        ([[0, 2], [1, 5]], [[1.0, 1.0], [1.0, 1.0]], InvalidDimensionError),
        ([[-1, 2], [1, 3]], [[1.0, 1.0], [1.0, 1.0]], InvalidDimensionError),
        ([[0, 2], [1, 3]], [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], InvalidDimensionError),
        ([[0, 2], [1, 3]], [[1.0, 2j], [1.0, 1.0]], InvalidInputError),
        ([[0, 2], [1, 3]], [["a", 1.0], [1.0, 1.0]], InvalidInputError),
    ])
    def test_sparse_block_checks_every_row(self, indices, values, error):
        with pytest.raises(error):
            SparseBlock(5, np.array(indices), np.array(values))

    @settings(max_examples=300, deadline=None)
    @given(contexts=st.one_of(
        st.text(max_size=5), st.none(), st.integers(-10**400, 10**400),
        st.lists(st.lists(st.one_of(st.floats(), st.integers(), st.text(max_size=2)),
                          max_size=4), max_size=4),  # ragged or not
        st.lists(st.one_of(st.none(), st.floats(), st.text(max_size=2),
                           st.lists(st.floats(), max_size=3)), max_size=4).map(
            lambda items: np.array(items + [object()], dtype=object)[:-1]),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4)),
        hnp.arrays(np.complex128, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4)),
    ), n=st.integers(0, 4))
    def test_bad_input_is_a_typed_error(self, contexts, n):
        try:
            block = as_block(contexts, n)
        except (InvalidInputError, InvalidDimensionError):
            return
        assert not np.iscomplexobj(contexts)  # even a zero imaginary part is refused
        assert block.ndim == 2 and block.shape[1] == n and block.dtype == np.float64
        assert np.isfinite(block).all() and not block.flags.writeable

    def test_dense_block_checked_once_at_the_boundary(self):
        P = build_projection(SG, 2, 4, 1)
        X = np.ones((3, 4))
        X[2, 1] = np.inf
        with pytest.raises(InvalidInputError):
            project_rows(P, X)
        with pytest.raises(InvalidDimensionError):
            project_rows(P, np.ones((3, 5)))
        # the caller's array keeps its flags
        assert X.flags.writeable


class TestInnerProductError:
    def test_orthonormal_rows_preserve_spanned_vector(self):
        P = ProjectionMatrix.from_entries(np.eye(3)[:2])  # rows e1, e2
        e1 = np.array([1.0, 0.0, 0.0])
        assert inner_product_error(P, e1, e1) == 0.0

    def test_orthogonal_square_matrix_exact(self):
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        P = ProjectionMatrix.from_entries(Q)
        for _ in range(20):
            x, th = rng.standard_normal(6), rng.standard_normal(6)
            assert inner_product_error(P, x, th) < 1e-12

    def test_zero_norm_rejected(self):
        P = build_projection(SG, 2, 4, 0)
        with pytest.raises(DegenerateInputError):
            inner_product_error(P, np.zeros(4), np.ones(4))

    @pytest.mark.parametrize("x,error", [
        (np.ones(5), InvalidDimensionError), (np.ones((2, 4)), InvalidDimensionError),
        ([1.0, np.nan, 0.0, 0.0], InvalidInputError), ("abcd", InvalidInputError),
    ])
    def test_rejects_bad_vectors(self, x, error):
        P = build_projection(SG, 2, 4, 0)
        with pytest.raises(error):
            inner_product_error(P, x, np.ones(4))
        with pytest.raises(error):
            inner_product_error(P, np.ones(4), x)

    def test_matches_definition(self):
        rng = np.random.default_rng(10)
        P = build_projection(SG, 8, 30, 44)
        x, th = rng.standard_normal(30), rng.standard_normal(30)
        zx, zt = P.entries @ x, P.entries @ th
        expected = abs(x @ th - zx @ zt) / (np.linalg.norm(x) * np.linalg.norm(th))
        assert inner_product_error(P, x, th) == pytest.approx(expected, rel=1e-12)


class TestKabanBound:
    def test_large_m_vanishes(self):
        assert kaban_failure_bound(10**6, 1.0) < 1e-300

    def test_frozen_value(self):
        assert kaban_failure_bound(8, 1.0) == pytest.approx(0.7357588823428847, rel=1e-12)

    def test_caps_at_one(self):
        assert kaban_failure_bound(4, 1e-9) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            kaban_failure_bound(0, 0.5)
        with pytest.raises(InvalidInputError):
            kaban_failure_bound(4, 0.0)

    @pytest.mark.parametrize("eps1", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_eps1(self, eps1):
        # min(1, 2 exp(-m nan)) would be 1.0, a bound that never fails
        with pytest.raises(InvalidInputError, match="eps1"):
            kaban_failure_bound(8, eps1)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(m=st.integers(1, 10**6), log_eps1=st.floats(-6.0, 3.0))
    def test_is_the_closed_form_bit_for_bit(self, m, log_eps1):
        eps1 = 10.0 ** log_eps1
        literal = min(1.0, 2.0 * math.exp(-m * eps1 * eps1 / 8.0))
        assert kaban_failure_bound(m, eps1).hex() == literal.hex()


class TestKabanTail:
    """Empirical distortion tails stay below the closed-form bound."""

    def test_batched_sampler_m32_100k_pairs(self):
        errs = sg_distortion_sample(32, 32, 100_000, seed=20240801)
        for eps1 in (0.25, 0.5, 0.75, 1.0):
            rate = float(np.mean(errs > eps1))
            assert rate <= kaban_failure_bound(32, eps1), (eps1, rate)

    def test_literal_path_matches_batched_sampler(self):
        # one fresh seeded matrix per trial through the public API
        rng = np.random.default_rng(13)
        m, n, trials = 16, 24, 2000
        lit = np.empty(trials)
        for i in range(trials):
            P = build_projection(SG, m, n, 10_000 + i)
            x, th = rng.standard_normal(n), rng.standard_normal(n)
            lit[i] = inner_product_error(P, x, th)
        for eps1 in (0.5, 0.75, 1.0):
            assert np.mean(lit > eps1) <= kaban_failure_bound(m, eps1)
        batched = sg_distortion_sample(m, n, 20_000, seed=3)
        # both estimate the same mean distortion; 5 sigma agreement
        tol = 5 * lit.std(ddof=1) / math.sqrt(trials)
        assert abs(lit.mean() - batched.mean()) < tol

    # two-sample Kolmogorov-Smirnov critical value at alpha = 0.001 is
    # KS_C_ALPHA * sqrt((a + b) / (a * b)) for sample sizes a and b
    KS_C_ALPHA = 1.949

    @staticmethod
    def ks_statistic(a, b):
        a, b = np.sort(a), np.sort(b)
        both = np.concatenate([a, b])
        cdf_a = np.searchsorted(a, both, side="right") / a.size
        cdf_b = np.searchsorted(b, both, side="right") / b.size
        return float(np.abs(cdf_a - cdf_b).max())

    @pytest.mark.parametrize("m,n", [(4, 4), (16, 24), (8, 40), (1, 3), (1, 1)])
    def test_sampler_has_the_law_of_the_literal_path(self, m, n):
        # m = n, n > m, and m = n = 1, where <x, theta> is +-1
        rng = np.random.default_rng(1000 * m + n)
        a, b = 3000, 50_000
        lit = np.empty(a)
        for i in range(a):
            P = build_projection(SG, m, n, 50_000 + i)
            x, th = rng.standard_normal(n), rng.standard_normal(n)
            lit[i] = inner_product_error(P, x, th)
        sampled = sg_distortion_sample(m, n, b, seed=7)
        critical = self.KS_C_ALPHA * math.sqrt((a + b) / (a * b))
        assert self.ks_statistic(lit, sampled) < critical
