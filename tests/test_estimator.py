"""Sequential ridge state against direct-solve oracles."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbrap import InvalidDimensionError, InvalidInputError, RidgeState, estimator
from cbrap.estimator import _BLOCK_BYTES


def direct_solve(lam, zs, rewards):
    """Independent oracle: assemble and solve the normal equations densely."""
    m = zs[0].shape[0]
    A = lam * np.eye(m) + sum(np.outer(z, z) for z in zs)
    b = sum(r * z for z, r in zip(zs, rewards))
    return A, np.linalg.solve(A, b)


class TestInit:
    def test_identity_at_lam_one(self):
        s = RidgeState(3, 1.0)
        np.testing.assert_array_equal(s.A, np.eye(3))
        np.testing.assert_array_equal(s.b, np.zeros(3))
        assert s.t == 0

    def test_inverse_scales_with_lam(self):
        s = RidgeState(2, 4.0)
        np.testing.assert_array_equal(s.A_inv, 0.25 * np.eye(2))

    def test_fresh_estimate_is_zero(self):
        s = RidgeState(1, 1.0)
        np.testing.assert_array_equal(s.estimate(), [0.0])

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidDimensionError):
            RidgeState(0)
        for lam in (0.0, float("inf"), float("nan")):
            with pytest.raises(InvalidInputError, match="lam"):
                RidgeState(2, lam=lam)
        s = RidgeState(2)
        for z in ("ab", [1, [2]], [1 + 2j, 3]):
            with pytest.raises(InvalidInputError):
                s.update(z, 1.0)
            with pytest.raises(InvalidInputError):
                s.weighted_norm(z)
        assert s.t == 0

    @pytest.mark.parametrize("lam", [5e-324, 1e-320, 5e-309])
    def test_rejects_a_lam_whose_reciprocal_overflows(self, lam):
        # A_inv starts at I / lam: it once held inf on its diagonal and NaN
        # (inf * 0) off it, after numpy's "invalid value" warning
        with pytest.raises(InvalidInputError, match=f"^lam must have a finite reciprocal, "
                                                    f"got {lam}$"):
            RidgeState(3, lam=lam)
        assert np.isfinite(RidgeState(3, lam=5.6e-309).A_inv).all()

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, float("nan"), None, "abc",
                                     float("inf")])
    def test_rejects_non_count_sizes(self, bad):
        with pytest.raises(InvalidDimensionError, match="m must"):
            RidgeState(bad)
        if bad is None or isinstance(bad, str):
            with pytest.raises(InvalidInputError, match="lam"):
                RidgeState(2, lam=bad)


class TestUpdate:
    def test_zero_vector_only_advances_counter(self):
        s = RidgeState(3, 1.0)
        s.update(np.zeros(3), 5.0)
        np.testing.assert_array_equal(s.A, np.eye(3))
        np.testing.assert_array_equal(s.A_inv, np.eye(3))
        np.testing.assert_array_equal(s.b, np.zeros(3))
        assert s.t == 1

    def test_single_coordinate_update(self):
        s = RidgeState(2, 1.0)
        s.update(np.array([1.0, 0.0]), 0.5)
        np.testing.assert_array_equal(s.A, np.diag([2.0, 1.0]))
        np.testing.assert_array_equal(s.b, [0.5, 0.0])
        # hand-solved diag(2,1) theta = (0.5, 0)
        np.testing.assert_allclose(s.estimate(), [0.25, 0.0], rtol=1e-12)

    def test_dimension_mismatch(self):
        s = RidgeState(3, 1.0)
        with pytest.raises(InvalidDimensionError):
            s.update(np.zeros(4), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2j, 0j])
    def test_nonfinite_vector(self, bad):
        s = RidgeState(2, 1.0)
        with pytest.raises(InvalidInputError):
            s.update(np.array([1.0, bad]), 1.0)
        assert s.t == 0
        np.testing.assert_array_equal(s.A, np.eye(2))

    def test_nonfinite_reward(self):
        s = RidgeState(2, 1.0)
        with pytest.raises(InvalidInputError):
            s.update(np.ones(2), float("nan"))

    def test_finite_row_overflowing_the_denominator_leaves_the_state(self):
        # 1 + z'A^-1 z overflows for a finite z, and b + reward * z for a finite
        # z and reward; the update once left A_inv all NaN, or b infinite.  At
        # lam = 1e-300, u = A^-1 z can square past the largest float while
        # 1 + z'A^-1 z stays finite: the update once left A_inv infinite, and
        # the next row took the blame
        for lam, z, reward, what in ((1.0, [1e200, 1e200], 1.0, "z'A"),
                                     (1.0, [1e150, 5e149], 1e200, "b is not"),
                                     (1e-300, [0.0, -1e-5], 1.0, "u u")):
            s = RidgeState(2, lam)
            s.update(np.array([0.5, 0.3]) * math.sqrt(lam), 1.0)
            before = (s.A_inv.copy(), s.b.copy(), s.t, [z.copy() for z in s._queue])
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
                with pytest.raises(InvalidInputError, match=f"overflows the ridge update.*{what}"):
                    s.update(np.array(z), reward)
            after = (s.A_inv, s.b, s.t, s._queue)
            for a, b in zip(before[:2], after[:2]):
                np.testing.assert_array_equal(a, b)
                assert a.tobytes() == b.tobytes()
            assert after[2] == before[2] == 1
            assert [z.tobytes() for z in after[3]] == [z.tobytes() for z in before[3]]

    def test_the_step_check_is_exact(self):
        # at lam = 1e-300, max u_i^2 is 1.69e308 for the first row and 1.96e308
        # for the second
        for c, fails in ((1.3e-146, False), (1.4e-146, True)):
            s = RidgeState(1, 1e-300)
            if fails:
                with pytest.raises(InvalidInputError, match="u u"):
                    s.update([c], 1.0)
            else:
                s.update([c], 1.0)
                assert np.isfinite(s.A_inv).all() and s.t == 1


    def test_a_row_whose_fold_overflows_a_is_rejected(self):
        # at lam = 1e10, z'A^-1 z of a row of 1e155 is 3e300 and every update
        # check passed, but z z^T overflows: the refresh at t = 512 once warned
        # "overflow encountered in multiply", inverted an infinite A, and
        # update 513 blamed its own row.  The fold is checked at the update
        # that overflows it, before any change and without numpy's warning
        s = RidgeState(3, lam=1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"^z overflows the ridge update: "
                                                        r"A \+ z z\^T is not finite$"):
                s.update(1e155 * np.ones(3), 1.0)
        assert s.t == 0 and not s._queue
        assert s.A.tobytes() == (1e10 * np.eye(3)).tobytes()
        assert s.A_inv.tobytes() == (1e-10 * np.eye(3)).tobytes()
        assert s.b.tobytes() == np.zeros(3).tobytes()
        # rows of about 2e153 fill A until one more would overflow it
        rng = np.random.default_rng(8)
        s = RidgeState(3, lam=1e10)
        for t, z in enumerate(3e153 * rng.uniform(0.5, 1.0, (100, 3)), 1):
            A, A_inv, b = s.A.copy(), s.A_inv.copy(), s.b.copy()
            with np.errstate(over="ignore"):
                if not np.isfinite(A + z[:, None] * z).all():
                    break
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                s.update(z, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"A \+ z z\^T"):
                s.update(z, 1.0)
        assert 2 < t < 100 and s.t == t - 1
        for before, after in ((A, s.A), (A_inv, s.A_inv), (b, s.b)):
            assert before.tobytes() == after.tobytes()


    def test_the_score_and_the_coverage_check_share_one_estimate_per_state(self):
        # A_inv @ b is taken once per state: an update or a refresh drops it,
        # and estimate() still returns a fresh array of the same bits
        s = RidgeState(3)
        rng = np.random.default_rng(9)
        for refresh in (False, True):
            s.update(rng.standard_normal(3), 1.0)
            theta = s._estimate()
            assert s._estimate() is theta
            assert theta.tobytes() == (s.A_inv @ s.b).tobytes()
            fresh = s.estimate()
            assert fresh is not theta and fresh.tobytes() == theta.tobytes()
            if refresh:
                s._refresh()
                assert s._estimate() is not theta
                assert s._estimate().tobytes() == (s.A_inv @ s.b).tobytes()


class ExactChecks:
    """Reference: the update with every check exact at every update, A written
    whole and no refresh.  It raises what the state raises, in the same order:
    the denominator, the step's u u^T, b and the fold of z z^T into A."""

    def __init__(self, m, lam):
        self.A, self.A_inv = lam * np.eye(m), (1.0 / lam) * np.eye(m)
        self.b = np.zeros(m)
        self.t = 0

    def update(self, z, reward):
        u = self.A_inv @ z
        denom = 1.0 + float(z @ u)
        if not math.isfinite(denom):
            raise InvalidInputError(f"z overflows the ridge update: 1 + z'A^-1 z = {denom}")
        top = float(np.abs(u).max())
        if math.isinf(top * top):
            raise InvalidInputError("z overflows the ridge update: u u^T of u = A^-1 z "
                                    "is not finite")
        b = self.b + reward * z
        if not np.isfinite(b).all():
            raise InvalidInputError("reward * z overflows the ridge update: b is not finite")
        A = self.A + z[:, None] * z
        if not np.isfinite(A).all():
            raise InvalidInputError("z overflows the ridge update: A + z z^T is not finite")
        self.A_inv -= np.outer(u, u) / denom
        self.A, self.b = A, b
        self.t += 1


def magnitudes(lo, hi):
    """0.0, or +-10^e for e in [lo, hi]."""
    return st.just(0.0) | st.builds(lambda sign, e: sign * 10.0 ** e,
                                    st.sampled_from([-1.0, 1.0]), st.floats(lo, hi))


# decades 10^U(-300, 300) of rows and rewards; the second ranges are where
# the fold of A and b overflow
ROW_DECADES = st.floats(-300.0, 300.0) | st.floats(150.0, 157.0)
REWARD_DECADES = st.floats(-300.0, 300.0) | st.floats(150.0, 300.0)


@st.composite
def observations(draw):
    """(m, lam, rows per table, [(z, reward), ...]): rows and rewards whose
    entries are each of any magnitude, or all within two decades of one
    magnitude, of mixed signs, and zero rows among them."""
    m = draw(st.integers(1, 4))

    def values(decades):
        e = draw(decades)
        return draw(st.sampled_from([magnitudes(-300.0, 300.0), magnitudes(e - 2.0, e)]))
    row = st.lists(values(ROW_DECADES), min_size=m, max_size=m) | st.just([0.0] * m)
    obs = draw(st.lists(st.tuples(row, values(REWARD_DECADES)), min_size=1, max_size=32))
    return (m, draw(st.sampled_from([1e-300, 1.0, 1e10])), draw(st.integers(1, 6)),
            [(np.array(z), r) for z, r in obs])


class TestRunningBounds:
    """The state checks b and the fold of A only once their running bounds
    pass 1e300; it must raise exactly where a look at every update would."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(case=observations())
    @example(case=(3, 1e10, 1, [(1e155 * np.ones(3), 1.0)]
                   + [(z, 1.0) for z in np.random.default_rng(0).standard_normal((5, 3))]))
    @example(case=(2, 1.0, 3, [(np.array([1e150, 1e150]), 1e150)] * 3
                   + [(np.array([1e150, 1e150]), -1e150)] * 3))
    def test_the_bounds_raise_where_exact_checks_do(self, case):
        m, lam, per_table, obs = case
        ref, checked, loop = ExactChecks(m, lam), RidgeState(m, lam), RidgeState(m, lam)
        with np.errstate(all="ignore"):  # as in the round loop
            for lo in range(0, len(obs), per_table):
                table = np.array([z for z, _ in obs[lo:lo + per_table]])
                table.setflags(write=False)
                zmax = float(np.abs(table).max())  # the loop's bound: the table's own
                for z, (_, r) in zip(table, obs[lo:lo + per_table]):
                    outcomes = []
                    for absorb in (ref.update, lambda z, r: checked.update(z.tolist(), r),
                                   lambda z, r: loop._absorb(z, r, zmax)):
                        try:
                            absorb(z, r)
                            outcomes.append(None)
                        except InvalidInputError as e:
                            outcomes.append(str(e))
                    assert outcomes[1] == outcomes[2] == outcomes[0]
                    for state in (checked, loop):
                        assert state.t == ref.t
                        assert state.A_inv.tobytes() == ref.A_inv.tobytes()
                        assert state.b.tobytes() == ref.b.tobytes()
        for state in (checked, loop):
            assert state.A.tobytes() == ref.A.tobytes()


class TestWeightedNorm:
    def test_fresh_state_unit_vector(self):
        s = RidgeState(3, 1.0)
        assert s.weighted_norm(np.array([1.0, 0, 0])) == 1.0

    def test_after_one_update(self):
        s = RidgeState(2, 1.0)
        s.update(np.array([1.0, 0.0]), 0.0)
        # A = diag(2, 1), so e1-weight is 1/sqrt(2)
        assert s.weighted_norm(np.array([1.0, 0.0])) == pytest.approx(
            0.7071067811865476, rel=1e-12)

    def test_zero_vector(self):
        s = RidgeState(2, 1.0)
        assert s.weighted_norm(np.zeros(2)) == 0.0

    def test_upper_bounded_by_l2_over_sqrt_lam(self):
        rng = np.random.default_rng(0)
        s = RidgeState(4, lam=2.5)
        for _ in range(60):
            z = rng.standard_normal(4)
            assert s.weighted_norm(z) <= np.linalg.norm(z) / math.sqrt(2.5) + 1e-12
            s.update(rng.standard_normal(4), rng.standard_normal())

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(1)
        s = RidgeState(5, 1.0)
        query = rng.standard_normal(5)
        prev = s.weighted_norm(query)
        for _ in range(50):
            s.update(rng.standard_normal(5), rng.standard_normal())
            cur = s.weighted_norm(query)
            assert cur <= prev + 1e-12
            prev = cur


class TestOracleEquivalence:
    @pytest.mark.parametrize("m", [2, 5])
    def test_hundred_random_updates(self, m):
        rng = np.random.default_rng(m)
        s = RidgeState(m, 1.0)
        zs, rs = [], []
        for _ in range(100):
            z, r = rng.standard_normal(m), rng.standard_normal()
            zs.append(z)
            rs.append(r)
            s.update(z, r)
        A, theta = direct_solve(1.0, zs, rs)
        np.testing.assert_allclose(s.estimate(), theta, rtol=1e-8)
        np.testing.assert_allclose(s.A_inv, np.linalg.inv(A), rtol=1e-8)
        q = rng.standard_normal(m)
        expected = math.sqrt(q @ np.linalg.solve(A, q))
        assert s.weighted_norm(q) == pytest.approx(expected, rel=1e-8)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        m, T = 4, 2000
        zeta = rng.standard_normal(m)
        s = RidgeState(m, 1.0)
        zs, rs = [], []
        for _ in range(T):
            z = rng.standard_normal(m)
            r = float(z @ zeta)
            zs.append(z)
            rs.append(r)
            s.update(z, r)
        _, theta = direct_solve(1.0, zs, rs)
        np.testing.assert_allclose(s.estimate(), theta, rtol=1e-8)
        # ridge bias is O(lam/T) with spanning directions
        assert np.linalg.norm(s.estimate() - zeta) <= 0.01 * np.linalg.norm(zeta)


class TestNumericalInvariants:
    def test_symmetry_preserved(self):
        rng = np.random.default_rng(4)
        s = RidgeState(6, 0.5)
        for _ in range(200):
            s.update(rng.standard_normal(6), rng.standard_normal())
            assert np.max(np.abs(s.A - s.A.T)) <= 1e-12
            assert np.max(np.abs(s.A_inv - s.A_inv.T)) <= 1e-12

    def test_eigenvalue_floor(self):
        rng = np.random.default_rng(5)
        lam = 0.7
        s = RidgeState(5, lam=lam)
        for _ in range(300):
            s.update(rng.standard_normal(5), rng.standard_normal())
        assert np.linalg.eigvalsh(s.A).min() >= lam - 1e-9

    def test_inverse_drift_bounded_every_round(self):
        rng = np.random.default_rng(6)
        s = RidgeState(5, 1.0)
        eye = np.eye(5)
        for _ in range(1000):
            s.update(rng.standard_normal(5), rng.standard_normal())
            assert np.max(np.abs(s.A @ s.A_inv - eye)) <= 1e-6

    def test_refresh_cadence_does_not_change_results(self):
        rng = np.random.default_rng(7)
        updates = [(rng.standard_normal(3), rng.standard_normal()) for _ in range(600)]
        frequent, rare = RidgeState(3, lam=1.0), RidgeState(3, lam=1.0)
        for z, r in updates:
            with mock.patch.object(estimator, "_REFRESH_EVERY", 8):
                frequent.update(z, r)
            with mock.patch.object(estimator, "_REFRESH_EVERY", 10**9):
                rare.update(z, r)
        np.testing.assert_allclose(frequent.estimate(), rare.estimate(), rtol=1e-9)
        np.testing.assert_allclose(frequent.A_inv, rare.A_inv, rtol=1e-9, atol=1e-12)


class WholeMatrixRidge:
    """Reference: the Sherman-Morrison step on whole matrices, one outer
    product per term, with A written at every update and re-inverted on a
    fixed period.  Counts its refreshes."""

    def __init__(self, m, lam, refresh_every):
        self.A = lam * np.eye(m)
        self.A_inv = (1.0 / lam) * np.eye(m)
        self.b = np.zeros(m)
        self.refresh_every = refresh_every
        self._since_refresh = 0
        self.periodic = 0

    def update(self, z, reward):
        u = self.A_inv @ z
        denom = 1.0 + float(z @ u)
        self.A += np.outer(z, z)
        self.b += reward * z
        self.A_inv -= np.outer(u, u) / denom
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_every:
            self.periodic += 1
            inv = np.linalg.inv(self.A)
            self.A_inv = (inv + inv.T) / 2.0
            self._since_refresh = 0


def stream(kind, m, T, seed):
    """Observations (z, reward): Gaussian, repeated, near-parallel, with
    norms spread over four decades, or one direction so spread."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(m)
    zs = {
        "gaussian": lambda: rng.standard_normal((T, m)),
        "repeated": lambda: np.tile(base, (T, 1)),
        "near-parallel": lambda: base + 1e-4 * rng.standard_normal((T, m)),
        "scaled": lambda: (rng.standard_normal((T, m))
                           * 10.0 ** rng.uniform(-2, 2, (T, 1))),
        "repeated-scaled": lambda: base * 10.0 ** rng.uniform(-2, 2, (T, 1)),
    }[kind]()
    return list(zip(zs, rng.standard_normal(T)))


class TestInPlaceUpdate:
    """The row-block update gives the whole-matrix step's bits."""

    # streams of 207 and 79 rows end with refresh_every - 1 = 15 rows queued
    @pytest.mark.parametrize("m,kind,lam", [
        (1, "gaussian", 1e-9), (1, "scaled", 1e-9), (20, "gaussian", 1e-9),
        (20, "scaled", 1e-3), (300, "near-parallel", 1e-3),
    ])
    def test_bitwise_equal_to_whole_matrix_step(self, m, kind, lam):
        step = _BLOCK_BYTES // (8 * m)
        assert m <= step or (m > 2 * step and m % step)  # 300: three blocks, the last short
        ref = WholeMatrixRidge(m, lam, refresh_every=16)
        s = RidgeState(m, lam)
        lazy = RidgeState(m, lam)  # A read only by its refreshes
        refresh, refreshes = s._refresh, []
        s._refresh = lambda: (refreshes.append(s.t), refresh())
        with mock.patch.object(estimator, "_REFRESH_EVERY", 16):
            for z, r in stream(kind, m, 207 if m < 300 else 79, seed=m):
                ref.update(z, r)
                s.update(z, r)
                lazy.update(z, r)
                assert np.array_equal(s.A, ref.A)
                for state in (s, lazy):
                    assert np.array_equal(state.A_inv, ref.A_inv)
                    assert np.array_equal(state.b, ref.b)
        assert len(lazy._queue) == 15
        assert np.array_equal(lazy.A, ref.A)
        assert ref.periodic > 0
        assert len(refreshes) == ref.periodic

    def test_builds_no_matrix_sized_temporary(self):
        m = 1500  # an 18 MB inverse, updated in 21-row blocks of 0.25 MB
        zs = np.random.default_rng(0).standard_normal((10, m))
        tracemalloc.start()
        try:
            s = RidgeState(m, 1.0)
            for z in zs:
                s.update(z, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * m * m  # A_inv, and no A until it is read

    def test_default_state_refreshes_every_512_updates(self):
        s = RidgeState(3)
        refresh, refreshes = s._refresh, []
        s._refresh = lambda: (refreshes.append(s.t), refresh())
        for z in np.random.default_rng(2).standard_normal((1100, 3)):
            s.update(z, 1.0)
        assert refreshes == [512, 1024]

    def test_refresh_symmetrizes_in_place(self):
        # the refresh's inverse is symmetric: each entry and its mirror are
        # the same (a + b) / 2.0 of the fresh inverse
        m = 300
        s = RidgeState(m, 1.0)
        for z in np.random.default_rng(1).standard_normal((40, m)):
            s.update(z, 1.0)
        inv = np.linalg.inv(s.A)
        s._refresh()
        assert s.A_inv.tobytes() == ((inv + inv.T) / 2.0).tobytes()
        assert (s.A_inv == s.A_inv.T).all()

    @pytest.mark.parametrize("kind", ["repeated-scaled", "near-parallel"])
    @pytest.mark.parametrize("lam", [1e-2, 1.0])
    def test_ill_conditioned_stress(self, kind, lam):
        """The maintained inverse's residual stays within a small multiple of
        a fresh symmetrized inverse's at the same state, even where
        cond(A) ~ 1e9 puts both above 1e-6."""
        m, eye = 20, np.eye(20)
        for seed in range(3):
            s = RidgeState(m, lam)
            for t, (z, r) in enumerate(stream(kind, m, 3000, seed), 1):
                s.update(z, r)
                if t % 97 == 0:
                    inv = np.linalg.inv(s.A)
                    fresh = np.max(np.abs(s.A @ ((inv + inv.T) / 2.0) - eye))
                    assert np.max(np.abs(s.A @ s.A_inv - eye)) <= 50 * fresh

    # m=181 is one 256 KiB block of rows, m=300 three, the last short
    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([1, 7, 181, 300]), lam=st.floats(1e-3, 10.0),
           kind=st.sampled_from(["gaussian", "near-parallel", "scaled"]),
           refresh_every=st.integers(1, 6), refreshes=st.integers(1, 2),
           extra=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_unchecked_step_is_the_update(self, m, lam, kind, refresh_every, refreshes,
                                          extra, seed):
        # the round loop's _absorb and the checked update: one implementation,
        # so the same bits across refreshes; the loop's rows are read-only
        # views of a table, a caller's may be a list
        assert (m <= _BLOCK_BYTES // (8 * m)) == (m < 300)
        checked, loop = RidgeState(m, lam), RidgeState(m, lam)
        obs = stream(kind, m, refresh_every * refreshes + extra, seed)
        table = np.array([z for z, _ in obs])
        table.setflags(write=False)
        with mock.patch.object(estimator, "_REFRESH_EVERY", refresh_every):
            for (z, r), row in zip(obs, table):
                checked.update(z.tolist(), r)
                loop._absorb(row, float(r))
                assert np.array_equal(loop.A_inv, checked.A_inv)
                assert np.array_equal(loop.b, checked.b)
                assert loop.t == checked.t
        assert loop.t == checked.t == refresh_every * refreshes + extra
        assert np.array_equal(loop.A, checked.A)

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 40), lam=st.floats(1e-2, 10.0),
           kind=st.sampled_from(["repeated", "near-parallel", "scaled"]),
           T=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_inverse_and_estimate_track_the_direct_solve(self, m, lam, kind, T, seed):
        s = RidgeState(m, lam)
        zs, rs = [], []
        for z, r in stream(kind, m, T, seed):
            s.update(z, r)
            zs.append(z)
            rs.append(r)
            assert np.max(np.abs(s.A @ s.A_inv - np.eye(m))) <= 1e-6
        _, theta = direct_solve(lam, zs, rs)
        np.testing.assert_allclose(s.estimate(), theta, rtol=1e-8,
                                   atol=1e-8 * np.abs(theta).max())
