import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gapfill.linalg import (
    RANK_TOLERANCE,
    LeastSquaresFit,
    SpdSolution,
    as_matrix,
    least_squares,
    mat_pow_table,
    row_norms,
    solve_spd,
)


class TestValidators:
    def test_as_matrix_accepts_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_as_matrix_rejects_vectors(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1.0, float("nan")]])


class TestMatPowTable:
    def test_identity_matrix(self):
        table = mat_pow_table(np.eye(2), 4)
        assert isinstance(table, np.ndarray)
        assert table.shape == (5, 2, 2)
        for power in table:
            assert np.array_equal(power, np.eye(2))

    def test_zero_matrix(self):
        table = mat_pow_table(np.zeros((2, 2)), 2)
        assert np.array_equal(table[0], np.eye(2))
        assert np.array_equal(table[1], np.zeros((2, 2)))
        assert np.array_equal(table[2], np.zeros((2, 2)))

    def test_fibonacci_powers(self):
        # powers of [[1,1],[1,0]] hold consecutive Fibonacci numbers
        table = mat_pow_table([[1, 1], [1, 0]], 6)
        assert np.array_equal(table[6], [[13, 8], [8, 5]])

    def test_recurrence_identity_exact(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (3, 3))
        table = mat_pow_table(a, 8)
        for k in range(8):
            assert np.array_equal(table[k + 1], a @ table[k])

    def test_table_matches_repeated_mat_vec(self):
        # multiplying a vector through the table must agree with step-by-step a @ v
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.uniform(-1, 1, (2, 2))
            v = rng.uniform(-1, 1, 2)
            table = mat_pow_table(a, 5)
            stepped = v.copy()
            for k in range(1, 6):
                stepped = a @ stepped
                assert np.allclose(table[k] @ v, stepped, rtol=0, atol=1e-12)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), count=st.integers(1, 12),
           kmax=st.integers(0, 30))
    def test_stacked_tables_are_built_as_if_alone(self, seed, dim, count, kmax):
        # column-major matrices, as fitted models hold them, beside row-major ones
        rng = np.random.default_rng(seed)
        matrices = [rng.uniform(-1.5, 1.5, (dim, dim)) for _ in range(count)]
        matrices = [np.asfortranarray(a) if i % 2 else a for i, a in enumerate(matrices)]
        tables = mat_pow_table(np.array(matrices), kmax)
        assert tables.shape == (count, kmax + 1, dim, dim)
        for table, a in zip(tables, matrices):
            assert table.tobytes() == mat_pow_table(a, kmax).tobytes()

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            mat_pow_table([[1, 2, 3], [4, 5, 6]], 2)
        with pytest.raises(ValueError, match="square"):
            mat_pow_table(np.ones((2, 2, 3)), 2)

    def test_rejects_non_finite_stack(self):
        with pytest.raises(ValueError, match="finite"):
            mat_pow_table([[[1.0, float("nan")], [0.0, 1.0]]], 2)

    def test_rejects_negative_kmax(self):
        with pytest.raises(ValueError):
            mat_pow_table(np.eye(2), -1)


class TestSolveSpd:
    def test_identity(self):
        sol = solve_spd(np.eye(3), [[1.0, 2.0, 3.0]])
        assert isinstance(sol, SpdSolution)
        assert not sol.fallback
        assert np.array_equal(sol.x, [[1.0, 2.0, 3.0]])

    def test_small_spd(self):
        # [[2,1],[1,2]] x = (3,3) -> x = (1,1)
        sol = solve_spd([[2.0, 1.0], [1.0, 2.0]], [[3.0, 3.0]])
        assert np.allclose(sol.x, [[1.0, 1.0]], rtol=0, atol=1e-14)
        assert not sol.fallback

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd([[1.0, 2.0], [0.0, 1.0]], [[1.0, 1.0]])

    def test_singular_falls_back_to_min_norm(self):
        sol = solve_spd([[1.0, 1.0], [1.0, 1.0]], [[2.0, 2.0]])
        assert sol.fallback
        # minimum-norm solution of the consistent singular system
        assert np.allclose(sol.x, [[1.0, 1.0]], rtol=0, atol=1e-10)

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = rng.uniform(-1, 1, (n, n))
            g = m.T @ m + 0.1 * np.eye(n)
            x_true = rng.uniform(-2, 2, n)
            sol = solve_spd(g, [g @ x_true])
            assert not sol.fallback
            assert np.allclose(sol.x[0], x_true, rtol=0, atol=1e-9)

    def test_deterministic_bits(self):
        g = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        b = np.array([[1.0, 2.0, 3.0]])
        first = solve_spd(g, b).x
        second = solve_spd(g, b).x
        assert first.tobytes() == second.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_spd(np.eye(2), [[1.0, 2.0, 3.0]])

    def test_gram_above_identity_with_wide_diagonal(self):
        # the 60-step control Gram matrix sum_j A^j (A^j)^T of an explosive A
        # is >= I, so positive definite, although its diagonal spans ~1e21
        a = np.array([[1.5, 0.33], [0.0, 0.49]])
        powers = np.array(mat_pow_table(a, 59))
        g = np.sum(powers @ powers.transpose(0, 2, 1), axis=0)
        assert 1e20 < g[0, 0] / g[1, 1] < 1e22
        b = np.array([1.0, 1.0])
        sol = solve_spd(g, [b])
        assert not sol.fallback
        assert np.linalg.norm(g @ sol.x[0] - b) <= 1e-8 * (1.0 + np.linalg.norm(b))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        st.integers(1, 5).flatmap(lambda n: st.tuples(
            arrays(float, (n, n), elements=st.floats(-1e3, 1e3)),
            arrays(float, n, elements=st.floats(-1e3, 1e3)),
        ))
    )
    def test_matches_scipy_positive_definite_solve(self, case):
        m, b = case
        g = m @ m.T + np.eye(len(b))
        sol = solve_spd(g, [b])
        assert not sol.fallback
        expected = scipy.linalg.solve(g, b, assume_a="pos")
        np.testing.assert_allclose(sol.x[0], expected, rtol=1e-7, atol=1e-9 * (1.0 + np.abs(expected).max()))


    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), rows=st.integers(1, 40),
           scale=st.sampled_from([1e-3, 1.0, 1e6]))
    def test_stacked_rows_are_solved_as_if_alone(self, seed, n, rows, scale):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) * scale
        g = m @ m.T + np.eye(n)
        b = rng.standard_normal((rows, n)) * scale
        stacked = solve_spd(g, b)
        assert stacked.x.shape == b.shape
        assert not stacked.fallback
        for row, x in zip(b, stacked.x):
            assert x.tobytes() == solve_spd(g, row[None]).x[0].tobytes()

    def test_stacked_fallback_solves_each_row_alone(self):
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([[1.0, 1.0], [2.0, -1.0]])
        stacked = solve_spd(g, b)
        assert stacked.fallback
        for row, x in zip(b, stacked.x):
            assert x.tobytes() == solve_spd(g, row[None]).x[0].tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), count=st.integers(1, 8),
           scale=st.sampled_from([1e-3, 1.0, 1e6]))
    def test_stacked_matrices_are_solved_as_if_alone(self, seed, n, count, scale):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((count, n, n)) * scale
        g = m @ m.transpose(0, 2, 1) + np.eye(n)
        b = rng.standard_normal((count, n)) * scale
        stacked = solve_spd(g, b)
        assert stacked.x.shape == b.shape
        assert not stacked.fallback
        for gi, row, x in zip(g, b, stacked.x):
            assert x.tobytes() == solve_spd(gi, row[None]).x[0].tobytes()

    def test_stacked_matrix_fallback_solves_each_alone(self):
        g = np.array([[[1.0, 1.0], [1.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]]])
        b = np.array([[1.0, 1.0], [3.0, 3.0]])
        stacked = solve_spd(g, b)
        assert stacked.fallback
        for gi, row, x in zip(g, b, stacked.x):
            assert x.tobytes() == solve_spd(gi, row[None]).x[0].tobytes()
        assert not solve_spd(g[1], b[1:]).fallback

    def test_stacked_matrices_need_one_rhs_row_each(self):
        with pytest.raises(ValueError, match="one rhs row each"):
            solve_spd(np.stack([np.eye(2)] * 3), np.ones((2, 2)))

    def test_rejects_one_dimensional_rhs(self):
        with pytest.raises(ValueError, match="expected a 2-D matrix"):
            solve_spd(np.eye(2), np.ones(2))
        with pytest.raises(ValueError, match="expected a 2-D matrix"):
            solve_spd(np.stack([np.eye(2)] * 3), np.ones(2))

    def test_stacked_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_spd(np.eye(2), np.ones((3, 3)))


class TestRowNorms:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), rows=st.integers(1, 30))
    def test_bits_of_norm_of_each_row(self, seed, n, rows):
        r = np.random.default_rng(seed).standard_normal((rows, n))
        got = row_norms(r)
        for row, norm in zip(r, got.tolist()):
            assert norm == float(np.linalg.norm(row))

    def test_overflow_is_inf(self):
        # quietly: a RuntimeWarning fails the test
        assert row_norms([[1e200, 0.0], [3.0, 4.0]]).tolist() == [np.inf, 5.0]


def one_fit(design, targets) -> LeastSquaresFit:
    """``least_squares`` of every row, as one fit rather than a stack of one."""
    design = np.asarray(design, dtype=float)
    coeffs, rank = least_squares(design, targets, [len(design)])
    return LeastSquaresFit(coeffs[0], int(rank[0]))


def reference_fit(design, targets):
    """numpy's ``lstsq`` on max-abs-scaled columns, at the kernel's rank
    cutoff: the coefficients in scaled units, the rank and the column scales."""
    scale = np.abs(design).max(axis=0)
    scale[scale == 0.0] = 1.0
    coeffs, _, rank, _ = np.linalg.lstsq(design / scale, targets, rcond=RANK_TOLERANCE)
    return coeffs, int(rank), scale


class TestLeastSquares:
    def test_exact_line(self):
        design = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
        fit = one_fit(design, [3.0, 5.0, 7.0])
        assert isinstance(fit, LeastSquaresFit)
        assert np.allclose(fit.coeffs, [2.0, 1.0], rtol=0, atol=1e-12)
        assert fit.rank == 2

    def test_overdetermined_residual(self):
        design = np.array([[1.0], [1.0], [1.0], [1.0]])
        fit = one_fit(design, [1.0, 2.0, 3.0, 4.0])
        assert np.allclose(fit.coeffs, [2.5], rtol=0, atol=1e-12)

    def test_collinear_columns_reported(self):
        design = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        fit = one_fit(design, [1.0, 2.0, 3.0])
        assert fit.rank == 1

    def test_rank_deficient_min_norm(self):
        # both columns identical: the min-norm fit splits the weight evenly
        design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fit = one_fit(design, [2.0, 4.0, 6.0])
        assert np.allclose(fit.coeffs, [1.0, 1.0], rtol=0, atol=1e-12)

    def test_normal_equations_hold(self):
        # residual must be orthogonal to the column space
        rng = np.random.default_rng(5)
        for _ in range(30):
            rows = int(rng.integers(3, 12))
            cols = int(rng.integers(1, min(rows, 5) + 1))
            design = rng.uniform(-3, 3, (rows, cols))
            y = rng.uniform(-3, 3, rows)
            fit = one_fit(design, y)
            gradient = design.T @ (design @ fit.coeffs - y)
            assert np.linalg.norm(gradient) <= 1e-8 * (1 + np.linalg.norm(y))

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="rows >= columns"):
            one_fit(np.ones((2, 3)), [1.0, 2.0])


class TestLeastSquaresSweep:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), columns=st.integers(1, 4), targets=st.integers(0, 2),
           deficient=st.booleans())
    def test_each_count_matches_least_squares(self, seed, columns, targets, deficient):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(columns, 40))
        design = rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(-200, 200, columns)
        if deficient:
            design[:, -1] = 3.0 * design[:, 0]
        y = rng.standard_normal((rows, targets) if targets else rows)
        counts = sorted(rng.integers(columns, rows + 1, int(rng.integers(1, 6))).tolist())
        sweep = least_squares(design, y, counts)
        assert sweep.rank.shape == (len(counts),)
        # later counts leave the first entry's bits as they are
        assert least_squares(design, y, counts[:1]).coeffs[0].tobytes() == sweep.coeffs[0].tobytes()
        for count, coeffs, rank in zip(counts, sweep.coeffs, sweep.rank):
            expected, want_rank, scale = reference_fit(design[:count], y[:count])
            assert rank == want_rank
            assert coeffs.shape == expected.shape
            # compared in the units of the scaled columns
            got = coeffs * (scale if coeffs.ndim == 1 else scale[:, None])
            assert np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())

    @pytest.mark.parametrize("counts", [[], [1], [3, 2], [4]])
    def test_counts_checked(self, counts):
        with pytest.raises(ValueError, match="counts"):
            least_squares(np.ones((3, 2)), np.ones(3), counts)

    def test_non_finite_rejected(self):
        design = np.ones((4, 1))
        design[2, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            least_squares(design, np.ones(4), [2, 4])
