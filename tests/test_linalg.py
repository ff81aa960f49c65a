import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gapfill.linalg import (
    LeastSquaresFit,
    SpdSolution,
    as_matrix,
    as_vector,
    least_squares,
    mat_pow_table,
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

    def test_as_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector([])

    def test_as_vector_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_vector([float("inf")])


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

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            mat_pow_table([[1, 2, 3], [4, 5, 6]], 2)

    def test_rejects_negative_kmax(self):
        with pytest.raises(ValueError):
            mat_pow_table(np.eye(2), -1)


class TestSolveSpd:
    def test_identity(self):
        sol = solve_spd(np.eye(3), [1.0, 2.0, 3.0])
        assert isinstance(sol, SpdSolution)
        assert not sol.fallback
        assert np.array_equal(sol.x, [1.0, 2.0, 3.0])

    def test_small_spd(self):
        # [[2,1],[1,2]] x = (3,3) -> x = (1,1)
        sol = solve_spd([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
        assert np.allclose(sol.x, [1.0, 1.0], rtol=0, atol=1e-14)
        assert not sol.fallback

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd([[1.0, 2.0], [0.0, 1.0]], [1.0, 1.0])

    def test_singular_falls_back_to_min_norm(self):
        sol = solve_spd([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0])
        assert sol.fallback
        # minimum-norm solution of the consistent singular system
        assert np.allclose(sol.x, [1.0, 1.0], rtol=0, atol=1e-10)

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = rng.uniform(-1, 1, (n, n))
            g = m.T @ m + 0.1 * np.eye(n)
            x_true = rng.uniform(-2, 2, n)
            sol = solve_spd(g, g @ x_true)
            assert not sol.fallback
            assert np.allclose(sol.x, x_true, rtol=0, atol=1e-9)

    def test_deterministic_bits(self):
        g = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        b = np.array([1.0, 2.0, 3.0])
        first = solve_spd(g, b).x
        second = solve_spd(g, b).x
        assert first.tobytes() == second.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_spd(np.eye(2), [1.0, 2.0, 3.0])

    def test_gram_above_identity_with_wide_diagonal(self):
        # the 60-step control Gram matrix sum_j A^j (A^j)^T of an explosive A
        # is >= I, so positive definite, although its diagonal spans ~1e21
        a = np.array([[1.5, 0.33], [0.0, 0.49]])
        powers = np.array(mat_pow_table(a, 59))
        g = np.sum(powers @ powers.transpose(0, 2, 1), axis=0)
        assert 1e20 < g[0, 0] / g[1, 1] < 1e22
        b = np.array([1.0, 1.0])
        sol = solve_spd(g, b)
        assert not sol.fallback
        assert np.linalg.norm(g @ sol.x - b) <= 1e-8 * (1.0 + np.linalg.norm(b))

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
        sol = solve_spd(g, b)
        assert not sol.fallback
        expected = scipy.linalg.solve(g, b, assume_a="pos")
        np.testing.assert_allclose(sol.x, expected, rtol=1e-7, atol=1e-9 * (1.0 + np.abs(expected).max()))


class TestLeastSquares:
    def test_exact_line(self):
        design = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
        fit = least_squares(design, [3.0, 5.0, 7.0])
        assert isinstance(fit, LeastSquaresFit)
        assert np.allclose(fit.coeffs, [2.0, 1.0], rtol=0, atol=1e-12)
        assert fit.rank == 2
        assert fit.residual_norm < 1e-12

    def test_overdetermined_residual(self):
        design = np.array([[1.0], [1.0], [1.0], [1.0]])
        fit = least_squares(design, [1.0, 2.0, 3.0, 4.0])
        assert np.allclose(fit.coeffs, [2.5], rtol=0, atol=1e-12)
        assert fit.residual_norm == pytest.approx(np.sqrt(5.0), abs=1e-12)

    def test_collinear_columns_reported(self):
        design = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        fit = least_squares(design, [1.0, 2.0, 3.0])
        assert fit.rank == 1

    def test_rank_deficient_min_norm(self):
        # both columns identical: the min-norm fit splits the weight evenly
        design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fit = least_squares(design, [2.0, 4.0, 6.0])
        assert np.allclose(fit.coeffs, [1.0, 1.0], rtol=0, atol=1e-12)

    def test_normal_equations_hold(self):
        # residual must be orthogonal to the column space
        rng = np.random.default_rng(5)
        for _ in range(30):
            rows = int(rng.integers(3, 12))
            cols = int(rng.integers(1, min(rows, 5) + 1))
            design = rng.uniform(-3, 3, (rows, cols))
            y = rng.uniform(-3, 3, rows)
            fit = least_squares(design, y)
            gradient = design.T @ (design @ fit.coeffs - y)
            assert np.linalg.norm(gradient) <= 1e-8 * (1 + np.linalg.norm(y))

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="rows >= columns"):
            least_squares(np.ones((2, 3)), [1.0, 2.0])
