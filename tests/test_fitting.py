import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill.errors import DataError, NumericalError
from gapfill.fitting import (
    ArModel,
    RegModel,
    VarModel,
    fit_ar_lagged,
    fit_ar_scalar,
    fit_regression,
    fit_var1,
    fit_var_pairs,
    predict_forward,
)


def normal_equation_coeffs(design, target):
    """Independent check: solve the normal equations directly."""
    gram = design.T @ design
    return np.linalg.solve(gram, design.T @ target)


class TestModels:
    def test_ar_model_order(self):
        m = ArModel(a=(0.5, 0.2), b=1.0)
        assert m.p == 2

    def test_ar_model_rejects_empty(self):
        with pytest.raises(ValueError):
            ArModel(a=(), b=0.0)

    def test_ar_model_rejects_nan(self):
        with pytest.raises(ValueError):
            ArModel(a=(float("nan"),), b=0.0)

    def test_var_model_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            VarModel(A=[[1.0, 2.0]], b=[0.0])

    def test_var_model_arrays_frozen(self):
        m = VarModel(A=np.eye(2), b=np.zeros(2))
        with pytest.raises(ValueError):
            m.A[0, 0] = 5.0

    def test_reg_model_shapes(self):
        m = RegModel(A=[[1.0, 2.0, 3.0]], b=[0.5])
        assert m.n_outputs == 1
        assert m.n_covariates == 3


class TestFitArScalar:
    def test_recovers_exact_ar1(self):
        # x_n = 0.5 x_{n-1} + 2 exactly, no noise
        x = [10.0]
        for _ in range(9):
            x.append(0.5 * x[-1] + 2.0)
        m = fit_ar_scalar(x, 1)
        assert m.a[0] == pytest.approx(0.5, abs=1e-10)
        assert m.b == pytest.approx(2.0, abs=1e-9)
        assert not m.rank_deficient

    def test_recovers_exact_ar2(self):
        x = [1.0, 2.0]
        for _ in range(10):
            x.append(0.6 * x[-1] - 0.3 * x[-2] + 1.0)
        m = fit_ar_scalar(x, 2)
        assert np.allclose(m.a, [0.6, -0.3], rtol=0, atol=1e-8)
        assert m.b == pytest.approx(1.0, abs=1e-8)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(2 * p + 1, 25))
            w = rng.uniform(-4, 4, n)
            m = fit_ar_scalar(w, p)
            design = np.column_stack(
                [w[p - 1 - j : n - 1 - j] for j in range(p)] + [np.ones(n - p)]
            )
            expected = normal_equation_coeffs(design, w[p:])
            assert np.allclose(list(m.a) + [m.b], expected, rtol=0, atol=1e-8)

    def test_window_too_short(self):
        with pytest.raises(DataError, match="fit window too short"):
            fit_ar_scalar([1.0, 2.0, 3.0, 4.0], 2)

    def test_minimum_window_accepted(self):
        fit_ar_scalar([1.0, 2.0, 3.0], 1)
        fit_ar_scalar([1.0, 2.0, 4.0, 3.0, 5.0], 2)

    def test_constant_window_is_rank_deficient(self):
        # lag column and intercept column collinear
        m = fit_ar_scalar([3.0] * 8, 1)
        assert m.rank_deficient

    def test_rank_deficiency_is_recorded_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = fit_ar_scalar([3.0] * 8, 1)
        assert m.rank_deficient
        assert m.rank == 1

    def test_bad_order(self):
        with pytest.raises(DataError, match="order"):
            fit_ar_scalar([1.0, 2.0, 3.0], 0)

    def test_lagged_equations_entry_point(self):
        m = fit_ar_lagged([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        assert m.a[0] == pytest.approx(2.0, abs=1e-10)
        assert m.b == pytest.approx(0.0, abs=1e-9)


def ar1_at_level(level: float, n: int = 200) -> np.ndarray:
    """A stationary AR(1) with phi = 0.6 and unit noise, shifted to ``level``."""
    rng = np.random.default_rng(23)
    y = np.empty(n)
    y[0] = rng.standard_normal()
    for t in range(1, n):
        y[t] = 0.6 * y[t - 1] + rng.standard_normal()
    return level + y


class TestRankOnScaledColumns:
    """The rank decision does not depend on the units of the data."""

    def test_alternating_window_full_rank_at_every_scale(self):
        for k in range(-300, 301, 100):
            s = 10.0**k
            window = [s * (-1.0) ** i for i in range(8)]
            m = fit_ar_scalar(window, 1)
            assert not m.rank_deficient, k
            assert m.a[0] == pytest.approx(-1.0, abs=1e-12), k
            assert abs(m.b) <= 1e-12 * s, k

    def test_level_does_not_change_the_fit(self):
        base = fit_ar_scalar(ar1_at_level(0.0), 1)
        for level in (1e3, 1e6, 1e9):
            shifted = fit_ar_scalar(ar1_at_level(level), 1)
            assert not shifted.rank_deficient, level
            assert shifted.a[0] == pytest.approx(base.a[0], abs=1e-6), level

    def test_multi_target_fit_matches_one_target_at_a_time(self):
        rng = np.random.default_rng(43)
        w = rng.standard_normal((30, 3)) * np.array([1e-3, 1.0, 1e4])
        joint = fit_var_pairs(w[:-1], w[1:])
        for i in range(3):
            single = fit_regression(w[1:, i], w[:-1])
            assert np.allclose(joint.A[i], single.A[0], rtol=1e-12, atol=0)
            assert joint.b[i] == pytest.approx(single.b[0], rel=1e-12)

    def test_unrepresentable_coefficients_are_numerical_error(self):
        # a subnormal column must be multiplied by ~1e310 to explain the
        # other column, which float64 cannot hold
        rng = np.random.default_rng(1)
        w = rng.standard_normal((40, 2)) * np.array([1.0, 1e-311])
        with pytest.raises(NumericalError, match="coefficients overflow"):
            fit_var1(w)


class TestFitVar1:
    def test_recovers_exact_system(self):
        a_true = np.array([[0.5, 0.1], [-0.2, 0.3]])
        b_true = np.array([1.0, -0.5])
        x = [np.array([2.0, 1.0])]
        for _ in range(8):
            x.append(a_true @ x[-1] + b_true)
        m = fit_var1(np.vstack(x))
        assert np.allclose(m.A, a_true, rtol=0, atol=1e-8)
        assert np.allclose(m.b, b_true, rtol=0, atol=1e-8)

    def test_matches_componentwise_normal_equations(self):
        rng = np.random.default_rng(29)
        w = rng.uniform(-3, 3, (12, 3))
        m = fit_var1(w)
        design = np.column_stack([w[:-1], np.ones(11)])
        for c in range(3):
            expected = normal_equation_coeffs(design, w[1:, c])
            assert np.allclose(list(m.A[c]) + [m.b[c]], expected, rtol=0, atol=1e-8)

    def test_window_too_short(self):
        with pytest.raises(DataError, match="fit window too short"):
            fit_var1(np.ones((3, 2)))

    def test_scalar_window_as_dim_one(self):
        m = fit_var1([1.0, 2.0, 3.0, 4.0])
        assert m.dim == 1
        assert m.A[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_pairs_entry_point_matches(self):
        rng = np.random.default_rng(31)
        w = rng.uniform(-3, 3, (9, 2))
        full = fit_var1(w)
        paired = fit_var_pairs(w[:-1], w[1:])
        assert np.allclose(full.A, paired.A, rtol=0, atol=1e-12)
        assert np.allclose(full.b, paired.b, rtol=0, atol=1e-12)


class TestFitRegression:
    def test_recovers_exact_relation(self):
        rng = np.random.default_rng(37)
        x = rng.uniform(-2, 2, (10, 2))
        y = x @ np.array([1.5, -0.5]) + 3.0
        m = fit_regression(y, x)
        assert np.allclose(m.A, [[1.5, -0.5]], rtol=0, atol=1e-9)
        assert m.b[0] == pytest.approx(3.0, abs=1e-9)

    def test_multi_output(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(-2, 2, (12, 2))
        a_true = np.array([[1.0, 0.0], [2.0, -1.0]])
        y = x @ a_true.T + np.array([0.5, -0.5])
        m = fit_regression(y, x)
        assert m.n_outputs == 2
        assert np.allclose(m.A, a_true, rtol=0, atol=1e-9)

    def test_misaligned_rows(self):
        with pytest.raises(DataError, match="align"):
            fit_regression([1.0, 2.0], np.ones((3, 1)))

    def test_window_too_short(self):
        with pytest.raises(DataError, match="fit window too short"):
            fit_regression([1.0, 2.0], np.ones((2, 2)))


class TestPredictForward:
    def test_ar1_path(self):
        m = ArModel(a=(0.5,), b=0.0)
        path = predict_forward(m, [16.0], 3)
        assert np.allclose(path, [8.0, 4.0, 2.0], rtol=0, atol=1e-14)

    def test_ar2_uses_two_seeds(self):
        m = ArModel(a=(1.0, 1.0), b=0.0)
        path = predict_forward(m, [1.0, 1.0], 4)
        assert np.array_equal(path, [2.0, 3.0, 5.0, 8.0])

    def test_extra_seeds_ignored(self):
        m = ArModel(a=(2.0,), b=0.0)
        assert np.array_equal(predict_forward(m, [9.0, 9.0, 3.0], 2), [6.0, 12.0])

    def test_too_few_seeds(self):
        m = ArModel(a=(0.5, 0.5), b=0.0)
        with pytest.raises(DataError, match="seed"):
            predict_forward(m, [1.0], 2)

    def test_var_path(self):
        m = VarModel(A=[[0.0, 1.0], [1.0, 0.0]], b=[1.0, 0.0])
        path = predict_forward(m, [2.0, 3.0], 2)
        assert np.array_equal(path[0], [4.0, 2.0])
        assert np.array_equal(path[1], [3.0, 4.0])

    def test_regression_needs_covariates(self):
        m = RegModel(A=[[1.0]], b=[0.0])
        with pytest.raises(DataError, match="covariate"):
            predict_forward(m, None, 2)

    def test_regression_pointwise(self):
        m = RegModel(A=[[2.0]], b=[1.0])
        out = predict_forward(m, None, 3, covariates=[[1.0], [2.0], [3.0]])
        assert np.array_equal(out[:, 0], [3.0, 5.0, 7.0])

    def test_regression_short_covariates(self):
        m = RegModel(A=[[2.0]], b=[1.0])
        with pytest.raises(DataError, match="covariate row"):
            predict_forward(m, None, 3, covariates=[[1.0]])

    def test_zero_steps(self):
        m = ArModel(a=(0.5,), b=0.0)
        assert predict_forward(m, [1.0], 0).size == 0

    def test_controls_act_on_the_last_steps(self):
        m = ArModel(a=(0.5,), b=0.0)
        assert np.array_equal(predict_forward(m, [16.0], 3, controls=[1.0, -2.0]), [8.0, 5.0, 0.5])
        v = VarModel(A=[[0.0, 1.0], [1.0, 0.0]], b=[1.0, 0.0])
        path = predict_forward(v, [2.0, 3.0], 2, controls=[[0.0, 1.0]])
        assert np.array_equal(path, [[4.0, 2.0], [3.0, 5.0]])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), paths=st.integers(1, 30),
           steps=st.integers(0, 25), controlled=st.integers(0, 25))
    def test_stacked_var_paths_are_rolled_as_if_alone(self, seed, dim, paths, steps, controlled):
        rng = np.random.default_rng(seed)
        model = VarModel(A=rng.uniform(-1.2, 1.2, (dim, dim)), b=rng.uniform(-1, 1, dim))
        seeds = rng.uniform(-5, 5, (paths, dim))
        controls = rng.standard_normal((paths, min(controlled, steps), dim))
        plain = predict_forward(model, seeds, steps)
        steered = predict_forward(model, seeds, steps, controls=controls)
        assert plain.shape == steered.shape == (paths, steps, dim)
        for i in range(paths):
            assert plain[i].tobytes() == predict_forward(model, seeds[i], steps).tobytes()
            alone = predict_forward(model, seeds[i], steps, controls=controls[i])
            assert steered[i].tobytes() == alone.tobytes()

    def test_controls_rejected_when_they_cannot_apply(self):
        with pytest.raises(ValueError, match="controls"):
            predict_forward(ArModel(a=(0.5,), b=0.0), [1.0], 1, controls=[1.0, 2.0])
        with pytest.raises(ValueError, match="controls"):
            predict_forward(RegModel(A=[[2.0]], b=[1.0]), None, 1, covariates=[[1.0]], controls=[1.0])
