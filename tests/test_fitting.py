import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill.control import impulse_weights
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
    roll_ar,
)


def roll_ar_by_reversed_zip(lags, intercepts, seeds, steps, controls=None):
    """Reference AR kernel: one loop over the steps, each zipping the
    coefficients with the reversed path and testing whether the step is
    controlled. ``roll_ar`` must give its bits."""
    rows = []
    for a, b, hist, u in zip(lags, intercepts, seeds, controls or [()] * len(seeds)):
        first = steps - len(u)
        path = list(hist)
        for t in range(steps):
            s = 0.0
            for aj, xj in zip(a, reversed(path)):
                s += aj * xj
            x = b + s
            if t >= first:
                x += u[t - first]
            path.append(x)
        rows.append(path[len(hist) :])
    return np.array(rows, dtype=float).reshape(len(rows), steps)


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

    def test_lagged_equations_must_align(self):
        with pytest.raises(DataError, match="lag rows and targets must align: 3 lag rows, 2 targets"):
            fit_ar_lagged([[1.0], [2.0], [3.0]], [2.0, 4.0])


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
        # 1-D pair rows are one-component rows too
        paired = fit_var_pairs([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert (paired.A.tobytes(), paired.b.tobytes()) == (m.A.tobytes(), m.b.tobytes())

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
        # a 1-D covariate is one covariate column
        single = fit_regression(2.0 * x[:, 0] - 1.0, x[:, 0])
        assert single.n_covariates == 1
        assert np.allclose(single.A, [[2.0]], rtol=0, atol=1e-9)
        assert single.b[0] == pytest.approx(-1.0, abs=1e-9)

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

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), paths=st.integers(1, 12),
           steps=st.integers(0, 25), controlled=st.integers(0, 25))
    def test_var_list_paths_are_rolled_as_if_alone(self, seed, dim, paths, steps, controlled):
        # one model per path, fitted (column-major) or given (row-major)
        rng = np.random.default_rng(seed)
        models = [fit_var1(rng.standard_normal((30, dim)).cumsum(axis=0)) if i % 2 else
                  VarModel(A=rng.uniform(-1.2, 1.2, (dim, dim)), b=rng.uniform(-1, 1, dim))
                  for i in range(paths)]
        seeds = rng.uniform(-5, 5, (paths, dim))
        controls = rng.standard_normal((paths, min(controlled, steps), dim))
        plain = predict_forward(models, seeds, steps)
        steered = predict_forward(models, seeds, steps, controls=controls)
        assert plain.shape == steered.shape == (paths, steps, dim)
        for i in range(paths):
            assert plain[i].tobytes() == predict_forward(models[i], seeds[i], steps).tobytes()
            alone = predict_forward(models[i], seeds[i], steps, controls=controls[i])
            assert steered[i].tobytes() == alone.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), outputs=st.integers(1, 3), inputs=st.integers(1, 3),
           paths=st.integers(1, 12), steps=st.integers(0, 25), extra=st.integers(0, 3),
           shared=st.booleans())
    def test_stacked_regression_paths_are_predicted_as_if_alone(self, seed, outputs, inputs, paths,
                                                                steps, extra, shared):
        # one model per path, fitted (column-major) or given (row-major), or one shared
        rng = np.random.default_rng(seed)
        models = [fit_regression(rng.standard_normal((30, outputs)), rng.standard_normal((30, inputs)))
                  if i % 2 else RegModel(A=rng.uniform(-2, 2, (outputs, inputs)),
                                         b=rng.uniform(-1, 1, outputs))
                  for i in range(paths)]
        if shared:
            models = models[:1] * paths
        covariates = rng.uniform(-5, 5, (paths, steps + extra, inputs))
        stacked = predict_forward(models[0] if shared else models, None, steps, covariates=covariates)
        assert stacked.shape == (paths, steps, outputs)
        for i in range(paths):
            alone = predict_forward(models[i], None, steps, covariates=covariates[i])
            assert stacked[i].tobytes() == alone.tobytes()

    def test_stacked_regression_models_must_match_the_paths(self):
        model = RegModel(A=[[2.0]], b=[1.0])
        with pytest.raises(ValueError, match="3 paths need one regression"):
            predict_forward([model, model], None, 2, covariates=np.ones((3, 2, 1)))
        with pytest.raises(ValueError, match="2 paths need one regression"):
            predict_forward([model, RegModel(A=[[1.0, 2.0]], b=[0.0])], None, 2,
                            covariates=np.ones((2, 2, 1)))
        with pytest.raises(DataError, match="missing covariate row: got 1 rows for 2"):
            predict_forward(model, None, 2, covariates=np.ones((4, 1, 1)))

    def test_unknown_model_is_type_error(self):
        with pytest.raises(TypeError, match="unknown model type str"):
            predict_forward("ar", [1.0], 2)

    def test_lag_sum_runs_left_to_right_on_every_python(self):
        # 2.15 + 0.13 - 0.3 rounds to 1.9799999999999998 left to right, while
        # Python 3.12's compensated sum() of floats gives 1.98
        path = predict_forward(ArModel(a=(-0.5, 0.1, -0.3), b=0.0), [1.0, 1.3, -4.3], 1)
        assert path.tolist() == [1.9799999999999998]

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 4), paths=st.integers(1, 12),
           steps=st.integers(0, 25), controlled=st.integers(0, 25), shared=st.booleans())
    def test_stacked_ar_paths_are_rolled_as_if_alone(self, seed, order, paths, steps, controlled,
                                                     shared):
        rng = np.random.default_rng(seed)
        models = [ArModel(a=rng.uniform(-1.2, 1.2, order), b=rng.uniform(-1, 1)) for _ in range(paths)]
        if shared:
            models = models[:1] * paths
        model = models[0] if shared else models
        seeds = rng.uniform(-5, 5, (paths, order + 2))
        controls = rng.standard_normal((paths, min(controlled, steps)))
        plain = predict_forward(model, seeds, steps)
        steered = predict_forward(model, seeds, steps, controls=controls)
        assert plain.shape == steered.shape == (paths, steps)
        for i in range(paths):
            assert plain[i].tobytes() == predict_forward(models[i], seeds[i], steps).tobytes()
            alone = predict_forward(models[i], seeds[i], steps, controls=controls[i])
            assert steered[i].tobytes() == alone.tobytes()

    def test_stacked_ar_models_must_match_the_paths(self):
        model = ArModel(a=(0.5,), b=0.0)
        with pytest.raises(ValueError, match="3 paths need one autoregression"):
            predict_forward([model, model], np.ones((3, 1)), 2)
        var = VarModel(A=[[0.5]], b=[0.0])
        with pytest.raises(ValueError, match="2 paths need one autoregression"):
            predict_forward([model, var], np.ones((2, 1)), 2)
        with pytest.raises(ValueError, match="2 paths need one VAR"):
            predict_forward([var, model], np.ones((2, 1)), 2)
        with pytest.raises(ValueError, match="3 paths need one VAR"):
            predict_forward([var, var], np.ones((3, 1)), 2)

    def test_controls_rejected_when_they_cannot_apply(self):
        with pytest.raises(ValueError, match="controls"):
            predict_forward(ArModel(a=(0.5,), b=0.0), [1.0], 1, controls=[1.0, 2.0])
        with pytest.raises(ValueError, match="controls"):
            predict_forward(RegModel(A=[[2.0]], b=[1.0]), None, 1, covariates=[[1.0]], controls=[1.0])


# moderate values, with -0.0 and subnormals among them, and a few that overflow
ROLL_VALUES = st.one_of(
    st.floats(-1.5, 1.5),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
)


class TestRollAr:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(data=st.data())
    def test_matches_the_reversed_zip_loop(self, data):
        paths = data.draw(st.integers(1, 6))
        steps = data.draw(st.integers(0, 40))
        controlled = data.draw(st.integers(0, steps))
        orders = data.draw(st.lists(st.integers(1, 8), min_size=paths, max_size=paths))
        lags = [tuple(data.draw(st.lists(ROLL_VALUES, min_size=p, max_size=p))) for p in orders]
        intercepts = data.draw(st.lists(ROLL_VALUES, min_size=paths, max_size=paths))
        seeds = [data.draw(st.lists(ROLL_VALUES, min_size=p, max_size=p + 3)) for p in orders]
        controls = data.draw(st.lists(st.lists(ROLL_VALUES, min_size=controlled, max_size=controlled),
                                      min_size=paths, max_size=paths))
        for u in (None, controls):
            got = roll_ar(lags, intercepts, seeds, steps, u)
            assert got.shape == (paths, steps)
            assert got.tobytes() == roll_ar_by_reversed_zip(lags, intercepts, seeds, steps, u).tobytes()

    def test_long_ar3_stack_matches_the_reversed_zip_loop(self):
        rng = np.random.default_rng(19)
        lags = [(0.6, -0.25, 0.3), (1.1, -0.5, 0.2)]
        intercepts = [0.4, -1.3]
        seeds = rng.uniform(-3, 3, (2, 3)).tolist()
        controls = rng.standard_normal((2, 598)).tolist()
        for u in (None, controls):
            got = roll_ar(lags, intercepts, seeds, 600, u)
            assert got.tobytes() == roll_ar_by_reversed_zip(lags, intercepts, seeds, 600, u).tobytes()

    def test_impulse_weights_match_the_reversed_zip_loop(self):
        a = (0.6, -0.25, 0.3)
        rolled = roll_ar_by_reversed_zip([a], [0.0], [[0.0, 0.0, 1.0]], 599)[0]
        expected = np.concatenate([[1.0], rolled])
        assert impulse_weights(ArModel(a=a, b=0.5), 600).tobytes() == expected.tobytes()

    def test_explosive_paths_overflow_to_inf_then_nan_alike(self):
        lags = [(1e10, -1e10), (3.0,)]
        seeds = [[1.0, 2.0], [1e300]]
        got = roll_ar(lags, [0.0, 1.0], seeds, 40, [[1.0] * 5, [-1e308] * 5])
        assert np.isinf(got).any() and np.isnan(got).any()
        expected = roll_ar_by_reversed_zip(lags, [0.0, 1.0], seeds, 40, [[1.0] * 5, [-1e308] * 5])
        assert got.tobytes() == expected.tobytes()

    def test_signed_zeros_and_subnormals_keep_their_bits(self):
        lags = [(-0.0, 5e-324), (5e-324, -0.0, 2.0**-1070)]
        intercepts = [-0.0, -5e-324]
        seeds = [[-0.0, -5e-324], [2.0**-1060, -0.0, -0.0]]
        for u in (None, [[-0.0] * 3, [-5e-324, -0.0, 5e-324]]):
            got = roll_ar(lags, intercepts, seeds, 6, u)
            assert got.tobytes() == roll_ar_by_reversed_zip(lags, intercepts, seeds, 6, u).tobytes()

    def test_too_few_seeds_names_the_path(self):
        with pytest.raises(ValueError, match="path 1 has 1 seeds for its order 2"):
            roll_ar([(0.5,), (0.5, 0.2)], [0.0, 0.0], [[1.0], [1.0]], 3)
        with pytest.raises(ValueError, match="path 0 has 0 seeds for its order 1"):
            roll_ar([(0.5,)], [0.0], [[]], 0)

    def test_more_controls_than_steps_is_value_error(self):
        with pytest.raises(ValueError, match="3 controls for 2 steps"):
            roll_ar([(0.5,)], [0.0], [[1.0]], 2, [[1.0, 2.0, 3.0]])
