import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill.control import (
    GapStack,
    _summaries,
    gamma_weights,
    impulse_weights,
    impute_gap_ar,
    impute_gap_regression,
    impute_gap_var,
    impute_gaps,
    impute_stacks,
    solve_controls,
    stack_solutions,
)
from gapfill.errors import DataError, NumericalError
from gapfill.fitting import ArModel, Models, RegModel, VarModel, predict_forward
from gapfill.linalg import mat_pow_table
from gapfill.pipeline import ImputeOptions, _certify_batch
from gapfill.series import GapSegment, Series, detect_gaps
from gapfill.weights import printed_weights


def single_gap(values, order=1):
    _, gaps = detect_gaps(Series.from_values(values), order)
    assert len(gaps) == 1
    return gaps[0]


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def numpy_scalar_impulse_weights(model: ArModel, length: int) -> np.ndarray:
    """Reference: the weight recursion on numpy scalars, stored as it goes,
    each lag sum taken left to right from 0.0."""
    w = np.empty(length)
    w[0] = 1.0
    for j in range(1, length):
        total = 0.0
        for i in range(1, min(j, model.p) + 1):
            total += model.a[i - 1] * w[j - i]
        w[j] = total
    return w


def gamma_weights_by_loop(model: ArModel, length: int) -> np.ndarray:
    """Reference for the printed recurrence: one model's p components as the
    rows of a table, filled step by step and summed per step with numpy;
    NumericalError at the first weight past 1e150."""
    p, a = model.p, model.a
    gamma = np.empty(length)
    gamma[0] = 1.0
    alpha = np.zeros((length, p))
    for k in range(min(p, length)):
        alpha[k, k] = 1.0
    for n in range(1, length):
        if p == 1:
            gamma[n] = a[0] * gamma[n - 1]
        else:
            for k in range(1, min(n, p) + 1):
                alpha[n, k - 1] = a[k - 1] * gamma[n - k] + (1.0 if k == p else 0.0)
            gamma[n] = alpha[n].sum()
        if abs(gamma[n]) > 1e150:
            raise NumericalError(f"weight overflow at step {n}:")
    return gamma


# coefficients of the printed recurrence: moderate, or -0.0, subnormal or huge
PRINTED_COEFFS = st.one_of(
    st.floats(-1.5, 1.5),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e300, -1e300]),
)


def loop_fill_ar(model: ArModel, seeds, controls, total: int) -> np.ndarray:
    """Reference: the scalar fill with zero controls before the first control step."""
    p = model.p
    hist = [float(v) for v in seeds[-p:]]
    first = total - len(controls)
    values = np.empty(total)
    for t in range(total):
        u = controls[t - first] if t >= first else 0.0
        lags = 0.0
        for j in range(p):
            lags += model.a[j] * hist[-1 - j]
        values[t] = model.b + lags + u
        hist.append(values[t])
    return values


def loop_fill_var(model: VarModel, seed, controls) -> np.ndarray:
    """Reference: the vector fill with one control on every step."""
    state = np.asarray(seed, dtype=float)
    values = np.empty((len(controls), model.dim))
    for t in range(len(controls)):
        state = model.A @ state + model.b + controls[t]
        values[t] = state
    return values


def step_norms_per_gap(powers: np.ndarray, delta: np.ndarray, controls: np.ndarray) -> dict:
    """Reference: paper-mode diagnostics of one VAR gap as they were once
    written, the printed per-step norm formula beside the exact norms of the
    controls. ``max_step_norm_difference`` must be the largest difference of
    the two lists, bit for bit."""
    column_sums = powers.sum(axis=1)
    column_sum_square = float(np.cumsum(np.sum(column_sums**2, axis=1))[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        length = float(np.linalg.norm(delta))
        if not np.isfinite(length):
            peak = float(np.abs(delta).max())
            length = peak * float(np.linalg.norm(delta / peak))
        scale = length / column_sum_square
        exact = np.linalg.norm(controls, axis=1)
    assert np.isfinite(scale) and np.isfinite(exact).all()
    return {
        "step_norm_formula": (scale * powers[::-1].sum(axis=(1, 2))).tolist(),
        "step_norm_exact": exact.tolist(),
    }


def largest_step_norm_difference(model: VarModel, solution, anchor) -> float:
    """``step_norms_per_gap``'s largest difference for one solved gap."""
    powers = mat_pow_table(model.A, len(solution.control_indices) - 1)
    delta = np.asarray(anchor, dtype=float) - solution.predicted[-1]
    norms = step_norms_per_gap(powers, delta, solution.controls)
    return max(abs(f - e) for f, e in zip(norms["step_norm_formula"], norms["step_norm_exact"]))


def simulated_endpoint_effect(coeffs, steps, kick):
    """Independent unit-kick simulation of the recursion for cross-checking weights."""
    p = len(coeffs)
    hist = [0.0] * p
    for t in range(steps):
        x = 0.0
        for j in range(p):
            x += coeffs[j] * hist[-1 - j]
        if t == kick:
            x += 1.0
        hist.append(x)
    return hist[-1]


class TestImpulseWeights:
    def test_order_one_geometric(self):
        w = impulse_weights(ArModel(a=(0.5,), b=0.0), 5)
        assert np.allclose(w, [1.0, 0.5, 0.25, 0.125, 0.0625], rtol=0, atol=0)

    def test_fibonacci_for_unit_pair(self):
        w = impulse_weights(ArModel(a=(1.0, 1.0), b=0.0), 6)
        assert np.array_equal(w, [1.0, 1.0, 2.0, 3.0, 5.0, 8.0])

    def test_matches_unit_kick_simulation(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            p = int(rng.integers(1, 4))
            coeffs = tuple(rng.uniform(-1.1, 1.1, p))
            length = int(rng.integers(1, 9))
            w = impulse_weights(ArModel(a=coeffs, b=0.0), length)
            for j in range(length):
                # a kick j steps before the end acts through w[j]
                effect = simulated_endpoint_effect(coeffs, length, length - 1 - j)
                assert w[j] == pytest.approx(effect, abs=1e-12)

    def test_intercept_does_not_matter(self):
        with_b = impulse_weights(ArModel(a=(0.7, -0.2), b=5.0), 6)
        without_b = impulse_weights(ArModel(a=(0.7, -0.2), b=0.0), 6)
        assert np.array_equal(with_b, without_b)

    def test_overflow_guard(self):
        with pytest.raises(NumericalError, match="overflow"):
            impulse_weights(ArModel(a=(10.0,), b=0.0), 200)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            impulse_weights(ArModel(a=(0.5,), b=0.0), 0)

    @PROPERTY
    @given(
        a=st.lists(st.floats(-1.4, 1.4, allow_nan=False), min_size=1, max_size=4),
        length=st.integers(1, 80),
    )
    def test_bit_identical_to_numpy_scalar_recursion(self, a, length):
        model = ArModel(a=tuple(a), b=0.0)
        got = impulse_weights(model, length)
        assert got.dtype == np.float64
        assert got.tobytes() == numpy_scalar_impulse_weights(model, length).tobytes()


class TestGammaWeights:
    def test_order_one_is_plain_powers(self):
        m = ArModel(a=(0.5,), b=0.0)
        assert np.array_equal(gamma_weights(m, 4), impulse_weights(m, 4))

    def test_unit_pair_table(self):
        g = gamma_weights(ArModel(a=(1.0, 1.0), b=0.0), 5)
        assert np.array_equal(g, [1.0, 2.0, 4.0, 7.0, 12.0])

    def test_zero_coefficients_give_ones(self):
        g = gamma_weights(ArModel(a=(0.0, 0.0), b=0.0), 4)
        assert np.array_equal(g, [1.0, 1.0, 1.0, 1.0])

    def test_matches_printed_two_component_recurrence(self):
        # independent restatement for order 2: alpha follows a_1 * gamma one
        # step back, beta follows a_2 * gamma two steps back plus a unit feed
        rng = np.random.default_rng(47)
        for _ in range(20):
            a1, a2 = rng.uniform(-1.2, 1.2, 2)
            length = int(rng.integers(1, 10))
            gamma = gamma_weights(ArModel(a=(a1, a2), b=0.0), length)
            alpha, beta = [1.0], [0.0]
            expected = [alpha[0] + beta[0]]
            for n in range(1, length):
                alpha.append(a1 * expected[n - 1])
                beta.append(1.0 if n == 1 else a2 * expected[n - 2] + 1.0)
                expected.append(alpha[n] + beta[n])
            assert np.allclose(gamma, expected, rtol=0, atol=1e-12)

    def test_running_sum_identity(self):
        # for order >= 2 the printed weights are the running sums of the
        # impulse weights (the unit feed accumulates them); order 1 has no
        # feed and coincides with the impulse weights instead
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = int(rng.integers(2, 4))
            m = ArModel(a=tuple(rng.uniform(-1.1, 1.1, p)), b=0.0)
            length = int(rng.integers(1, 10))
            gamma = gamma_weights(m, length)
            psi = impulse_weights(m, length)
            assert np.allclose(gamma, np.cumsum(psi), rtol=0, atol=1e-9)

    def test_overflow_guard(self):
        with pytest.raises(NumericalError, match="overflow"):
            gamma_weights(ArModel(a=(9.0, 9.0), b=0.0), 200)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_stack_rows_are_each_model_s_weights(self, data):
        # one recurrence over a stack gives each row the bits of its model's
        # own weights, zero past its length, or the first failing row's error
        order, g = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 20))
        models = [ArModel(a=tuple(data.draw(st.lists(PRINTED_COEFFS, min_size=order, max_size=order))),
                          b=0.0) for _ in range(g)]
        lengths = data.draw(st.lists(st.integers(1, 30), min_size=g, max_size=g))
        expected, error = np.zeros((g, max(lengths))), None
        for row, model, n in zip(expected, models, lengths):
            try:
                row[:n] = gamma_weights_by_loop(model, n)
            except NumericalError as failure:
                error = str(failure)
                break

        def bits_or_error(weights, model, n):
            try:
                return weights(model, n).tobytes()
            except NumericalError as failure:
                return str(failure).split(":")[0]

        for model, n in zip(models, lengths):
            assert bits_or_error(gamma_weights, model, n) == bits_or_error(gamma_weights_by_loop, model, n)
        if error is None:
            assert printed_weights(Models.of(models), lengths).tobytes() == expected.tobytes()
        else:
            with pytest.raises(NumericalError, match=error):
                printed_weights(Models.of(models), lengths)


class TestSolveControlsScalar:
    def test_zero_offset_gives_zero_controls(self):
        (c,), controls = solve_controls([1.0, 0.5], 0.0)
        assert c == 0.0
        assert np.array_equal(controls[:, 0], [0.0, 0.0])

    def test_unit_weights_spread_evenly(self):
        (c,), controls = solve_controls([1.0, 1.0, 1.0, 1.0], 2.0)
        assert c == pytest.approx(0.5)
        assert np.allclose(controls[:, 0], [0.5, 0.5, 0.5, 0.5], rtol=0, atol=0)

    def test_geometric_case(self):
        # weights (1, 1/2, 1/4), delta -2: c = -2 / (21/16) = -32/21
        (c,), controls = solve_controls([1.0, 0.5, 0.25], -2.0)
        assert c == pytest.approx(-32.0 / 21.0, abs=1e-15)
        assert np.allclose(
            controls[:, 0], [-8.0 / 21.0, -16.0 / 21.0, -32.0 / 21.0], rtol=0, atol=1e-15
        )

    def test_constraint_met(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            w = np.append(1.0, rng.uniform(-2, 2, int(rng.integers(0, 7))))
            delta = float(rng.uniform(-5, 5))
            _, controls = solve_controls(w, delta)
            assert float(w[::-1] @ controls[:, 0]) == pytest.approx(delta, abs=1e-9)

    def test_first_block_must_be_identity(self):
        # the response to a control on the anchor step itself is 1; weights
        # that do not start there describe no model, and could all be zero
        for weights in ([0.0, 0.0], [2.0, 1.0], [0.5]):
            with pytest.raises(ValueError, match="identity"):
                solve_controls(weights, 1.0)


class TestImputeGapAr:
    def test_unit_coefficient_interpolates_linearly(self):
        gap = single_gap([5.0, None, None, 8.0])
        sol = impute_gap_ar(ArModel(a=(1.0,), b=0.0), gap, [5.0], 8.0)
        assert np.allclose(sol.imputed, [6.0, 7.0], rtol=0, atol=1e-12)
        assert sol.terminal_residual <= 1e-12

    def test_frozen_half_decay_case(self):
        gap = single_gap([16.0, None, None, 0.0])
        sol = impute_gap_ar(ArModel(a=(0.5,), b=0.0), gap, [16.0], 0.0)
        assert sol.multiplier == pytest.approx(-32.0 / 21.0, abs=1e-15)
        assert np.allclose(sol.imputed, [160.0 / 21.0, 64.0 / 21.0], rtol=0, atol=1e-12)
        assert np.allclose(
            sol.controls, [-8.0 / 21.0, -16.0 / 21.0, -32.0 / 21.0], rtol=0, atol=1e-14
        )
        assert sol.objective == pytest.approx(64.0 / 21.0, abs=1e-14)
        assert sol.control_indices == range(2, 5)

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    def test_shared_impulse_gives_the_fill_of_each_gap_alone(self, mode):
        # gaps of 5 and 2 rows under one AR(2) share its impulse response
        model = ArModel(a=(0.6, -0.3), b=0.4)
        series = Series.from_values([1.0, 2.0, 0.5] + [None] * 5 + [1.5, 0.2] + [None] * 2 + [0.7])
        _, gaps = detect_gaps(series, 2)
        seeds = [series.data[gap.gap_start - 3 : gap.gap_start - 1, 0] for gap in gaps]
        anchors = [float(gap.anchor_value[0]) for gap in gaps]
        together = impute_gaps(model, gaps, seeds, anchors, mode)
        assert len(together) == len(gaps) == 2
        for gap, seed, anchor, shared in zip(gaps, seeds, anchors, together):
            alone = impute_gap_ar(model, gap, seed, anchor, mode)
            assert shared.imputed.tobytes() == alone.imputed.tobytes()
            assert shared.controls.tobytes() == alone.controls.tobytes()
            assert shared.diagnostics == alone.diagnostics

    def test_anchor_on_forecast_needs_no_controls(self):
        m = ArModel(a=(0.5,), b=1.0)
        forecast = predict_forward(m, [4.0], 3)
        gap = single_gap([4.0, None, None, float(forecast[-1])])
        sol = impute_gap_ar(m, gap, [4.0], float(forecast[-1]))
        assert np.allclose(sol.controls, 0.0, rtol=0, atol=1e-12)
        assert np.allclose(sol.imputed, forecast[:2], rtol=0, atol=1e-12)

    def test_order_two_first_value_uncorrected(self):
        m = ArModel(a=(0.4, 0.3), b=0.2)
        gap = single_gap([1.0, 2.0, None, None, None, 9.0], order=2)
        sol = impute_gap_ar(m, gap, [1.0, 2.0], 9.0)
        # controls start at the second gap position
        assert sol.control_indices == range(4, 7)
        assert sol.imputed[0] == pytest.approx(sol.predicted[0], abs=0.0)
        assert sol.terminal_residual <= 1e-9 * (1 + 9.0)

    def test_terminal_feasibility_random(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            p = int(rng.integers(1, 4))
            m = ArModel(a=tuple(rng.uniform(-1.1, 1.1, p)), b=float(rng.uniform(-1, 1)))
            gap_len = int(rng.integers(max(1, p - 1), 9))
            seeds = rng.uniform(-5, 5, p)
            anchor = float(rng.uniform(-5, 5))
            gap = single_gap(list(seeds) + [None] * gap_len + [anchor], order=p)
            sol = impute_gap_ar(m, gap, seeds, anchor)
            assert sol.terminal_residual <= 1e-9 * (1 + abs(anchor))

    def test_paper_mode_order_one_equals_exact(self):
        gap = single_gap([16.0, None, None, 0.0])
        exact = impute_gap_ar(ArModel(a=(0.5,), b=0.0), gap, [16.0], 0.0, mode="exact")
        printed = impute_gap_ar(ArModel(a=(0.5,), b=0.0), gap, [16.0], 0.0, mode="paper")
        assert np.array_equal(exact.imputed, printed.imputed)
        assert printed.diagnostics["max_weight_difference"] == 0.0

    def test_paper_mode_order_two_reports_residual(self):
        m = ArModel(a=(0.5, 0.3), b=0.1)
        gap = single_gap([1.0, 2.0, None, None, None, 4.0], order=2)
        sol = impute_gap_ar(m, gap, [1.0, 2.0], 4.0, mode="paper")
        assert sol.mode == "paper"
        assert np.isfinite(sol.terminal_residual)
        # the printed weights genuinely differ from the impulse weights here
        assert sol.diagnostics["max_weight_difference"] > 0.1
        assert sol.terminal_residual > 1e-6

    def test_gap_shorter_than_order_unreachable(self):
        gap = single_gap([1.0, 2.0, 3.0, None, 5.0], order=3)
        with pytest.raises(NumericalError, match="unreachable"):
            impute_gap_ar(ArModel(a=(0.1, 0.1, 0.1), b=0.0), gap, [1.0, 2.0, 3.0], 5.0)

    def test_optimality_against_feasible_perturbations(self):
        # any other control sequence meeting the constraint costs at least as much
        rng = np.random.default_rng(67)
        m = ArModel(a=(0.8,), b=0.0)
        gap = single_gap([3.0, None, None, None, -1.0])
        sol = impute_gap_ar(m, gap, [3.0], -1.0)
        w = impulse_weights(m, len(sol.controls))[::-1]
        for _ in range(50):
            perturbation = rng.uniform(-1, 1, w.size)
            # project the perturbation onto the constraint's null space
            perturbation -= (w @ perturbation) / (w @ w) * w
            alternative = sol.controls + perturbation
            assert float(alternative @ alternative) >= sol.objective - 1e-12

    @PROPERTY
    @given(
        a=st.lists(st.floats(-1.4, 1.4, allow_nan=False), min_size=1, max_size=3),
        b=st.floats(-1.0, 1.0),
        seeds=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
        anchor=st.floats(-5.0, 5.0),
        gap_length=st.integers(2, 40),
        mode=st.sampled_from(["exact", "paper"]),
    )
    def test_fill_bit_identical_to_loop(self, a, b, seeds, anchor, gap_length, mode):
        model = ArModel(a=tuple(a), b=b)
        seeds = seeds[: model.p]
        gap = single_gap(seeds + [None] * gap_length + [anchor], order=model.p)
        sol = impute_gap_ar(model, gap, seeds, anchor, mode)
        expected = loop_fill_ar(model, seeds, sol.controls, gap_length + 1)
        assert sol.imputed.tobytes() == expected[:gap_length].tobytes()
        assert sol.terminal_residual == abs(expected[-1] - anchor)


class TestSolveControlsVar:
    def test_identity_dynamics_spread_evenly(self):
        powers = [np.eye(2), np.eye(2), np.eye(2)]
        lam, controls = solve_controls(powers, [3.0, -3.0])
        assert np.allclose(lam, [1.0, -1.0], rtol=0, atol=1e-14)
        for u in controls:
            assert np.allclose(u, [1.0, -1.0], rtol=0, atol=1e-14)

    def test_diagonal_two_step_case(self):
        a = np.array([[0.5, 0.0], [0.0, 2.0]])
        lam, controls = solve_controls([np.eye(2), a], [1.0, 1.0])
        assert np.allclose(lam, [0.8, 0.2], rtol=0, atol=1e-14)
        assert np.allclose(controls[0], [0.4, 0.4], rtol=0, atol=1e-14)
        assert np.allclose(controls[1], [0.8, 0.2], rtol=0, atol=1e-14)

    def test_constraint_met_random(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            a = rng.uniform(-0.9, 0.9, (k, k))
            m = int(rng.integers(1, 7))
            powers = [np.linalg.matrix_power(a, j) for j in range(m)]
            delta = rng.uniform(-3, 3, k)
            _, controls = solve_controls(powers, delta)
            attained = sum(powers[m - 1 - i] @ controls[i] for i in range(m))
            assert np.allclose(attained, delta, rtol=0, atol=1e-8)

    def test_matches_step_loop(self):
        # reference: the Gram matrix and the controls accumulated one step at a time
        rng = np.random.default_rng(79)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 25))
            powers = mat_pow_table(rng.uniform(-0.7, 0.7, (k, k)), m - 1)
            delta = rng.uniform(-3, 3, k)
            gram = np.zeros((k, k))
            for q in powers:
                gram += q @ q.T
            lam_ref = np.linalg.solve(gram, delta)
            controls_ref = np.array([powers[m - 1 - i].T @ lam_ref for i in range(m)])
            lam, controls = solve_controls(powers, delta)
            np.testing.assert_allclose(lam, lam_ref, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(controls, controls_ref, rtol=1e-9, atol=1e-12)

    def test_power_zero_must_be_identity(self):
        # a table that does not start at A^0 = I is not a power table
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="identity"):
            solve_controls([a], [1.0, 0.0])
        with pytest.raises(ValueError, match="identity"):
            solve_controls([2.0 * np.eye(2), a], [1.0, 0.0])

    @pytest.mark.parametrize("steps", [40, 70])
    def test_ill_conditioned_gram_raises(self, steps):
        # eigenvalue 1.5 along a rotated axis: the Gram matrix spans 1.5^(2 steps),
        # past what a float64 solve can resolve against its identity term
        c, s = np.cos(0.3), np.sin(0.3)
        r = np.array([[c, -s], [s, c]])
        powers = mat_pow_table(r @ np.diag([1.5, 0.5]) @ r.T, steps - 1)
        with pytest.raises(NumericalError, match="ill-conditioned control problem"):
            solve_controls(powers, [1.0, 1.0])


class TestImputeGapVar:
    def test_dimension_one_matches_scalar_path(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            a = float(rng.uniform(-1.1, 1.1))
            b = float(rng.uniform(-1, 1))
            gap_len = int(rng.integers(1, 7))
            seed = float(rng.uniform(-4, 4))
            anchor = float(rng.uniform(-4, 4))
            values = [seed] + [None] * gap_len + [anchor]
            gap = single_gap(values)
            scalar = impute_gap_ar(ArModel(a=(a,), b=b), gap, [seed], anchor)
            vector = impute_gap_var(VarModel(A=[[a]], b=[b]), gap, [seed], [anchor])
            assert np.allclose(vector.imputed[:, 0], scalar.imputed, rtol=0, atol=1e-10)
            assert vector.objective == pytest.approx(scalar.objective, abs=1e-10)

    def test_terminal_feasibility_random(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            k = int(rng.integers(2, 4))
            model = VarModel(A=rng.uniform(-0.9, 0.9, (k, k)), b=rng.uniform(-1, 1, k))
            gap_len = int(rng.integers(1, 8))
            seed = rng.uniform(-5, 5, k)
            anchor = rng.uniform(-5, 5, k)
            gap = single_gap([seed] + [None] * gap_len + [anchor])
            sol = impute_gap_var(model, gap, seed, anchor)
            assert sol.terminal_residual <= 1e-9 * (1 + np.linalg.norm(anchor))

    def test_paper_mode_values_identical_with_norm_diagnostics(self):
        model = VarModel(A=[[0.5, 0.1], [-0.3, 0.4]], b=[0.2, -0.1])
        seed = np.array([1.0, 2.0])
        anchor = np.array([3.0, -1.0])
        gap = single_gap([seed, None, None, anchor])
        exact = impute_gap_var(model, gap, seed, anchor, mode="exact")
        printed = impute_gap_var(model, gap, seed, anchor, mode="paper")
        assert np.array_equal(exact.imputed, printed.imputed)
        norms = step_norms_per_gap(mat_pow_table(model.A, 2), anchor - printed.predicted[-1],
                                   printed.controls)
        assert norms["step_norm_exact"] == [float(np.linalg.norm(u)) for u in printed.controls]
        # the printed formula evaluated step by step
        powers = [np.linalg.matrix_power(model.A, j) for j in range(3)]
        column_sum_square = sum(float(np.sum(q.sum(axis=0) ** 2)) for q in powers)
        scale = float(np.linalg.norm(anchor - exact.predicted[-1])) / column_sum_square
        expected = [scale * float(powers[2 - i].sum()) for i in range(3)]
        np.testing.assert_allclose(norms["step_norm_formula"], expected, rtol=1e-14, atol=0)
        difference = max(abs(f - e) for f, e in zip(norms["step_norm_formula"], norms["step_norm_exact"]))
        assert printed.diagnostics == {"max_step_norm_difference": difference}
        assert difference > 0.01

    @pytest.mark.parametrize("a, seed, anchor", [
        ([[2.0]], [1.0], [1e160]),
        ([[2.0, 0.0], [0.0, 0.5]], [1.0, 2.0], [1e160, 3.0]),
    ], ids=["one_column", "diagonal"])
    def test_paper_mode_fills_an_offset_too_large_to_square(self, a, seed, anchor):
        # diagonal blocks make the solve a division, so an offset of 1e160
        # fills in exact mode; its printed-formula norm must not overflow either
        model = VarModel(A=a, b=[0.0] * len(seed))
        gap = GapSegment(2, 25, (1,), 26, None)
        exact = impute_gap_var(model, gap, seed, anchor, mode="exact")
        printed = impute_gap_var(model, gap, seed, anchor, mode="paper")
        assert np.isfinite(exact.objective)
        assert exact.imputed.tobytes() == printed.imputed.tobytes()
        assert exact.controls.tobytes() == printed.controls.tobytes()
        difference = printed.diagnostics["max_step_norm_difference"]
        assert np.isfinite(difference)
        assert difference == largest_step_norm_difference(model, printed, anchor)

    def test_zero_offset_keeps_forecast(self):
        model = VarModel(A=[[0.3, 0.0], [0.0, 0.3]], b=[1.0, -1.0])
        seed = np.array([1.0, 1.0])
        forecast = predict_forward(model, seed, 3)
        gap = single_gap([seed, None, None, forecast[-1]])
        sol = impute_gap_var(model, gap, seed, forecast[-1])
        assert np.allclose(sol.controls, 0.0, rtol=0, atol=1e-12)
        assert np.allclose(sol.imputed, forecast[:2], rtol=0, atol=1e-12)

    def test_bad_seed_and_anchor_reported_for_the_one_gap(self):
        model = VarModel(A=[[0.5, 0.1], [-0.3, 0.4]], b=[0.2, -0.1])
        seed = np.array([1.0, 2.0])
        gap = single_gap([seed, None, None, [3.0, -1.0]])
        with pytest.raises(DataError, match=r"seed must have 2 components, got shape \(3,\)"):
            impute_gap_var(model, gap, [1.0, 2.0, 3.0], [3.0, -1.0])
        with pytest.raises(ValueError, match="vector entries must be finite"):
            impute_gap_var(model, gap, seed, [3.0, np.nan])
        with pytest.raises(ValueError, match=r"expected a 1-D vector, got shape \(1, 2\)"):
            impute_gap_var(model, gap, seed, [[3.0, -1.0]])
        with pytest.raises(ValueError, match="anchor has 3 components, expected 2"):
            impute_gap_var(model, gap, seed, [3.0, -1.0, 0.0])

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), gap_length=st.integers(1, 30))
    def test_fill_bit_identical_to_loop(self, seed, dim, gap_length):
        rng = np.random.default_rng(seed)
        model = VarModel(A=rng.uniform(-0.9, 0.9, (dim, dim)), b=rng.uniform(-1, 1, dim))
        start, anchor = rng.uniform(-5, 5, dim), rng.uniform(-5, 5, dim)
        gap = single_gap([start] + [None] * gap_length + [anchor])
        sol = impute_gap_var(model, gap, start, anchor)
        expected = loop_fill_var(model, start, sol.controls)
        assert sol.imputed.tobytes() == expected[:gap_length].tobytes()
        assert sol.terminal_residual == float(np.linalg.norm(expected[-1] - anchor))


class TestStackedSolutions:
    """A stack of fills is checked and assembled at once, and each gets the
    objective and residual it would get alone."""

    @staticmethod
    def solve(gaps, controls, paths, targets):
        g = len(gaps)
        starts = np.array([gap.gap_start for gap in gaps])
        counts = np.array([gap.anchor_index + 1 - gap.gap_start for gap in gaps])
        # the controls, fills and forecasts are one row per step, one gap after another
        rows = lambda values: values.reshape((-1,) + values.shape[2:])
        objectives, residuals = _summaries(starts, counts, 0, rows(controls), rows(paths[:, :-1]),
                                           paths[:, -1], targets)
        return stack_solutions([GapStack(np.arange(g), starts, counts, 0, "exact", rows(controls), None,
                                         rows(paths[:, :-1]), None, rows(paths), np.zeros(g), objectives,
                                         residuals, {})], g)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 3), count=st.integers(1, 6),
           steps=st.integers(1, 40))
    def test_stack_matches_each_fill_alone(self, seed, dim, count, steps):
        # dim 0 stands for scalar fills, whose miss is measured by magnitude
        rng = np.random.default_rng(seed)
        shape = (count, steps) + ((dim,) if dim else ())
        scales = 10.0 ** rng.integers(-100, 100, (count,) + (1,) * (len(shape) - 1))
        controls = rng.standard_normal(shape) * scales
        paths = rng.standard_normal(shape) * scales
        targets = rng.standard_normal(shape[:1] + shape[2:]) * scales[:, 0]
        gaps = [SimpleNamespace(gap_start=50 * i + 1, anchor_index=50 * i + steps, length=steps - 1)
                for i in range(count)]
        for i, solution in enumerate(self.solve(gaps, controls, paths, targets)):
            miss = paths[i, -1] - targets[i]
            assert solution.objective == float(np.vdot(controls[i], controls[i]))
            assert solution.terminal_residual == float(abs(miss) if dim == 0 else np.linalg.norm(miss))
            assert solution.control_indices == range(50 * i + 1, 50 * i + steps + 1)
            assert solution.imputed.tobytes() == paths[i, :-1].tobytes()

    def test_first_failing_fill_is_named(self):
        controls = np.ones((4, 3, 2))
        paths = np.ones((4, 3, 2))
        controls[1, 0, 0] = 1e200      # the objective overflows
        paths[2, 1, 1] = np.inf        # the path overflows
        paths[3, -1, 0] = 1e308        # the residual's square overflows
        gaps = [SimpleNamespace(gap_start=s, anchor_index=s + 2, length=2) for s in (5, 12, 20, 31)]
        targets = -np.ones((4, 2))
        with pytest.raises(NumericalError, match="fill overflow in the gap at index 12:"):
            self.solve(gaps, controls, paths, targets)
        for tail, start in ((slice(2, 4), 20), (slice(3, 4), 31)):
            with pytest.raises(NumericalError, match=f"fill overflow in the gap at index {start}:"):
                self.solve(gaps[tail], controls[tail], paths[tail], targets[tail])


def closed_gap(start: int, length: int, order: int = 1) -> GapSegment:
    """A constrained gap of ``length`` rows from index ``start``; the solver
    reads only its indices, the anchor is passed to it separately."""
    end = start + length - 1
    return GapSegment(start, end, tuple(range(start - order, start)), end + 1, None)


@st.composite
def gap_stacks(draw, gaps=(1, 6), longest=None):
    """Gaps under one model, or one model per gap, with their starts and
    anchors: AR(1-3), VAR of dimension 1-3 or a regression of 1-2 outputs
    on 2 covariates, in exact or paper mode. ``gaps`` bounds their number;
    their lengths run from p - 1 (at least 1) to ``longest``, or p + 4."""
    kind = draw(st.sampled_from(["ar", "var", "regression"]))
    mode = draw(st.sampled_from(["exact", "paper"]))
    order = draw(st.integers(1, 3)) if kind == "ar" else 1
    dim = {"ar": 1, "var": draw(st.integers(1, 3)), "regression": draw(st.integers(1, 2))}[kind]
    lengths = draw(st.lists(st.integers(max(1, order - 1), longest or order + 4),
                            min_size=gaps[0], max_size=gaps[1]))
    per_gap = draw(st.booleans())
    # a one-output regression takes a scalar anchor, or a vector of one entry
    scalar = kind == "ar" or (kind == "regression" and dim == 1 and draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def model():
        if kind == "ar":
            return ArModel(a=rng.uniform(-1.0, 1.0, order), b=float(rng.uniform(-1, 1)))
        if kind == "var":
            return VarModel(A=rng.uniform(-0.9, 0.9, (dim, dim)), b=rng.uniform(-1, 1, dim))
        return RegModel(A=rng.uniform(-2, 2, (dim, 2)), b=rng.uniform(-1, 1, dim))

    models = Models.of([model() for _ in lengths]) if per_gap else model()
    gaps = [closed_gap(10 + 20 * i, length, order) for i, length in enumerate(lengths)]
    starts = [rng.uniform(-5, 5, order) if kind == "ar" else rng.uniform(-5, 5, dim) if kind == "var"
              else rng.uniform(-5, 5, (length + 1, 2)) for length in lengths]
    anchors = [float(rng.uniform(-5, 5)) if scalar else rng.uniform(-5, 5, dim) for _ in lengths]
    return models, gaps, starts, anchors, mode


class TestImputeGaps:
    """Gaps solved together, as one stack sorted by control count, get the
    bits each gets alone."""

    @staticmethod
    def bits(solution):
        return [np.asarray(value, dtype=float).tobytes() for value in (
            solution.controls, solution.imputed, solution.predicted, solution.multiplier,
            solution.objective, solution.terminal_residual)]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(stack=gap_stacks())
    def test_each_gap_as_if_alone(self, stack):
        models, gaps, starts, anchors, mode = stack
        solved = impute_gaps(models, gaps, starts, anchors, mode)
        for i, solution in enumerate(solved):
            model = models[i] if isinstance(models, Models) else models
            (alone,) = impute_gaps(model, gaps[i : i + 1], starts[i : i + 1], anchors[i : i + 1], mode)
            assert self.bits(solution) == self.bits(alone)
            assert solution.control_indices == alone.control_indices
            assert solution.diagnostics == alone.diagnostics
            assert solution.mode == alone.mode

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(run=gap_stacks(gaps=(2, 12), longest=15))
    def test_one_stack_gives_each_gap_its_solution_and_verdict_alone(self, run):
        models, gaps, starts, anchors, mode = run
        first = models[0] if isinstance(models, Models) else models
        kind = {ArModel: "ar", VarModel: "var", RegModel: "regression"}[type(first)]
        options = ImputeOptions(model_kind=kind, order=first.p if kind == "ar" else 1, mode=mode)
        stacks = impute_stacks(models, gaps, starts, anchors, mode)
        solved = stack_solutions(stacks, len(gaps))
        assert len(stacks) == 1
        # the landing check is the pipeline's, on the filled series; every gap passes it here
        verdicts = _certify_batch(options, models, stacks, np.ones(len(gaps), dtype=bool))
        assert (verdicts is None) == (options.model_kind == "ar" and options.mode == "paper")
        for i, solution in enumerate(solved):
            model = models[i] if isinstance(models, Models) else models
            alone_stacks = impute_stacks(model, gaps[i : i + 1], starts[i : i + 1], anchors[i : i + 1],
                                         options.mode)
            (alone,) = stack_solutions(alone_stacks, 1)
            assert self.bits(solution) == self.bits(alone)
            assert solution.diagnostics == alone.diagnostics
            if verdicts is not None:
                (alone_verdict,) = _certify_batch(options, model, alone_stacks, np.ones(1, dtype=bool))
                verdict = verdicts[i]
                assert verdict.passed == alone_verdict.passed
                assert np.array(verdict[1:]).tobytes() == np.array(alone_verdict[1:]).tobytes()

    def test_no_gaps_give_no_solutions(self):
        assert impute_gaps(ArModel(a=(0.5,), b=0.0), [], [], []) == []

    def test_unknown_mode_is_value_error(self):
        with pytest.raises(ValueError, match="unknown mode 'printed'; expected one of exact, paper"):
            impute_gaps(ArModel(a=(0.5,), b=0.0), [closed_gap(2, 3)], [[1.0]], [2.0], mode="printed")

    def test_diagonal_and_full_models_in_one_stack(self):
        # a diagonal A is solved by division, whose offset of 1e160 has no
        # residual norm to check, and a full A by one SPD solve: in one run
        # of one count each gap is solved as it is alone
        diagonal = VarModel(A=[[2.0, 0.0], [0.0, 0.5]], b=[0.0, 0.0])
        full = VarModel(A=[[0.5, 0.2], [-0.1, 0.4]], b=[0.1, -0.2])
        gaps = [closed_gap(2, 24), closed_gap(40, 24)]
        starts = [np.array([1.0, 2.0])] * 2
        anchors = [np.array([1e160, 3.0]), np.array([3.0, -1.0])]
        solved = impute_gaps(Models.of([diagonal, full]), gaps, starts, anchors)
        for model, gap, start, anchor, solution in zip([diagonal, full], gaps, starts, anchors, solved):
            (alone,) = impute_gaps(model, [gap], [start], [anchor])
            assert self.bits(solution) == self.bits(alone)

    def test_padding_is_bounded(self):
        # padding thirty 1-step gaps to a 1000-step one would take 31 000
        # steps for 1030; the long gap's stack takes five of them, as
        # 6 x 1000 <= 2 x 1005 + PAD_SLACK, and the rest are a stack of their own
        model = VarModel(A=[[0.5, 0.2], [-0.1, 0.4]], b=[0.1, -0.2])
        gaps = [closed_gap(10 + 5 * i, 1) for i in range(30)] + [closed_gap(200, 1000)]
        starts = [np.array([1.0, 2.0])] * len(gaps)
        anchors = [np.array([3.0, -1.0])] * len(gaps)
        stacks = impute_stacks(model, gaps, starts, anchors)
        solved = stack_solutions(stacks, len(gaps))
        assert [len(stack.index) for stack in stacks] == [25, 6]
        for i in (0, 24, 25, 30):
            (alone,) = impute_gaps(model, gaps[i : i + 1], starts[i : i + 1], anchors[i : i + 1])
            assert self.bits(solved[i]) == self.bits(alone)

    def test_padded_tail_stays_quiet(self):
        # A grows x1 by 1.5 a step: rolled on past its own 3 steps, the short
        # gap's forecast from 1e307 overflows at step 8 of the 20-step gap's
        # stack; its anchor is its forecast, so it needs no control
        model = VarModel(A=[[1.5, 0.33], [0.0, 0.49]], b=[0.1, -0.2])
        short, long = closed_gap(10, 2), closed_gap(40, 20)
        seeds = [np.array([1e307, 1.0]), np.array([1.0, 10.0])]
        anchors = [predict_forward(model, seeds[0], 3)[-1], np.array([4.0, 5.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (alone,) = impute_gaps(model, [short], seeds[:1], anchors[:1])
            together, _ = impute_gaps(model, [short, long], seeds, anchors)
        assert np.isfinite(alone.imputed).all()
        assert self.bits(together) == self.bits(alone)

    @pytest.mark.parametrize("order, message", [
        ((0, 1, 2), "norm overflow:"),
        ((0, 2, 1), "forecast overflow:"),
    ])
    def test_first_failing_gap_beside_the_longest_gap_s_forecast_overflow(self, order, message):
        # the stack fails on the longest gap's forecast before any fill is
        # checked; rerun gap by gap, the leftmost failing gap gives the error
        model = VarModel(A=[[1.5, 0.33], [0.0, 0.49]], b=[0.0, 0.0])
        cases = [
            (closed_gap(10, 2), np.array([1.0, 1.0]), np.array([2.0, 1.0])),
            # an offset of 1e200 has no finite length
            (closed_gap(30, 2), np.array([1.0, 1.0]), np.array([1e200, 1.0])),
            # 1.5 * 1.5 * 1e308 overflows on the second step
            (closed_gap(50, 6), np.array([1e308, 1.0]), np.array([1.0, 1.0])),
        ]
        gaps, seeds, anchors = (list(column) for column in zip(*[cases[i] for i in order]))
        with pytest.raises(NumericalError, match=message):
            impute_gaps(model, gaps, seeds, anchors)

    @pytest.mark.parametrize("per_gap", [False, True])
    def test_overflow_is_checked_on_each_gap_s_own_steps(self, per_gap):
        # 3^j passes 1e150 at step 315: only the 400-step gap overflows, and
        # the 100-step gap's weights, though huge, do not change the short gap
        model = ArModel(a=(3.0,), b=0.0)
        short, middle, long = (closed_gap(start, length) for start, length in
                               ((10, 4), (30, 100), (140, 400)))
        (alone,) = impute_gaps(model, [short], [[1.0]], [2.0])
        models = Models.of([model, model]) if per_gap else model
        beside, _ = impute_gaps(models, [short, middle], [[1.0], [1.0]], [2.0, 2.0])
        assert self.bits(beside) == self.bits(alone)
        for gaps in ([short, long], [long, short]):
            with pytest.raises(NumericalError, match="impulse weight overflow at step 315:"):
                impute_gaps(models, gaps, [[1.0], [1.0]], [2.0, 2.0])

    @pytest.mark.parametrize("per_gap", [False, True])
    def test_first_failing_gap_gives_the_error(self, per_gap):
        # an AR(3) leaves no control step in a 1-row gap; 1.5^j overflows by step 852
        model = ArModel(a=(1.5, 0.0, 0.0), b=0.0)
        unreachable, explosive = closed_gap(10, 1, 3), closed_gap(30, 900, 3)
        seeds = [[1.0, 1.0, 1.0]] * 2
        for gaps, message in (([unreachable, explosive], "unreachable terminal constraint"),
                              ([explosive, unreachable], "impulse weight overflow")):
            with pytest.raises(NumericalError, match=message):
                impute_gaps(Models.of([model, model]) if per_gap else model, gaps, seeds, [0.0, 0.0])


class TestStepNormDifference:
    """A paper-mode VAR gap's ``max_step_norm_difference``, taken for a
    batch at once, is the largest difference of ``step_norms_per_gap``'s
    two lists for that gap alone."""

    @staticmethod
    def check(models, gaps, starts, anchors):
        solved = impute_gaps(models, gaps, starts, anchors, "paper")
        for i, solution in enumerate(solved):
            model = models[i] if isinstance(models, Models) else models
            difference = largest_step_norm_difference(model, solution, anchors[i])
            assert solution.diagnostics == {"max_step_norm_difference": difference}

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), count=st.integers(1, 6),
           per_gap=st.booleans(), diagonal=st.booleans(), huge=st.booleans())
    def test_batch_matches_reference(self, seed, dim, count, per_gap, diagonal, huge):
        # a huge run offsets some anchors by 1e160 under diagonal powers that
        # grow past 1e8, so that the controls' squares and their sum stay finite
        rng = np.random.default_rng(seed)
        lengths = rng.integers(30, 41, count) if huge else rng.integers(1, 9, count)

        def model():
            if huge:
                a = np.diag(rng.choice([-1.0, 1.0], dim) * rng.uniform(2.0, 3.0, dim))
            else:
                a = rng.uniform(-0.9, 0.9, (dim, dim))
                a = np.diag(np.diag(a)) if diagonal else a
            return VarModel(A=a, b=rng.uniform(-1, 1, dim))

        models = Models.of([model() for _ in lengths]) if per_gap else model()
        gaps = [closed_gap(10 + 40 * i, int(length)) for i, length in enumerate(lengths)]
        starts = [rng.uniform(-5, 5, dim) for _ in lengths]
        anchors = [rng.uniform(-5, 5, dim) for _ in lengths]
        if huge:
            for anchor in anchors:
                anchor[0] = rng.choice([-1e160, 1e160, 3.0])
        self.check(models, gaps, starts, anchors)

    @pytest.mark.parametrize("per_gap", [False, True])
    @pytest.mark.parametrize("a, seed, anchor", [
        ([[2.0]], [1.0], [1e160]),
        ([[2.0, 0.0], [0.0, 0.5]], [1.0, 2.0], [1e160, 3.0]),
    ], ids=["one_column", "diagonal"])
    def test_offset_too_large_to_square(self, a, seed, anchor, per_gap):
        # in one batch with a gap whose offset can be squared, under one model or two
        model = VarModel(A=a, b=[0.0] * len(seed))
        gaps = [closed_gap(2, 24), closed_gap(40, 24)]
        anchors = [np.array(anchor), np.ones(len(seed))]
        self.check(Models.of([model, model]) if per_gap else model, gaps, [seed, seed], anchors)


class TestImputeGapRegression:
    def test_uniform_spread(self):
        # fitted endpoint misses the anchor by 3 over 3 steps: 1 apiece
        model = RegModel(A=[[0.0]], b=[2.0])
        gap = single_gap([2.0, None, None, 5.0])
        covariates = np.zeros((3, 1))
        sol = impute_gap_regression(model, gap, covariates, 5.0)
        assert np.allclose(sol.controls, [1.0, 1.0, 1.0], rtol=0, atol=1e-14)
        assert np.allclose(sol.imputed, [3.0, 4.0], rtol=0, atol=1e-14)
        assert sol.terminal_residual <= 1e-12

    def test_matches_unit_coefficient_ar_shape(self):
        # with constant covariates the filled path climbs linearly to the anchor,
        # exactly like the unit-coefficient scalar recursion
        model = RegModel(A=[[1.0]], b=[0.0])
        gap = single_gap([7.0, None, None, None, 3.0])
        covariates = np.full((4, 1), 7.0)
        sol = impute_gap_regression(model, gap, covariates, 3.0)
        ar = impute_gap_ar(ArModel(a=(1.0,), b=0.0), gap, [7.0], 3.0)
        assert np.allclose(sol.imputed, ar.imputed, rtol=0, atol=1e-12)

    def test_recursion_hits_anchor_random(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            model = RegModel(A=rng.uniform(-2, 2, (1, k)), b=[float(rng.uniform(-1, 1))])
            gap_len = int(rng.integers(1, 8))
            values = [0.0] + [None] * gap_len + [float(rng.uniform(-5, 5))]
            gap = single_gap(values)
            # the gap's rows through the anchor, after the unused pre-gap row
            covariates = rng.uniform(-5, 5, (gap_len + 2, k))[1:]
            anchor = values[-1]
            sol = impute_gap_regression(model, gap, covariates, anchor)
            assert sol.terminal_residual <= 1e-9 * (1 + abs(anchor))
            # every correction equals the multiplier
            assert np.allclose(sol.controls, sol.multiplier, rtol=0, atol=0)

    def test_vector_outputs(self):
        model = RegModel(A=[[1.0], [0.5]], b=[0.0, 0.0])
        gap = single_gap([np.array([1.0, 1.0]), None, np.array([4.0, 2.0])])
        covariates = np.array([[2.0], [3.0]])
        sol = impute_gap_regression(model, gap, covariates, np.array([4.0, 2.0]))
        assert sol.imputed.shape == (1, 2)
        assert sol.terminal_residual <= 1e-12

    def test_wrong_covariate_count(self):
        model = RegModel(A=[[1.0]], b=[0.0])
        gap = single_gap([1.0, None, 3.0])
        with pytest.raises(ValueError, match="covariate rows"):
            impute_gap_regression(model, gap, np.ones((3, 1)), 3.0)


class TestEquivariance:
    def test_scalar_solution_scales_and_shifts(self):
        # scaling the data scales the fill; shifting the data shifts it, once
        # the intercept absorbs the shift consistently
        rng = np.random.default_rng(89)
        for _ in range(20):
            a = float(rng.uniform(-1.1, 1.1))
            b = float(rng.uniform(-1, 1))
            seed = float(rng.uniform(-4, 4))
            anchor = float(rng.uniform(-4, 4))
            gap_len = int(rng.integers(1, 6))
            gap = single_gap([seed] + [None] * gap_len + [anchor])
            base = impute_gap_ar(ArModel(a=(a,), b=b), gap, [seed], anchor)

            scale = 2.5
            scaled = impute_gap_ar(
                ArModel(a=(a,), b=scale * b), gap, [scale * seed], scale * anchor
            )
            assert np.allclose(scaled.imputed, scale * base.imputed, rtol=1e-10, atol=1e-9)

            shift = 3.0
            shifted = impute_gap_ar(
                ArModel(a=(a,), b=b + shift * (1 - a)), gap, [seed + shift], anchor + shift
            )
            assert np.allclose(shifted.imputed, base.imputed + shift, rtol=1e-10, atol=1e-9)
