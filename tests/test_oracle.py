import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill.control import impute_gap_ar, impute_gap_var
from gapfill.fitting import ArModel, RegModel, VarModel
from gapfill.oracle import (
    ConstrainedProblem,
    InstanceLimits,
    build_problem,
    certify,
    kkt_solve,
    random_instance,
    verify_instance,
)
from gapfill.series import Series, detect_gaps

# Property tests run a fixed example sequence, so the suite stays reproducible.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


class TestConstrainedProblem:
    def test_scalars_normalized(self):
        prob = ConstrainedProblem(steps=(1.0, 0.5), target=2.0)
        assert prob.dim == 1
        assert prob.steps[0].shape == (1, 1)
        assert prob.target.shape == (1,)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ConstrainedProblem(steps=(np.eye(2), np.eye(3)), target=np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ConstrainedProblem(steps=(), target=1.0)
        with pytest.raises(ValueError, match="at least one"):
            ConstrainedProblem(steps=np.empty((0, 2, 2)), target=np.zeros(2))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ConstrainedProblem(steps=(np.ones((2, 3)),), target=np.zeros(2))
        with pytest.raises(ValueError, match="square"):
            ConstrainedProblem(steps=np.ones((4, 2, 3)), target=np.zeros(2))
        with pytest.raises(ValueError, match="square"):
            ConstrainedProblem(steps=np.ones((4, 2)), target=np.zeros(2))

    def test_sequence_of_matrices_stacked(self):
        prob = ConstrainedProblem(steps=[np.eye(2), 2.0 * np.eye(2)], target=[1.0, 2.0])
        assert prob.steps.shape == (2, 2, 2)
        assert prob.steps.dtype == np.float64
        assert np.array_equal(prob.steps[1], 2.0 * np.eye(2))

    def test_target_dimension_checked(self):
        with pytest.raises(ValueError, match="target"):
            ConstrainedProblem(steps=np.ones((3, 2, 2)), target=np.zeros(3))


class TestKktSolve:
    def test_single_step(self):
        result = kkt_solve(ConstrainedProblem(steps=(2.0,), target=4.0))
        assert result.feasible
        assert result.controls[0][0] == pytest.approx(2.0, abs=1e-14)
        assert result.objective == pytest.approx(4.0, abs=1e-14)

    def test_geometric_weights_match_closed_form(self):
        # weights (1, 1/2, 1/4) with target -2: optimum objective 64/21
        prob = ConstrainedProblem(steps=(0.25, 0.5, 1.0), target=-2.0)
        result = kkt_solve(prob)
        assert result.feasible
        assert result.objective == pytest.approx(64.0 / 21.0, abs=1e-12)
        assert result.multiplier[0] == pytest.approx(-32.0 / 21.0, abs=1e-12)

    def test_stationarity_controls_proportional_to_steps(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            steps = tuple(float(v) for v in rng.uniform(-2, 2, m))
            if not any(steps):
                continue
            target = float(rng.uniform(-3, 3))
            result = kkt_solve(ConstrainedProblem(steps=steps, target=target))
            assert result.feasible
            lam = result.multiplier[0]
            for s, u in zip(steps, result.controls):
                assert u[0] == pytest.approx(s * lam, abs=1e-10)

    def test_infeasible_problem_flagged(self):
        result = kkt_solve(ConstrainedProblem(steps=(0.0, 0.0), target=1.0))
        assert not result.feasible

    def test_vector_constraint_met(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            steps = tuple(rng.uniform(-1, 1, (k, k)) for _ in range(m))
            target = rng.uniform(-2, 2, k)
            result = kkt_solve(ConstrainedProblem(steps=steps, target=target))
            if not result.feasible:
                continue
            attained = sum(c @ u for c, u in zip(steps, result.controls))
            assert np.allclose(attained, target, rtol=0, atol=1e-8)


    def test_stacked_targets_are_solved_as_if_alone(self):
        rng = np.random.default_rng(103)
        for _ in range(15):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            steps = rng.uniform(-1, 1, (m, k, k))
            targets = rng.uniform(-2, 2, (int(rng.integers(1, 5)), k))
            stacked = kkt_solve(ConstrainedProblem(steps=steps, target=targets))
            assert stacked.controls.shape == (len(targets), m, k)
            for i, target in enumerate(targets):
                alone = kkt_solve(ConstrainedProblem(steps=steps, target=target))
                assert stacked.controls[i].tobytes() == alone.controls.tobytes()
                assert stacked.multiplier[i].tobytes() == alone.multiplier.tobytes()
                assert stacked.objective[i] == alone.objective
                assert stacked.constraint_residual[i] == alone.constraint_residual
                assert stacked.feasible[i] == alone.feasible


class TestBuildProblem:
    def test_scalar_kicks_match_impulse_response(self):
        # the unit-kick endpoint effects are the impulse weights in reverse
        model = ArModel(a=(0.7, -0.2), b=0.3)
        prob = build_problem(model, 4, 1.0)
        from gapfill.control import impulse_weights

        psi = impulse_weights(model, 4)
        effects = [c[0, 0] for c in prob.steps]
        assert np.allclose(effects, psi[::-1], rtol=0, atol=1e-12)

    def test_intercept_ignored_by_kicks(self):
        flat = build_problem(ArModel(a=(0.5,), b=0.0), 3, 1.0)
        offset = build_problem(ArModel(a=(0.5,), b=9.0), 3, 1.0)
        for c1, c2 in zip(flat.steps, offset.steps):
            assert np.array_equal(c1, c2)

    def test_vector_steps_are_descending_powers(self):
        a = np.array([[0.5, 0.1], [0.0, 0.3]])
        model = VarModel(A=a, b=np.zeros(2))
        prob = build_problem(model, 3, np.zeros(2))
        assert np.allclose(prob.steps[0], a @ a, rtol=0, atol=1e-14)
        assert np.allclose(prob.steps[1], a, rtol=0, atol=1e-14)
        assert np.array_equal(prob.steps[2], np.eye(2))

    def test_regression_steps_identity(self):
        prob = build_problem(RegModel(A=[[1.0, 2.0]], b=[0.0]), 4, 0.5)
        for c in prob.steps:
            assert np.array_equal(c, np.eye(1))

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            build_problem(ArModel(a=(0.5,), b=0.0), 0, 1.0)


def scalar_kick_endpoints(model: ArModel, steps: int) -> np.ndarray:
    """Reference: one scalar simulation per unit kick, read off the endpoint."""
    effects = []
    for kick in range(steps):
        hist = [0.0] * model.p
        for t in range(steps):
            x = sum(model.a[j] * hist[-1 - j] for j in range(model.p))
            if t == kick:
                x += 1.0
            hist.append(x)
        effects.append(hist[-1])
    return np.array(effects)


class TestBatchedKicks:
    # companion-form powers sum in a different order from the scalar
    # simulation, so the two agree to rounding rather than bit for bit

    @PROPERTY
    @given(
        a=st.lists(st.floats(-1.4, 1.4, allow_nan=False), min_size=1, max_size=4),
        steps=st.integers(1, 80),
    )
    def test_matches_scalar_simulation(self, a, steps):
        model = ArModel(a=tuple(a), b=0.0)
        prob = build_problem(model, steps, 1.0)
        assert prob.steps.shape == (steps, 1, 1)
        assert_close_relative(prob.steps[:, 0, 0], scalar_kick_endpoints(model, steps), rtol=1e-12)

    @pytest.mark.parametrize("a", [(0.999,), (1.0, -0.0001), (1.4, -0.3, 0.2), (-1.4,)])
    def test_near_unit_root_and_explosive(self, a):
        model = ArModel(a=a, b=0.0)
        prob = build_problem(model, 80, 1.0)
        assert_close_relative(prob.steps[:, 0, 0], scalar_kick_endpoints(model, 80), rtol=1e-12)

    def test_overflow_to_inf_is_silent(self):
        model = ArModel(a=(1e10, -1e10), b=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = build_problem(model, 60, 1.0)
        effects = prob.steps[:, 0, 0]
        assert not np.all(np.isfinite(effects))
        assert np.array_equal(effects, scalar_kick_endpoints(model, 60), equal_nan=True)


class TestCertify:
    def make_solved_instance(self):
        from gapfill.series import Series

        series = Series.from_values([16.0, None, None, 0.0])
        _, gaps = detect_gaps(series, 1)
        model = ArModel(a=(0.5,), b=0.0)
        solution = impute_gap_ar(model, gaps[0], [16.0], 0.0)
        delta = np.atleast_1d(0.0 - solution.predicted[-1])
        problem = build_problem(model, len(solution.control_indices), delta)
        return solution, problem

    def test_passes_on_true_solution(self):
        solution, problem = self.make_solved_instance()
        verdict = certify(solution, problem)
        assert verdict.passed
        assert verdict.objective_gap <= 1e-9 * (1 + abs(verdict.objective_oracle))
        assert verdict.constraint_residual <= 1e-9 * (1 + np.linalg.norm(problem.target))

    def test_fails_on_perturbed_controls(self):
        solution, problem = self.make_solved_instance()
        bad = np.array(solution.controls)
        bad[0] += 0.01
        perturbed = dataclasses.replace(solution, controls=bad)
        verdict = certify(perturbed, problem)
        assert not verdict.passed

    def test_fails_on_cheaper_infeasible_controls(self):
        # all-zero controls undercut the optimum but break the constraint
        solution, problem = self.make_solved_instance()
        cheat = dataclasses.replace(solution, controls=np.zeros_like(solution.controls))
        verdict = certify(cheat, problem)
        assert not verdict.passed
        assert verdict.constraint_residual > 1.0

    def test_control_count_mismatch(self):
        solution, problem = self.make_solved_instance()
        short = dataclasses.replace(solution, controls=np.array(solution.controls[:-1]))
        with pytest.raises(ValueError, match="control count"):
            certify(short, problem)

    def test_stacked_verdicts_match_one_at_a_time(self):
        rng = np.random.default_rng(107)
        model = VarModel(A=rng.uniform(-0.9, 0.9, (2, 2)), b=rng.uniform(-1, 1, 2))
        values = [rng.uniform(-5, 5, 2) for _ in range(3)]
        for _ in range(3):
            values += [None, None, rng.uniform(-5, 5, 2)]
        series = Series.from_values(values)
        _, gaps = detect_gaps(series, 1)
        solutions = [impute_gap_var(model, gap, series.data[gap.gap_start - 2], gap.anchor_value)
                     for gap in gaps]
        bad = np.array(solutions[1].controls)
        bad[0] += 0.01
        solutions[1] = dataclasses.replace(solutions[1], controls=bad)
        offsets = [gap.anchor_value - s.predicted[-1] for gap, s in zip(gaps, solutions)]
        batch = certify(solutions, build_problem(model, 3, offsets))
        alone = tuple(certify(s, build_problem(model, 3, offset))
                      for s, offset in zip(solutions, offsets))
        assert batch.verdicts == alone
        assert [v.passed for v in batch.verdicts] == [True, False, True]
        assert not batch.passed

    @PROPERTY
    @given(kind=st.sampled_from(["ar", "var"]), size=st.integers(1, 3), length=st.integers(2, 6),
           gaps=st.integers(1, 5), faulty=st.integers(0, 5), shared=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_per_model_stack_matches_one_at_a_time(self, kind, size, length, gaps, faulty,
                                                   shared, seed):
        # gaps of one length, each with its own model (or one model for all);
        # member ``faulty`` (none when it is past the last) gets a perturbed control
        rng = np.random.default_rng(seed)
        models, solutions, offsets = [], [], []
        for i in range(gaps):
            if kind == "ar":
                model = ArModel(a=tuple(rng.uniform(-1.2, 1.2, size)), b=float(rng.uniform(-1, 1)))
                seeds = list(rng.uniform(-5, 5, size))
                anchor = float(rng.uniform(-5, 5))
            else:
                model = VarModel(A=rng.uniform(-0.9, 0.9, (size, size)), b=rng.uniform(-1, 1, size))
                seeds = [rng.uniform(-5, 5, size)]
                anchor = rng.uniform(-5, 5, size)
            model = models[0] if shared and models else model
            _, (gap,) = detect_gaps(Series.from_values(seeds + [None] * length + [anchor]),
                                    size if kind == "ar" else 1)
            if kind == "ar":
                solution = impute_gap_ar(model, gap, seeds, anchor)
            else:
                solution = impute_gap_var(model, gap, seeds[0], anchor)
            if i == faulty:
                bad = np.array(solution.controls)
                bad[0] = bad[0] + 0.5
                solution = dataclasses.replace(solution, controls=bad)
            models.append(model)
            solutions.append(solution)
            offsets.append(np.atleast_1d(anchor - solution.predicted[-1]))
        steps = len(solutions[0].control_indices)
        problem = build_problem(models, steps, offsets)
        assert problem.steps.shape[:2] == (gaps, steps)
        batch = certify(solutions, problem)
        alone = [certify(s, build_problem(model, steps, offset))
                 for model, s, offset in zip(models, solutions, offsets)]
        for got, want in zip(batch.verdicts, alone):
            assert (np.array(dataclasses.astuple(got)).tobytes()
                    == np.array(dataclasses.astuple(want)).tobytes())
        assert [v.passed for v in batch.verdicts] == [i != faulty for i in range(gaps)]
        if shared:
            # the shared form keeps its one (m, k, k) stack and the same certificates
            common = build_problem(models[0], steps, offsets)
            assert common.steps.ndim == 3
            assert certify(solutions, common).verdicts == batch.verdicts

    def test_per_model_steps_need_one_target_each(self):
        with pytest.raises(ValueError, match=r"need a \(2, 1\) target"):
            ConstrainedProblem(steps=np.ones((2, 3, 1, 1)), target=[1.0])

    def test_stacked_solution_count_checked(self):
        solution, problem = self.make_solved_instance()
        stacked = build_problem(ArModel(a=(0.5,), b=0.0), 3, np.vstack([problem.target] * 2))
        with pytest.raises(ValueError, match="1 solutions for 2 targets"):
            certify([solution], stacked)


class TestRandomInstance:
    def test_deterministic_per_seed(self):
        first_series, first_model = random_instance(12)
        second_series, second_model = random_instance(12)
        assert first_model == second_model
        assert len(first_series) == len(second_series)
        assert first_series.missing_indices == second_series.missing_indices
        for i in range(1, len(first_series) + 1):
            a, b = first_series.value(i), second_series.value(i)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)

    def test_distinct_across_seeds(self):
        a, _ = random_instance(1)
        b, _ = random_instance(2)
        assert a.value(1)[0] != b.value(1)[0]

    def test_generated_instances_satisfy_preconditions(self):
        # every generated instance must segment cleanly with enough prefix to fit
        for seed in range(1000):
            series, model = random_instance(seed)
            prefix, gaps = detect_gaps(series, model.p)
            assert len(gaps) == 1
            assert prefix >= 2 * model.p + 1
            assert gaps[0].length >= max(1, model.p - 1)
            assert gaps[0].constrained

    def test_vector_instances_respect_limits(self):
        limits = InstanceLimits.vector()
        for seed in range(200):
            series, model = random_instance(seed, limits)
            assert model.dim in limits.dims
            prefix, gaps = detect_gaps(series, 1)
            assert prefix >= model.dim + 2
            assert gaps[0].length <= limits.max_gap

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown instance kind"):
            random_instance(0, InstanceLimits(kind="arma"))


class TestVerifyInstance:
    def test_scalar_instances_certify(self):
        for seed in range(25):
            checked = verify_instance(seed)
            assert checked.verdict.passed, f"seed {seed} failed"

    def test_vector_instances_certify(self):
        limits = InstanceLimits.vector()
        for seed in range(25):
            checked = verify_instance(seed, limits)
            assert checked.verdict.passed, f"seed {seed} failed"

    @pytest.mark.parametrize("limits", [InstanceLimits.scalar(), InstanceLimits.vector()],
                             ids=["scalar", "vector"])
    def test_injected_fault_is_caught(self, limits):
        for seed in range(5):
            checked = verify_instance(seed, limits, inject_fault=True)
            assert not checked.verdict.passed


def ar_conditional_mean(model: ArModel, seeds, gap_length: int, anchor: float) -> np.ndarray:
    """Second oracle for scalar gaps: E[u | endpoint] under iid unit innovations.

    The path x over the gap and the anchor solves D x = r + u, with D the
    lower-triangular difference operator of the recursion and r the intercept
    plus the seed terms. The endpoint is e^T D^{-1} (r + u), so
    u ~ N(0, S) conditioned on it has mean S C^T (C S C^T)^{-1} delta with
    C = e^T D^{-1}. S is zero on the first p - 1 steps, which carry no
    control.
    """
    p, total = model.p, gap_length + 1
    d = np.eye(total)
    r = np.full(total, model.b)
    for j, a in enumerate(model.a, start=1):
        d -= a * np.eye(total, k=-j)
        for t in range(min(j, total)):
            r[t] += a * seeds[t - j]
    free = scipy.linalg.solve_triangular(d, r, lower=True)
    c = scipy.linalg.solve_triangular(d.T, np.eye(total)[-1], lower=False)[None, :]
    sigma = np.diag([0.0] * (p - 1) + [1.0] * (total - p + 1))
    delta = np.array([anchor - free[-1]])
    return sigma @ c.T @ scipy.linalg.solve(c @ sigma @ c.T, delta, assume_a="pos")


def var_conditional_mean(model: VarModel, seed, gap_length: int, anchor) -> np.ndarray:
    """Second oracle for vector gaps: the same conditioning on the stacked
    path, with D the block bidiagonal operator x_t - A x_{t-1}."""
    k, total = model.dim, gap_length + 1
    d = np.eye(total * k) - np.kron(np.eye(total, k=-1), model.A)
    r = np.tile(model.b, total)
    r[:k] += model.A @ seed
    free = scipy.linalg.solve_triangular(d, r, lower=True)
    end = np.zeros((total * k, k))
    end[-k:] = np.eye(k)
    c = scipy.linalg.solve_triangular(d.T, end, lower=False).T
    delta = np.asarray(anchor) - free[-k:]
    u = c.T @ scipy.linalg.solve(c @ c.T, delta, assume_a="pos")
    return u.reshape(total, k)


def assert_close_relative(actual, expected, rtol=1e-9):
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(np.asarray(actual) - expected)) <= rtol * scale


class TestConditionalMeanOracle:
    @PROPERTY
    @given(
        a=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=3),
        b=st.floats(-1.0, 1.0),
        values=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
        gap_length=st.integers(0, 12),
    )
    def test_ar_controls_are_conditional_mean(self, a, b, values, gap_length):
        model = ArModel(a=tuple(a), b=b)
        p = model.p
        gap_length = max(gap_length, p - 1, 1)
        seeds, anchor = values[:3], values[3]
        series = Series.from_values(seeds + [None] * gap_length + [anchor])
        _, gaps = detect_gaps(series, p)
        solution = impute_gap_ar(model, gaps[0], seeds, anchor)
        expected = ar_conditional_mean(model, seeds, gap_length, anchor)
        assert np.all(expected[: p - 1] == 0.0)
        assert_close_relative(solution.controls, expected[p - 1 :])

    @PROPERTY
    @given(
        k=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
        gap_length=st.integers(1, 10),
    )
    def test_var_controls_are_conditional_mean(self, k, seed, gap_length):
        rng = np.random.default_rng(seed)
        model = VarModel(A=rng.uniform(-0.9, 0.9, (k, k)), b=rng.uniform(-1, 1, k))
        start, anchor = rng.uniform(-5, 5, k), rng.uniform(-5, 5, k)
        series = Series.from_values([start] + [None] * gap_length + [anchor])
        _, gaps = detect_gaps(series, 1)
        solution = impute_gap_var(model, gaps[0], start, anchor)
        assert_close_relative(solution.controls, var_conditional_mean(model, start, gap_length, anchor))
