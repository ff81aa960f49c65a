import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapfill import oracle as oracle_module
from gapfill.control import impute_gap_ar, impute_gap_var
from gapfill.fitting import ArModel, RegModel, VarModel
from gapfill.oracle import (
    ConstrainedProblem,
    InstanceLimits,
    build_problem,
    certify,
    kkt_solve,
    random_instance,
)
from gapfill.pipeline import verify_instance
from gapfill.series import Series, detect_gaps

# Property tests run a fixed example sequence, so the suite stays reproducible.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


class TestConstrainedProblem:
    def test_scalars_normalized(self):
        prob = ConstrainedProblem(steps=(1.0, 0.5), target=2.0)
        assert prob.dim == 1
        assert prob.steps[0].shape == (1, 1)
        assert prob.target.shape == (1, 1)

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
        assert result.feasible[0]
        assert result.controls[0][0][0] == pytest.approx(2.0, abs=1e-14)
        assert result.objective[0] == pytest.approx(4.0, abs=1e-14)

    def test_geometric_weights_match_closed_form(self):
        # weights (1, 1/2, 1/4) with target -2: optimum objective 64/21
        prob = ConstrainedProblem(steps=(0.25, 0.5, 1.0), target=-2.0)
        result = kkt_solve(prob)
        assert result.feasible[0]
        assert result.objective[0] == pytest.approx(64.0 / 21.0, abs=1e-12)
        assert result.multiplier[0][0] == pytest.approx(-32.0 / 21.0, abs=1e-12)

    def test_stationarity_controls_proportional_to_steps(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            steps = tuple(float(v) for v in rng.uniform(-2, 2, m))
            if not any(steps):
                continue
            target = float(rng.uniform(-3, 3))
            result = kkt_solve(ConstrainedProblem(steps=steps, target=target))
            assert result.feasible[0]
            lam = result.multiplier[0][0]
            for s, u in zip(steps, result.controls[0]):
                assert u[0] == pytest.approx(s * lam, abs=1e-10)

    def test_infeasible_problem_flagged(self):
        result = kkt_solve(ConstrainedProblem(steps=(0.0, 0.0), target=1.0))
        assert not result.feasible[0]

    def test_target_whose_norm_overflows_is_infeasible(self):
        # 100 unit steps toward 1e155: the controls and their squares stay
        # finite and land on the target, but its norm overflows to inf
        result = kkt_solve(ConstrainedProblem(steps=np.ones(100), target=1e155))
        assert math.isfinite(result.objective[0])
        assert result.constraint_residual[0] <= 1e-12 * 1e155
        assert not result.feasible[0]

    def test_overflowing_controls_are_quiet(self):
        # the stationary controls are the targets themselves; their squares
        # overflow, which the suite's error::RuntimeWarning filter would raise
        result = kkt_solve(ConstrainedProblem(np.eye(2)[None], [[1e200, 1e200]]))
        assert result.objective[0] == np.inf
        assert not result.feasible[0]

    def test_vector_constraint_met(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            steps = tuple(rng.uniform(-1, 1, (k, k)) for _ in range(m))
            target = rng.uniform(-2, 2, k)
            result = kkt_solve(ConstrainedProblem(steps=steps, target=target))
            if not result.feasible[0]:
                continue
            attained = sum(c @ u for c, u in zip(steps, result.controls[0]))
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
                assert stacked.controls[i].tobytes() == alone.controls[0].tobytes()
                assert stacked.multiplier[i].tobytes() == alone.multiplier[0].tobytes()
                assert stacked.objective[i] == alone.objective[0]
                assert stacked.constraint_residual[i] == alone.constraint_residual[0]
                assert stacked.feasible[i] == alone.feasible[0]

    def test_per_model_stacks_are_solved_as_if_alone(self):
        # one model per target, of one count or of ascending counts: each
        # target gets the bits of its problem alone, its sum of squares too
        rng = np.random.default_rng(109)
        for _ in range(60):
            g, order = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            if rng.uniform() < 0.5:
                models = [ArModel(a=rng.uniform(-0.9, 0.9, order), b=0.0) for _ in range(g)]
            else:
                models = [VarModel(A=rng.uniform(-0.9, 0.9, (order + 1, order + 1)), b=np.zeros(order + 1))
                          for _ in range(g)]
            ragged = rng.uniform() < 0.5
            counts = np.sort(rng.integers(1, 21, g)) if ragged else np.full(g, int(rng.integers(1, 21)))
            k = 1 if isinstance(models[0], ArModel) else order + 1
            targets = rng.uniform(-2, 2, (g, k))
            problem = build_problem(models, counts, targets)
            stacked = kkt_solve(problem)
            rows = np.reshape(stacked.controls, (-1, k))  # one row per step, target after target
            controls = rng.uniform(-1, 1, rows.shape)
            verdicts = certify(controls, problem).verdicts
            start = 0
            for i, count in enumerate(counts.tolist()):
                alone_problem = build_problem(models[i], count, targets[i])
                alone = kkt_solve(alone_problem)
                assert rows[start : start + count].tobytes() == alone.controls[0].tobytes()
                assert stacked.multiplier[i].tobytes() == alone.multiplier[0].tobytes()
                assert stacked.objective[i] == alone.objective[0]
                assert stacked.constraint_residual[i] == alone.constraint_residual[0]
                mine = SimpleNamespace(controls=controls[start : start + count])
                assert verdicts[i] == certify([mine], alone_problem).verdicts[0]
                start += count

    def test_overflowing_gram_is_quiet_and_infeasible(self):
        # the kicks reach ~1e300 within 30 steps, so their Gram sum overflows
        problem = build_problem(ArModel(a=(1e10, -1e10), b=0.0), 60, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kkt_solve(problem)
            verdict = certify([SimpleNamespace(controls=np.zeros(60))], problem).verdicts[0]
        assert not result.feasible[0]
        assert result.objective[0] == np.inf
        assert not verdict.passed
        assert verdict.objective_oracle == np.inf

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_target_that_is_not_finite_is_quiet_and_infeasible(self, bad):
        # like an overflowing Gram matrix: no solve, and the other rows as if alone
        steps = np.ones(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = kkt_solve(ConstrainedProblem(steps, [[bad], [2.0]]))
        assert stacked.feasible.tolist() == [False, True]
        assert stacked.objective[0] == np.inf
        assert np.isnan(stacked.multiplier[0]).all() and np.isnan(stacked.controls[0]).all()
        alone = kkt_solve(ConstrainedProblem(steps, 2.0))
        assert stacked.controls[1].tobytes() == alone.controls[0].tobytes()
        assert stacked.objective[1] == alone.objective[0]

    def test_overflowing_gram_rows_leave_the_others_as_if_alone(self):
        explosive = ArModel(a=(1e10, -1e10), b=0.0)
        models = [explosive, ArModel(a=(0.5, 0.1), b=0.0), explosive, ArModel(a=(-0.3, 0.6), b=1.0)]
        targets = [[1.0], [2.0], [-1.0], [0.5]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = kkt_solve(build_problem(models, 60, targets))
        assert stacked.feasible.tolist() == [False, True, False, True]
        assert stacked.objective[[0, 2]].tolist() == [np.inf, np.inf]
        for i in (1, 3):
            alone = kkt_solve(build_problem(models[i], 60, targets[i]))
            assert stacked.controls[i].tobytes() == alone.controls[0].tobytes()
            assert stacked.multiplier[i].tobytes() == alone.multiplier[0].tobytes()
            assert stacked.objective[i] == alone.objective[0]
            assert stacked.constraint_residual[i] == alone.constraint_residual[0]


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
            x = 0.0
            for j in range(model.p):
                x += model.a[j] * hist[-1 - j]
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
        expected = scalar_kick_endpoints(model, 60)
        finite = np.isfinite(effects)
        assert not np.all(finite)
        assert np.array_equal(finite, np.isfinite(expected))
        assert np.array_equal(np.isnan(effects), np.isnan(expected))
        # entry by entry: the finite effects run from 1 to ~1e300
        np.testing.assert_allclose(effects[finite], expected[finite], rtol=1e-12, atol=0)


def descending_powers_by_product(f: np.ndarray, steps: int) -> np.ndarray:
    """Reference: F^(steps-1), ..., F, I for a (p, p) F or a (g, p, p) stack,
    step axis first, one right-multiplication per step."""
    powers = np.empty((steps,) + f.shape)
    powers[-1] = np.eye(f.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps - 2, -1, -1):
            np.matmul(powers[i + 1], f, out=powers[i])
    return powers


def assert_powers_close(actual, expected, rtol):
    """Each power (the last two axes) is within ``rtol`` of its own largest
    entry, or of 1 for powers that have decayed below 1."""
    scale = np.maximum(1.0, np.abs(expected).max(axis=(-2, -1), keepdims=True))
    assert (np.abs(np.asarray(actual) - expected) <= rtol * scale).all()


def ar_model_strategy():
    return st.lists(st.floats(-1.4, 1.4), min_size=1, max_size=4).map(
        lambda a: ArModel(a=tuple(a), b=0.0))


def var_model_strategy(bound=1.4):
    return st.tuples(st.integers(2, 3), st.integers(0, 2**32 - 1)).map(
        lambda ks: VarModel(A=np.random.default_rng(ks[1]).uniform(-bound, bound, (ks[0], ks[0])),
                            b=np.zeros(ks[0])))


class TestPowerTable:
    # doubling multiplies the powers in another order than one product per
    # step, so the two tables agree to rounding, each power to its own largest
    # entry (the worst of 3000 random draws here was 4.7e-13). Near the float64 limit the
    # two orders overflow different entries (an inf in one is a finite 1e308
    # or a nan in the other), so overflow is compared power by power: a power
    # clear of the limit is finite in both, and every power above one that
    # overflowed has a non-finite entry in both

    @PROPERTY
    # entries up to 2.5 make most VAR draws explosive, so their long tables overflow
    @given(model=st.one_of(ar_model_strategy(), var_model_strategy(), var_model_strategy(2.5)),
           steps=st.integers(1, 1300))
    @example(model=ArModel(a=(1.4, 1.4, 1.4, 1.4), b=0.0), steps=1300)
    @example(model=ArModel(a=(-1.4, 1.4, -1.4, 1.4), b=0.0), steps=1300)
    # F^641 overflows in other entries under each order
    @example(model=VarModel(A=np.random.default_rng(663).uniform(-2.5, 2.5, (3, 3)), b=np.zeros(3)),
             steps=642)
    def test_matches_one_product_per_step(self, model, steps):
        f = oracle_module._transition_matrix(model)
        got = oracle_module._descending_powers(f, steps)
        want = descending_powers_by_product(f, steps)
        clear = np.abs(want).max(axis=(-2, -1)) < 1e300
        assert np.isfinite(got[clear]).all()
        assert_powers_close(got[clear], want[clear], rtol=1e-12)
        # descending: the powers above the lowest overflowed one come first
        overflowed = np.flatnonzero(~np.isfinite(want).all(axis=(-2, -1)))
        if len(overflowed):
            above = slice(0, overflowed[-1])
            assert not np.isfinite(got[above]).all(axis=(-2, -1)).any()
            assert not np.isfinite(want[above]).all(axis=(-2, -1)).any()

    @PROPERTY
    @given(model=st.one_of(ar_model_strategy(), var_model_strategy()), longest=st.integers(1, 700),
           data=st.data())
    def test_shorter_steps_are_the_last_of_longer(self, model, longest, data):
        steps = data.draw(st.integers(1, longest))
        target = np.ones(1 if isinstance(model, ArModel) else model.dim)
        short = build_problem(model, steps, target).steps
        long = build_problem(model, longest, target).steps
        assert short.tobytes() == long[-steps:].tobytes()

    @PROPERTY
    @given(kind=st.sampled_from(["ar", "var"]), size=st.integers(1, 4), count=st.integers(1, 5),
           steps=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_stacked_models_build_as_if_alone(self, kind, size, count, steps, seed):
        rng = np.random.default_rng(seed)
        if kind == "ar":
            models = [ArModel(a=tuple(rng.uniform(-1.4, 1.4, size)), b=0.0) for _ in range(count)]
            k = 1
        else:
            k = min(size + 1, 3)
            models = [VarModel(A=rng.uniform(-1.4, 1.4, (k, k)), b=np.zeros(k)) for _ in range(count)]
        targets = np.ones((len(models), k))
        stacked = build_problem(models, steps, targets).steps
        assert stacked.shape == (len(models), steps, k, k)
        for model, got in zip(models, stacked):
            assert got.tobytes() == build_problem(model, steps, targets[0]).steps.tobytes()


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
        verdict = certify([solution], problem).verdicts[0]
        assert verdict.passed
        assert verdict.objective_gap <= 1e-9 * (1 + abs(verdict.objective_oracle))
        assert verdict.constraint_residual <= 1e-9 * (1 + np.linalg.norm(problem.target))

    def test_fails_on_perturbed_controls(self):
        solution, problem = self.make_solved_instance()
        bad = np.array(solution.controls)
        bad[0] += 0.01
        perturbed = solution._replace(controls=bad)
        verdict = certify([perturbed], problem).verdicts[0]
        assert not verdict.passed

    def test_fails_on_cheaper_infeasible_controls(self):
        # all-zero controls undercut the optimum but break the constraint
        solution, problem = self.make_solved_instance()
        cheat = solution._replace(controls=np.zeros_like(solution.controls))
        verdict = certify([cheat], problem).verdicts[0]
        assert not verdict.passed
        assert verdict.constraint_residual > 1.0

    def test_overflowing_target_norm_certifies_nothing(self):
        problem = ConstrainedProblem(steps=np.ones(100), target=1e155)
        optimum = SimpleNamespace(controls=kkt_solve(problem).controls[0])
        verdict = certify([optimum], problem).verdicts[0]
        assert verdict.objective_gap == 0.0
        assert not verdict.passed

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_target_that_is_not_finite_certifies_nothing(self, bad):
        problem = ConstrainedProblem(np.ones(3), bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = certify([SimpleNamespace(controls=np.zeros(3))], problem).verdicts[0]
        assert verdict.objective_oracle == np.inf
        assert not verdict.passed

    def test_overflowing_solution_is_quiet_and_fails(self):
        # 10 * 1e308 overflows in the attained sum, and 1e308 squared in the objective
        solution = SimpleNamespace(controls=np.array([1e308]))
        verdict = certify([solution], ConstrainedProblem([[[10.0]]], [[1.0]])).verdicts[0]
        assert verdict.constraint_residual == np.inf
        assert verdict.objective_solution == np.inf
        assert not verdict.passed

    def test_overflowing_optimum_certifies_nothing(self, monkeypatch):
        solution, problem = self.make_solved_instance()
        solved = kkt_solve(problem)
        monkeypatch.setattr(oracle_module, "kkt_solve",
                            lambda _: dataclasses.replace(solved, objective=np.array([np.inf])))
        verdict = certify([solution], problem).verdicts[0]
        assert verdict.objective_oracle == np.inf
        assert not verdict.passed

    def test_control_count_mismatch(self):
        solution, problem = self.make_solved_instance()
        short = solution._replace(controls=np.array(solution.controls[:-1]))
        with pytest.raises(ValueError, match="control count"):
            certify([short], problem)

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
        solutions[1] = solutions[1]._replace(controls=bad)
        offsets = [gap.anchor_value - s.predicted[-1] for gap, s in zip(gaps, solutions)]
        batch = certify(solutions, build_problem(model, 3, offsets))
        alone = tuple(certify([s], build_problem(model, 3, offset)).verdicts[0]
                      for s, offset in zip(solutions, offsets))
        assert batch.verdicts == alone
        assert [v.passed for v in batch.verdicts] == [True, False, True]
        assert not batch.passed

    def test_per_gap_records_are_immutable(self):
        # a gap's segment, solution and verdict are named tuples: no field can
        # be assigned, and _replace returns a changed copy
        series = Series.from_values([16.0, None, None, 0.0])
        _, (segment,) = detect_gaps(series, 1)
        solution, problem = self.make_solved_instance()
        verdict = certify([solution], problem).verdicts[0]
        for record, field, value in ((segment, "gap_start", 3), (solution, "objective", -1.0),
                                     (verdict, "passed", not verdict.passed)):
            before = tuple(record)
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            changed = record._replace(**{field: value})
            assert getattr(changed, field) == value
            assert getattr(record, field) != value
            assert all(a is b for a, b in zip(record, before, strict=True))

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
                solution = solution._replace(controls=bad)
            models.append(model)
            solutions.append(solution)
            offsets.append(np.atleast_1d(anchor - solution.predicted[-1]))
        steps = len(solutions[0].control_indices)
        problem = build_problem(models, steps, offsets)
        assert problem.steps.shape[:2] == (gaps, steps)
        batch = certify(solutions, problem)
        alone = [certify([s], build_problem(model, steps, offset)).verdicts[0]
                 for model, s, offset in zip(models, solutions, offsets)]
        for got, want in zip(batch.verdicts, alone):
            assert np.array(tuple(got)).tobytes() == np.array(tuple(want)).tobytes()
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
