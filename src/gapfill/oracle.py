"""Brute-force verifier for the control solutions.

The verifier restates each gap as a generic equality-constrained minimization
(minimize the summed squared controls subject to the controls steering the
endpoint onto the anchor) and solves its stationarity system directly. Every
model is cast as a first-order state-space recursion (an AR(p) in companion
form, with the control entering on the first state coordinate; a regression
with identity dynamics), and the constraint matrices are descending powers of
its transition matrix, one p x p product per step. No code is shared with the
weight recurrences being checked. Each problem is one stacked array, so the
stationarity solve and the check are array operations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .control import ControlSolution, impute_gap_ar, impute_gap_var
from .errors import DataError
from .fitting import ArModel, RegModel, VarModel
from .linalg import solve_spd
from .series import Series, detect_gaps

# A stationarity solution whose constraint residual exceeds this (relative)
# bound marks the problem itself as infeasible.
FEASIBILITY_TOLERANCE = 1e-8

# Certification bound on both the objective gap and the constraint residual.
CERTIFY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ConstrainedProblem:
    """min sum ||u_i||^2 subject to sum_i C_i u_i = target, C_i chronological.

    ``steps`` is stored as one (m, k, k) float64 array, C_i = steps[i]. A
    sequence of scalars becomes 1x1 matrices and a scalar target a length-1
    vector.
    """

    steps: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        try:
            c = np.asarray(self.steps, dtype=float)
        except ValueError:
            raise ValueError("constraint steps must share one dimension") from None
        if c.ndim in (1, 2):
            c = c.reshape(c.shape + (1,) * (3 - c.ndim))
        if c.ndim != 3:
            raise ValueError(f"constraint steps must form an (m, k, k) stack, got shape {c.shape}")
        if c.shape[0] < 1:
            raise ValueError("problem needs at least one control step")
        if c.shape[1] != c.shape[2]:
            raise ValueError(f"constraint step must be square, got shape {c.shape[1:]}")
        k = c.shape[1]
        t = np.atleast_1d(np.asarray(self.target, dtype=float))
        if t.shape != (k,):
            raise ValueError(f"target must have {k} components, got shape {t.shape}")
        object.__setattr__(self, "steps", c)
        object.__setattr__(self, "target", t)

    @property
    def dim(self) -> int:
        return self.steps.shape[1]


@dataclass(frozen=True)
class OracleResult:
    controls: np.ndarray
    objective: float
    constraint_residual: float
    feasible: bool
    multiplier: np.ndarray


@dataclass(frozen=True)
class Verdict:
    passed: bool
    objective_gap: float
    constraint_residual: float
    objective_solution: float
    objective_oracle: float


def _running_total(terms: np.ndarray) -> np.ndarray:
    """Sum along the first axis strictly left to right (pairwise summation
    would change the last bits and so the reported certificate margins)."""
    return np.cumsum(terms, axis=0)[-1]


def _attained(steps: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """The endpoint offset sum_i C_i u_i reached by (m, k) controls."""
    return _running_total(np.matmul(steps, controls[:, :, None])[:, :, 0])


def kkt_solve(problem: ConstrainedProblem) -> OracleResult:
    """Solve the stationarity system of the constrained minimization.

    Stationarity gives u_i = C_i^T lambda with (sum_i C_i C_i^T) lambda =
    target; convexity makes any feasible stationary point the global minimum.
    Feasibility is judged by the residual of the recovered controls against
    the constraint.
    """
    c = problem.steps
    c_t = c.transpose(0, 2, 1)
    gram = _running_total(np.matmul(c, c_t))
    lam = solve_spd(gram, problem.target).x
    controls = np.matmul(c_t, lam)
    residual = float(np.linalg.norm(_attained(c, controls) - problem.target))
    feasible = residual <= FEASIBILITY_TOLERANCE * (1.0 + float(np.linalg.norm(problem.target)))
    return OracleResult(
        controls=controls,
        objective=float(np.sum(controls * controls)),
        constraint_residual=residual,
        feasible=feasible,
        multiplier=lam,
    )


def _transition_matrix(model) -> np.ndarray:
    """The model's one-step state transition F, with the control entering on
    the first coordinates: the companion matrix of an AR(p) (first row ``a``,
    ones on the subdiagonal), ``A`` of a VAR(1), and the identity for a
    regression, whose outputs carry no dynamics."""
    if isinstance(model, ArModel):
        f = np.eye(model.p, k=-1)
        f[0] = model.a
        return f
    if isinstance(model, VarModel):
        return model.A
    if isinstance(model, RegModel):
        return np.eye(model.n_outputs)
    raise TypeError(f"unknown model type {type(model).__name__}")


def build_problem(model, steps: int, target) -> ConstrainedProblem:
    """Assemble the terminal constraint for ``steps`` chronological controls.

    A control i steps before the anchor moves the endpoint by E^T F^i E, with
    F the model's transition matrix (see ``_transition_matrix``) and E the
    first k state coordinates: k = 1 for an AR model, the full state
    otherwise. The powers descend by repeated right-multiplication, one
    product per step. Explosive models overflow silently to inf.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    f = _transition_matrix(model)
    k = 1 if isinstance(model, ArModel) else f.shape[0]
    powers = np.empty((steps,) + f.shape)
    powers[-1] = np.eye(f.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps - 2, -1, -1):
            np.matmul(powers[i + 1], f, out=powers[i])
    return ConstrainedProblem(powers[:, :k, :k], target)


def certify(solution: ControlSolution, problem: ConstrainedProblem) -> Verdict:
    """Check a control solution against the independent stationarity solve.

    Passes when the solution is feasible and its objective matches the oracle
    optimum, both to CERTIFY_TOLERANCE relative.
    """
    u = np.asarray(solution.controls, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape[0] != len(problem.steps):
        raise ValueError(
            f"control count {u.shape[0]} does not match the problem's {len(problem.steps)} steps"
        )
    oracle = kkt_solve(problem)
    residual = float(np.linalg.norm(_attained(problem.steps, u) - problem.target))
    objective = float(np.sum(u * u))
    gap = abs(objective - oracle.objective)
    target_norm = float(np.linalg.norm(problem.target))
    passed = (
        oracle.feasible
        and gap <= CERTIFY_TOLERANCE * (1.0 + abs(oracle.objective))
        and residual <= CERTIFY_TOLERANCE * (1.0 + target_norm)
    )
    return Verdict(
        passed=passed,
        objective_gap=gap,
        constraint_residual=residual,
        objective_solution=objective,
        objective_oracle=oracle.objective,
    )


@dataclass(frozen=True)
class InstanceLimits:
    """Bounds for the seeded instance generator; all draws are uniform."""

    kind: str = "ar"
    max_order: int = 3
    dims: tuple[int, ...] = (2, 3)
    max_gap: int = 12
    max_prefix: int = 40
    coeff_bound: float = 1.2
    matrix_bound: float = 0.9
    value_scale: float = 5.0

    @classmethod
    def scalar(cls) -> "InstanceLimits":
        return cls(kind="ar")

    @classmethod
    def vector(cls) -> "InstanceLimits":
        return cls(kind="var", max_gap=10)


def random_instance(seed: int, limits: InstanceLimits = InstanceLimits()):
    """Deterministic random single-gap instance: returns (series, true model).

    The generator is numpy's PCG64 seeded with ``seed``; draws happen in a
    fixed order so instances can be reproduced from the seed alone.

    Scalar kind, in order: order p from [1, max_order]; p lag coefficients
    from (-coeff_bound, coeff_bound); intercept from (-1, 1); prefix length
    from [2p+1, max_prefix]; gap length from [max(1, p-1), max_gap]; prefix
    values then the anchor from (-value_scale, value_scale).

    Vector kind, in order: dimension index into ``dims``; k*k matrix entries
    row by row from (-matrix_bound, matrix_bound); k intercept entries from
    (-1, 1); prefix length from [k+2, max_prefix]; gap length from
    [1, max_gap]; prefix vectors row by row, then the anchor vector.
    """
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    s = limits.value_scale

    if limits.kind == "ar":
        p = int(rng.integers(1, limits.max_order + 1))
        a = rng.uniform(-limits.coeff_bound, limits.coeff_bound, p)
        b = float(rng.uniform(-1.0, 1.0))
        prefix_len = int(rng.integers(2 * p + 1, limits.max_prefix + 1))
        gap_len = int(rng.integers(max(1, p - 1), limits.max_gap + 1))
        prefix = rng.uniform(-s, s, prefix_len)
        anchor = float(rng.uniform(-s, s))
        values = [float(v) for v in prefix] + [None] * gap_len + [anchor]
        return Series.from_values(values), ArModel(a=tuple(a), b=b)

    if limits.kind == "var":
        k = limits.dims[int(rng.integers(0, len(limits.dims)))]
        a = rng.uniform(-limits.matrix_bound, limits.matrix_bound, (k, k))
        b = rng.uniform(-1.0, 1.0, k)
        prefix_len = int(rng.integers(k + 2, limits.max_prefix + 1))
        gap_len = int(rng.integers(1, limits.max_gap + 1))
        rows = [rng.uniform(-s, s, k) for _ in range(prefix_len)]
        anchor = rng.uniform(-s, s, k)
        values = rows + [None] * gap_len + [anchor]
        return Series.from_values(values), VarModel(A=a, b=b)

    raise ValueError(f"unknown instance kind {limits.kind!r}")


@dataclass(frozen=True)
class VerifiedInstance:
    seed: int
    kind: str
    model: object
    segment: object
    solution: ControlSolution
    verdict: Verdict


def _single_gap(series: Series, order: int):
    _, gaps = detect_gaps(series, order)
    if len(gaps) != 1:
        raise DataError(f"generated instance has {len(gaps)} gaps, expected 1")
    return gaps[0]


def verify_instance(seed: int, limits: InstanceLimits = InstanceLimits(),
                    inject_fault: bool = False) -> VerifiedInstance:
    """Generate one instance, run the exact-mode solver, certify the result.

    ``inject_fault`` perturbs the first control before certification; the
    verdict must then fail, which exercises the harness itself.
    """
    series, model = random_instance(seed, limits)
    if limits.kind == "ar":
        segment = _single_gap(series, model.p)
        start = segment.gap_start - 1
        seeds = series.data[start - model.p : start, 0]
        solution = impute_gap_ar(model, segment, seeds, float(segment.anchor_value[0]))
    else:
        segment = _single_gap(series, 1)
        seed_row = series.data[segment.gap_start - 2]
        solution = impute_gap_var(model, segment, seed_row, segment.anchor_value)

    if inject_fault:
        bad = np.array(solution.controls, dtype=float)
        bad[0] = bad[0] + 0.5
        solution = replace(solution, controls=bad)

    delta = np.atleast_1d(np.asarray(segment.anchor_value, dtype=float)) - np.atleast_1d(
        solution.predicted[-1]
    )
    problem = build_problem(model, len(solution.control_indices), delta)
    verdict = certify(solution, problem)
    return VerifiedInstance(
        seed=seed,
        kind=limits.kind,
        model=model,
        segment=segment,
        solution=solution,
        verdict=verdict,
    )
