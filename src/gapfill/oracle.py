"""Brute-force verifier for the control solutions.

The verifier restates each gap as a generic equality-constrained minimization
(minimize the summed squared controls subject to the controls steering the
endpoint onto the anchor) and solves its stationarity system directly. Every
model is cast as a first-order state-space recursion (an AR(p) in companion
form, with the control entering on the first state coordinate; a regression
with identity dynamics), and the constraint matrices are descending powers of
its transition matrix. The powers are built by doubling (``_descending_powers``),
so m steps take O(log m) stacked products; each power has the same bits
whatever the number of steps, so a longer table's last m steps are a shorter
one. The verifier imports nothing from the solver, so no code is shared with
the weight recurrences being checked. Problems come in stacks, one target per
row, each with its own control count: a stack shares one power table to its
longest count, takes one SPD solve, and only forms its Gram matrices, its
attained endpoints and its summed squares per run of equal counts, whose
bits would change at another length.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .models import ArModel, VarModel, as_models
from .linalg import equal_runs, row_norms, solve_spd, split_runs
from .series import Series

# A stationarity solution whose constraint residual exceeds this (relative)
# bound marks the problem itself as infeasible.
FEASIBILITY_TOLERANCE = 1e-8

# Certification bound on both the objective gap and the constraint residual.
CERTIFY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ConstrainedProblem:
    """min sum ||u_i||^2 subject to sum_i C_i u_i = target, C_i chronological.

    ``steps`` is stored as one (m, k, k) float64 array, C_i = steps[i], and
    ``target`` as a (g, k) stack of g problems, one per row, that are solved
    and certified together: one offset is a stack of one. A sequence of
    scalars becomes 1x1 matrices. The problems share the steps, or, given as
    a (g, m, k, k) array, problem j has its own steps[j]. ``counts``, if
    given, is a non-decreasing control count per problem: problem j then has
    only the last counts[j] of its steps.
    """

    steps: np.ndarray
    target: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        try:
            c = np.asarray(self.steps, dtype=float)
        except ValueError:
            raise ValueError("constraint steps must share one dimension") from None
        if c.ndim in (1, 2):
            c = c.reshape(c.shape + (1,) * (3 - c.ndim))
        if c.ndim not in (3, 4):
            raise ValueError(f"constraint steps must form an (m, k, k) stack, got shape {c.shape}")
        if c.shape[-3] < 1:
            raise ValueError("problem needs at least one control step")
        if c.shape[-2] != c.shape[-1]:
            raise ValueError(f"constraint step must be square, got shape {c.shape[-2:]}")
        k, m = c.shape[-1], c.shape[-3]
        t = np.atleast_2d(np.asarray(self.target, dtype=float))
        if t.shape[-1:] != (k,) or t.ndim > 2:
            raise ValueError(f"target must have {k} components, got shape {t.shape}")
        if c.ndim == 4 and t.shape != (len(c), k):
            raise ValueError(f"{len(c)} stacks of steps need a ({len(c)}, {k}) target, "
                             f"got shape {t.shape}")
        counts = np.full(len(t), m) if self.counts is None else np.asarray(self.counts)
        if (counts.shape != t.shape[:1] or counts[0] < 1 or counts[-1] > m
                or (counts[1:] < counts[:-1]).any()):
            raise ValueError(f"counts must be one per target, non-decreasing and in 1..{m}")
        object.__setattr__(self, "steps", c)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return self.steps.shape[-1]

    @cached_property
    def runs(self) -> list:
        """Per run of equal counts m, its rows (a slice) and their last m
        steps: (m, k, k) if shared, (n, m, k, k) if per target."""
        m, steps = self.steps.shape[-3], self.steps
        return [(slice(lo, hi), (steps[lo:hi] if steps.ndim == 4 else steps)[..., m - count :, :, :])
                for lo, hi, count in equal_runs(self.counts)]

    def split(self, rows: np.ndarray) -> list:
        """Each run's (n, m, k) view of ``rows``, one row per step, target
        after target."""
        return split_runs(rows.reshape(len(rows), -1), self.counts, equal_runs(self.counts))


@dataclass(frozen=True)
class OracleResult:
    """The stationary points of a problem's stacked targets: every field has
    a leading axis with one entry per target, but ``controls``, which holds
    one row per step, target after target, is (g, m, k) only when every
    target has m steps."""

    controls: np.ndarray
    objective: np.ndarray
    constraint_residual: np.ndarray
    feasible: np.ndarray
    multiplier: np.ndarray


class Verdict(NamedTuple):
    passed: bool
    objective_gap: float
    constraint_residual: float
    objective_solution: float
    objective_oracle: float


@dataclass(frozen=True, eq=False)
class BatchVerdict(Sequence):
    """The verdicts of gaps certified together, in order, held as
    ``columns``: one array per Verdict field, one entry per gap. Indexing
    or iterating gives Verdicts, which ``verdicts`` builds on first access."""

    columns: tuple

    @cached_property
    def verdicts(self) -> tuple[Verdict, ...]:
        return tuple(map(Verdict._make, zip(*(column.tolist() for column in self.columns))))

    @property
    def passed(self) -> bool:
        """True only when every gap passed."""
        return bool(self.columns[0].all())

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        return self.verdicts[i]


def _landings(problem: ConstrainedProblem, controls) -> tuple[np.ndarray, np.ndarray]:
    """How far stacked controls, the (n, m, k) controls of each run of equal
    counts in turn, land from their targets (the length of sum_i C_i u_i -
    target) and their summed squares, one per target: the landing sums
    strictly in step order, and the squares pairwise over the run's length
    (else the last bits, and so the reported certificate margins, would
    change). Huge controls overflow quietly to inf or nan, which no
    tolerance passes."""
    attained, squares = np.empty(problem.target.shape), np.empty(len(problem.target))
    with np.errstate(over="ignore", invalid="ignore"):
        for (rows, steps), u in zip(problem.runs, controls):
            attained[rows] = np.cumsum(np.matmul(steps, u[..., None])[..., 0], axis=1)[:, -1]
            squares[rows] = (u * u).reshape(len(u), -1).sum(axis=1)
        return row_norms(attained - problem.target), squares


def _stationary(problem: ConstrainedProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stationary controls, one row per step, target after target, and
    multipliers (g, k) of the stacked targets, and per target whether it
    and its Gram matrix are finite: one Gram matrix per run of equal counts
    (per target for per-target steps), and one solve of the finite ones.
    A target that is not finite, or a Gram matrix that overflows, quietly
    leaves the target's controls and multipliers nan."""
    targets = problem.target
    grams = np.empty(targets.shape + targets.shape[-1:])
    controls = np.empty((int(problem.counts.sum()), problem.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, steps in problem.runs:
            grams[rows] = np.cumsum(np.matmul(steps, np.swapaxes(steps, -2, -1)), axis=-3)[..., -1, :, :]
        finite = np.isfinite(grams).all(axis=(-2, -1)) & np.isfinite(targets).all(axis=1)
        lam = np.full(targets.shape, np.nan)
        if finite.any():
            lam[finite] = solve_spd(grams[finite], targets[finite]).x
        for (rows, steps), u in zip(problem.runs, problem.split(controls)):
            u[...] = np.matmul(np.swapaxes(steps, -2, -1), lam[rows, None, :, None])[..., 0]
    return controls, lam, finite


def kkt_solve(problem: ConstrainedProblem) -> OracleResult:
    """Solve the stationarity system of the constrained minimization.

    Stationarity gives u_i = C_i^T lambda with (sum_i C_i C_i^T) lambda =
    target; convexity makes any feasible stationary point the global minimum.
    Feasibility is judged by the residual of the recovered controls against
    the constraint, relative to the target's norm; a target whose norm
    overflows is not feasible, nor is one that is not finite or whose Gram
    matrix overflows, which gets an objective of inf. The stacked targets
    are solved in one call, each with the bits it would get alone.
    """
    controls, lam, solvable = _stationary(problem)
    runs = problem.split(controls)
    residual, squares = _landings(problem, runs)
    size = row_norms(problem.target)
    return OracleResult(
        controls=runs[0] if len(runs) == 1 else controls,
        objective=np.where(solvable, squares, np.inf),
        constraint_residual=residual,
        feasible=np.isfinite(size) & (residual <= FEASIBILITY_TOLERANCE * (1.0 + size)),
        multiplier=lam,
    )


def _transition_matrix(models) -> np.ndarray:
    """The (g, p, p) one-step state transitions F of the Models ``models``,
    with the control entering on the first coordinates: the companion
    matrix of an AR(p) (first row ``a``, ones on the subdiagonal), ``A`` of
    a VAR(1), and the identity for a regression, whose outputs carry no
    dynamics. Each matrix has the bits of its model's own."""
    if models.kind is ArModel:
        f = np.zeros((len(models), models.p, models.p))
        f[:, 1:, :-1] = np.eye(models.p - 1)
        f[:, 0, :] = models.a
        return f
    if models.kind is VarModel:
        return np.ascontiguousarray(models.A)
    return np.tile(np.eye(models.n_outputs), (len(models), 1, 1))


def _descending_powers(f: np.ndarray, steps: int) -> np.ndarray:
    """F^(steps-1), ..., F, I for a (p, p) ``f``, or for each matrix of a
    (g, p, p) stack, with the step axis first.

    The ascending table T = I, F, F^2, ... is built by doubling: with T[:n]
    known, F^n = T[n-1] F and T[n:2n] = T[:n] F^n in one stacked product,
    the last block cut at ``steps``. Each entry's bits depend only on its
    power, so every table is the leading part of a longer one, and each
    matrix of a stack has the bits of its table alone. Explosive models
    overflow silently to inf.
    """
    table = np.empty((steps,) + f.shape)
    table[0] = np.eye(f.shape[-1])
    n = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while n < steps:
            block = table[n : 2 * n]
            np.matmul(table[: len(block)], np.matmul(table[n - 1], f), out=block)
            n *= 2
    return table[::-1]


def build_problem(model, steps, target) -> ConstrainedProblem:
    """Assemble the terminal constraint for ``steps`` chronological controls.

    A control i steps before the anchor moves the endpoint by E^T F^i E, with
    F the model's transition matrix (see ``_transition_matrix``) and E the
    first k state coordinates: k = 1 for an AR model, the full state
    otherwise. The powers come from ``_descending_powers``, so the steps of
    a shorter problem are the last ones of a longer problem's, bit for bit.
    Explosive models overflow silently to inf. ``target`` is a (g, k) stack
    of offsets, or one offset, and ``steps`` one control count for them all
    or a non-decreasing count per row: one power table to the largest count
    serves every row (see ``ConstrainedProblem.counts``). ``model`` is the
    model of every gap (or a Models of one), or a Models with one model per
    row of ``target``; the steps are then (g, m, k, k), each gap's the bits
    of its problem alone.
    """
    counts = None if np.ndim(steps) == 0 else np.asarray(steps)
    longest = int(steps if counts is None else counts.max(initial=0))
    if longest < 1:
        raise ValueError("steps must be >= 1")
    models = as_models(model)
    f = _transition_matrix(models)
    k = 1 if models.kind is ArModel else f.shape[-1]
    # per-target powers come step first; the gap axis moves to the front, and one model's has none
    powers = np.moveaxis(_descending_powers(f[0] if len(models) == 1 else f, longest), 0, -3)
    return ConstrainedProblem(powers[..., :k, :k], target, counts)


def certify(controls, problem: ConstrainedProblem) -> BatchVerdict:
    """Check controls against the independent stationarity solve.

    ``controls`` holds the chronological controls of every target of
    ``problem``, one row per step, one target after another: as many rows
    as ``problem.counts`` sums to, each of the problem's dimension (a
    ValueError otherwise). A target's
    controls pass when they are feasible and their objective matches the
    oracle optimum, both to CERTIFY_TOLERANCE relative; an optimum that
    overflows certifies nothing. Each target gets a Verdict.
    """
    targets, total = problem.target, int(problem.counts.sum())
    if len(controls) != total:
        raise ValueError(f"{len(controls)} control rows for the {total} steps of the problem's targets")
    if np.size(controls) != total * problem.dim:
        raise ValueError(f"controls of shape {np.shape(controls)} for {total} steps of {problem.dim} "
                         f"components")
    oracle = kkt_solve(problem)
    misses, values = _landings(problem, problem.split(controls))
    best = oracle.objective
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.abs(values - best)
        passed = (oracle.feasible & np.isfinite(best)
                  & (gaps <= CERTIFY_TOLERANCE * (1.0 + np.abs(best)))
                  & (misses <= CERTIFY_TOLERANCE * (1.0 + row_norms(targets))))
    return BatchVerdict((passed, gaps, misses, values, best))


@dataclass(frozen=True)
class InstanceLimits:
    """Bounds for the seeded instance generator; all draws are uniform.

    ``kind``, ``max_order`` and ``max_gap`` are settable; the other bounds
    are constants of the generator, not fields.
    """

    kind: str = "ar"
    max_order: int = 3
    max_gap: int = 12
    dims = (2, 3)
    max_prefix = 40
    coeff_bound = 1.2
    matrix_bound = 0.9
    value_scale = 5.0

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
