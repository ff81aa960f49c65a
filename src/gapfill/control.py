"""Minimum-energy corrections that steer a fitted recursion to a known endpoint.

Each gap is filled by rolling the fitted recursion forward and adding per-step
controls chosen to minimize the summed squared control magnitudes subject to
landing on the first observed value after the gap. Two weight formulations
exist for the scalar path: ``exact`` uses the impulse response of the
recursion, which provably meets the terminal constraint; ``paper`` evaluates
an alternative printed recurrence kept for comparison, whose terminal residual
is reported rather than guaranteed once the order exceeds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .fitting import ArModel, RegModel, VarModel, predict_forward
from .linalg import as_vector, mat_pow_table, solve_spd

MODES = ("exact", "paper")

# Weight recurrences abort once any entry passes this magnitude; squared sums
# would otherwise overflow float64.
WEIGHT_OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class ControlSolution:
    """Optimal controls, multiplier, and filled values for one gap.

    ``controls`` is chronological with one entry (scalar or vector) per
    control index. ``predicted`` holds the uncorrected forecast over every
    step from the gap start through the anchor index, so the last entry is
    what the recursion would have reached with no correction.
    """

    control_indices: tuple[int, ...]
    controls: np.ndarray
    multiplier: float | np.ndarray
    imputed_indices: tuple[int, ...]
    imputed: np.ndarray
    predicted_indices: tuple[int, ...]
    predicted: np.ndarray
    terminal_residual: float | None
    objective: float
    mode: str
    constrained: bool = True
    diagnostics: dict = field(default_factory=dict)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")


def _check_magnitude(value: float, step: int, what: str) -> None:
    if abs(value) > WEIGHT_OVERFLOW_LIMIT:
        raise NumericalError(
            f"{what} overflow at step {step}: magnitude exceeds 1e150 "
            f"(explosive coefficients over a long horizon)"
        )


def impulse_weights(model: ArModel, length: int) -> np.ndarray:
    """Impulse response of the fitted recursion, most recent step first.

    ``w[j]`` is the effect on the endpoint of a unit control applied j steps
    before it: w_0 = 1 and w_j = sum_i a_i w_{j-i} over the available lags,
    which is the intercept-free recursion rolled from the seeds 0, ..., 0, 1.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    seeds = [0.0] * (model.p - 1) + [1.0]
    w = np.concatenate(([1.0], predict_forward(ArModel(a=model.a, b=0.0), seeds, length - 1)))
    beyond = np.flatnonzero(np.abs(w) > WEIGHT_OVERFLOW_LIMIT)
    if beyond.size:
        _check_magnitude(w[beyond[0]], int(beyond[0]), "impulse weight")
    return w


def gamma_weights(model: ArModel, length: int) -> np.ndarray:
    """Printed-recurrence weights used by ``paper`` mode, most recent step first.

    For order 1 these are plain powers of the lag coefficient and coincide
    with ``impulse_weights``. For order >= 2 each weight sums p running
    components: component k starts with a unit entry at step k-1, then follows
    a_k times the whole weight k steps back, and the highest-lag component
    additionally receives a constant unit feed. The result equals the running
    sums of the impulse weights, so beyond order 1 a path corrected with these
    weights generally misses the endpoint; callers report the residual.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    p = model.p
    if p == 1:
        g = np.empty(length)
        g[0] = 1.0
        for j in range(1, length):
            g[j] = model.a[0] * g[j - 1]
            _check_magnitude(g[j], j, "weight")
        return g

    alpha = np.zeros((length, p))
    gamma = np.empty(length)
    for k in range(1, p + 1):
        if k - 1 < length:
            alpha[k - 1, k - 1] = 1.0
    gamma[0] = alpha[0].sum()
    for n in range(1, length):
        for k in range(1, p + 1):
            if n >= k:
                alpha[n, k - 1] = model.a[k - 1] * gamma[n - k] + (1.0 if k == p else 0.0)
        gamma[n] = alpha[n].sum()
        _check_magnitude(gamma[n], n, "weight")
    return gamma


def _check_offset(delta) -> None:
    if not np.all(np.isfinite(delta)):
        raise NumericalError(
            "forecast overflow: the offset to the anchor is not finite "
            "(explosive coefficients or huge values over a long horizon)"
        )


def solve_controls_scalar(weights, delta: float) -> tuple[float, np.ndarray]:
    """Spread ``delta`` over the control steps in proportion to ``weights``.

    Returns the multiplier c = delta / sum(w^2) and the chronological control
    sequence c*w_{m-1}, ..., c*w_0. With impulse weights this is the unique
    minimizer of the summed squared controls subject to hitting the endpoint.
    A non-finite ``delta`` (an overflowed forecast) raises NumericalError.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a nonempty 1-D sequence")
    denom = float(w @ w)
    if denom == 0.0:
        raise NumericalError("unreachable terminal constraint: all control weights are zero")
    _check_offset(delta)
    c = float(delta) / denom
    return c, c * w[::-1]


def solve_controls_var(powers, delta) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange solve of the vector control problem.

    ``powers[j]`` must be the j-th power of the transition matrix, so
    ``powers[0]`` is the identity (a ValueError otherwise). The control
    applied j steps before the endpoint is powers[j]^T lambda where
    G lambda = delta and G = sum_j powers[j] powers[j]^T; this minimizes the
    summed squared control lengths. The j = 0 term makes G >= I, so G is
    positive definite and every offset is reachable. A G, ``delta`` or norm
    that has overflowed, or a solve that misses G lambda = delta by more than
    1e-8 (1 + ||delta||), raises NumericalError.
    """
    mats = np.asarray(powers, dtype=float)
    if mats.ndim != 3 or mats.shape[0] < 1 or mats.shape[1] != mats.shape[2]:
        raise ValueError("powers must be a nonempty stack of square matrices of one dimension")
    k = mats.shape[1]
    if not np.array_equal(mats[0], np.eye(k)):
        raise ValueError("powers[0] must be the identity matrix")
    # summed strictly in step order; np.sum would reorder the additions
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.cumsum(np.matmul(mats, mats.transpose(0, 2, 1)), axis=0)[-1]
    # a non-finite power puts inf or nan on the diagonal of G
    if not np.isfinite(gram).all():
        raise NumericalError(
            "matrix power overflow: the control Gram matrix is not finite "
            "(explosive transition matrix over a long horizon, or value columns "
            "whose scales differ by many orders of magnitude)"
        )
    _check_offset(delta)
    d = as_vector(delta)
    if d.shape[0] != k:
        raise ValueError(f"delta has length {d.shape[0]}, expected {k}")

    solution = solve_spd(gram, d)
    lam = solution.x
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(gram @ lam - d))
        offset = float(np.linalg.norm(d))
    if not (math.isfinite(residual) and math.isfinite(offset)):
        raise NumericalError(
            "norm overflow: the anchor offset or the Lagrange solve's residual has no "
            "finite length (values beyond ~1e154 cannot be squared in float64)"
        )
    if solution.fallback or not residual <= 1e-8 * (1.0 + offset):
        raise NumericalError(
            f"ill-conditioned control problem: the Lagrange solve misses the anchor "
            f"offset by {residual:.3g} (explosive transition matrix over a long horizon)"
        )
    # chronological: the first control is applied m - 1 steps before the endpoint
    return lam, lam @ mats[::-1]


def _solution(gap, first_control: int, controls, multiplier, path, predicted, target,
              mode: str, diagnostics: dict) -> ControlSolution:
    """Assemble the ControlSolution of one constrained fill.

    ``path`` is the corrected path and ``predicted`` the uncorrected forecast,
    both from the gap start through the anchor; ``controls`` act from index
    ``first_control`` through the anchor. The terminal residual is
    |path_end - target| for a scalar ``target`` and the Euclidean norm of the
    miss otherwise. A path, objective or residual that has overflowed raises
    NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        miss = path[-1] - target
        residual = float(abs(miss) if np.ndim(target) == 0 else np.linalg.norm(miss))
        objective = float(np.vdot(controls, controls))
    if not (math.isfinite(objective) and math.isfinite(residual) and np.isfinite(path).all()):
        raise NumericalError(
            f"fill overflow in the gap at index {gap.gap_start}: the filled values, the "
            f"summed squared controls or the terminal residual are not finite "
            f"(magnitudes beyond ~1e154 overflow when squared)"
        )
    end = gap.anchor_index
    return ControlSolution(
        control_indices=tuple(range(first_control, end + 1)),
        controls=controls,
        multiplier=multiplier,
        imputed_indices=tuple(gap.indices),
        imputed=path[: gap.length],
        predicted_indices=tuple(range(gap.gap_start, end + 1)),
        predicted=predicted,
        terminal_residual=residual,
        objective=objective,
        mode=mode,
        diagnostics=diagnostics,
    )


def impute_gap_ar(model: ArModel, gap, seeds, anchor: float, mode: str = "exact") -> ControlSolution:
    """Fill one gap of a scalar autoregression so the rolled path ends at ``anchor``.

    Controls act on steps gap_start + p - 1 through the anchor index, so for
    order p >= 2 the first p - 1 gap values follow the uncorrected recursion.
    ``seeds`` supplies at least p values chronologically up to the position
    just before the gap.
    """
    _check_mode(mode)
    if not gap.constrained:
        raise ValueError("gap has no anchor; use the open-gap prediction path")
    p = model.p
    n0 = gap.gap_start - 1
    end = gap.anchor_index
    total = end - n0

    seed_values = np.asarray(seeds, dtype=float).ravel()
    predicted = predict_forward(model, seed_values, total)
    target = float(np.atleast_1d(np.asarray(anchor, dtype=float))[0])
    delta = target - predicted[-1]

    m = end - (n0 + p) + 1
    if m < 1:
        raise NumericalError(
            f"unreachable terminal constraint: order {p} leaves no control step "
            f"in a gap of length {gap.length}"
        )
    weights = impulse_weights(model, m) if mode == "exact" else gamma_weights(model, m)
    c, controls = solve_controls_scalar(weights, delta)

    values = predict_forward(model, seed_values, total, controls=controls)

    diagnostics = {}
    if mode == "paper":
        psi = impulse_weights(model, m)
        diagnostics["weights_printed"] = [float(v) for v in weights]
        diagnostics["weights_impulse"] = [float(v) for v in psi]
        diagnostics["max_weight_difference"] = float(np.max(np.abs(weights - psi)))

    return _solution(gap, n0 + p, controls, c, values, predicted, target, mode, diagnostics)


def impute_gap_var(model: VarModel, gap, seed, anchor, mode: str = "exact") -> ControlSolution:
    """Vector analogue of ``impute_gap_ar``; controls act on every step.

    ``seed`` is the observation just before the gap. In ``paper`` mode the
    values still come from the exact Lagrange solve; the printed per-step norm
    formula is evaluated alongside the exact norms as a diagnostic.
    """
    _check_mode(mode)
    if not gap.constrained:
        raise ValueError("gap has no anchor; use the open-gap prediction path")
    k = model.dim
    n0 = gap.gap_start - 1
    end = gap.anchor_index
    m = end - n0

    predicted = predict_forward(model, seed, m)
    target = as_vector(anchor)
    if target.shape[0] != k:
        raise ValueError(f"anchor has {target.shape[0]} components, expected {k}")
    delta = target - predicted[-1]

    powers = mat_pow_table(model.A, m - 1)
    lam, controls = solve_controls_var(powers, delta)

    values = predict_forward(model, seed, m, controls=controls)

    diagnostics = {}
    if mode == "paper":
        column_sums = powers.sum(axis=1)
        column_sum_square = float(np.cumsum(np.sum(column_sums**2, axis=1))[-1])
        scale = float(np.linalg.norm(delta)) / column_sum_square
        diagnostics["step_norm_formula"] = (scale * powers[::-1].sum(axis=(1, 2))).tolist()
        diagnostics["step_norm_exact"] = np.linalg.norm(controls, axis=1).tolist()

    return _solution(gap, n0 + 1, controls, lam, values, predicted, target, mode, diagnostics)


def impute_gap_regression(model: RegModel, gap, covariates, anchor) -> ControlSolution:
    """Fill a regression gap with the uniform per-step correction.

    ``covariates`` holds one row per index from the last position before the
    gap through the anchor (gap length + 2 rows). The corrected path starts
    from the fitted value at the pre-gap position, adds the fitted
    between-step increments, and spreads the endpoint mismatch evenly over the
    steps, which minimizes the summed squared corrections for these
    unit-coefficient dynamics.
    """
    if not gap.constrained:
        raise ValueError("gap has no anchor; use the open-gap prediction path")
    n0 = gap.gap_start - 1
    end = gap.anchor_index
    m = end - n0

    x = np.asarray(covariates, dtype=float)
    if x.shape[0] != m + 1:
        raise ValueError(f"need {m + 1} covariate rows (pre-gap through anchor), got {x.shape[0]}")
    fitted = predict_forward(model, None, m + 1, covariates=x)

    target = np.atleast_1d(np.asarray(anchor, dtype=float))
    if target.shape[0] != model.n_outputs:
        raise ValueError(f"anchor has {target.shape[0]} components, expected {model.n_outputs}")
    correction = (target - fitted[-1]) / m
    controls = np.tile(correction, (m, 1))
    values = fitted[1:] + np.cumsum(controls, axis=0)
    predicted = fitted[1:]
    multiplier: float | np.ndarray = correction
    if np.ndim(anchor) == 0:
        controls = controls[:, 0]
        values = values[:, 0]
        predicted = predicted[:, 0]
        multiplier = float(correction[0])
    return _solution(gap, n0 + 1, controls, multiplier, values, predicted, target, "exact",
                     {"correction_rule": "uniform"})
