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

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .fitting import ArModel, RegModel, VarModel, predict_forward
from .linalg import mat_pow_table, row_norms, solve_spd

MODES = ("exact", "paper")

# Weight recurrences abort once any entry passes this magnitude; squared sums
# would otherwise overflow float64.
WEIGHT_OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class ControlSolution:
    """Optimal controls, multiplier, and filled values for one gap.

    ``controls`` is chronological with one entry (scalar or vector) per
    control index. ``imputed`` holds the filled values of the gap's
    positions, and ``predicted`` the uncorrected forecast over every step
    from the gap start through the anchor index, so its last entry is what
    the recursion would have reached with no correction.
    """

    control_indices: range
    controls: np.ndarray
    multiplier: float | np.ndarray
    imputed: np.ndarray
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


def _impulse_response(model: ArModel, length: int) -> np.ndarray:
    """``impulse_weights`` without the overflow check: an explosive recursion
    overflows silently to inf.

    The intercept-free recursion is rolled on Python floats, as
    ``predict_forward`` rolls it, so the weights carry its bits.
    """
    a, p = model.a, model.p
    hist = [0.0] * (p - 1) + [1.0]
    for _ in range(length - 1):
        hist.append(sum(a[j] * hist[-1 - j] for j in range(p)))
    return np.array(hist[p - 1 :])


def _checked_weights(w: np.ndarray) -> np.ndarray:
    beyond = np.flatnonzero(np.abs(w) > WEIGHT_OVERFLOW_LIMIT)
    if beyond.size:
        _check_magnitude(w[beyond[0]], int(beyond[0]), "impulse weight")
    return w


def impulse_weights(model: ArModel, length: int) -> np.ndarray:
    """Impulse response of the fitted recursion, most recent step first.

    ``w[j]`` is the effect on the endpoint of a unit control applied j steps
    before it: w_0 = 1 and w_j = sum_i a_i w_{j-i} over the available lags,
    which is the intercept-free recursion rolled from the seeds 0, ..., 0, 1.
    The response is prefix-stable: its first m entries are the bits of the
    length-m response. A weight past 1e150 raises NumericalError.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    return _checked_weights(_impulse_response(model, length))


def _control_steps(model: ArModel, gap) -> int:
    """How many steps of an AR gap carry a control: gap_start + p - 1
    through the anchor index."""
    return gap.anchor_index - (gap.gap_start + model.p - 1) + 1


def shared_impulse(model: ArModel, gaps) -> np.ndarray | None:
    """One impulse response for every constrained gap in ``gaps``, rolled
    for the gap with the most control steps, to pass to ``impute_gap_ar`` as
    ``impulse``; None when no gap has a control step. It is not checked for
    overflow: each gap checks its own prefix, so the error of the first
    failing gap is raised first."""
    steps = max((_control_steps(model, gap) for gap in gaps if gap.constrained), default=0)
    return _impulse_response(model, steps) if steps >= 1 else None


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
    if not np.isfinite(delta).all():
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


def _gram_sums(powers: np.ndarray) -> np.ndarray:
    """Running sums G_m = sum_{j<m} powers[j] powers[j]^T, one per m.

    Summed strictly in step order (np.sum would reorder the additions), so
    ``_gram_sums(p)[m - 1]`` has the bits of ``_gram_sums(p[:m])[-1]``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(np.matmul(powers, powers.transpose(0, 2, 1)), axis=0)


def solve_controls_var(powers, delta) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange solve of the vector control problem.

    ``powers[j]`` must be the j-th power of the transition matrix, so
    ``powers[0]`` is the identity (a ValueError otherwise). The control
    applied j steps before the endpoint is powers[j]^T lambda where
    G lambda = delta and G = sum_j powers[j] powers[j]^T; this minimizes the
    summed squared control lengths. The j = 0 term makes G >= I, so G is
    positive definite and every offset is reachable. ``delta`` is one offset
    (giving lambda (k,) and controls (m, k)) or a (g, k) stack of them
    (giving (g, k) and (g, m, k)), each row solved as if alone. A G,
    ``delta`` or norm that has overflowed, or a solve that misses
    G lambda = delta by more than 1e-8 (1 + ||delta||), raises
    NumericalError.
    """
    mats = np.asarray(powers, dtype=float)
    if mats.ndim != 3 or mats.shape[0] < 1 or mats.shape[1] != mats.shape[2]:
        raise ValueError("powers must be a nonempty stack of square matrices of one dimension")
    if not np.array_equal(mats[0], np.eye(mats.shape[1])):
        raise ValueError("powers[0] must be the identity matrix")
    return _lagrange(mats, _gram_sums(mats)[-1], delta)


def _lagrange(mats: np.ndarray, gram: np.ndarray, delta) -> tuple[np.ndarray, np.ndarray]:
    """``solve_controls_var`` given its validated powers and their Gram matrix."""
    # a non-finite power puts inf or nan on the diagonal of G
    if not np.isfinite(gram).all():
        raise NumericalError(
            "matrix power overflow: the control Gram matrix is not finite "
            "(explosive transition matrix over a long horizon, or value columns "
            "whose scales differ by many orders of magnitude)"
        )
    _check_offset(delta)
    k = mats.shape[1]
    d = np.asarray(delta, dtype=float)
    if d.shape[-1:] != (k,) or d.ndim > 2:
        raise ValueError(f"delta has shape {d.shape}, expected ({k},) or (g, {k})")

    solution = solve_spd(gram, d)
    lam = solution.x
    rows, offsets = lam.reshape(-1, k), d.reshape(-1, k)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = row_norms(np.matmul(gram, rows[:, :, None])[:, :, 0] - offsets)
        offset = row_norms(offsets)
    if not (np.isfinite(residual).all() and np.isfinite(offset).all()):
        raise NumericalError(
            "norm overflow: the anchor offset or the Lagrange solve's residual has no "
            "finite length (values beyond ~1e154 cannot be squared in float64)"
        )
    missed = ~(residual <= 1e-8 * (1.0 + offset))
    if solution.fallback or missed.any():
        raise NumericalError(
            f"ill-conditioned control problem: the Lagrange solve misses the anchor "
            f"offset by {residual[missed.argmax()]:.3g} (explosive transition matrix over a "
            f"long horizon)"
        )
    # chronological: the first control is applied m - 1 steps before the endpoint
    controls = np.matmul(rows[:, None, None, :], mats[::-1])[:, :, 0, :]
    return lam, (controls if d.ndim == 2 else controls[0])


def _solutions(gaps, first_controls, controls, multipliers, paths, predicted, targets,
               mode: str, diagnostics) -> list:
    """Assemble the ControlSolutions of a stack of constrained fills, one per gap.

    Row i of each stacked argument belongs to ``gaps[i]``: its controls act
    from index ``first_controls[i]`` through the anchor, and ``paths[i]``
    (corrected) and ``predicted[i]`` (uncorrected) run from the gap start
    through the anchor. ``targets`` is (g,) for scalar anchors, whose miss is
    measured by its magnitude, or (g, k) for vector anchors, measured by its
    Euclidean norm. The objective is the sum of squared controls. Both carry
    the bits of ``np.vdot`` and ``np.linalg.norm`` of that fill alone. A
    path, objective or residual that has overflowed raises NumericalError
    for the first such gap; the stack is checked at once.
    """
    g = len(gaps)
    flat = np.ascontiguousarray(controls).reshape(g, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        objectives = np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0]
        miss = paths[:, -1].reshape(targets.shape) - targets
        residuals = np.abs(miss) if miss.ndim == 1 else row_norms(miss)
    finite = np.isfinite(objectives) & np.isfinite(residuals) & np.isfinite(paths.reshape(g, -1)).all(axis=1)
    if not finite.all():
        raise NumericalError(
            f"fill overflow in the gap at index {gaps[int(finite.argmin())].gap_start}: the filled "
            f"values, the summed squared controls or the terminal residual are not finite "
            f"(magnitudes beyond ~1e154 overflow when squared)"
        )
    return [
        ControlSolution(
            control_indices=range(first, gap.anchor_index + 1),
            controls=u,
            multiplier=multiplier,
            imputed=path[: gap.length],
            predicted=forecast,
            terminal_residual=residual,
            objective=objective,
            mode=mode,
            diagnostics=notes,
        )
        for gap, first, u, multiplier, path, forecast, residual, objective, notes in zip(
            gaps, first_controls, controls, multipliers, paths, predicted, residuals.tolist(),
            objectives.tolist(), diagnostics)
    ]


def _solution(gap, first_control: int, controls, multiplier, path, predicted, target,
              mode: str, diagnostics: dict) -> ControlSolution:
    """``_solutions`` for one gap."""
    return _solutions([gap], [first_control], [controls], [multiplier], path[None], [predicted],
                      np.asarray(target, dtype=float)[None], mode, [diagnostics])[0]


def impute_gap_ar(model: ArModel, gap, seeds, anchor: float, mode: str = "exact",
                  impulse=None) -> ControlSolution:
    """Fill one gap of a scalar autoregression so the rolled path ends at ``anchor``.

    Controls act on steps gap_start + p - 1 through the anchor index, so for
    order p >= 2 the first p - 1 gap values follow the uncorrected recursion.
    ``seeds`` supplies at least p values chronologically up to the position
    just before the gap. ``impulse`` may be ``shared_impulse`` of gaps that
    share ``model``, so that they roll the impulse response once; this gap
    uses its prefix, which has the bits it would compute alone.
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

    m = _control_steps(model, gap)
    if m < 1:
        raise NumericalError(
            f"unreachable terminal constraint: order {p} leaves no control step "
            f"in a gap of length {gap.length}"
        )
    if impulse is None:
        impulse = _impulse_response(model, m)
    elif len(impulse) < m:
        raise ValueError(f"impulse response has {len(impulse)} steps, the gap needs {m}")
    weights = _checked_weights(impulse[:m]) if mode == "exact" else gamma_weights(model, m)
    c, controls = solve_controls_scalar(weights, delta)

    values = predict_forward(model, seed_values, total, controls=controls)

    diagnostics = {}
    if mode == "paper":
        psi = _checked_weights(impulse[:m])
        diagnostics["weights_printed"] = [float(v) for v in weights]
        diagnostics["weights_impulse"] = [float(v) for v in psi]
        diagnostics["max_weight_difference"] = float(np.max(np.abs(weights - psi)))

    return _solution(gap, n0 + p, controls, c, values, predicted, target, mode, diagnostics)


def impute_gap_var(model: VarModel, gap, seed, anchor, mode: str = "exact") -> ControlSolution:
    """Vector analogue of ``impute_gap_ar``; controls act on every step.

    ``seed`` is the observation just before the gap. In ``paper`` mode the
    values still come from the exact Lagrange solve; the printed per-step norm
    formula is evaluated alongside the exact norms as a diagnostic. This is
    ``impute_gaps_var`` for one gap.
    """
    return impute_gaps_var(model, [gap], [seed], [anchor], mode)[0]


def impute_gaps_var(model: VarModel, gaps, seeds, anchors, mode: str = "exact") -> list:
    """Fill gaps that share one VAR(1) model; one ControlSolution per gap, in order.

    ``seeds[i]`` is the observation just before ``gaps[i]`` and ``anchors[i]``
    its anchor. The power table and the running Gram sums are built once for
    the longest gap and sliced per length (both are prefix-stable). The gaps
    of one length advance as one stacked path and share one multiplier
    solve, and each gap gets the bits it would get alone. If any gap fails,
    the gaps are solved again one at a time in order, so the error raised is
    that of the first failing gap, as in a left-to-right loop.
    """
    _check_mode(mode)
    if not all(gap.constrained for gap in gaps):
        raise ValueError("gap has no anchor; use the open-gap prediction path")
    if not gaps:
        return []
    k = model.dim
    # checked once for the stack, but worded for one gap, as impute_gap_var reports
    starts = np.asarray(seeds, dtype=float).reshape(len(gaps), -1)
    if starts.shape[1] != k:
        raise DataError(f"seed must have {k} components, got shape {starts.shape[1:]}")
    targets = np.asarray(anchors, dtype=float)
    if targets.ndim != 2 or targets.shape[1] < 1:
        raise ValueError(f"expected a 1-D vector, got shape {targets.shape[1:]}")
    if not np.isfinite(targets).all():
        raise ValueError("vector entries must be finite")
    if targets.shape[1] != k:
        raise ValueError(f"anchor has {targets.shape[1]} components, expected {k}")
    steps = np.array([gap.anchor_index - gap.gap_start + 1 for gap in gaps])
    powers = mat_pow_table(model.A, int(steps.max()) - 1)
    grams = _gram_sums(powers)

    solutions = [None] * len(gaps)
    try:
        # not np.unique, whose first call imports numpy.ma (half a megabyte)
        for m in sorted(set(steps.tolist())):
            batch = np.flatnonzero(steps == m)
            start = starts[batch]
            predicted = predict_forward(model, start, m)
            delta = targets[batch] - predicted[:, -1]
            lam, controls = _lagrange(powers[:m], grams[m - 1], delta)
            values = predict_forward(model, start, m, controls=controls)
            members = [gaps[i] for i in batch.tolist()]
            diagnostics = [_step_norms(powers[:m], d, u) if mode == "paper" else {}
                           for d, u in zip(delta, controls)]
            solved = _solutions(members, [gap.gap_start for gap in members], controls, lam, values,
                                predicted, targets[batch], mode, diagnostics)
            for i, solution in zip(batch.tolist(), solved):
                solutions[i] = solution
    except NumericalError:
        if len(gaps) == 1:
            raise
        for i in range(len(gaps)):
            impute_gaps_var(model, gaps[i : i + 1], starts[i : i + 1], targets[i : i + 1], mode)
        raise
    return solutions


def _step_norms(powers: np.ndarray, delta: np.ndarray, controls: np.ndarray) -> dict:
    """Paper-mode diagnostics of one VAR gap: the printed per-step norm
    formula beside the exact norms of the controls."""
    column_sums = powers.sum(axis=1)
    column_sum_square = float(np.cumsum(np.sum(column_sums**2, axis=1))[-1])
    scale = float(np.linalg.norm(delta)) / column_sum_square
    return {
        "step_norm_formula": (scale * powers[::-1].sum(axis=(1, 2))).tolist(),
        "step_norm_exact": np.linalg.norm(controls, axis=1).tolist(),
    }


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
