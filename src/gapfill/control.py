"""Minimum-energy corrections that steer a fitted recursion to a known endpoint.

Each gap is filled by rolling the fitted model forward and adding per-step
controls of least summed squared magnitude that land the path on the first
observed value after the gap. With F the model's transition matrix, the
control applied j steps before the anchor is u_j = (C F^j B)^T lambda, where
G lambda = delta (the anchor's offset from the forecast) and
G = sum_j (C F^j B)(C F^j B)^T (Kailath, Linear Systems, 1980). ``_blocks``
gives C F^j B: the impulse weights of an AR (its companion matrix with
B = C^T = e_1), the powers of a VAR's A (B = C = I), and identities for a
regression (F = I, so lambda = delta / m is a uniform correction).
``impute_gaps`` solves every model with that one kernel. In ``paper`` mode
an AR's controls follow a printed recurrence kept for comparison, whose miss
is reported, and a VAR reports the printed per-step norm formula.
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


def _fill_overflow(gap) -> NumericalError:
    return NumericalError(
        f"fill overflow in the gap at index {gap.gap_start}: the filled values, the summed "
        f"squared controls or the terminal residual are not finite (magnitudes beyond ~1e154 "
        f"overflow when squared)"
    )


def _norm_overflow() -> NumericalError:
    return NumericalError(
        "norm overflow: the anchor offset or the Lagrange solve's residual has no "
        "finite length (values beyond ~1e154 cannot be squared in float64)"
    )


def _blocks(model, m: int) -> np.ndarray:
    """The (m, k, k) blocks C F^j B, j = 0 .. m - 1, of ``model``, unchecked
    for overflow and prefix-stable: an AR's impulse response, a VAR's powers
    of A, or a regression's identities (F = I)."""
    if isinstance(model, ArModel):
        return _impulse_response(model, m).reshape(m, 1, 1)
    if isinstance(model, VarModel):
        return mat_pow_table(model.A, m - 1)
    k = model.n_outputs
    return np.broadcast_to(np.eye(k), (m, k, k))


def _gram_sums(blocks: np.ndarray) -> np.ndarray:
    """Running sums G_m = sum_{j<m} blocks[j] blocks[j]^T along the step axis
    (third from last), strictly in step order (np.sum would reorder the
    additions), so the sum of the first m blocks has the bits of theirs alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(np.matmul(blocks, np.swapaxes(blocks, -2, -1)), axis=-3)


def solve_controls(blocks, delta) -> tuple[np.ndarray, np.ndarray]:
    """Lambda and the chronological controls of least summed squared length
    that move the endpoint by ``delta``: one offset (k,), or a (g, k) stack
    of them solved row by row. ``blocks`` is the (m, k, k) stack of C F^j B,
    most recent first (1-D for k = 1), and ``blocks[0]`` must be the identity
    (a ValueError otherwise), so G >= I. A non-finite G or ``delta``, or (for
    blocks not all diagonal) a solve missing by over 1e-8 (1 + ||delta||),
    raises NumericalError.
    """
    mats = np.asarray(blocks, dtype=float)
    if mats.ndim == 1:
        mats = mats[:, None, None]
    if mats.ndim != 3 or mats.shape[0] < 1 or mats.shape[1] != mats.shape[2]:
        raise ValueError("blocks must be a nonempty stack of square matrices of one dimension")
    k = mats.shape[1]
    if not np.array_equal(mats[0], np.eye(k)):
        raise ValueError("blocks[0] must be the identity matrix")
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    if d.shape[-1:] != (k,) or d.ndim > 2:
        raise ValueError(f"delta has shape {d.shape}, expected ({k},) or (g, {k})")
    lam, controls = _lagrange(mats, _gram_sums(mats)[-1], d.reshape(-1, k))
    return (lam, controls) if d.ndim == 2 else (lam[0], controls[0])


def _lagrange(blocks: np.ndarray, gram: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The multipliers (g, k) and chronological controls (g, m, k) for the
    (g, k) offsets ``delta``, under shared (m, k, k) ``blocks`` with Gram
    matrix ``gram`` (k, k), or one (m, k, k) stack and Gram matrix per row."""
    # a non-finite block puts inf or nan on the diagonal of G
    if not np.isfinite(gram).all():
        raise NumericalError(
            "matrix power overflow: the control Gram matrix is not finite "
            "(explosive transition matrix over a long horizon, or value columns "
            "whose scales differ by many orders of magnitude)"
        )
    if not np.isfinite(delta).all():
        raise NumericalError(
            "forecast overflow: the offset to the anchor is not finite "
            "(explosive coefficients or huge values over a long horizon)"
        )
    # chronological: the first control is applied m - 1 steps before the endpoint
    steps = np.flip(blocks, axis=-3)
    if not np.count_nonzero(steps[..., ~np.eye(delta.shape[1], dtype=bool)]):
        # diagonal blocks (one output, or a regression's identities) make one
        # problem per output, each a plain division: a Cholesky solve would give
        # delta / sqrt(G) / sqrt(G), and a product keeps the sign of a zero
        # control, which matmul does not
        lam = delta / np.diagonal(gram, axis1=-2, axis2=-1)
        return lam, lam[:, None, :] * np.diagonal(steps, axis1=-2, axis2=-1)

    solution = solve_spd(gram, delta)
    lam = solution.x
    with np.errstate(over="ignore", invalid="ignore"):
        residual = row_norms(np.matmul(gram, lam[:, :, None])[:, :, 0] - delta)
        offset = row_norms(delta)
    if not (np.isfinite(residual).all() and np.isfinite(offset).all()):
        raise _norm_overflow()
    missed = ~(residual <= 1e-8 * (1.0 + offset))
    if solution.fallback or missed.any():
        raise NumericalError(
            f"ill-conditioned control problem: the Lagrange solve misses the anchor "
            f"offset by {residual[missed.argmax()]:.3g} (explosive transition matrix over a "
            f"long horizon)"
        )
    return lam, np.matmul(lam[:, None, None, :], steps)[:, :, 0, :]


def _solutions(gaps, first_controls, controls, multipliers, paths, predicted, targets,
               mode: str, diagnostics) -> list:
    """The ControlSolutions of a stack of constrained fills, one per gap.

    Row i of each argument belongs to ``gaps[i]``: its controls act from
    ``first_controls[i]`` through the anchor, and ``paths[i]`` (corrected)
    and ``predicted[i]`` run from the gap start through the anchor. The miss
    of a (g,) ``targets`` row is its magnitude, of a (g, k) row its norm;
    the objective is the sum of squared controls, each with the bits of that
    fill alone. The stack is checked at once for overflow, which raises
    NumericalError for the first such gap.
    """
    g = len(gaps)
    flat = np.ascontiguousarray(controls).reshape(g, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        objectives = np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0]
        miss = paths[:, -1].reshape(targets.shape) - targets
        residuals = np.abs(miss) if miss.ndim == 1 else row_norms(miss)
    finite = np.isfinite(objectives) & np.isfinite(residuals) & np.isfinite(paths.reshape(g, -1)).all(axis=1)
    if not finite.all():
        raise _fill_overflow(gaps[int(finite.argmin())])
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


def _roll(model, starts, steps: int, controls=None) -> np.ndarray:
    """``predict_forward`` of ``steps`` steps from each of ``starts``, with
    the rows of ``controls`` on the last steps; one row per start. ``model``
    is one model or a list, one per start. One VAR advances every path at once."""
    if isinstance(model, VarModel):
        return predict_forward(model, starts, steps, controls=controls)
    models = model if isinstance(model, list) else [model] * len(starts)
    controls = [None] * len(starts) if controls is None else controls
    # a regression reads its start as covariate rows, an autoregression as seeds
    return np.array([predict_forward(m, s, steps, covariates=s, controls=u)
                     for m, s, u in zip(models, starts, controls)])


def _inputs(model, gaps, starts, anchors):
    """``starts`` and ``anchors`` as the solver reads them, checked; the
    anchors are (g,) for an AR and (g, k) otherwise."""
    if isinstance(model, ArModel):
        return ([np.asarray(s, dtype=float).ravel() for s in starts],
                np.array([np.atleast_1d(np.asarray(a, dtype=float))[0] for a in anchors]))
    if isinstance(model, RegModel):
        k, seeds = model.n_outputs, [np.asarray(x, dtype=float) for x in starts]
        for gap, x in zip(gaps, seeds):
            if len(x) != gap.length + 1:
                raise ValueError(f"need {gap.length + 1} covariate rows (gap start through anchor), "
                                 f"got {len(x)}")
        targets = np.array([np.atleast_1d(np.asarray(a, dtype=float)) for a in anchors])
    else:
        k = model.dim
        # checked once for the stack, but worded for one gap, as impute_gap_var reports
        seeds = np.asarray(starts, dtype=float).reshape(len(gaps), -1)
        if seeds.shape[1] != k:
            raise DataError(f"seed must have {k} components, got shape {seeds.shape[1:]}")
        targets = np.asarray(anchors, dtype=float)
        if targets.ndim != 2 or targets.shape[1] < 1:
            raise ValueError(f"expected a 1-D vector, got shape {targets.shape[1:]}")
        if not np.isfinite(targets).all():
            raise ValueError("vector entries must be finite")
    if targets.shape[1] != k:
        raise ValueError(f"anchor has {targets.shape[1]} components, expected {k}")
    return seeds, targets


def impute_gaps(model, gaps, starts, anchors, mode: str = "exact") -> list:
    """Fill constrained gaps so each path ends at its anchor; one
    ControlSolution per gap, in order.

    ``model`` is one model, or a list with one per gap, of one kind.
    ``gaps[i]`` is rolled from ``starts[i]``: at least p values before it for
    an AR(p), the row before it for a VAR, or a regression's covariate rows
    from the gap start through the anchor. ``anchors[i]`` is a scalar for an
    AR, a vector for a VAR, and per output (or a scalar) for a regression.
    Controls act on the last m steps: all but the first p - 1 of an AR(p).
    Gaps with the same m share one ``_lagrange`` solve, and a shared model's
    blocks and Gram sums are built once and sliced (both prefix-stable), so
    each gap gets the bits it would get alone. A regression is exact in
    either mode. The first failing gap's error is raised.
    """
    _check_mode(mode)
    if not all(gap.constrained for gap in gaps):
        raise ValueError("gap has no anchor; use the open-gap prediction path")
    if not gaps:
        return []
    try:
        return _impute(model, gaps, starts, anchors, mode)
    except NumericalError:
        if len(gaps) == 1:
            raise
        for i in range(len(gaps)):
            impute_gaps(model[i] if isinstance(model, list) else model, gaps[i : i + 1],
                        starts[i : i + 1], anchors[i : i + 1], mode)
        raise


def _impute(model, gaps, starts, anchors, mode: str) -> list:
    """``impute_gaps``, one control count at a time."""
    shared = not isinstance(model, list)
    first = model if shared else model[0]
    ar, regression = isinstance(first, ArModel), isinstance(first, RegModel)
    # an AR(p)'s first p - 1 gap values follow the uncorrected recursion
    lag = first.p - 1 if ar else 0
    scalar = ar or (regression and np.ndim(anchors[0]) == 0)
    starts, targets = _inputs(first, gaps, starts, anchors)
    counts = np.array([gap.anchor_index - gap.gap_start + 1 - lag for gap in gaps])
    if counts.min() < 1:
        raise NumericalError(
            f"unreachable terminal constraint: order {lag + 1} leaves no control step "
            f"in a gap of length {gaps[int(np.argmax(counts < 1))].length}"
        )
    if shared:
        table = _blocks(model, int(counts.max()))
        grams = _gram_sums(table)

    solutions = [None] * len(gaps)
    # not np.unique, whose first call imports numpy.ma (half a megabyte)
    for m in sorted(set(counts.tolist())):
        batch = np.flatnonzero(counts == m).tolist()
        g, members = len(batch), [gaps[i] for i in batch]
        mine = model if shared else [model[i] for i in batch]
        seeds = starts[batch] if isinstance(starts, np.ndarray) else [starts[i] for i in batch]
        if shared:
            blocks, gram = table[:m], grams[m - 1]
        else:
            blocks = np.stack([_blocks(each, m) for each in mine])
            gram = _gram_sums(blocks)[:, -1]
        if ar:
            # one impulse response for a shared model, one per gap otherwise
            impulse = blocks[..., 0, 0].reshape(-1, m)
            if mode == "paper":
                printed = np.array([gamma_weights(each, m) for each in ([model] if shared else mine)])
                blocks = printed.reshape(blocks.shape)
                gram = _gram_sums(blocks)[..., -1, :, :]
            elif (np.abs(impulse) > WEIGHT_OVERFLOW_LIMIT).any():
                for row in impulse:
                    _checked_weights(row)

        predicted = _roll(mine, seeds, m + lag)
        delta = (targets[batch] - predicted[:, -1]).reshape(g, -1)
        if regression and not np.isfinite(delta).all():
            # a regression forecasts pointwise, so an overflowed forecast is an overflowed fill
            raise _fill_overflow(members[int(np.isfinite(delta).all(axis=1).argmin())])
        lam, controls = _lagrange(blocks, gram, delta)
        if regression:
            values = predicted + np.cumsum(controls, axis=1)
        else:
            values = _roll(mine, seeds, m + lag, controls[..., 0] if ar else controls)

        notes = [{"correction_rule": "uniform"} if regression else {} for _ in batch]
        if mode == "paper" and ar:
            psi = np.broadcast_to([_checked_weights(row) for row in impulse], (g, m))
            for note, w, p in zip(notes, np.broadcast_to(printed, (g, m)), psi):
                note.update(weights_printed=w.tolist(), weights_impulse=p.tolist(),
                            max_weight_difference=float(np.max(np.abs(w - p))))
        elif mode == "paper" and not regression:
            stacks = np.broadcast_to(blocks, (g,) + blocks.shape[-3:])
            notes = [_step_norms(b, d, u) for b, d, u in zip(stacks, delta, controls)]
        multipliers = lam
        if scalar:
            controls, multipliers = controls[..., 0], lam[:, 0].tolist()
            if regression:
                values, predicted = values[..., 0], predicted[..., 0]
        solved = _solutions(members, [gap.gap_start + lag for gap in members], controls, multipliers,
                            values, predicted, targets[batch], "exact" if regression else mode, notes)
        for i, solution in zip(batch, solved):
            solutions[i] = solution
    return solutions


def _step_norms(powers: np.ndarray, delta: np.ndarray, controls: np.ndarray) -> dict:
    """Paper-mode diagnostics of one VAR gap: the printed per-step norm
    formula beside the exact norms of the controls."""
    column_sums = powers.sum(axis=1)
    column_sum_square = float(np.cumsum(np.sum(column_sums**2, axis=1))[-1])
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(delta)) / column_sum_square
        exact = np.linalg.norm(controls, axis=1)
    if not (np.isfinite(scale) and np.isfinite(exact).all()):
        raise _norm_overflow()
    return {
        "step_norm_formula": (scale * powers[::-1].sum(axis=(1, 2))).tolist(),
        "step_norm_exact": exact.tolist(),
    }


def impute_gap_ar(model: ArModel, gap, seeds, anchor: float, mode: str = "exact") -> ControlSolution:
    """``impute_gaps`` of one autoregressive gap, from at least p ``seeds``
    up to the position before it."""
    return impute_gaps(model, [gap], [seeds], [anchor], mode)[0]


def impute_gap_var(model: VarModel, gap, seed, anchor, mode: str = "exact") -> ControlSolution:
    """``impute_gaps`` of one VAR(1) gap, from the row ``seed`` before it."""
    return impute_gaps(model, [gap], [seed], [anchor], mode)[0]


def impute_gap_regression(model: RegModel, gap, covariates, anchor) -> ControlSolution:
    """``impute_gaps`` of one regression gap, from its ``covariates`` rows
    (gap start through anchor): the fitted values plus a uniform correction."""
    return impute_gaps(model, [gap], [covariates], [anchor])[0]
