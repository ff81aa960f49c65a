"""Least-squares estimation of the recursion models and their forward predictions."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .errors import DataError, NumericalError
from .linalg import least_squares
from .models import ArModel, Models, RegModel, VarModel, as_models


# Per design: how many equations its fit needs beyond its input columns, and
# how the too-short message counts its equations, or the rows of one run.
_WINDOW = {
    ArModel: (1, "{n} equations for order {k}", "{n} values for order {k}"),
    VarModel: (1, "{n} consecutive pairs of dimension {k}", "{n} vectors of dimension {k}"),
    RegModel: (2, "{n} rows with {k} covariates", "{n} rows with {k} covariates"),
}


def too_short(design: type, n: int, k: int, lags: int | None = None) -> DataError | None:
    """The error of fitting ``design`` on ``n`` equations of ``k`` inputs,
    or None; given ``lags``, ``n`` counts the rows of one contiguous
    observed run, whose first ``lags`` rows only feed the lags."""
    extra, equations, rows = _WINDOW[design]
    need = k + extra + (lags or 0)
    if n >= need:
        return None
    counted = equations if lags is None else rows
    return DataError(f"fit window too short: {counted.format(n=n, k=k)} (need at least {need})")


def _overflow(design: type) -> NumericalError:
    return NumericalError(
        f"{design.design} coefficients overflow: input columns differ too much in magnitude"
    )


def fit_sweep(design: type, inputs, targets, counts) -> Models:
    """Fit ``design`` (ArModel, VarModel or RegModel) by least squares of
    ``targets`` on ``[inputs, 1]``, on every leading run of equations in one
    pass; this is the one fit path.

    Model i of the Models is fitted on the first ``counts[i]`` rows of
    ``inputs`` and ``targets``, or holds the DataError or NumericalError
    that this fit raises, for the caller to raise in its turn. ``counts``
    must not decrease. The coefficients come from one ``least_squares``
    sweep, whose first entry has the bits of a fit of that count alone: a
    one-off fit (``fit_ar_lagged``, ``fit_var_pairs``, ``fit_regression``
    call this with one count) equals the first entry of a longer sweep on
    the same rows.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    n, k = x.shape
    counts = counts.tolist() if isinstance(counts, np.ndarray) else list(counts)
    finite = np.isfinite(np.column_stack([x, y])).all(axis=1)
    # a count past the first non-finite row reaches it
    clean = n if finite.all() else int(finite.argmin())
    # the counts too short for the design lead, and those past ``clean`` trail
    lo, hi = bisect_left(counts, k + _WINDOW[design][0]), bisect_right(counts, clean)
    coeffs, ranks = np.zeros((len(counts), k + 1) + y.shape[1:]), np.zeros(len(counts), dtype=int)
    if lo < hi:
        last = counts[hi - 1]
        coeffs[lo:hi], ranks[lo:hi] = least_squares(np.column_stack([x[:last], np.ones(last)]), y[:last],
                                                    counts[lo:hi])
    models = Models(design, coeffs, ranks)
    for i in range(min(lo, hi)):
        models[i] = too_short(design, counts[i], k)
    for i in range(hi, len(counts)):
        models[i] = DataError("fit window contains non-finite values")
    for i in np.flatnonzero(~np.isfinite(coeffs.reshape(len(coeffs), -1)).all(axis=1)).tolist():
        models[i] = _overflow(design)
    return models


def _fit_one(design: type, inputs: np.ndarray, targets: np.ndarray):
    """The ``design`` model fitted on all rows, or the error its fit raises."""
    model = fit_sweep(design, inputs, targets, [len(inputs)])[0]
    if isinstance(model, Exception):
        raise model
    return model


def fit_ar_lagged(lag_rows, targets) -> ArModel:
    """Fit a scalar autoregression from pre-assembled equations.

    ``lag_rows[i]`` holds the lagged values (most recent first) that predict
    ``targets[i]``; an intercept column is appended internally. Useful when
    the training equations come from several disjoint observed runs.
    """
    lags = np.asarray(lag_rows, dtype=float)
    if lags.ndim != 2:
        raise DataError("lag rows must form a 2-D array")
    y = np.asarray(targets, dtype=float).ravel()
    if len(lags) != len(y):
        raise DataError(f"lag rows and targets must align: {len(lags)} lag rows, {len(y)} targets")
    return _fit_one(ArModel, lags, y)


def fit_ar_scalar(window, order: int) -> ArModel:
    """Fit the order-p scalar autoregression with intercept by least squares.

    ``window`` is the contiguous observed run used for estimation; it needs at
    least 2*order + 1 points so the design has no fewer rows than unknowns.
    """
    w = np.asarray(window, dtype=float).ravel()
    p = int(order)
    if p < 1:
        raise DataError("order must be >= 1")
    n0 = w.size
    short = too_short(ArModel, n0, p, lags=p)
    if short is not None:
        raise short
    lags = np.column_stack([w[p - 1 - j : n0 - 1 - j] for j in range(p)])
    return fit_ar_lagged(lags, w[p:])


def fit_var_pairs(previous, current) -> VarModel:
    """Fit x_n = A x_{n-1} + b from aligned rows (x_{n-1}, x_n)."""
    xprev = np.asarray(previous, dtype=float)
    xcur = np.asarray(current, dtype=float)
    if xprev.ndim == 1:
        xprev = xprev[:, None]
    if xcur.ndim == 1:
        xcur = xcur[:, None]
    if xprev.shape != xcur.shape:
        raise DataError("pair rows must align: previous and current shapes differ")
    return _fit_one(VarModel, xprev, xcur)


def fit_var1(window) -> VarModel:
    """Fit a first-order vector autoregression on a contiguous observed run.

    ``window`` has one row per time point; consecutive rows form the training
    pairs, so at least dim + 2 rows are required.
    """
    w = np.asarray(window, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    short = too_short(VarModel, *w.shape, lags=1)
    if short is not None:
        raise short
    return fit_var_pairs(w[:-1], w[1:])


def fit_regression(targets, covariates) -> RegModel:
    """Fit y_n = A x_n + b by least squares over aligned response/covariate rows."""
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if y.shape[0] != x.shape[0]:
        raise DataError(
            f"targets and covariates must align: {y.shape[0]} responses, {x.shape[0]} rows"
        )
    return _fit_one(RegModel, x, y)


def _first_control(steps: int, controls: int) -> int:
    """The step at which the last ``controls`` of ``steps`` steps begin."""
    if controls > steps:
        raise ValueError(f"{controls} controls for {steps} steps")
    return steps - controls


# A stack of at least this many AR paths of one order rolls all its paths
# at once, one numpy operation per lag and step; a smaller one rolls path
# by path through its order's kernel. Per path is cheaper below about 18
# AR(2) paths of 6 steps and 32 of 60 or 600 steps; 24 costs a narrow stack
# microseconds and saves a wide one milliseconds.
STACKED_PATHS = 24


def roll_ar(lags, intercepts, seeds, steps, controls=None) -> np.ndarray:
    """The autoregressive recursion of a stack of g paths, ``steps`` steps
    on, or steps[i] for path i given a list; one row per path, zero past its
    own steps. This is the one AR recursion kernel.

    Path i starts from row i of the chronological (g, w) ``seeds``, at
    least as many as the order p >= 1 of the (g, p) ``lags`` (fewer, or
    p = 0, is a ValueError), and rolls x = intercepts[i] + ((0.0 + a_1
    x_{n-1}) + a_2 x_{n-2}) + ..., summed left to right, which every Python
    version rounds alike (``sum`` of floats is compensated from 3.12). Row
    i of the (g, m) ``controls``, if given, is added from step max(steps) -
    m of every path until its end. A stack of STACKED_PATHS or more paths
    steps all its paths together, one numpy multiply and add per lag over
    the column of every path's values, then b + sum and + u_t. A smaller
    one rolls path by path on Python floats through the straight-line
    kernel of its order (``_ar_kernel``, generated on first use): the p
    lags are locals, each step is one statement per lag and one tuple
    assignment that shifts the lags, and its uncontrolled steps, then its
    controlled ones, run as two loops with no per-step branch. Both make
    the same IEEE operations in the same order, so a path has the same bits
    either way. An explosive path overflows silently to inf.
    """
    (g, p), n = lags.shape, seeds.shape[1]
    if p < 1:
        raise ValueError("order must be >= 1")
    if n < p:
        raise ValueError(f"{n} seeds for order {p}")
    counts = steps if isinstance(steps, list) else [steps] * g
    width = max(counts, default=0)
    first = _first_control(width, 0 if controls is None else controls.shape[1])
    if g >= STACKED_PATHS:
        return _roll_stacked(lags, intercepts, seeds, counts, width, first, controls)
    kernel = _ar_kernel(p)
    rows = []
    for a, b, seed, u, count in zip(lags.tolist(), intercepts.tolist(), seeds[:, n - p :].tolist(),
                                    [()] * g if controls is None else controls.tolist(), counts):
        row = kernel(a, b, seed, first if first < count else count,
                     u if count == width else u[: max(count - first, 0)])
        if count < width:
            row += [0.0] * (width - count)
        rows.append(row)
    return np.array(rows, dtype=float).reshape(g, width)


# order p -> the straight-line path kernel of that order, built on first use
_AR_KERNELS: dict = {}


def _ar_kernel(p: int):
    """The kernel that rolls one AR(p) path: ``kernel(a, b, seed, k, u)``
    is the list of its k uncontrolled steps, then one controlled step per
    value of ``u``, from the p chronological ``seed`` values. The lags are
    the locals x1 (the latest) to xp; a step sums them one statement per
    lag, in ``roll_ar``'s order, and one tuple assignment shifts them. The
    source is made from the integer p alone."""
    kernel = _AR_KERNELS.get(p)
    if kernel is None:
        a, x = [f"a{j}" for j in range(1, p + 1)], [f"x{j}" for j in range(1, p + 1)]
        sums = ["s = 0.0 + a1 * x1", *(f"s += {aj} * {xj}" for aj, xj in zip(a[1:], x[1:]))]

        def step(value: str) -> list:
            shift = f"{', '.join(x)} = {', '.join([value, *x[:-1]])}"
            return [f"        {line}" for line in [*sums, shift, "push(x1)"]]

        source = "\n".join([
            "def kernel(a, b, seed, k, u):",
            f"    [{', '.join(a)}] = a",
            f"    [{', '.join(reversed(x))}] = seed",
            "    out = []",
            "    push = out.append",
            "    for _ in range(k):", *step("b + s"),
            "    for ut in u:", *step("b + s + ut"),
            "    return out",
        ])
        namespace = {}
        exec(compile(source, f"<roll_ar order {p}>", "exec"), namespace)
        kernel = _AR_KERNELS[p] = namespace["kernel"]
    return kernel


def _roll_stacked(lags, intercepts, seeds, counts: list, width: int, first: int, controls) -> np.ndarray:
    """``roll_ar`` of a stack of paths, all paths a step at a time: x holds
    one row per step, with every path's value in a column."""
    g, p = lags.shape
    x = np.empty((p + width, g))
    x[:p] = seeds[:, seeds.shape[1] - p :].T
    a = lags.T.copy()  # row j: every path's a_{j+1}
    u = None if first == width else controls.T
    s, term = np.empty(g), np.empty(g)
    with np.errstate(all="ignore"):
        for t in range(p, p + width):
            np.add(0.0, np.multiply(a[0], x[t - 1], out=s), out=s)
            for j in range(1, p):
                s += np.multiply(a[j], x[t - 1 - j], out=term)
            np.add(intercepts, s, out=x[t])
            if t - p >= first:
                x[t] += u[t - p - first]
    rows = x[p:].T
    if min(counts, default=width) < width:
        rows[np.arange(width) >= np.array(counts)[:, None]] = 0.0
    return np.ascontiguousarray(rows)


def predict_forward(model, seeds, steps: int, covariates=None, controls=None) -> np.ndarray:
    """Roll the fitted recursion forward ``steps`` steps from the seed values.

    Autoregressions consume the trailing seed values and return the predicted
    path. Optional chronological ``controls`` (one per step, scalar or vector)
    are added on the last ``len(controls)`` steps, after the fitted recursion.
    The regression model predicts pointwise from ``covariates`` (one row per
    step) and ignores ``seeds``. Every kind advances a stack of g paths in one
    call, each path bit for bit the one it would get alone: seeds (g, n) and
    controls (g, steps') give a (g, steps) AR result, seeds (g, k) and controls
    (g, steps', k) a (g, steps, k) VAR result, and covariates (g, rows, c) a
    (g, steps, k) regression result. The paths share one model (or a Models
    of one) or take a Models of one per path; a single path is a stack of
    one. A stack of AR paths may take a list of one count per path in
    ``steps``: each stops at its own (see ``roll_ar``). An explosive model,
    or a regression on huge covariates, lets the path overflow silently to
    inf.
    """
    if (min(steps, default=0) if isinstance(steps, list) else steps) < 0:
        raise ValueError("steps must be >= 0")
    model = as_models(model)
    kind = model.kind
    if kind is RegModel:
        if controls is not None:
            raise ValueError("regression predictions take no controls")
        if covariates is None:
            raise DataError("missing covariates for regression prediction")
        given = np.asarray(covariates, dtype=float)
        stacked = given.ndim == 3
        paths = given if stacked else (given[:, None] if given.ndim == 1 else given)[None]
    else:
        given = np.asarray(seeds, dtype=float)
        stacked = given.ndim == 2
        paths = given if stacked else given.reshape(1, -1)
    if len(model) not in (1, len(paths)):
        kinds = {ArModel: "autoregression", VarModel: "VAR", RegModel: "regression"}
        raise ValueError(f"{len(paths)} paths need one {kinds[kind]}, or a Models of one per path")

    if kind is ArModel:
        if paths.shape[1] < model.p:
            raise DataError(f"need {model.p} seed values, got {paths.shape[1]}")
        u = None if controls is None else np.asarray(controls, dtype=float).reshape(len(paths), -1)
        # each path reads its trailing p seeds
        heads = paths[:, paths.shape[1] - model.p :]
        g = len(paths)
        out = roll_ar(np.broadcast_to(model.a, (g, model.p)), np.broadcast_to(model.b, g), heads, steps, u)
        return out if stacked else out[0]

    # one stacked matmul per step of a VAR, one for a regression; each path's
    # A.T row-major as in its (column-major) model, for the bits of it alone
    coeffs, b = np.ascontiguousarray(model.coeffs[:, :-1]), model.b
    if kind is VarModel:
        k = model.dim
        if paths.shape[1:] != (k,):
            raise DataError(f"seed must have {k} components, got shape {given.shape}")
        u = None if controls is None else np.asarray(controls, dtype=float).reshape(len(paths), -1, k)
        first_control = _first_control(steps, 0 if u is None else u.shape[1])
        a, state = coeffs.transpose(0, 2, 1), paths
        out = np.empty((len(paths), steps, k))
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(steps):
                # row by row the bits of A @ state; state @ A.T would round differently
                state = np.matmul(a, state[:, :, None])[:, :, 0] + b
                if t >= first_control:
                    state = state + u[:, t - first_control]
                out[:, t] = state
        return out if stacked else out[0]

    if paths.shape[1] < steps:
        raise DataError(
            f"missing covariate row: got {paths.shape[1]} rows for {steps} prediction steps"
        )
    if paths.shape[2] != model.n_covariates:
        raise DataError(
            f"covariate rows have {paths.shape[2]} columns, model expects {model.n_covariates}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(paths[:, :steps], coeffs) + b[:, None]
    return out if stacked else out[0]
