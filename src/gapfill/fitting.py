"""Least-squares estimation of the recursion models and their forward predictions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .linalg import least_squares


def _frozen_array(obj, name: str, value, shape=None) -> None:
    arr = np.array(value, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


class _Fitted:
    """Rank bookkeeping of a fitted model.

    ``rank`` is the rank of the least-squares design the model was fitted
    on, None for a model given directly. Each model names its design in
    ``design`` and counts its columns, intercept included, in
    ``design_columns``.
    """

    @property
    def rank_deficient(self) -> bool:
        return self.rank is not None and self.rank < self.design_columns


@dataclass(frozen=True)
class ArModel(_Fitted):
    """Scalar autoregression x_n = a_1 x_{n-1} + ... + a_p x_{n-p} + b."""

    a: tuple[float, ...]
    b: float
    rank: int | None = None
    design = "autoregression"

    def __post_init__(self):
        coeffs = tuple(float(v) for v in self.a)
        if not coeffs:
            raise ValueError("order must be >= 1")
        if not all(math.isfinite(v) for v in coeffs):
            raise ValueError("lag coefficients must be finite")
        if not math.isfinite(self.b):
            raise ValueError("intercept must be finite")
        object.__setattr__(self, "a", coeffs)
        object.__setattr__(self, "b", float(self.b))

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def design_columns(self) -> int:
        return self.p + 1


@dataclass(frozen=True)
class VarModel(_Fitted):
    """First-order vector autoregression x_n = A x_{n-1} + b."""

    A: np.ndarray
    b: np.ndarray
    rank: int | None = None
    design = "vector autoregression"

    def __post_init__(self):
        # column-major, as every fit returns it, so that a model rebuilt from
        # its description computes with the bits of the fitted one
        a = np.array(self.A, dtype=float, order="F")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {a.shape}")
        _frozen_array(self, "A", a)
        _frozen_array(self, "b", self.b, shape=(a.shape[0],))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def design_columns(self) -> int:
        return self.dim + 1


@dataclass(frozen=True)
class RegModel(_Fitted):
    """Pointwise regression y_n = A x_n + b on covariate rows x_n."""

    A: np.ndarray
    b: np.ndarray
    rank: int | None = None
    design = "regression"

    def __post_init__(self):
        a = np.array(self.A, dtype=float, order="F")  # column-major, as for VarModel
        if a.ndim != 2:
            raise ValueError(f"coefficient matrix must be 2-D, got shape {a.shape}")
        _frozen_array(self, "A", a)
        _frozen_array(self, "b", self.b, shape=(a.shape[0],))

    @property
    def n_outputs(self) -> int:
        return self.A.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.A.shape[1]

    @property
    def design_columns(self) -> int:
        return self.n_covariates + 1


# Per design: how many equations its fit needs beyond its input columns, and
# how the too-short message counts them.
_WINDOW = {
    ArModel: (1, "{n} equations for order {k}"),
    VarModel: (1, "{n} consecutive pairs of dimension {k}"),
    RegModel: (2, "{n} rows with {k} covariates"),
}


def _too_short(design: type, n: int, k: int) -> DataError | None:
    """The error of fitting ``design`` on ``n`` equations of ``k`` inputs, or None."""
    extra, counted = _WINDOW[design]
    if n >= k + extra:
        return None
    return DataError(f"fit window too short: {counted.format(n=n, k=k)} (need at least {k + extra})")


def _overflow(design: type) -> NumericalError:
    return NumericalError(
        f"{design.design} coefficients overflow: input columns differ too much in magnitude"
    )


def _model(design: type, coeffs: np.ndarray, rank: int):
    """The ``design`` model with ``coeffs``: one row per input column, the
    intercept last."""
    if design is ArModel:
        return ArModel(a=coeffs[:-1].tolist(), b=float(coeffs[-1]), rank=rank)
    return design(A=coeffs[:-1].T, b=coeffs[-1], rank=rank)


def fit_sweep(design: type, inputs, targets, counts) -> list:
    """Fit ``design`` (ArModel, VarModel or RegModel) by least squares of
    ``targets`` on ``[inputs, 1]``, on every leading run of equations in one
    pass; this is the one fit path.

    Entry i is the model fitted on the first ``counts[i]`` rows of
    ``inputs`` and ``targets``, or the DataError or NumericalError that this
    fit raises, returned so the caller can raise it in its turn. ``counts``
    must not decrease. The coefficients come from one ``least_squares``
    sweep, whose first entry has the bits of a fit of that count alone: a
    one-off fit (``fit_ar_lagged``, ``fit_var_pairs``, ``fit_regression``
    call this with one count) equals the first entry of a longer sweep on
    the same rows.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    n, k = x.shape
    finite = np.isfinite(np.column_stack([x, y])).all(axis=1)
    # a count past the first non-finite row reaches it
    clean = n if finite.all() else int(finite.argmin())
    results = [
        DataError("fit window contains non-finite values") if c > clean else _too_short(design, c, k)
        for c in counts
    ]
    fitted = [i for i, error in enumerate(results) if error is None]
    if fitted:
        last = counts[fitted[-1]]
        coeffs, ranks = least_squares(np.column_stack([x[:last], np.ones(last)]), y[:last],
                                      [counts[i] for i in fitted])
        overflowed = ~np.isfinite(coeffs.reshape(len(coeffs), -1)).all(axis=1)
        for i, c, rank, bad in zip(fitted, coeffs, ranks.tolist(), overflowed.tolist()):
            results[i] = _overflow(design) if bad else _model(design, c, rank)
    return results


def _fit_one(design: type, inputs: np.ndarray, targets: np.ndarray):
    """The ``design`` model fitted on all rows, or the error its fit raises."""
    (model,) = fit_sweep(design, inputs, targets, [len(inputs)])
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
    if n0 - p < p + 1:
        raise DataError(
            f"fit window too short: {n0} values for order {p} (need at least {2 * p + 1})"
        )
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
    n0, k = w.shape
    if n0 < k + 2:
        raise DataError(
            f"fit window too short: {n0} vectors of dimension {k} (need at least {k + 2})"
        )
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


def roll_ar(lags, intercepts, seeds, steps, controls=None) -> np.ndarray:
    """The autoregressive recursion of a stack of paths, ``steps`` steps on,
    or steps[i] for path i given a list; one row per path, zero past its own
    steps. This is the one AR recursion kernel.

    Path i starts from the chronological Python floats ``seeds[i]`` (at least
    as many as ``lags[i]`` has coefficients; fewer is a ValueError) and rolls
    x = intercepts[i] + ((0.0 + a_1 x_{n-1}) + a_2 x_{n-2}) + ..., summed
    left to right on Python floats, which every Python version rounds alike
    (``sum`` of floats is compensated from 3.12). Row i of the (g, n)
    ``controls``, if given, is added from step max(steps) - n of every path
    until its end. Each path pairs its coefficients once with their lags'
    offsets from the path's end and rolls its uncontrolled steps, then its
    controlled ones, with no per-step branch. Python floats overflow
    silently to inf where numpy scalars would warn.
    """
    counts = steps if isinstance(steps, list) else [steps] * len(seeds)
    width = max(counts, default=0)
    first = _first_control(width, len(controls[0]) if controls else 0)
    rows = []
    for i, (a, b, hist, u, count) in enumerate(
            zip(lags, intercepts, seeds, controls or [()] * len(seeds), counts)):
        if len(hist) < len(a):
            raise ValueError(f"path {i} has {len(hist)} seeds for its order {len(a)}")
        path = list(hist)
        push = path.append
        terms = tuple(zip(a, range(-1, -len(a) - 1, -1)))  # (a_j, offset of x_{n-j})
        for _ in range(first if first < count else count):
            s = 0.0
            for aj, j in terms:
                s += aj * path[j]
            push(b + s)
        for ut in u if count == width else u[: max(count - first, 0)]:
            s = 0.0
            for aj, j in terms:
                s += aj * path[j]
            push(b + s + ut)
        row = path[len(hist) :]
        if count < width:
            row += [0.0] * (width - count)
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), width)


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
    (g, steps, k) regression result. The paths share one model or take a list
    of one per path; a single path is a stack of one. A stack of AR paths may
    take a list of one count per path in ``steps``: each stops at its own
    (see ``roll_ar``). An explosive model, or a regression on huge covariates,
    lets the path overflow silently to inf.
    """
    if (min(steps, default=0) if isinstance(steps, list) else steps) < 0:
        raise ValueError("steps must be >= 0")
    listed = isinstance(model, list)
    first = model[0] if listed and model else model
    kind = ArModel if listed and not model else type(first)
    kinds = {ArModel: "autoregression", VarModel: "VAR", RegModel: "regression"}
    if kind not in kinds:
        raise TypeError(f"unknown model type {type(first).__name__}")
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
    models = model if listed else [model] * len(paths)
    # a shared model fits every path; only a list is checked path by path
    if listed and (len(models) != len(paths) or not all(
            isinstance(m, kind) and (kind is ArModel or m.A.shape == first.A.shape) for m in models)):
        raise ValueError(f"{len(paths)} paths need one {kinds[kind]}, or a list of one per path")

    if kind is ArModel:
        order = max([m.p for m in models], default=0)
        if paths.shape[1] < order:
            raise DataError(f"need {order} seed values, got {paths.shape[1]}")
        u = None if controls is None else np.asarray(controls, dtype=float).reshape(len(paths), -1)
        # each path reads its model's trailing p seeds
        heads = [row[len(row) - m.p :] for row, m in zip(paths.tolist(), models)]
        out = roll_ar([m.a for m in models], [m.b for m in models], heads, steps,
                      None if u is None else u.tolist())
        return out if stacked else out[0]

    # one stacked matmul per step of a VAR, one for a regression; each path's
    # A.T row-major as in its (column-major) model, for the bits of it alone
    coeffs = np.array([m.A.T for m in model]) if listed else first.A.T[None]
    b = np.array([m.b for m in model]) if listed else first.b[None]
    if kind is VarModel:
        k = first.dim
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
    if paths.shape[2] != first.n_covariates:
        raise DataError(
            f"covariate rows have {paths.shape[2]} columns, model expects {first.n_covariates}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(paths[:, :steps], coeffs) + b[:, None]
    return out if stacked else out[0]
