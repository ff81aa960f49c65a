"""Least-squares estimation of the recursion models and their forward predictions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .linalg import least_squares, least_squares_sweep


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
        a = np.array(self.A, dtype=float)
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
        a = np.array(self.A, dtype=float)
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


def _with_intercept(inputs: np.ndarray) -> np.ndarray:
    """The design ``[inputs, 1]``."""
    n, k = inputs.shape
    # column-major, so the per-column scaling in least_squares reads contiguous memory
    design = np.empty((n, k + 1), order="F")
    design[:, :k] = inputs
    design[:, k] = 1.0
    return design


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


def _fit_linear(design: type, inputs: np.ndarray, targets: np.ndarray):
    """Fit ``design`` (ArModel, VarModel or RegModel) by least squares of
    ``targets`` on ``[inputs, 1]`` in one solve."""
    if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
        raise DataError("fit window contains non-finite values")
    short = _too_short(design, *inputs.shape)
    if short is not None:
        raise short
    coeffs, rank = least_squares(_with_intercept(inputs), targets)
    if not np.all(np.isfinite(coeffs)):
        raise _overflow(design)
    return _model(design, coeffs, rank)


def fit_sweep(design: type, inputs, targets, counts) -> list:
    """Fit ``design`` on every leading run of equations, in one pass.

    Entry i is what the one-off fit (``fit_ar_lagged``, ``fit_var_pairs`` or
    ``fit_regression`` for ``design`` ArModel, VarModel or RegModel) of the
    first ``counts[i]`` rows of ``inputs`` and ``targets`` returns, or the
    DataError or NumericalError that it raises, returned so the caller can
    raise it in its turn. ``counts`` must not decrease. The coefficients come
    from one ``least_squares_sweep``: the rank is decided by the one-off
    fit's rule and the coefficients agree with it to rounding.
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
        coeffs, ranks = least_squares_sweep(_with_intercept(x[:last]), y[:last],
                                            [counts[i] for i in fitted])
        overflowed = ~np.isfinite(coeffs.reshape(len(coeffs), -1)).all(axis=1)
        for i, c, rank, bad in zip(fitted, coeffs, ranks.tolist(), overflowed.tolist()):
            results[i] = _overflow(design) if bad else _model(design, c, rank)
    return results


def fit_ar_lagged(lag_rows, targets) -> ArModel:
    """Fit a scalar autoregression from pre-assembled equations.

    ``lag_rows[i]`` holds the lagged values (most recent first) that predict
    ``targets[i]``; an intercept column is appended internally. Useful when
    the training equations come from several disjoint observed runs.
    """
    lags = np.asarray(lag_rows, dtype=float)
    if lags.ndim != 2:
        raise DataError("lag rows must form a 2-D array")
    return _fit_linear(ArModel, lags, np.asarray(targets, dtype=float).ravel())


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
    return _fit_linear(VarModel, xprev, xcur)


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
    return _fit_linear(RegModel, x, y)


def _first_control(steps: int, controls: int) -> int:
    """The step at which the last ``controls`` of ``steps`` steps begin."""
    if controls > steps:
        raise ValueError(f"{controls} controls for {steps} steps")
    return steps - controls


def predict_forward(model, seeds, steps: int, covariates=None, controls=None) -> np.ndarray:
    """Roll the fitted recursion forward ``steps`` steps from the seed values.

    Autoregressions consume the trailing seed values and return the predicted
    path. Optional chronological ``controls`` (one per step, scalar or vector)
    are added on the last ``len(controls)`` steps, after the fitted recursion.
    A VAR also advances a stack of g paths at once: seeds of shape (g, k) and
    controls of shape (g, steps', k) give a (g, steps, k) result, each path
    bit for bit the one it would get alone. The regression model predicts
    pointwise from ``covariates`` (one row per step) and ignores ``seeds``.
    An explosive model, or a regression on huge covariates, lets the path
    overflow silently to inf.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")

    if isinstance(model, ArModel):
        hist = [float(v) for v in np.asarray(seeds, dtype=float).ravel()]
        if len(hist) < model.p:
            raise DataError(f"need {model.p} seed values, got {len(hist)}")
        u = [] if controls is None else np.asarray(controls, dtype=float).ravel().tolist()
        first_control = _first_control(steps, len(u))
        out = np.empty(steps)
        for t in range(steps):
            # Python floats overflow silently to inf, numpy scalars would warn
            x = model.b + sum(model.a[j] * hist[-1 - j] for j in range(model.p))
            if t >= first_control:
                x = x + u[t - first_control]
            out[t] = x
            hist.append(x)
        return out

    if isinstance(model, VarModel):
        seed = np.asarray(seeds, dtype=float)
        stacked = seed.ndim == 2
        state = seed if stacked else np.atleast_1d(seed)[None]
        if state.shape[1:] != (model.dim,):
            raise DataError(f"seed must have {model.dim} components, got shape {seed.shape}")
        u = None if controls is None else np.asarray(controls, dtype=float)
        if u is not None and not stacked:
            u = u[None]
        first_control = _first_control(steps, 0 if u is None else u.shape[1])
        out = np.empty((state.shape[0], steps, model.dim))
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(steps):
                # row by row the bits of A @ state; state @ A.T would round differently
                state = np.matmul(model.A, state[:, :, None])[:, :, 0] + model.b
                if t >= first_control:
                    state = state + u[:, t - first_control]
                out[:, t] = state
        return out if stacked else out[0]

    if isinstance(model, RegModel):
        if controls is not None:
            raise ValueError("regression predictions take no controls")
        if covariates is None:
            raise DataError("missing covariates for regression prediction")
        x = np.asarray(covariates, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] < steps:
            raise DataError(
                f"missing covariate row: got {x.shape[0]} rows for {steps} prediction steps"
            )
        if x.shape[1] != model.n_covariates:
            raise DataError(
                f"covariate rows have {x.shape[1]} columns, model expects {model.n_covariates}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            return x[:steps] @ model.A.T + model.b

    raise TypeError(f"unknown model type {type(model).__name__}")
