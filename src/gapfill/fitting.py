"""Least-squares estimation of the recursion models and their forward predictions."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, RankDeficiencyWarning
from .linalg import least_squares


def _frozen_array(obj, name: str, value, shape=None) -> None:
    arr = np.array(value, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class ArModel:
    """Scalar autoregression x_n = a_1 x_{n-1} + ... + a_p x_{n-p} + b."""

    a: tuple[float, ...]
    b: float
    rank_deficient: bool = False

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


@dataclass(frozen=True)
class VarModel:
    """First-order vector autoregression x_n = A x_{n-1} + b."""

    A: np.ndarray
    b: np.ndarray
    rank_deficient: bool = False

    def __post_init__(self):
        a = np.array(self.A, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {a.shape}")
        _frozen_array(self, "A", a)
        _frozen_array(self, "b", self.b, shape=(a.shape[0],))

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class RegModel:
    """Pointwise regression y_n = A x_n + b on covariate rows x_n."""

    A: np.ndarray
    b: np.ndarray
    rank_deficient: bool = False

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


def _fit_rows(design: np.ndarray, targets: np.ndarray, what: str):
    """Shared core: one least-squares solve per target column, one rank warning."""
    coeff_rows = []
    rank = design.shape[1]
    for c in range(targets.shape[1]):
        fit = least_squares(design, targets[:, c])
        coeff_rows.append(fit.coeffs)
        rank = fit.rank
    deficient = rank < design.shape[1]
    if deficient:
        warnings.warn(
            f"rank-deficient {what} design (rank {rank} of {design.shape[1]}); "
            f"minimum-norm coefficients returned",
            RankDeficiencyWarning,
            stacklevel=3,
        )
    return np.vstack(coeff_rows), deficient


def fit_ar_lagged(lag_rows, targets) -> ArModel:
    """Fit a scalar autoregression from pre-assembled equations.

    ``lag_rows[i]`` holds the lagged values (most recent first) that predict
    ``targets[i]``; an intercept column is appended internally. Useful when
    the training equations come from several disjoint observed runs.
    """
    lags = np.asarray(lag_rows, dtype=float)
    y = np.asarray(targets, dtype=float).ravel()
    if lags.ndim != 2:
        raise DataError("lag rows must form a 2-D array")
    if not (np.all(np.isfinite(lags)) and np.all(np.isfinite(y))):
        raise DataError("fit window contains non-finite values")
    p = lags.shape[1]
    if lags.shape[0] < p + 1:
        raise DataError(
            f"fit window too short: {lags.shape[0]} equations for order {p} "
            f"(need at least {p + 1})"
        )
    design = np.column_stack([lags, np.ones(lags.shape[0])])
    coeffs, deficient = _fit_rows(design, y[:, None], "autoregression")
    return ArModel(a=tuple(coeffs[0, :p]), b=float(coeffs[0, p]), rank_deficient=deficient)


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
    if not (np.all(np.isfinite(xprev)) and np.all(np.isfinite(xcur))):
        raise DataError("fit window contains non-finite values")
    n, k = xprev.shape
    if n < k + 1:
        raise DataError(
            f"fit window too short: {n} consecutive pairs of dimension {k} "
            f"(need at least {k + 1})"
        )
    design = np.column_stack([xprev, np.ones(n)])
    coeffs, deficient = _fit_rows(design, xcur, "vector autoregression")
    return VarModel(A=coeffs[:, :k], b=coeffs[:, k], rank_deficient=deficient)


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
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
        raise DataError("fit window contains non-finite values")
    n, k = x.shape
    if n < k + 2:
        raise DataError(
            f"fit window too short: {n} rows with {k} covariates (need at least {k + 2})"
        )
    design = np.column_stack([x, np.ones(n)])
    coeffs, deficient = _fit_rows(design, y, "regression")
    return RegModel(A=coeffs[:, :k], b=coeffs[:, k], rank_deficient=deficient)


def predict_forward(model, seeds, steps: int, covariates=None, controls=None) -> np.ndarray:
    """Roll the fitted recursion forward ``steps`` steps from the seed values.

    Autoregressions consume the trailing seed values and return the predicted
    path, which an explosive model lets overflow silently to inf. Optional
    chronological ``controls`` (one per step, scalar or vector) are added on
    the last ``len(controls)`` steps, after the fitted recursion. The
    regression model predicts pointwise from ``covariates`` (one row per step)
    and ignores ``seeds``.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if controls is not None and len(controls) > steps:
        raise ValueError(f"{len(controls)} controls for {steps} steps")
    first_control = steps - (0 if controls is None else len(controls))

    if isinstance(model, ArModel):
        hist = [float(v) for v in np.asarray(seeds, dtype=float).ravel()]
        if len(hist) < model.p:
            raise DataError(f"need {model.p} seed values, got {len(hist)}")
        u = [] if controls is None else np.asarray(controls, dtype=float).ravel().tolist()
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
        state = np.asarray(seeds, dtype=float)
        if state.ndim == 2:
            state = state[-1]
        state = np.atleast_1d(state)
        if state.shape != (model.dim,):
            raise DataError(f"seed must have {model.dim} components, got shape {state.shape}")
        out = np.empty((steps, model.dim))
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(steps):
                state = model.A @ state + model.b
                if t >= first_control:
                    state = state + controls[t - first_control]
                out[t] = state
        return out

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
        return x[:steps] @ model.A.T + model.b

    raise TypeError(f"unknown model type {type(model).__name__}")
