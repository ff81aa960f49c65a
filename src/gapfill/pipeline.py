"""End-to-end imputation: segment the series, fit, solve each gap, assemble the report."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .control import (
    MODES,
    ControlSolution,
    impute_gap_ar,
    impute_gap_regression,
    impute_gap_var,
)
from .errors import DataError, NumericalError, RankDeficiencyWarning
from .fitting import (
    fit_ar_lagged,
    fit_ar_scalar,
    fit_regression,
    fit_var1,
    fit_var_pairs,
    predict_forward,
)
from .oracle import build_problem, certify
from .report import ImputationReport, describe_model, gap_entry
from .series import Series, detect_gaps, write_csv

MODEL_KINDS = ("ar", "var", "regression")


@dataclass(frozen=True)
class ImputeOptions:
    model_kind: str = "ar"
    order: int = 1
    mode: str = "exact"
    refit_per_gap: bool = False
    allow_open_gap: bool = False
    run_oracle: bool = True


@dataclass
class ImputeResult:
    series: Series
    imputed: dict
    report: ImputationReport

    def rendered_csv(self, precision: int = 6) -> str:
        return write_csv(self.series, self.imputed, precision=precision)


def _validate_options(options: ImputeOptions, series: Series, covariates) -> None:
    if options.model_kind not in MODEL_KINDS:
        raise DataError(f"unknown model {options.model_kind!r}; expected one of {', '.join(MODEL_KINDS)}")
    if options.mode not in MODES:
        raise DataError(f"unknown mode {options.mode!r}; expected one of {', '.join(MODES)}")
    if options.order < 1:
        raise DataError("order must be >= 1")
    if options.model_kind == "ar" and series.dim != 1:
        raise DataError(
            f"model 'ar' needs a single value column, got {series.dim} "
            f"(use --model var for vector observations)"
        )
    if options.model_kind == "var" and options.order != 1:
        raise DataError("model 'var' supports order 1 only")
    if options.model_kind == "regression":
        if covariates is None:
            raise DataError("model 'regression' needs covariate columns (--covariates)")
        if options.order != 1:
            raise DataError("model 'regression' does not take an order")
        if len(covariates) != len(series):
            raise DataError("covariate rows must align with the series rows")


def _covariate_rows(covariates: Series, rows: np.ndarray) -> np.ndarray:
    """The covariates at the 0-based ``rows``, every one of which must be observed."""
    absent = covariates.missing[rows]
    if absent.any():
        raise DataError(
            f"missing covariate at index {int(rows[absent.argmax()]) + 1} "
            f"(covariates must be observed wherever used)"
        )
    return covariates.data[rows]


def _noted(notes: list, context: str, func, *args):
    """Run the fit ``func(*args)``, turning a rank-deficiency warning into a
    report note.

    The fitted model's ``rank_deficient`` flag records the same fact; other
    warnings pass through unchanged.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankDeficiencyWarning)
        result = func(*args)
    for w in caught:
        if issubclass(w.category, RankDeficiencyWarning):
            notes.append(f"{context}: {w.message}")
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return result


def fit_prefix(series: Series, options: ImputeOptions = ImputeOptions(),
               covariates: Series | None = None):
    """Fit the model on the observed run before the first missing position.

    Only that run is read, so a trailing gap needs no anchor here.
    """
    _validate_options(options, series, covariates)
    n = series.prefix_length
    if n == 0:
        raise DataError("no observed prefix: the series begins with a missing value")
    if options.model_kind == "ar":
        return fit_ar_scalar(series.data[:n, 0], options.order)
    if options.model_kind == "var":
        return fit_var1(series.data[:n])
    return fit_regression(series.data[:n], _covariate_rows(covariates, np.arange(n)))


def _refit_before(options: ImputeOptions, series: Series, covariates, gap_start: int):
    """Refit on every fully-observed equation window strictly before the gap.

    Only original observations are used; values imputed for earlier gaps never
    enter a fit.
    """
    lags = {"ar": options.order, "var": 1, "regression": 0}[options.model_kind]
    n = gap_start - 1
    # the equation whose target is row t needs rows t - lags .. t observed
    observed = ~series.missing[:n]
    usable = observed[lags:]
    for j in range(1, lags + 1):
        usable = usable & observed[lags - j : n - j]
    rows = np.flatnonzero(usable) + lags
    if rows.size == 0:
        raise DataError(f"no observed fit window before the gap at index {gap_start}")
    data = series.data
    if options.model_kind == "ar":
        x = data[:, 0]
        return fit_ar_lagged(np.column_stack([x[rows - 1 - j] for j in range(lags)]), x[rows])
    if options.model_kind == "var":
        return fit_var_pairs(data[rows - 1], data[rows])
    return fit_regression(data[rows], _covariate_rows(covariates, rows))


def _open_gap_solution(options: ImputeOptions, model, segment, seed, covariates) -> ControlSolution:
    """Plain forecast for a gap with no anchor; no controls, marked unconstrained."""
    steps = segment.length
    if options.model_kind == "regression":
        rows = _covariate_rows(covariates, np.arange(segment.gap_start - 1, segment.gap_end))
        predicted = predict_forward(model, None, steps, covariates=rows)
        if model.n_outputs == 1:
            predicted = predicted[:, 0]
    else:
        predicted = predict_forward(model, seed, steps)
    if not np.all(np.isfinite(predicted)):
        raise NumericalError(
            f"forecast overflow in the open gap at index {segment.gap_start} "
            f"(explosive coefficients over a long horizon)"
        )
    zeros_like = np.zeros_like(predicted)
    return ControlSolution(
        control_indices=tuple(segment.indices),
        controls=zeros_like,
        multiplier=None,
        imputed_indices=tuple(segment.indices),
        imputed=predicted,
        predicted_indices=tuple(segment.indices),
        predicted=predicted,
        terminal_residual=None,
        objective=0.0,
        mode=options.mode,
        constrained=False,
        diagnostics={"note": "no anchor after the gap; values are the uncorrected forecast"},
    )


def _solve_gap(options: ImputeOptions, model, segment, working: np.ndarray, covariates) -> ControlSolution:
    start = segment.gap_start - 1
    # an autoregression seeds from the last p values before the gap, a VAR from the last row
    seed = working[start - options.order : start, 0] if options.model_kind == "ar" else working[start - 1]
    if not segment.constrained:
        return _open_gap_solution(options, model, segment, seed, covariates)
    if options.model_kind == "ar":
        return impute_gap_ar(model, segment, seed, float(segment.anchor_value[0]), options.mode)
    if options.model_kind == "var":
        return impute_gap_var(model, segment, seed, segment.anchor_value, options.mode)
    rows = _covariate_rows(covariates, np.arange(start - 1, segment.anchor_index))
    anchor = float(segment.anchor_value[0]) if model.n_outputs == 1 else segment.anchor_value
    return impute_gap_regression(model, segment, rows, anchor)


def _certify_gap(options: ImputeOptions, model, segment, solution):
    """Run the independent verifier; scalar paper-mode values are not optimal
    by construction, so they carry diagnostics instead of a certificate."""
    if not solution.constrained:
        return None
    if options.model_kind == "ar" and options.mode == "paper":
        return None
    anchor = np.atleast_1d(np.asarray(segment.anchor_value, dtype=float))
    delta = anchor - np.atleast_1d(solution.predicted[-1])
    problem = build_problem(model, len(solution.control_indices), delta)
    return certify(solution, problem)


def impute_series(series: Series, options: ImputeOptions = ImputeOptions(),
                  covariates: Series | None = None) -> ImputeResult:
    """Fill every gap in ``series`` and report what was done.

    Gaps are processed left to right, so a gap may seed from values imputed
    for an earlier gap; the report notes when that happens, and when a fit is
    rank deficient. The model is fitted once on the observed prefix unless
    ``refit_per_gap`` is set.
    """
    _validate_options(options, series, covariates)
    segmentation_order = options.order if options.model_kind == "ar" else 1
    prefix_length, segments = detect_gaps(series, segmentation_order, options.allow_open_gap)

    report = ImputationReport(mode=options.mode, prefix_length=prefix_length)
    if not segments:
        report.notes.append("0 gaps: output mirrors the input")
        return ImputeResult(series=series, imputed={}, report=report)

    prefix_model = _noted(report.notes, "prefix fit", fit_prefix, series, options, covariates)
    report.model = describe_model(prefix_model)
    if options.refit_per_gap:
        report.notes.append("refit per gap: each gap uses every fully-observed window before it")

    working = series.data.copy()
    imputed: dict = {}
    for segment in segments:
        if options.refit_per_gap:
            model = _noted(report.notes, f"refit before the gap at index {segment.gap_start}",
                           _refit_before, options, series, covariates, segment.gap_start)
            refit_model = model
        else:
            model = prefix_model
            refit_model = None
        if series.missing[segment.seed_indices[0] - 1 : segment.gap_start - 1].any():
            report.notes.append(
                f"gap at index {segment.gap_start} seeds from values imputed for an earlier gap"
            )
        solution = _solve_gap(options, model, segment, working, covariates)
        verdict = _certify_gap(options, model, segment, solution) if options.run_oracle else None
        report.gaps.append(gap_entry(segment, solution, verdict, refit_model))

        filled = np.asarray(solution.imputed, dtype=float).reshape(segment.length, series.dim)
        working[segment.gap_start - 1 : segment.gap_end] = filled
        imputed.update(zip(segment.indices, filled))
        if not solution.constrained:
            report.notes.append(
                f"gap at indices {segment.gap_start}..{segment.gap_end} is unconstrained "
                f"(no anchor); values are the uncorrected forecast"
            )
    return ImputeResult(series=series, imputed=imputed, report=report)
