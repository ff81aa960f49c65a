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
    ArModel,
    RegModel,
    VarModel,
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


def _covariate_row(covariates: Series, index: int) -> np.ndarray:
    row = covariates.values[index - 1]
    if row is None:
        raise DataError(f"missing covariate at index {index} (covariates must be observed wherever used)")
    return row


def _noted_fit(notes: list, context: str, fit, *args):
    """Run ``fit(*args)``, turning a rank-deficiency warning into a report note.

    The model's ``rank_deficient`` flag records the same fact; other warnings
    pass through unchanged.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankDeficiencyWarning)
        model = fit(*args)
    for w in caught:
        if issubclass(w.category, RankDeficiencyWarning):
            notes.append(f"{context}: {w.message}")
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return model


def _fit_prefix(options: ImputeOptions, series: Series, covariates, prefix_length: int):
    if options.model_kind == "ar":
        window = np.array([v[0] for v in series.values[:prefix_length]])
        return fit_ar_scalar(window, options.order)
    if options.model_kind == "var":
        return fit_var1(np.vstack(series.values[:prefix_length]))
    targets = np.vstack(series.values[:prefix_length])
    rows = np.vstack([_covariate_row(covariates, i) for i in range(1, prefix_length + 1)])
    return fit_regression(targets, rows)


def _refit_before(options: ImputeOptions, series: Series, covariates, gap_start: int):
    """Refit on every fully-observed equation window strictly before the gap.

    Only original observations are used; values imputed for earlier gaps never
    enter a fit.
    """
    values = series.values
    if options.model_kind == "ar":
        p = options.order
        lag_rows, targets = [], []
        for t in range(p + 1, gap_start):
            window = [values[i - 1] for i in range(t - p, t + 1)]
            if any(v is None for v in window):
                continue
            lag_rows.append([float(values[t - 1 - j][0]) for j in range(p)])
            targets.append(float(values[t - 1][0]))
        if not lag_rows:
            raise DataError(f"no observed fit window before the gap at index {gap_start}")
        return fit_ar_lagged(np.array(lag_rows), np.array(targets))
    if options.model_kind == "var":
        prev_rows, cur_rows = [], []
        for t in range(2, gap_start):
            if values[t - 2] is None or values[t - 1] is None:
                continue
            prev_rows.append(values[t - 2])
            cur_rows.append(values[t - 1])
        if not prev_rows:
            raise DataError(f"no observed fit window before the gap at index {gap_start}")
        return fit_var_pairs(np.vstack(prev_rows), np.vstack(cur_rows))
    target_rows, cov_rows = [], []
    for t in range(1, gap_start):
        if values[t - 1] is None:
            continue
        target_rows.append(values[t - 1])
        cov_rows.append(_covariate_row(covariates, t))
    if not target_rows:
        raise DataError(f"no observed fit window before the gap at index {gap_start}")
    return fit_regression(np.vstack(target_rows), np.vstack(cov_rows))


def _open_gap_solution(options: ImputeOptions, model, segment, working, covariates) -> ControlSolution:
    """Plain forecast for a gap with no anchor; no controls, marked unconstrained."""
    n0 = segment.gap_start - 1
    steps = segment.length
    if options.model_kind == "ar":
        seeds = np.array([float(working[i - 1][0]) for i in segment.seed_indices])
        predicted = predict_forward(model, seeds, steps)
    elif options.model_kind == "var":
        predicted = predict_forward(model, working[n0 - 1], steps)
    else:
        rows = np.vstack([_covariate_row(covariates, i) for i in segment.indices])
        predicted = predict_forward(model, None, steps, covariates=rows)
        if model.n_outputs == 1:
            predicted = predicted[:, 0]
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


def _solve_gap(options: ImputeOptions, model, segment, working, covariates) -> ControlSolution:
    if not segment.constrained:
        return _open_gap_solution(options, model, segment, working, covariates)
    if options.model_kind == "ar":
        seeds = np.array([float(working[i - 1][0]) for i in segment.seed_indices])
        return impute_gap_ar(model, segment, seeds, float(segment.anchor_value[0]), options.mode)
    if options.model_kind == "var":
        seed = working[segment.gap_start - 2]
        return impute_gap_var(model, segment, seed, segment.anchor_value, options.mode)
    rows = np.vstack(
        [_covariate_row(covariates, i) for i in range(segment.gap_start - 1, segment.anchor_index + 1)]
    )
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

    prefix_model = _noted_fit(report.notes, "prefix fit", _fit_prefix,
                              options, series, covariates, prefix_length)
    report.model = describe_model(prefix_model)
    if options.refit_per_gap:
        report.notes.append("refit per gap: each gap uses every fully-observed window before it")

    working = list(series.values)
    imputed: dict = {}
    missing_set = set(series.missing_indices)
    for segment in segments:
        if options.refit_per_gap:
            model = _noted_fit(report.notes, f"refit before the gap at index {segment.gap_start}",
                               _refit_before, options, series, covariates, segment.gap_start)
            refit_model = model
        else:
            model = prefix_model
            refit_model = None
        if any(i in missing_set for i in segment.seed_indices):
            report.notes.append(
                f"gap at index {segment.gap_start} seeds from values imputed for an earlier gap"
            )
        solution = _solve_gap(options, model, segment, working, covariates)
        verdict = _certify_gap(options, model, segment, solution) if options.run_oracle else None
        report.gaps.append(gap_entry(segment, solution, verdict, refit_model))

        filled = np.asarray(solution.imputed, dtype=float)
        for offset, index in enumerate(segment.indices):
            value = np.atleast_1d(filled[offset])
            working[index - 1] = value
            imputed[index] = value
        if not solution.constrained:
            report.notes.append(
                f"gap at indices {segment.gap_start}..{segment.gap_end} is unconstrained "
                f"(no anchor); values are the uncorrected forecast"
            )
    return ImputeResult(series=series, imputed=imputed, report=report)
