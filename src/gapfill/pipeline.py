"""End-to-end imputation: segment the series, fit, solve each gap, assemble the report."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import (
    MODES,
    ControlSolution,
    impute_gap_ar,
    impute_gap_regression,
    impute_gap_var,  # not called here; bench/tracing.py still wraps this name
    impute_gaps_var,
    shared_impulse,
)
from .errors import DataError, NumericalError
from .fitting import (
    ArModel,
    RegModel,
    VarModel,
    fit_ar_lagged,  # not called here; bench/tracing.py still wraps this name
    fit_ar_scalar,
    fit_regression,
    fit_sweep,
    fit_var1,
    fit_var_pairs,  # not called here; bench/tracing.py still wraps this name
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


def _missing_covariate(index: int) -> DataError:
    return DataError(f"missing covariate at index {index} (covariates must be observed wherever used)")


def _covariate_rows(covariates: Series, rows: np.ndarray) -> np.ndarray:
    """The covariates at the 0-based ``rows``, every one of which must be observed."""
    absent = covariates.missing[rows]
    if absent.any():
        raise _missing_covariate(int(rows[absent.argmax()]) + 1)
    return covariates.data[rows]


def _note_rank(notes: list, context: str, model):
    """Return ``model``, first noting in ``notes`` when its fit was rank deficient."""
    if model.rank_deficient:
        notes.append(
            f"{context}: rank-deficient {model.design} design (rank {model.rank} of "
            f"{model.design_columns}); minimum-norm coefficients returned"
        )
    return model


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


def _refit_models(options: ImputeOptions, series: Series, covariates, segments) -> list:
    """Per gap, in order, the model refitted on every fully-observed equation
    window strictly before it, or the DataError or NumericalError that this
    refit raises, for the caller to raise in that gap's turn.

    Only original observations are used; values imputed for earlier gaps
    never enter a fit. The equations before a gap are a leading run of the
    series' usable equations, so one ``fit_sweep`` over them gives every
    refit.
    """
    lags = {"ar": options.order, "var": 1, "regression": 0}[options.model_kind]
    # the equation whose target is row t needs rows t - lags .. t observed
    observed = ~series.missing
    usable = observed[lags:].copy()
    for j in range(1, lags + 1):
        usable &= observed[lags - j : len(observed) - j]
    rows = np.flatnonzero(usable) + lags
    starts = [segment.gap_start for segment in segments]
    counts = np.searchsorted(rows, np.array(starts) - 1).tolist()
    data = series.data
    limit = len(rows)
    if options.model_kind == "ar":
        x = data[:, 0]
        design, targets = ArModel, x[rows]
        inputs = np.column_stack([x[rows - 1 - j] for j in range(lags)])
    elif options.model_kind == "var":
        design, inputs, targets = VarModel, data[rows - 1], data[rows]
    else:
        absent = covariates.missing[rows]
        if absent.any():
            # a window that reaches the first unobserved covariate fails
            limit = int(absent.argmax())
        design, inputs, targets = RegModel, covariates.data[rows[:limit]], data[rows[:limit]]
    fits = iter(fit_sweep(design, inputs, targets, [c for c in counts if 0 < c <= limit]))
    return [
        DataError(f"no observed fit window before the gap at index {start}") if c == 0
        else _missing_covariate(int(rows[limit]) + 1) if c > limit
        else next(fits)
        for start, c in zip(starts, counts)
    ]


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


def _solve_gap(options: ImputeOptions, model, segment, working: np.ndarray, covariates,
               impulse) -> ControlSolution:
    """Solve one gap that ``impute_gaps_var`` does not: an open gap, or an
    autoregressive gap (given the batch's ``shared_impulse``) or a
    regression gap."""
    start = segment.gap_start - 1
    # an autoregression seeds from the last p values before the gap, a VAR from the last row
    seed = working[start - options.order : start, 0] if options.model_kind == "ar" else working[start - 1]
    if not segment.constrained:
        return _open_gap_solution(options, model, segment, seed, covariates)
    if options.model_kind == "ar":
        return impute_gap_ar(model, segment, seed, float(segment.anchor_value[0]), options.mode,
                             impulse)
    rows = _covariate_rows(covariates, np.arange(start - 1, segment.anchor_index))
    anchor = float(segment.anchor_value[0]) if model.n_outputs == 1 else segment.anchor_value
    return impute_gap_regression(model, segment, rows, anchor)


def _solve_batch(options: ImputeOptions, model, batch, working: np.ndarray, covariates) -> list:
    """Solve gaps that share ``model``, writing each fill into ``working``; in gap order.

    The constrained gaps of a VAR are solved together by ``impute_gaps_var``:
    each seeds from the observed row before it, so none depends on another's
    fill. The other gaps run one at a time from left to right, since an
    autoregressive gap fewer than p rows after another seeds from its fill;
    autoregressive gaps share one impulse response.
    """
    solved, impulse = {}, None
    if options.model_kind == "var":
        closed = [i for i, segment in enumerate(batch) if segment.constrained]
        gaps = [batch[i] for i in closed]
        seeds = working[[gap.gap_start - 2 for gap in gaps]]
        anchors = [gap.anchor_value for gap in gaps]
        solved = dict(zip(closed, impute_gaps_var(model, gaps, seeds, anchors, options.mode)))
    elif options.model_kind == "ar":
        impulse = shared_impulse(model, batch)
    solutions = []
    for i, segment in enumerate(batch):
        solution = solved[i] if i in solved else _solve_gap(
            options, model, segment, working, covariates, impulse)
        filled = solution.imputed.reshape(segment.length, -1)
        working[segment.gap_start - 1 : segment.gap_end] = filled
        solutions.append(solution)
    return solutions


def _certify_batch(options: ImputeOptions, model, batch, solutions) -> list:
    """Run the independent verifier on ``batch``; one verdict or None per
    gap, in gap order.

    ``model`` is the model of every gap, or a list with one model per gap.
    Gaps with the same number of controls share one stacked problem and one
    ``certify`` call, each with its own constraint steps when the models
    differ. Open gaps have no constraint to check, and scalar paper-mode
    values are not optimal by construction, so they carry diagnostics
    instead of a certificate.
    """
    verdicts = [None] * len(batch)
    if options.model_kind == "ar" and options.mode == "paper":
        return verdicts
    by_steps = {}
    for i, solution in enumerate(solutions):
        if solution.constrained:
            by_steps.setdefault(len(solution.control_indices), []).append(i)
    for steps, members in by_steps.items():
        # each anchor's offset from its forecast, one row per gap
        offsets = [batch[i].anchor_value - solutions[i].predicted[-1] for i in members]
        models = [model[i] for i in members] if isinstance(model, list) else model
        result = certify([solutions[i] for i in members], build_problem(models, steps, offsets))
        for i, verdict in zip(members, result.verdicts):
            verdicts[i] = verdict
    return verdicts


def impute_series(series: Series, options: ImputeOptions = ImputeOptions(),
                  covariates: Series | None = None) -> ImputeResult:
    """Fill every gap in ``series`` and report what was done.

    Gaps are filled left to right, so a gap may seed from values imputed for
    an earlier gap; the report notes when that happens, and when a fit is
    rank deficient. The model is fitted once on the observed prefix unless
    ``refit_per_gap`` is set, in which case one sweep (``_refit_models``)
    gives each gap its own model and the gaps are solved one at a time. Gaps
    that share the prefix model are solved as one batch (see
    ``_solve_batch``); either way, gaps are certified together by control
    count (see ``_certify_batch``). The report is per gap, in gap order, and
    a failing run raises the first failing gap's error.
    """
    _validate_options(options, series, covariates)
    segmentation_order = options.order if options.model_kind == "ar" else 1
    prefix_length, segments = detect_gaps(series, segmentation_order, options.allow_open_gap)

    report = ImputationReport(mode=options.mode, prefix_length=prefix_length)
    if not segments:
        report.notes.append("0 gaps: output mirrors the input")
        return ImputeResult(series=series, imputed={}, report=report)

    prefix_model = _note_rank(report.notes, "prefix fit", fit_prefix(series, options, covariates))
    report.model = describe_model(prefix_model)

    working = series.data.copy()
    if options.refit_per_gap:
        report.notes.append("refit per gap: each gap uses every fully-observed window before it")
        models = _refit_models(options, series, covariates, segments)
        solutions = []
        for segment, model in zip(segments, models):
            if isinstance(model, Exception):
                raise model
            solutions += _solve_batch(options, model, [segment], working, covariates)
    else:
        models = prefix_model
        solutions = _solve_batch(options, prefix_model, segments, working, covariates)
    verdicts = _certify_batch(options, models, segments, solutions)

    imputed: dict = {}
    refits = models if options.refit_per_gap else [None] * len(segments)
    for segment, solution, verdict, refit_model in zip(segments, solutions, verdicts, refits):
        if refit_model is not None:
            _note_rank(report.notes, f"refit before the gap at index {segment.gap_start}", refit_model)
        if series.missing[segment.seed_indices[0] - 1 : segment.gap_start - 1].any():
            report.notes.append(
                f"gap at index {segment.gap_start} seeds from values imputed for an earlier gap"
            )
        report.gaps.append(gap_entry(segment, solution, verdict, refit_model))
        imputed.update(zip(segment.indices, working[segment.gap_start - 1 : segment.gap_end]))
        if not solution.constrained:
            report.notes.append(
                f"gap at indices {segment.gap_start}..{segment.gap_end} is unconstrained "
                f"(no anchor); values are the uncorrected forecast"
            )
    return ImputeResult(series=series, imputed=imputed, report=report)
