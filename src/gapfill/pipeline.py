"""End-to-end imputation: segment the series, fit, solve each gap, assemble the report.

``verify_instance`` runs a seeded random instance through the same solve and
certification calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import (
    MODES,
    ControlSolution,
    impute_gap_ar,  # not called here; bench/tracing.py still wraps this name
    impute_gap_regression,  # not called here; bench/tracing.py still wraps this name
    impute_gap_var,  # not called here; bench/tracing.py still wraps this name
    impute_stacks,
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
from .oracle import InstanceLimits, Verdict, build_problem, certify, random_instance
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
    """The series, the filled n x dim array (the observed rows as given, the
    missing rows imputed; read-only) and the run report."""

    series: Series
    filled: np.ndarray
    report: ImputationReport

    def rendered_csv(self, precision: int = 6) -> str:
        return write_csv(self.series, self.filled, precision=precision)


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


def _start(options: ImputeOptions, segment, working: np.ndarray, covariates):
    """What ``segment`` is rolled from: an autoregression's last p values
    before it, a VAR's last row, or a regression's covariate rows from the
    gap start through the anchor (or the gap end), all of them observed."""
    start = segment.gap_start - 1
    if options.model_kind == "ar":
        return working[start - options.order : start, 0]
    if options.model_kind == "var":
        return working[start - 1]
    last = segment.anchor_index if segment.constrained else segment.gap_end
    return _covariate_rows(covariates, np.arange(start, last))


def _open_gap_solution(options: ImputeOptions, model, segment, start) -> ControlSolution:
    """Plain forecast for a gap with no anchor, from its ``_start``; no
    controls, marked unconstrained."""
    # a regression reads its start as covariate rows, an autoregression as seeds
    predicted = predict_forward(model, start, segment.length, covariates=start)
    if options.model_kind == "regression" and model.n_outputs == 1:
        predicted = predicted[:, 0]
    if not np.all(np.isfinite(predicted)):
        raise NumericalError(
            f"forecast overflow in the open gap at index {segment.gap_start} "
            f"(explosive coefficients over a long horizon)"
        )
    return ControlSolution(
        control_indices=segment.indices,
        controls=np.zeros_like(predicted),
        multiplier=None,
        imputed=predicted,
        predicted=predicted,
        terminal_residual=None,
        objective=0.0,
        mode=options.mode,
        constrained=False,
        diagnostics={"note": "no anchor after the gap; values are the uncorrected forecast"},
    )


def _solve_gaps(options: ImputeOptions, model, segments, reads_fill, working: np.ndarray,
                covariates) -> tuple[list, list]:
    """Solve ``segments`` in order, writing each fill into ``working``; the
    solutions, and the GapStacks of the constrained ones, indexed by
    position in ``segments``. ``model`` is one model, or per gap a model or
    its failed refit's error.

    Constrained gaps go to ``impute_stacks`` in runs; a gap whose seed rows
    read a fill (``reads_fill``) starts a new run. Each stack's fills are
    written with one fancy-indexed assignment. A failing gap model or start
    is raised once the run before it is solved. Open gaps are forecast.
    """
    per_gap = isinstance(model, list)
    # an autoregression, and a regression of one output, have scalar anchors
    scalar = options.model_kind != "var" and working.shape[1] == 1
    solutions, stacks, run = [], [], []

    def solve_run():
        if run:
            gaps, models, starts = map(list, zip(*run))
            anchors = [float(gap.anchor_value[0]) if scalar else gap.anchor_value for gap in gaps]
            solved, solved_stacks = impute_stacks(models if per_gap else model, gaps, starts, anchors,
                                                  options.mode)
            run.clear()
            for stack in solved_stacks:
                working[stack.indices - 1] = stack.imputed.reshape(len(stack.indices), -1)
                stacks.append(stack._replace(index=[len(solutions) + i for i in stack.index]))
            solutions.extend(solved)

    models = model if per_gap else [model] * len(segments)
    for segment, gap_model, seeded in zip(segments, models, reads_fill):
        if seeded or not segment.constrained:
            solve_run()
        try:
            if isinstance(gap_model, Exception):
                raise gap_model
            start = _start(options, segment, working, covariates)
        except (DataError, NumericalError):
            solve_run()
            raise
        if segment.constrained:
            run.append((segment, gap_model, start))
        else:
            solution = _open_gap_solution(options, gap_model, segment, start)
            working[segment.gap_start - 1 : segment.gap_end] = solution.imputed.reshape(segment.length, -1)
            solutions.append(solution)
    solve_run()
    return solutions, stacks


def _certify_batch(options: ImputeOptions, model, stacks, count: int) -> list:
    """Run the independent verifier on the solver's ``stacks`` of ``count``
    gaps; one verdict or None per gap, in gap order.

    ``model`` is the model of every gap, or a list with one model per gap.
    Each stack is one problem and one ``certify`` call: the solver's
    controls and anchor offsets, sorted by control count, against one power
    table per model to the stack's longest count. Open gaps have no
    constraint to check, and scalar paper-mode values are not optimal by
    construction, so they carry diagnostics instead of a certificate.
    """
    verdicts = [None] * count
    if options.model_kind == "ar" and options.mode == "paper":
        return verdicts
    for stack in stacks:
        models = [model[i] for i in stack.index] if isinstance(model, list) else model
        result = certify(stack.controls, build_problem(models, stack.counts, stack.offsets))
        for i, verdict in zip(stack.index, result.verdicts):
            verdicts[i] = verdict
    return verdicts


def impute_series(series: Series, options: ImputeOptions = ImputeOptions(),
                  covariates: Series | None = None) -> ImputeResult:
    """Fill every gap in ``series`` and report what was done.

    Gaps are filled left to right, so a gap may seed from values imputed for
    an earlier gap; the report notes when that happens, and when a fit is
    rank deficient. The model is fitted once on the observed prefix unless
    ``refit_per_gap`` is set, in which case one sweep (``_refit_models``)
    gives each gap its own model. Either way the gaps are solved by
    ``_solve_gaps`` and certified stack by stack (see ``_certify_batch``).
    The report is per gap, in gap order, and a failing run raises the first
    failing gap's error.
    """
    _validate_options(options, series, covariates)
    segmentation_order = options.order if options.model_kind == "ar" else 1
    prefix_length, segments = detect_gaps(series, segmentation_order, options.allow_open_gap)

    report = ImputationReport(mode=options.mode, prefix_length=prefix_length)
    if not segments:
        report.notes.append("0 gaps: output mirrors the input")
        return ImputeResult(series=series, filled=series.data, report=report)

    prefix_model = _note_rank(report.notes, "prefix fit", fit_prefix(series, options, covariates))
    report.model = describe_model(prefix_model)

    models = prefix_model
    if options.refit_per_gap:
        report.notes.append("refit per gap: each gap uses every fully-observed window before it")
        models = _refit_models(options, series, covariates, segments)
    # whether each gap's seed rows hold a missing row, and so read an earlier fill
    missing_before = np.concatenate(([0], np.cumsum(series.missing)))
    reads_fill = (missing_before[[segment.gap_start - 1 for segment in segments]] >
                  missing_before[[segment.seed_indices[0] - 1 for segment in segments]]).tolist()
    working = series.data.copy()
    solutions, stacks = _solve_gaps(options, models, segments, reads_fill, working, covariates)
    verdicts = _certify_batch(options, models, stacks, len(segments))

    refits = models if options.refit_per_gap else [None] * len(segments)
    for segment, solution, verdict, refit_model, seeded in zip(segments, solutions, verdicts, refits,
                                                                reads_fill):
        if refit_model is not None:
            _note_rank(report.notes, f"refit before the gap at index {segment.gap_start}", refit_model)
        if seeded:
            report.notes.append(
                f"gap at index {segment.gap_start} seeds from values imputed for an earlier gap"
            )
        report.gaps.append(gap_entry(segment, solution, verdict, refit_model))
        if not solution.constrained:
            report.notes.append(
                f"gap at indices {segment.gap_start}..{segment.gap_end} is unconstrained "
                f"(no anchor); values are the uncorrected forecast"
            )
    working.setflags(write=False)
    return ImputeResult(series=series, filled=working, report=report)


@dataclass(frozen=True)
class VerifiedInstance:
    seed: int
    kind: str
    model: object
    segment: object
    solution: ControlSolution
    verdict: Verdict


def verify_instance(seed: int, limits: InstanceLimits = InstanceLimits(),
                    inject_fault: bool = False) -> VerifiedInstance:
    """Generate one instance, fill its gap in exact mode and certify the fill,
    with the ``_solve_gaps`` and ``_certify_batch`` calls of ``impute_series``.

    ``inject_fault`` perturbs the first control between the two calls; the
    verdict must then fail, which exercises the harness itself.
    """
    series, model = random_instance(seed, limits)
    options = ImputeOptions(model_kind=limits.kind, order=model.p if limits.kind == "ar" else 1)
    _, (segment,) = detect_gaps(series, options.order)
    (solution,), (stack,) = _solve_gaps(options, model, [segment], [False], series.data.copy(), None)
    if inject_fault:
        bad = np.array(solution.controls, dtype=float)
        bad[0] = bad[0] + 0.5
        solution, stack = solution._replace(controls=bad), stack._replace(controls=bad)
    (verdict,) = _certify_batch(options, model, [stack], 1)
    return VerifiedInstance(seed=seed, kind=limits.kind, model=model, segment=segment,
                            solution=solution, verdict=verdict)
