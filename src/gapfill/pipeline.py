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
    stack_solutions,
)
from .errors import DataError, NumericalError
from .fitting import (
    ArModel,
    Models,
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
from .oracle import (
    CERTIFY_TOLERANCE,
    BatchVerdict,
    InstanceLimits,
    Verdict,
    build_problem,
    certify,
    random_instance,
)
from .report import (
    ImputationReport,
    describe_model,
    gap_entry,  # not called here; bench/tracing.py still wraps this name
    gap_records,
)
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


def _note_rank(notes: list, context: str, models: Models) -> None:
    """Note in ``notes`` when the one model of ``models`` was fitted on a rank-deficient design."""
    if models.rank_deficient[0]:
        notes.append(f"{context}: rank-deficient {models.kind.design} design (rank {models.ranks[0]} of "
                     f"{models.coeffs.shape[1]}); minimum-norm coefficients returned")


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


def _refit_models(options: ImputeOptions, series: Series, covariates, starts: np.ndarray) -> Models:
    """Per gap, in order, the model refitted on every fully-observed
    equation window strictly before its 1-based start in ``starts``, or the
    DataError or NumericalError that this refit raises, for the caller to
    raise in that gap's turn: a Models.

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
    counts = np.searchsorted(rows, starts - 1)
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
    fits = fit_sweep(design, inputs, targets, counts)
    # the gaps with no equation before them lead, and those whose window
    # reaches an unobserved covariate trail
    for i in range(int(np.searchsorted(counts, 0, side="right"))):
        fits[i] = DataError(f"no observed fit window before the gap at index {starts[i]}")
    for i in range(int(np.searchsorted(counts, limit, side="right")), len(counts)):
        fits[i] = _missing_covariate(int(rows[limit]) + 1)
    return fits


def _starts(options: ImputeOptions, gaps, working: np.ndarray, covariates, lasts: np.ndarray):
    """What each of ``gaps`` is rolled from: an autoregression's last p
    values, or a VAR's last row, before it (one fancy index of ``working``),
    or a regression's covariate rows from its start through ``lasts``."""
    before = gaps.starts - 1
    if options.model_kind == "ar":
        return working[before[:, None] - options.order + np.arange(options.order), 0]
    if options.model_kind == "var":
        return working[before - 1]
    return [covariates.data[a:b] for a, b in zip(before.tolist(), lasts.tolist())]


def _open_gap_solution(options: ImputeOptions, model, segment, start) -> ControlSolution:
    """Plain forecast for a gap with no anchor, from its ``_starts`` entry;
    no controls, marked unconstrained."""
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


def _solve_gaps(options: ImputeOptions, model, gaps, reads_fill: np.ndarray, working: np.ndarray,
                covariates) -> tuple[list, ControlSolution | None]:
    """Solve ``gaps`` (a Gaps) in order, writing each fill into ``working``;
    the GapStacks of the constrained ones, indexed by position in ``gaps``,
    and an open last gap's solution or None. ``model`` is one model, or a
    Models with per gap a model or its failed refit's error.

    Constrained gaps go to ``impute_stacks`` in runs; a gap whose seed rows
    read a fill (``reads_fill``) starts a new run, whose starts are read
    once the fills before it are written. The first gap whose model failed
    or whose covariates are not all observed raises once the runs before it
    are solved. An open gap is forecast.
    """
    per_gap = isinstance(model, Models)
    # an autoregression, and a regression of one output, have scalar anchors
    scalar = options.model_kind != "var" and working.shape[1] == 1
    closed = len(gaps.anchor_values)
    lasts = gaps.ends + (np.arange(len(gaps)) < closed)
    # the first gap whose refit failed, or whose covariate rows are not all observed
    failed = model.failed if per_gap else np.zeros(len(gaps), dtype=bool)
    first = int(np.append(failed, True).argmax())
    if options.model_kind == "regression":
        absent = np.concatenate(([0], np.cumsum(covariates.missing)))
        first = min(first, int(np.argmax(np.append(absent[lasts] > absent[gaps.starts - 1], True))))
    stacks, stop = [], min(first, closed)
    cuts = [0, *np.flatnonzero(reads_fill[1:stop]) + 1, stop] if stop else []
    for lo, hi in zip(cuts, cuts[1:]):
        run = gaps[lo:hi]
        anchors = run.anchor_values[:, 0] if scalar else run.anchor_values
        for stack in impute_stacks(model[lo:hi] if per_gap else model, run,
                                   _starts(options, run, working, covariates, lasts[lo:hi]), anchors,
                                   options.mode):
            working[stack.indices - 1] = stack.imputed.reshape(len(stack.indices), -1)
            stacks.append(stack._replace(index=stack.index + lo))
    if first < len(gaps):
        if failed[first]:
            raise model[first]
        # the first unobserved covariate row from the gap start on
        start = int(gaps.starts[first])
        raise _missing_covariate(start + int(covariates.missing[start - 1 :].argmax()))
    if closed == len(gaps):
        return stacks, None
    segment, start = gaps[closed], _starts(options, gaps[closed:], working, covariates, lasts[closed:])[0]
    solution = _open_gap_solution(options, model[closed:] if per_gap else model, segment, start)
    working[segment.gap_start - 1 : segment.gap_end] = solution.imputed.reshape(segment.length, -1)
    return stacks, solution


def _landed(gaps, stacks, working: np.ndarray) -> np.ndarray:
    """Per constrained gap of ``gaps``, whether the solver's ``stacks`` fill
    it onto its anchor in the data's own scale: a terminal residual of at
    most CERTIFY_TOLERANCE (1 + the largest magnitude of the anchor + that
    of the seed rows as filled in ``working``). A scale that overflows
    passes."""
    closed = len(gaps.anchor_values)
    residuals = np.zeros(closed)
    for stack in stacks:
        residuals[stack.index] = stack.residuals
    seeds = working[gaps.starts[:closed, None] - 1 - gaps.order + np.arange(gaps.order)]
    with np.errstate(over="ignore"):
        scales = 1.0 + np.abs(gaps.anchor_values).max(axis=1) + np.abs(seeds).max(axis=(1, 2))
    return residuals <= CERTIFY_TOLERANCE * scales


def _certify_batch(options: ImputeOptions, model, stacks, landed: np.ndarray):
    """Run the independent verifier on the solver's ``stacks``: one
    BatchVerdict of their gaps in gap order, or None when there is none.

    ``model`` is the model of every gap, or a Models with one per gap.
    Each stack is one problem and one ``certify`` call: the solver's
    controls and anchor offsets, sorted by control count, against one power
    table per model to the stack's longest count. A gap passes only if it
    also ``landed`` (one per gap, in gap order; see ``_landed``): the
    oracle checks the controls, not the fill, which rounding can move far
    off the anchor when the forecast dwarfs the data. Scalar paper-mode
    values are not optimal by construction, so they carry diagnostics
    instead of a certificate.
    """
    if options.model_kind == "ar" and options.mode == "paper" or not stacks:
        return None
    results = [certify(stack.controls, build_problem(
        model[stack.index] if isinstance(model, Models) else model, stack.counts, stack.offsets))
        for stack in stacks]
    order = np.argsort(np.concatenate([stack.index for stack in stacks]))
    passed, *rest = (np.concatenate(column)[order] for column in zip(*(result.columns for result in results)))
    return BatchVerdict((passed & landed, *rest))


def impute_series(series: Series, options: ImputeOptions = ImputeOptions(),
                  covariates: Series | None = None) -> ImputeResult:
    """Fill every gap in ``series`` and report what was done.

    Gaps are filled left to right, so a gap may seed from values imputed for
    an earlier gap; the report notes when that happens, and when a fit is
    rank deficient. The model is fitted once on the observed prefix unless
    ``refit_per_gap`` is set, in which case one sweep (``_refit_models``)
    gives each gap its own model. Either way the gaps are solved by
    ``_solve_gaps`` and certified stack by stack (see ``_certify_batch``).
    The report holds the gaps as columns, in gap order (``gap_records``),
    and a failing run raises the first failing gap's error.
    """
    _validate_options(options, series, covariates)
    segmentation_order = options.order if options.model_kind == "ar" else 1
    prefix_length, gaps = detect_gaps(series, segmentation_order, options.allow_open_gap)

    report = ImputationReport(mode=options.mode, prefix_length=prefix_length)
    if not gaps:
        report.notes.append("0 gaps: output mirrors the input")
        return ImputeResult(series=series, filled=series.data, report=report)

    prefix_model = fit_prefix(series, options, covariates)
    _note_rank(report.notes, "prefix fit", Models.of([prefix_model]))
    report.model = describe_model(prefix_model)

    models = prefix_model
    if options.refit_per_gap:
        report.notes.append("refit per gap: each gap uses every fully-observed window before it")
        models = _refit_models(options, series, covariates, gaps.starts)
    # whether each gap's seed rows hold a missing row, and so read an earlier fill
    missing_before = np.concatenate(([0], np.cumsum(series.missing)))
    reads_fill = missing_before[gaps.starts - 1] > missing_before[gaps.starts - 1 - gaps.order]
    working = series.data.copy()
    stacks, opened = _solve_gaps(options, models, gaps, reads_fill, working, covariates)
    landed = _landed(gaps, stacks, working)
    verdicts = _certify_batch(options, models, stacks, landed)

    refits = models if options.refit_per_gap else None
    deficient = refits.rank_deficient if refits else np.zeros(len(gaps), dtype=bool)
    # the certified gaps whose fill misses its anchor in the data's scale
    missed = np.zeros(len(gaps), dtype=bool)
    if verdicts is not None:
        missed[: len(landed)] = ~landed
    for i in np.flatnonzero(reads_fill | deficient | missed).tolist():
        start = int(gaps.starts[i])
        if deficient[i]:
            _note_rank(report.notes, f"refit before the gap at index {start}", refits[i : i + 1])
        if reads_fill[i]:
            report.notes.append(f"gap at index {start} seeds from values imputed for an earlier gap")
        if missed[i]:
            report.notes.append(f"gap at index {start} is not certified: its terminal residual exceeds "
                                f"{CERTIFY_TOLERANCE:g} x (1 + max |anchor| + max |seed|)")
    report.gap_columns = gap_records(gaps, stacks, verdicts, refits, opened)
    if opened is not None:
        report.notes.append(
            f"gap at indices {gaps.starts[-1]}..{gaps.ends[-1]} is unconstrained "
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
    _, gaps = detect_gaps(series, options.order)
    working = series.data.copy()
    (stack,), _ = _solve_gaps(options, model, gaps, np.zeros(1, dtype=bool), working, None)
    (solution,) = stack_solutions([stack], 1)
    if inject_fault:
        bad = np.array(solution.controls, dtype=float)
        bad[0] = bad[0] + 0.5
        solution, stack = solution._replace(controls=bad), stack._replace(controls=bad)
    (verdict,) = _certify_batch(options, model, [stack], _landed(gaps, [stack], working))
    return VerifiedInstance(seed=seed, kind=limits.kind, model=model, segment=gaps[0],
                            solution=solution, verdict=verdict)
