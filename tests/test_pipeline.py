import contextlib
import json
import pathlib
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill import control, fitting, oracle, pipeline
from gapfill import models as models_module
from gapfill import report as report_module
from gapfill import series as series_module
from gapfill.control import (
    gamma_weights,
    impulse_weights,
    impute_gap_ar,
    impute_gap_regression,
    impute_gap_var,
    stack_solutions,
)
from gapfill.errors import DataError, NumericalError
from gapfill.fitting import (
    ArModel,
    RegModel,
    VarModel,
    predict_forward,
)
from gapfill.linalg import RANK_TOLERANCE, mat_pow_table
from gapfill.oracle import build_problem, certify
from gapfill.pipeline import ImputeOptions, impute_series
from gapfill.report import ImputationReport, describe_model, gap_entry, json_pieces, render_json
from gapfill.series import Series, detect_gaps, parse_csv


@contextlib.contextmanager
def recording(record):
    """Call ``record(segment, solution)`` for each gap that ``impute_series``
    solves, in gap order: the ControlSolutions of each run's GapStacks and
    an open gap's forecast."""
    solve_run, forecast = pipeline.impute_stacks, pipeline._open_gap_solution

    def stacks(model, gaps, *rest):
        solved = solve_run(model, gaps, *rest)
        for segment, solution in zip(gaps, stack_solutions(solved, len(gaps))):
            record(segment, solution)
        return solved

    def opened(options, model, segment, start):
        solution = forecast(options, model, segment, start)
        record(segment, solution)
        return solution

    with mock.patch.object(pipeline, "impute_stacks", stacks), \
            mock.patch.object(pipeline, "_open_gap_solution", opened):
        yield


def scalar_series(values):
    return Series.from_values(values)


def imputed_rows(result):
    """The imputed rows of ``result.filled``, keyed by 1-based index."""
    return dict(zip(result.series.missing_indices, result.filled[result.series.missing]))


class TestScalarPipeline:
    def test_single_gap_end_to_end(self):
        series = parse_csv("v\n1\n2\n3\n4\n5\nNA\nNA\n8\n")
        result = impute_series(series, ImputeOptions(model_kind="ar", order=1))
        assert set(imputed_rows(result)) == {6, 7}
        # the prefix fits x_n = x_{n-1} + 1 exactly, and the anchor sits on
        # that line, so the fill is the line itself
        assert imputed_rows(result)[6][0] == pytest.approx(6.0, abs=1e-9)
        assert imputed_rows(result)[7][0] == pytest.approx(7.0, abs=1e-9)
        (entry,) = result.report.gaps
        assert entry["oracle"]["certified"]
        assert entry["terminal_residual"] <= 1e-9 * 9

    def test_report_entry_fields(self):
        series = parse_csv("v\n1\n2\n3\n4\n5\nNA\nNA\n8\n")
        result = impute_series(series)
        (entry,) = result.report.gaps
        assert list(entry) == [
            "start", "end", "anchor_index", "anchor_value", "seed_indices",
            "constrained", "mode", "multiplier", "control_indices",
            "terminal_residual", "objective", "oracle", "diagnostics",
        ]
        assert entry["start"] == 6
        assert entry["end"] == 7
        assert entry["anchor_index"] == 8
        assert entry["seed_indices"] == [5, 5]
        assert entry["control_indices"] == [6, 8]
        report_dict = result.report.to_dict()
        assert report_dict["schema_version"] == 4
        assert report_dict["gap_count"] == 1
        assert report_dict["model"]["kind"] == "ar"

    def test_report_json_round_trips(self):
        series = parse_csv("v\n1\n2\n3\n4\n5\nNA\nNA\n8\n")
        solved = []

        with recording(lambda segment, solution: solved.append(solution)):
            result = impute_series(series)
        parsed = json.loads(result.report.to_json())
        (entry,) = parsed["gaps"]
        assert entry["control_indices"] == [6, 8]
        assert entry["multiplier"] == result.report.gaps[0]["multiplier"]
        controls = controls_from_report(entry, model_from_report(parsed["model"]))
        assert controls.tobytes() == solved[0].controls.tobytes()

    def test_gapless_series_reports_zero_gaps(self):
        series = parse_csv("v\n1\n2\n3\n")
        result = impute_series(series)
        assert imputed_rows(result) == {}
        assert result.report.model is None
        assert result.report.gaps == []
        assert any("0 gaps" in note for note in result.report.notes)
        assert result.rendered_csv() == "v,origin\n1,observed\n2,observed\n3,observed\n"

    def test_later_gap_seeds_from_earlier_fill(self):
        # order 2: the second gap's seed window includes index 6, filled by gap one
        values = [1.0, 2.0, 1.5, 3.0, 2.5, None, 3.5, None, 4.5, 4.0]
        series = scalar_series(values)
        result = impute_series(series, ImputeOptions(model_kind="ar", order=2))
        assert set(imputed_rows(result)) == {6, 8}
        assert any("imputed for an earlier gap" in note for note in result.report.notes)

    def test_multiple_gaps_all_certified(self):
        rng = np.random.default_rng(103)
        base = list(np.cumsum(rng.uniform(0.5, 1.5, 30)))
        for i in (12, 13, 20, 25):
            base[i] = None
        result = impute_series(scalar_series(base), ImputeOptions(order=1))
        assert len(result.report.gaps) == 3
        for entry in result.report.gaps:
            assert entry["oracle"]["certified"]

    @pytest.mark.parametrize(
        "a",
        [(0.5, -0.3, 0.2), (1.5, -0.505)],
        ids=["stationary_ar3", "near_unit_root_ar2"],
    )
    def test_long_gaps_all_certified(self, a):
        # two ~1500-step gaps; the AR(2) has a root at 0.99
        rng = np.random.default_rng(17)
        x = [0.0] * len(a)
        for _ in range(3400):
            x.append(sum(c * x[-1 - j] for j, c in enumerate(a)) + 1.0 + rng.normal())
        values = x[len(a):]
        values[300:1800] = [None] * 1500
        values[1900:3380] = [None] * 1480
        result = impute_series(scalar_series(values), ImputeOptions(order=len(a)))
        assert [e["end"] - e["start"] + 1 for e in result.report.gaps] == [1500, 1480]
        for entry in result.report.gaps:
            assert entry["oracle"]["certified"]

    def test_paper_mode_order_two_skips_certificate(self):
        values = [1.0, 2.0, 1.5, 2.5, 2.0, 3.0, 2.5, None, None, 4.0]
        result = impute_series(
            scalar_series(values), ImputeOptions(order=2, mode="paper")
        )
        (entry,) = result.report.gaps
        assert entry["oracle"] is None
        assert "max_weight_difference" in entry["diagnostics"]
        assert np.isfinite(entry["terminal_residual"])

    def test_open_gap_filled_with_forecast(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, None, None]
        result = impute_series(
            scalar_series(values), ImputeOptions(allow_open_gap=True)
        )
        assert imputed_rows(result)[6][0] == pytest.approx(6.0, abs=1e-9)
        assert imputed_rows(result)[7][0] == pytest.approx(7.0, abs=1e-9)
        (entry,) = result.report.gaps
        assert not entry["constrained"]
        assert entry["oracle"] is None
        assert entry["terminal_residual"] is None
        assert any("unconstrained" in note for note in result.report.notes)

    def test_open_gap_rejected_by_default(self):
        with pytest.raises(DataError, match="no anchor"):
            impute_series(scalar_series([1.0, 2.0, None]))

    def test_vector_column_rejected_for_ar(self):
        series = parse_csv("a,b\n1,2\n3,4\n+,+\n5,6\n")
        with pytest.raises(DataError, match="single value column"):
            impute_series(series, ImputeOptions(model_kind="ar"))

    def test_refit_per_gap_uses_post_gap_runs(self):
        # the run between the gaps follows a different slope; refitting for
        # the second gap must pick it up, the prefix-only fit must not
        values = (
            [0.0, 1.0, 2.0, 3.0, 4.0]      # slope 1 prefix
            + [None]
            + [8.0, 10.0, 12.0, 14.0, 16.0]  # slope 2 run
            + [None]
            + [20.0]
        )
        series = scalar_series(values)
        plain = impute_series(series, ImputeOptions(order=1))
        refit = impute_series(series, ImputeOptions(order=1, refit_per_gap=True))
        assert refit.report.gaps[1]["refit_model"] is not None
        assert plain.report.gaps[0].get("refit_model") is None
        # both must still land on the anchor
        assert refit.report.gaps[1]["terminal_residual"] <= 1e-8
        assert refit.report.gaps[1]["refit_model"]["lag_coefficients"] != list(
            plain.report.model["lag_coefficients"]
        )

    @staticmethod
    def explosive_run():
        """x_t = 1.03 x_{t-1} + 0.01 e_t for 600 rows, then 1000 missing rows
        before the anchor 2.0: the fill is a ~3.5e20 forecast plus a
        correction of the same size, so rounding leaves a terminal residual
        of 281 956 and a last fill of -273 742, which the oracle's
        offset-relative bound passes."""
        rng = np.random.default_rng(1)
        x = [1.0]
        for _ in range(599):
            x.append(1.03 * x[-1] + 0.01 * rng.standard_normal())
        return impute_series(scalar_series(x + [None] * 1000 + [2.0, 2.1, 1.9]))

    def test_certified_fill_lands_in_the_data_s_scale(self):
        result = self.explosive_run()
        for entry in json.loads(result.report.to_json())["gaps"]:
            if entry["oracle"] and entry["oracle"]["certified"]:
                first, last = entry["seed_indices"]
                seeds = result.filled[first - 1 : last]
                scale = 1.0 + float(np.max(np.abs(entry["anchor_value"]))) + float(np.max(np.abs(seeds)))
                assert entry["terminal_residual"] <= 1e-6 * scale

    def test_fill_that_misses_in_the_data_s_scale_is_uncertified_with_one_note(self):
        result = self.explosive_run()
        (entry,) = result.report.gaps
        assert entry["terminal_residual"] > 1e5
        assert entry["oracle"]["certified"] is False
        assert result.report.notes == [
            "gap at index 601 is not certified: its terminal residual exceeds "
            "1e-09 x (1 + max |anchor| + max |seed|)"]

    def test_landing_scale_that_overflows_passes(self):
        # seeds near the largest float: 1 + |anchor| + |seed| overflows, and
        # the check passes without a warning (warnings fail the suite)
        result = impute_series(scalar_series([1.5e308, -1.5e308, 1.5e308, -1.5e308, 1.5e308, None, 1.5e308]))
        (entry,) = result.report.gaps
        assert entry["oracle"]["certified"] is True and result.report.notes == []


@pytest.mark.parametrize("options, covariate_rows, message", [
    (ImputeOptions(model_kind="arma"), None, "unknown model 'arma'; expected one of ar, var, regression"),
    (ImputeOptions(mode="printed"), None, "unknown mode 'printed'; expected one of exact, paper"),
    (ImputeOptions(order=0), None, "order must be >= 1"),
    (ImputeOptions(model_kind="regression"), 5, "covariate rows must align with the series rows"),
], ids=["model", "mode", "order", "covariate_rows"])
def test_library_options_are_validated(options, covariate_rows, message):
    # the CLI's argparse stops all four before they reach the library
    series = scalar_series([1.0, 2.0, 3.0, None, 5.0, 6.0])
    covariates = None if covariate_rows is None else scalar_series([1.0] * covariate_rows)
    for call in (impute_series, pipeline.fit_prefix):
        with pytest.raises(DataError) as excinfo:
            call(series, options, covariates)
        assert str(excinfo.value) == message


class TestVectorPipeline:
    def test_var_end_to_end(self, phosphate_text):
        series = parse_csv(phosphate_text)
        result = impute_series(series, ImputeOptions(model_kind="var"))
        assert set(imputed_rows(result)) == {11, 12, 15}
        for entry in result.report.gaps:
            assert entry["oracle"]["certified"]
            assert entry["terminal_residual"] <= 1e-9 * (
                1 + np.linalg.norm(entry["anchor_value"])
            )
        assert result.report.model["kind"] == "var"
        assert result.report.model["dimension"] == 2

    def test_var_order_must_be_one(self):
        series = parse_csv("a,b\n1,2\n3,4\n+,+\n5,6\n")
        with pytest.raises(DataError, match="order 1"):
            impute_series(series, ImputeOptions(model_kind="var", order=2))

    def test_var_paper_mode_same_values_extra_diagnostics(self, phosphate_text):
        series = parse_csv(phosphate_text)
        exact = impute_series(series, ImputeOptions(model_kind="var", mode="exact"))
        printed = impute_series(series, ImputeOptions(model_kind="var", mode="paper"))
        for i in (11, 12, 15):
            assert np.array_equal(imputed_rows(exact)[i], imputed_rows(printed)[i])
        model = model_from_report(printed.report.model)
        for entry in printed.report.gaps:
            formula, exact = step_norms_from_report(entry, model, printed.filled)
            difference = float(np.max(np.abs(formula - exact)))
            assert entry["diagnostics"] == {"max_step_norm_difference": difference}
            assert entry["oracle"]["certified"]


class TestRegressionPipeline:
    def make_text(self):
        rows = ["y,x"]
        for n in range(1, 11):
            rows.append(f"{2 * n + 1},{n}")
        rows.append(f"NA,{11}")
        rows.append(f"NA,{12}")
        rows.append(f"{30.0},{13}")  # anchor off the fitted line (would be 27)
        return "\n".join(rows) + "\n"

    def test_regression_end_to_end(self):
        series = parse_csv(self.make_text(), value_columns=["y"])
        covariates = parse_csv(self.make_text(), value_columns=["x"])
        result = impute_series(
            series, ImputeOptions(model_kind="regression"), covariates
        )
        assert set(imputed_rows(result)) == {11, 12}
        # fitted line y = 2x + 1 predicts 27 at the anchor; mismatch 3 spreads
        # one unit per step
        assert imputed_rows(result)[11][0] == pytest.approx(24.0, abs=1e-8)
        assert imputed_rows(result)[12][0] == pytest.approx(27.0, abs=1e-8)
        (entry,) = result.report.gaps
        assert entry["oracle"]["certified"]
        assert entry["multiplier"] == pytest.approx(1.0, abs=1e-8)

    def test_missing_covariates_rejected(self):
        series = parse_csv(self.make_text(), value_columns=["y"])
        with pytest.raises(DataError, match="covariate"):
            impute_series(series, ImputeOptions(model_kind="regression"))

    def test_missing_covariate_row_rejected(self):
        text = "y,x\n1,1\n3,2\n5,3\n7,4\nNA,NA\n11,6\n"
        series = parse_csv(text, value_columns=["y"])
        covariates = parse_csv(text, value_columns=["x"])
        with pytest.raises(DataError, match="missing covariate at index 5"):
            impute_series(series, ImputeOptions(model_kind="regression"), covariates)

    def test_regression_takes_no_order(self):
        series = parse_csv(self.make_text(), value_columns=["y"])
        covariates = parse_csv(self.make_text(), value_columns=["x"])
        with pytest.raises(DataError, match="order"):
            impute_series(
                series, ImputeOptions(model_kind="regression", order=2), covariates
            )


def refit_equations_by_row_loop(kind, order, values, covariates, gap_start):
    """Reference: the refit equations collected row by row from per-row values
    (None where missing). Returns the arguments of the fit call, None when no
    equation is usable, or the start of the missing-covariate message."""
    if kind == "ar":
        lag_rows, targets = [], []
        for t in range(order + 1, gap_start):
            if any(values[i - 1] is None for i in range(t - order, t + 1)):
                continue
            lag_rows.append([float(values[t - 2 - j][0]) for j in range(order)])
            targets.append(float(values[t - 1][0]))
        return (np.array(lag_rows), np.array(targets)) if lag_rows else None
    if kind == "var":
        pairs = [(values[t - 2], values[t - 1]) for t in range(2, gap_start)
                 if values[t - 2] is not None and values[t - 1] is not None]
        return (np.vstack([a for a, _ in pairs]), np.vstack([b for _, b in pairs])) if pairs else None
    target_rows, cov_rows = [], []
    for t in range(1, gap_start):
        if values[t - 1] is None:
            continue
        if covariates[t - 1] is None:
            return f"missing covariate at index {t} "
        target_rows.append(values[t - 1])
        cov_rows.append(covariates[t - 1])
    return (np.vstack(target_rows), np.vstack(cov_rows)) if target_rows else None


def window_equations(options, series, covariates, gap_start):
    """Reference: the equations of every fully-observed window strictly
    before the gap, as (inputs, targets); raises the refit's DataError when
    there is none or a covariate is missing."""
    lags = {"ar": options.order, "var": 1, "regression": 0}[options.model_kind]
    n = gap_start - 1
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
        return np.column_stack([x[rows - 1 - j] for j in range(lags)]), x[rows]
    if options.model_kind == "var":
        return data[rows - 1], data[rows]
    return pipeline._covariate_rows(covariates, rows), data[rows]


def refit_before(options, series, covariates, gap_start):
    """Reference: refit from scratch before the gap, one least-squares fit
    per gap (the full refit that one sweep replaces), independent of the QR
    sweep: numpy's ``lstsq`` (LAPACK gelsd) on max-abs-scaled ``[inputs, 1]``
    at the kernel's ``RANK_TOLERANCE`` cutoff, with the fitters' window and
    overflow errors."""
    design = {"ar": ArModel, "var": VarModel, "regression": RegModel}[options.model_kind]
    inputs, targets = window_equations(options, series, covariates, gap_start)
    assert inputs.ndim == 2 and len(inputs) == len(targets)
    short = fitting._too_short(design, *inputs.shape)
    if short is not None:
        raise short
    x = np.column_stack([inputs, np.ones(len(inputs))])
    scale = np.abs(x).max(axis=0)
    scale[scale == 0.0] = 1.0
    coeffs, _, rank, _ = np.linalg.lstsq(x / scale, targets, rcond=RANK_TOLERANCE)
    with np.errstate(over="ignore"):
        coeffs = coeffs / (scale if targets.ndim == 1 else scale[:, None])
    if not np.isfinite(coeffs).all():
        raise fitting._overflow(design)
    return models_module._model(design, coeffs, int(rank))


class TestRefitEquations:
    """The equations the sweep absorbs before each gap equal the row-by-row ones."""

    @pytest.mark.parametrize("kind, order, dim", [
        ("ar", 1, 1), ("ar", 2, 1), ("ar", 3, 1), ("var", 1, 2), ("regression", 1, 2),
    ])
    def test_rows_match_row_loop(self, monkeypatch, kind, order, dim):
        calls = []

        def sweep(design, inputs, targets, counts):
            calls.append((inputs, targets, counts))
            return [("fitted", count) for count in counts]

        monkeypatch.setattr(pipeline, "fit_sweep", sweep)
        rng = np.random.default_rng(order * 10 + dim)
        options = ImputeOptions(model_kind=kind, order=order)
        for _ in range(20):
            n = int(rng.integers(order + 1, 40))
            values = [rng.uniform(-5, 5, dim) if rng.uniform() < 0.7 else None for _ in range(n)]
            values[0] = rng.uniform(-5, 5, dim)
            covariates = [rng.uniform(-5, 5, 2) if rng.uniform() < 0.9 else None for _ in range(n)]
            covariates[-1] = rng.uniform(-5, 5, 2)
            series = Series.from_values(values)
            cov_series = Series.from_values(covariates)
            starts = list(range(order + 1, n + 1))
            calls.clear()
            models = pipeline._refit_models(options, series, cov_series, np.array(starts))
            (inputs, targets, _), = calls
            for gap_start, model in zip(starts, models):
                expected = refit_equations_by_row_loop(kind, order, values, covariates, gap_start)
                if expected is None or isinstance(expected, str):
                    message = expected or "no observed fit window"
                    assert isinstance(model, DataError) and str(model).startswith(message)
                    continue
                fitted, count = model
                assert fitted == "fitted"
                absorbed = (inputs[:count], targets[:count])
                if kind == "regression":
                    absorbed = absorbed[::-1]  # the row loop lists targets first
                for got, want in zip(absorbed, expected):
                    assert np.array_equal(got, want)
                    assert np.asarray(got).shape == want.shape

    def test_refit_recovers_exact_ar2(self):
        # x_t = b + a1 x_{t-1} + a2 x_{t-2} with roots on the unit circle keeps
        # oscillating, so every refit window determines a and b exactly
        a, b = (2.0 * np.cos(0.4), -1.0), 0.7
        x = [1.0, 3.0]
        for _ in range(118):
            x.append(b + a[0] * x[-1] + a[1] * x[-2])
        values = list(x)
        for start, length in [(30, 3), (50, 1), (71, 5), (95, 2)]:
            values[start:start + length] = [None] * length
        result = impute_series(scalar_series(values),
                               ImputeOptions(order=2, refit_per_gap=True))
        assert len(result.report.gaps) == 4
        for entry in result.report.gaps:
            refit = entry["refit_model"]
            np.testing.assert_allclose(refit["lag_coefficients"], a, rtol=0, atol=1e-9)
            assert refit["intercept"] == pytest.approx(b, abs=1e-9)
            assert entry["oracle"]["certified"]


class TestPrefixFitIsFirstRefit:
    """The prefix fit and the first gap's refit read the same equations
    through the same least-squares sweep, so they are one model, bit for bit."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind, order, outputs", [
        ("ar", 1, 1), ("ar", 2, 1), ("ar", 3, 1), ("var", 1, 2), ("var", 1, 3),
        ("regression", 1, 1), ("regression", 1, 2),
    ])
    def test_report_model_is_first_refit_model(self, seed, kind, order, outputs):
        rng = np.random.default_rng(seed)
        n = 80
        covariates = rng.standard_normal((n, 2))
        x = np.zeros((n, outputs))
        for t in range(1, n):
            x[t] = 0.5 * x[t - 1] + 1.0 + rng.standard_normal(outputs)
        if kind == "regression":
            x = covariates @ rng.uniform(-2, 2, (2, outputs)) + 0.1 * rng.standard_normal((n, outputs))
        values = [None if 30 <= t < 33 or 50 <= t < 52 else row for t, row in enumerate(x * 1e3)]
        options = ImputeOptions(model_kind=kind, order=order, refit_per_gap=True)
        result = impute_series(Series.from_values(values), options,
                               Series.from_values(covariates) if kind == "regression" else None)
        report = json.loads(result.report.to_json())
        assert len(report["gaps"]) == 2
        # the report writes each float in full precision, so equal JSON is equal bits
        assert report["gaps"][0]["refit_model"] == report["model"]
        assert report["gaps"][1]["refit_model"] != report["model"]


def coefficient_rows(model) -> np.ndarray:
    """A fitted model's coefficients, one row per design column (intercept
    last), one column per target."""
    if isinstance(model, ArModel):
        return np.array([*model.a, model.b])[:, None]
    return np.vstack([model.A.T, model.b])


def column_peaks(values: np.ndarray) -> np.ndarray:
    """Each column's largest magnitude, 1 for a zero column (the scaling of
    ``least_squares``)."""
    peaks = np.abs(values.reshape(len(values), -1)).max(axis=0)
    return np.where(peaks == 0.0, 1.0, peaks)


@st.composite
def refit_windows(draw):
    """A series with missing rows (and covariates), refit options and gap
    starts. Windows may be random, hold a constant run, have collinear
    columns, alternate between +s and -s at s from 1e-300 to 1e308, or have
    an input column that is zero and then subnormal, so the coefficients
    overflow."""
    kind = draw(st.sampled_from(["ar", "var", "regression"]))
    order = draw(st.integers(1, 3)) if kind == "ar" else 1
    dim = 1 if kind == "ar" else draw(st.integers(2, 3) if kind == "var" else st.integers(1, 2))
    shapes = ["random", "constant_run", "collinear", "alternating"] + ["tiny"] * (kind != "ar")
    shape = draw(st.sampled_from(shapes))
    scale = draw(st.sampled_from([1e-300, 1.0, 1e300, 1e308])) if shape == "alternating" else 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(6, 50))
    x = np.zeros((n, dim))
    x[0] = rng.standard_normal(dim)
    for t in range(1, n):
        x[t] = 0.6 * x[t - 1] + 0.5 + rng.standard_normal(dim)
    covariates = rng.standard_normal((n, 2))
    if kind == "regression":
        x = covariates @ rng.uniform(-2, 2, (2, dim)) + 0.1 * rng.standard_normal((n, dim))
    if shape == "constant_run":
        first, length = int(rng.integers(0, n // 2)), int(rng.integers(4, n))
        x[first : first + length] = x[first]
        covariates[first : first + length] = covariates[first]
    elif shape == "collinear":
        x[:, -1] = 2.0 * x[:, 0]
        covariates[:, 1] = 2.0 * covariates[:, 0]
    elif shape == "tiny":
        first = int(rng.integers(0, n))
        for column in (x[:, -1], covariates[:, 0]):
            column[:first] = 0.0
            column[first:] = 1e-315 * rng.standard_normal(n - first)
    elif shape == "alternating":
        signs = (-1.0) ** np.arange(n)[:, None]
        x = scale * signs * rng.choice([-1.0, 1.0], dim)
        covariates = scale * signs * rng.choice([-1.0, 1.0], 2)
    values = [row if rng.uniform() > 0.2 else None for row in x]
    values[0] = x[0]
    cov_values = [row if rng.uniform() > 0.05 else None for row in covariates]
    starts = sorted(set(rng.integers(1, n + 2, int(rng.integers(1, 9))).tolist()))
    options = ImputeOptions(model_kind=kind, order=order)
    return options, Series.from_values(values), Series.from_values(cov_values), starts


class TestSweepAgainstFullRefit:
    """One sweep gives every gap the model, rank and error that a full refit
    before that gap gives."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(case=refit_windows())
    def test_same_models_as_full_refit(self, case):
        options, series, covariates, starts = case
        models = pipeline._refit_models(options, series, covariates, np.array(starts))
        assert len(models) == len(starts)
        for gap_start, got in zip(starts, models):
            try:
                want = refit_before(options, series, covariates, gap_start)
            except (DataError, NumericalError) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert type(got) is type(want)
            assert got.rank == want.rank
            inputs, targets = window_equations(options, series, covariates, gap_start)
            # relative in the scaled units in which least squares solves; a
            # subnormal coefficient is good to its last few bits only
            units = column_peaks(targets)[None, :] / np.append(column_peaks(inputs), 1.0)[:, None]
            size = 1.0 + np.abs(coefficient_rows(want) / units).max()
            miss = np.abs(coefficient_rows(got) - coefficient_rows(want))
            assert (miss <= 1e-12 * size * units + 1e-321).all()


def solve_alone(options, model, segment, working, covariates=None):
    """Reference: one gap solved by itself, by its ``impute_gap_*`` call, or
    its open-gap forecast, from the rows of ``working`` before it (or the
    covariates of the gap through the anchor)."""
    start = segment.gap_start - 1
    if options.model_kind == "ar":
        seed = working[start - options.order : start, 0]
    elif options.model_kind == "var":
        seed = working[start - 1]
    else:
        last = segment.anchor_index if segment.constrained else segment.gap_end
        seed = pipeline._covariate_rows(covariates, np.arange(start, last))
    if not segment.constrained:
        return pipeline._open_gap_solution(options, model, segment, seed)
    if options.model_kind == "ar":
        return impute_gap_ar(model, segment, seed, float(segment.anchor_value[0]), options.mode)
    if options.model_kind == "var":
        return impute_gap_var(model, segment, seed, segment.anchor_value, options.mode)
    anchor = float(segment.anchor_value[0]) if model.n_outputs == 1 else segment.anchor_value
    return impute_gap_regression(model, segment, seed, anchor)


def describe_by_kind(model) -> dict:
    """Reference: the model's report description, built per model kind."""
    if isinstance(model, ArModel):
        return {
            "kind": "ar",
            "order": model.p,
            "lag_coefficients": list(model.a),
            "intercept": model.b,
            "rank_deficient": model.rank_deficient,
        }
    if isinstance(model, VarModel):
        return {
            "kind": "var",
            "order": 1,
            "dimension": model.dim,
            "matrix": model.A,
            "intercept": model.b,
            "rank_deficient": model.rank_deficient,
        }
    return {
        "kind": "regression",
        "outputs": model.n_outputs,
        "covariates": model.n_covariates,
        "matrix": model.A,
        "intercept": model.b,
        "rank_deficient": model.rank_deficient,
    }


def note_rank(notes, context, model):
    """Reference: ``model``, first noting in ``notes`` when its fit was rank deficient."""
    if model.rank_deficient:
        notes.append(f"{context}: rank-deficient {model.design} design (rank {model.rank} of "
                     f"{model.design_columns}); minimum-norm coefficients returned")
    return model


def certify_alone(options, model, segment, solution, working, notes):
    """Reference: the verdict of one solved gap certified by itself, or None
    for an open gap or a paper-mode autoregression. It passes only if the
    fill also lands within 1e-9 (1 + max |anchor| + max |seed rows as
    filled in ``working``) of its anchor, an overflowing scale passing;
    a gap that does not gets a note in ``notes``."""
    if not solution.constrained or (options.model_kind == "ar" and options.mode == "paper"):
        return None
    offset = segment.anchor_value - np.reshape(solution.predicted[-1], -1)
    problem = build_problem(model, len(solution.control_indices), offset)
    verdict = certify(solution.controls, problem).verdicts[0]
    first, last = segment.seed_indices[0], segment.seed_indices[-1]
    seeds = [abs(v) for row in working[first - 1 : last].tolist() for v in row]
    scale = 1.0 + max(abs(v) for v in segment.anchor_value.tolist()) + max(seeds)
    if solution.terminal_residual <= 1e-9 * scale:
        return verdict
    notes.append(f"gap at index {segment.gap_start} is not certified: its terminal residual exceeds "
                 f"1e-09 x (1 + max |anchor| + max |seed|)")
    return verdict._replace(passed=False)


def refit_per_gap_loop(series, options, covariates=None):
    """Reference: the refit run as a left-to-right loop in which each gap
    gets a full refit (``refit_before``), its rank note, its solve and its
    own certificate before the next gap is looked at."""
    ar = options.model_kind == "ar"
    prefix_length, segments = detect_gaps(series, options.order if ar else 1, options.allow_open_gap)
    report = ImputationReport(mode=options.mode, prefix_length=prefix_length)
    if not segments:
        report.notes.append("0 gaps: output mirrors the input")
        return pipeline.ImputeResult(series=series, filled=series.data, report=report)
    prefix_model = pipeline.fit_prefix(series, options, covariates)
    report.model = describe_by_kind(note_rank(report.notes, "prefix fit", prefix_model))
    report.notes.append("refit per gap: each gap uses every fully-observed window before it")
    working = series.data.copy()
    for segment in segments:
        model = note_rank(report.notes, f"refit before the gap at index {segment.gap_start}",
                          refit_before(options, series, covariates, segment.gap_start))
        solution = solve_alone(options, model, segment, working, covariates)
        working[segment.gap_start - 1 : segment.gap_end] = solution.imputed.reshape(segment.length, -1)
        if series.missing[segment.seed_indices[0] - 1 : segment.gap_start - 1].any():
            report.notes.append(
                f"gap at index {segment.gap_start} seeds from values imputed for an earlier gap"
            )
        verdict = certify_alone(options, model, segment, solution, working, report.notes)
        report.gaps.append(gap_entry(segment, solution, verdict) | {"refit_model": describe_by_kind(model)})
        if not solution.constrained:
            report.notes.append(
                f"gap at indices {segment.gap_start}..{segment.gap_end} is unconstrained "
                f"(no anchor); values are the uncorrected forecast"
            )
    return pipeline.ImputeResult(series=series, filled=working, report=report)


@st.composite
def refit_runs(draw, missing_covariates=True):
    """A series with several gaps, its covariates and refit options. Runs
    may hold a constant prefix (rank notes), a gap too short for its order
    (an AR solve failure), missing covariates inside a gap (a regression
    solve failure) or on an observed row (a refit failure) unless
    ``missing_covariates`` is False, or a VAR column that is zero and then
    subnormal (a refit whose coefficients overflow)."""
    kind = draw(st.sampled_from(["ar", "var", "regression"]))
    order = draw(st.integers(1, 3)) if kind == "ar" else 1
    dim = 1 if kind == "ar" else draw(st.integers(1, 3) if kind == "var" else st.integers(1, 2))
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    spacing = draw(st.lists(st.integers(1, 4), min_size=len(lengths), max_size=len(lengths)))
    constant_prefix, open_gap = draw(st.booleans()), draw(st.booleans())
    mode = draw(st.sampled_from(["exact", "paper"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prefix = 2 * order + 3 + dim + int(rng.integers(0, 8))
    rows = prefix + sum(lengths) + sum(spacing)
    x = np.zeros((rows, dim))
    x[0] = rng.standard_normal(dim)
    for t in range(1, rows):
        x[t] = 0.6 * x[t - 1] + 0.5 + rng.standard_normal(dim)
    covariates = rng.standard_normal((rows, 2))
    if kind == "regression":
        x = covariates @ rng.uniform(-2, 2, (2, dim)) + 0.1 * rng.standard_normal((rows, dim))
    if constant_prefix:
        x[:prefix] = x[0]
    if kind == "var" and dim > 1 and draw(st.booleans()):
        x[:prefix, -1] = 0.0
        x[prefix:, -1] = 1e-315 * rng.standard_normal(rows - prefix)
    values = [row for row in x]
    cov_values = [row for row in covariates]
    t = prefix
    for length, gap in zip(lengths, spacing):
        values[t : t + length] = [None] * length
        t += length + gap
    if open_gap:
        values[-1] = None
    if kind == "regression" and missing_covariates:
        for row in rng.integers(prefix, rows, int(rng.integers(0, 3))):
            cov_values[row] = None
    options = ImputeOptions(model_kind=kind, order=order, mode=mode, refit_per_gap=True,
                            allow_open_gap=open_gap)
    covariate_series = Series.from_values(cov_values) if kind == "regression" else None
    return Series.from_values(values), options, covariate_series


class TestRefitRunAgainstPerGapLoop:
    """A refit run solved gap by gap from one sweep, and certified by
    control count, is the run of the per-gap loop: the same error, raised by
    the same gap, or the same notes, certificates and report layout."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(run=refit_runs())
    def test_same_run_as_per_gap_loop(self, run):
        series, options, covariates = run
        try:
            want = refit_per_gap_loop(series, options, covariates)
        except (DataError, NumericalError) as exc:
            with pytest.raises(type(exc)) as raised:
                impute_series(series, options, covariates)
            assert str(raised.value) == str(exc)
            return
        got = impute_series(series, options, covariates)
        assert got.report.notes == want.report.notes
        assert [g["oracle"] and g["oracle"]["certified"] for g in got.report.gaps] == [
            g["oracle"] and g["oracle"]["certified"] for g in want.report.gaps
        ]
        # the numbers differ in the rounding of the refit coefficients, which
        # an explosive refit amplifies; TestSweepAgainstFullRefit bounds that
        assert_close_trees(json.loads(got.report.to_json()), json.loads(want.report.to_json()),
                           rel=None)

    def regression_run(self, missing_covariates):
        """Three regression gaps, at indices 16-17, 21-22 and 26-27, with the
        covariates of ``missing_covariates`` unobserved."""
        rng = np.random.default_rng(5)
        covariates = rng.standard_normal((30, 2))
        values = list(covariates @ [1.5, -0.5] + 0.1 * rng.standard_normal(30))
        for start in (16, 21, 26):
            values[start - 1 : start + 1] = [None, None]
        cov_values = [None if i + 1 in missing_covariates else row for i, row in enumerate(covariates)]
        return (Series.from_values(values), ImputeOptions(model_kind="regression", refit_per_gap=True),
                Series.from_values(cov_values))

    @pytest.mark.parametrize("missing, first_failure", [
        # the first gap's solve reads index 17; the third gap's refit reads index 24
        ({17, 24}, 17),
        # the second gap's refit reads index 19; the third gap's solve reads index 27
        ({19, 27}, 19),
        # only the third gap's refit fails; the gaps before it are solved first
        ({24}, 24),
    ])
    def test_first_failing_gap_is_reported(self, missing, first_failure):
        series, options, covariates = self.regression_run(missing)
        message = f"missing covariate at index {first_failure} "
        with pytest.raises(DataError, match=message):
            refit_per_gap_loop(series, options, covariates)
        with pytest.raises(DataError, match=message):
            impute_series(series, options, covariates)

    def test_rank_notes_keep_their_place(self):
        # the refits before the first two gaps see only the constant prefix
        values = [3.0] * 12 + [None, 3.0, 3.0, None, 3.0, 4.0, 2.5, 3.5, None, 3.0, 2.0]
        series = Series.from_values(values)
        options = ImputeOptions(order=1, refit_per_gap=True)
        got = impute_series(series, options)
        assert got.report.notes == refit_per_gap_loop(series, options).report.notes
        assert [note.split(":")[0] for note in got.report.notes] == [
            "prefix fit", "refit per gap", "refit before the gap at index 13",
            "refit before the gap at index 16",
        ]


def model_from_report(description):
    """The fitted model that a report's ``model`` or ``refit_model`` describes."""
    if description["kind"] == "ar":
        return ArModel(a=description["lag_coefficients"], b=description["intercept"])
    kind = VarModel if description["kind"] == "var" else RegModel
    return kind(A=description["matrix"], b=description["intercept"])


def controls_from_report(entry, model):
    """A constrained gap's chronological controls, rebuilt from its
    ``multiplier``, ``mode`` and ``control_indices`` and the model it was
    solved under: the multiplier times C F^j B, j steps before the anchor."""
    first, last = entry["control_indices"]
    m = last - first + 1
    lam = np.array(entry["multiplier"])
    if isinstance(model, ArModel):
        weights = gamma_weights if entry["mode"] == "paper" else impulse_weights
        return lam * weights(model, m)[::-1]
    if isinstance(model, VarModel):
        powers = mat_pow_table(model.A, m - 1)[::-1]
        if np.count_nonzero(powers[:, ~np.eye(model.dim, dtype=bool)]):
            return np.matmul(lam, powers)
        # diagonal powers: products, which keep the sign of a zero control
        return lam * np.diagonal(powers, axis1=1, axis2=2)
    return np.broadcast_to(lam, (m,) + lam.shape)


def step_norms_from_report(entry, model, filled):
    """A paper-mode VAR gap's ``step_norm_formula`` and ``step_norm_exact``,
    rebuilt from its entry, its model and the filled array as README
    "Report schema" gives them: the offset delta of the anchor from the
    forecast, and the norms of the controls rebuilt from the multiplier."""
    first, last = entry["control_indices"]
    m = last - first + 1
    forecast = predict_forward(model, filled[entry["seed_indices"][1] - 1], m)
    delta = np.array(entry["anchor_value"]) - forecast[-1]
    powers = mat_pow_table(model.A, m - 1)
    scale = np.linalg.norm(delta) / np.cumsum(np.sum(powers.sum(axis=1) ** 2, axis=1))[-1]
    formula = scale * powers[::-1].sum(axis=(1, 2))
    return formula, np.linalg.norm(controls_from_report(entry, model), axis=1)


class TestSchemaFourGivesSchemaOne:
    """Schema 2 drops each gap's forecast, fill and index lists, schema 3
    its controls and paper-mode AR weights, and schema 4 its paper-mode VAR
    step norms; the report, the filled array, ``predict_forward`` and the
    weight builders give them back bit for bit."""

    # 200 examples, not 60, so that paper-mode AR(2-3) and VAR gaps are drawn
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(run=refit_runs(missing_covariates=False), refit=st.booleans())
    def test_dropped_fields_are_recovered(self, run, refit):
        series, options, covariates = run
        options = replace(options, refit_per_gap=refit)
        solved = []

        with recording(lambda segment, solution: solved.append((segment, solution))):
            try:
                result = impute_series(series, options, covariates)
            except (DataError, NumericalError):
                return
        report = json.loads(result.report.to_json())
        assert report["schema_version"] == 4
        assert len(report["gaps"]) == len(solved)
        imputed = {}
        for entry, (segment, solution) in zip(report["gaps"], solved):
            start, end, anchor = entry["start"], entry["end"], entry["anchor_index"]
            last = end if anchor is None else anchor
            # schema 1's imputed_indices and imputed: the gap's rows of the filled array
            fill = solution.imputed.reshape(end - start + 1, -1)
            assert list(segment.indices) == list(range(start, end + 1))
            assert result.filled[start - 1 : end].tobytes() == fill.tobytes()
            imputed.update(zip(segment.indices, fill))
            # its seed_indices and control_indices, from [first, last]
            first_seed, last_seed = entry["seed_indices"]
            assert list(segment.seed_indices) == list(range(first_seed, last_seed + 1))
            first_control, last_control = entry["control_indices"]
            assert list(solution.control_indices) == list(range(first_control, last_control + 1))
            delay = options.order - 1 if options.model_kind == "ar" and anchor is not None else 0
            assert (first_control, last_control) == (start + delay, last)
            # its predicted_indices (start .. last) and predicted: the forecast
            # from the seeds under the gap's model
            model = model_from_report(entry.get("refit_model", report["model"]))
            steps = last - start + 1
            if options.model_kind == "ar":
                forecast = predict_forward(model, result.filled[first_seed - 1 : last_seed, 0], steps)
            elif options.model_kind == "var":
                forecast = predict_forward(model, result.filled[last_seed - 1], steps)
            else:
                forecast = predict_forward(model, None, steps, covariates=covariates.data[start - 1 : last])
                if model.n_outputs == 1:
                    forecast = forecast[:, 0]
            assert forecast.tobytes() == solution.predicted.tobytes()
            if not entry["constrained"]:
                continue
            # schema 2's controls: the multiplier under the gap's model and mode
            controls = controls_from_report(entry, model)
            assert controls.tobytes() == solution.controls.tobytes()
            if entry["mode"] == "paper" and options.model_kind == "ar":
                # and the printed and impulse weights that schema 2 wrote in full
                count = last_control - first_control + 1
                printed, impulse = gamma_weights(model, count), impulse_weights(model, count)
                difference = float(np.max(np.abs(printed - impulse)))
                assert entry["diagnostics"] == {"max_weight_difference": difference}
            if entry["mode"] == "paper" and options.model_kind == "var":
                # and the step norms that schema 3 wrote in full
                formula, exact = step_norms_from_report(entry, model, result.filled)
                assert exact.tolist() == np.linalg.norm(solution.controls, axis=1).tolist()
                difference = float(np.max(np.abs(formula - exact)))
                assert entry["diagnostics"] == {"max_step_norm_difference": difference}
        assert list(imputed) == list(series.missing_indices)
        assert result.filled[series.missing].tobytes() == np.array(list(imputed.values())).tobytes()


def workload_input(name: str, size: str, seed: int) -> str:
    """A benchmark workload's input, as ``bench/workloads.py`` (only read here) generates it."""
    bench = str(pathlib.Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        from workloads import WORKLOADS, generate
    finally:
        sys.path.remove(bench)
    return generate(WORKLOADS[name], size, seed)


class TestGapColumns:
    """A run carries its gaps as columns from detection to the rendered
    report, which equals the render of the per-gap entries built from them."""

    def test_workload_builds_no_per_gap_objects(self, monkeypatch):
        series = parse_csv(workload_input("many_gaps_var", "tiny", 1))
        options = ImputeOptions(model_kind="var")
        built = impute_series(series, options).report
        assert len(built.gaps) == 20
        want = render_json(built.to_dict())

        def refuse(*args, **kwargs):
            raise AssertionError("a per-gap object was built")

        for owner, name in ((pipeline, "gap_entry"), (report_module, "gap_entry"),
                            (control, "ControlSolution"), (series_module, "GapSegment"), (oracle.Verdict, "_make")):
            monkeypatch.setattr(owner, name, refuse)
        report = impute_series(series, options).report
        assert "".join(json_pieces(report.to_dict())) == want
        assert report._gaps is None

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    def test_refit_run_builds_no_model_per_gap(self, monkeypatch, mode):
        # a refit run carries its models as columns from the sweep to the
        # report, and paper mode's printed weights are one stacked
        # recurrence: the ArModels built and the models described are as
        # many at 40 gaps as at 20 (the prefix fit's)
        def refit_run(gaps):
            rng = np.random.default_rng(gaps)
            x = [0.0, 0.0]
            for _ in range(40 + 10 * gaps):
                x.append(0.5 * x[-1] - 0.2 * x[-2] + 1.0 + rng.standard_normal())
            for t in range(40, len(x) - 10, 10):
                x[t : t + 1 + t % 3] = [None] * (1 + t % 3)
            built, described = [], []
            post_init, describe = ArModel.__post_init__, report_module.describe_model
            monkeypatch.setattr(ArModel, "__post_init__", lambda model: built.append(1) or post_init(model))
            for owner in (pipeline, report_module):
                monkeypatch.setattr(owner, "describe_model",
                                    lambda model: described.append(1) or describe(model))
            result = impute_series(scalar_series(x), ImputeOptions(order=2, mode=mode, refit_per_gap=True))
            entries = json.loads(result.report.to_json())["gaps"]
            monkeypatch.undo()
            assert len(entries) == gaps
            # a paper-mode AR fill is not optimal by construction, so it carries no certificate
            assert all(entry["oracle"]["certified"] if mode == "exact" else entry["oracle"] is None
                       for entry in entries)
            return len(built), len(described)

        assert refit_run(40) == refit_run(20)

    @pytest.mark.parametrize("gaps", [20, 40])
    def test_rank_deficient_refit_run_with_an_open_gap_builds_one_model(self, monkeypatch, gaps):
        # every refit of a constant AR(2) series is rank deficient, and the
        # last gap is open: its rank notes and the open gap's forecast and
        # description read the refits' columns, so the only ArModel built is
        # the prefix fit's
        x = [1.5] * 40 + [None, 1.5, 1.5, 1.5] * (gaps - 1) + [None]
        built = []
        post_init = ArModel.__post_init__
        monkeypatch.setattr(ArModel, "__post_init__", lambda model: built.append(1) or post_init(model))
        options = ImputeOptions(order=2, refit_per_gap=True, allow_open_gap=True)
        report = impute_series(scalar_series(x), options).report
        monkeypatch.undo()
        entries = json.loads(report.to_json())["gaps"]
        assert len(entries) == gaps and entries[-1]["oracle"] is None
        assert entries[-1]["refit_model"]["rank_deficient"]
        assert sum(note.startswith("refit before the gap") for note in report.notes) == gaps
        assert len(built) == 1

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(run=refit_runs(missing_covariates=False), refit=st.booleans())
    def test_columns_render_as_the_built_entries(self, run, refit):
        series, options, covariates = run
        options = replace(options, refit_per_gap=refit)
        try:
            report = impute_series(series, options, covariates).report
        except (DataError, NumericalError):
            return
        text, tree = report.to_json(), report.to_dict()
        tree["gaps"] = report.gaps
        assert text == json.dumps(tree, indent=2, default=np.ndarray.tolist) + "\n"
        if refit:
            # the numbers differ in the rounding of the refit coefficients
            assert_close_trees(report.gaps, refit_per_gap_loop(series, options, covariates).report.gaps,
                               rel=None)


def described_models():
    """AR, VAR and regression models: fitted at full rank, fitted on a
    rank-deficient design, and given directly."""
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.standard_normal((30, 2)), axis=0)
    covariates = np.column_stack([rng.standard_normal(30), np.ones(30)])
    return [
        fitting.fit_ar_scalar(walk[:, 0], 2),
        fitting.fit_ar_scalar(np.full(9, 4.0), 2),
        ArModel(a=(0.5, -0.25), b=1.0),
        fitting.fit_var1(walk),
        fitting.fit_var1(np.ones((6, 2))),
        VarModel(A=[[0.5, 0.1], [-0.2, 0.3]], b=[1.0, -1.0]),
        fitting.fit_regression(walk, covariates[:, :1]),
        fitting.fit_regression(walk, covariates),
        RegModel(A=[[1.5, -0.5]], b=[0.25]),
    ]


@pytest.mark.parametrize("model", described_models(), ids=[
    f"{kind}-{how}" for kind in ("ar", "var", "regression") for how in ("fitted", "rank-deficient", "given")])
def test_describe_model_is_the_per_kind_description(model):
    # the one schema writer, describe_models, gives each model the
    # description the per-kind builder gives, in value, type and text
    got, want = describe_model(model), describe_by_kind(model)
    assert got["rank_deficient"] is (model.rank is not None and model.rank < model.design_columns)
    assert_close_trees(got, want, rel=0.0)
    assert render_json(got) == json.dumps(want, indent=2, default=np.ndarray.tolist) + "\n"


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, phosphate_text):
        series = parse_csv(phosphate_text)
        first = impute_series(series, ImputeOptions(model_kind="var"))
        second = impute_series(series, ImputeOptions(model_kind="var"))
        assert first.rendered_csv() == second.rendered_csv()
        assert first.report.to_json() == second.report.to_json()


def per_gap_loop(series, options):
    """Reference: the left-to-right loop that filled one gap at a time, each
    solved by ``impute_gap_*`` and certified by its own ``build_problem`` and
    ``certify``; prefix model only."""
    ar = options.model_kind == "ar"
    prefix_length, segments = detect_gaps(series, options.order if ar else 1, options.allow_open_gap)
    report = ImputationReport(mode=options.mode, prefix_length=prefix_length)
    model = note_rank(report.notes, "prefix fit", pipeline.fit_prefix(series, options))
    report.model = describe_by_kind(model)
    working = series.data.copy()
    for segment in segments:
        if series.missing[segment.seed_indices[0] - 1 : segment.gap_start - 1].any():
            report.notes.append(
                f"gap at index {segment.gap_start} seeds from values imputed for an earlier gap"
            )
        solution = solve_alone(options, model, segment, working)
        verdict = certify_alone(options, model, segment, solution, working, report.notes)
        report.gaps.append(gap_entry(segment, solution, verdict))
        filled = np.asarray(solution.imputed, dtype=float).reshape(segment.length, series.dim)
        working[segment.gap_start - 1 : segment.gap_end] = filled
        if not solution.constrained:
            report.notes.append(
                f"gap at indices {segment.gap_start}..{segment.gap_end} is unconstrained "
                f"(no anchor); values are the uncorrected forecast"
            )
    return pipeline.ImputeResult(series=series, filled=working, report=report)


def assert_close_trees(got, want, path="report", rel=1e-12):
    """Same structure and non-float leaves; floats within rel (1 + |want|),
    or of any value when ``rel`` is None."""
    assert type(got) is type(want), path
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), path
        assert_close_trees(got.tolist(), want.tolist(), path, rel)
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_close_trees(got[key], want[key], f"{path}.{key}", rel)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close_trees(g, w, f"{path}[{i}]", rel)
    elif isinstance(want, float):
        assert rel is None or abs(got - want) <= rel * (1.0 + abs(want)), path
    else:
        assert got == want, path


@st.composite
def shared_model_runs(draw):
    """A series with several gaps under one prefix model, and its options."""
    kind = draw(st.sampled_from(["ar", "var"]))
    order = draw(st.integers(1, 3)) if kind == "ar" else 1
    dim = 1 if kind == "ar" else draw(st.integers(1, 3))
    # few distinct lengths, so lengths repeat; AR gaps may sit fewer than p rows
    # apart, and now and then one is too short for its order to reach the anchor
    shortest = draw(st.sampled_from([1, max(1, order - 1), max(1, order - 1)]))
    lengths = draw(st.lists(st.integers(shortest, shortest + 3), min_size=2, max_size=6))
    spacing = draw(st.lists(st.integers(1, 3), min_size=len(lengths), max_size=len(lengths)))
    open_gap = draw(st.booleans())
    mode = draw(st.sampled_from(["exact", "paper"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prefix = 2 * order + 2 + dim + int(rng.integers(0, 10))
    rows = prefix + sum(lengths) + sum(spacing)
    a = rng.uniform(-1.0, 1.0, (dim, dim))
    a *= rng.uniform(0.2, 0.95) / max(1e-9, max(abs(np.linalg.eigvals(a))))
    x = np.zeros((rows, dim))
    x[0] = rng.standard_normal(dim)
    for t in range(1, rows):
        x[t] = a @ x[t - 1] + rng.uniform(-1, 1) + rng.standard_normal(dim)
    values = [row for row in x]
    t = prefix
    for length, gap in zip(lengths, spacing):
        values[t : t + length] = [None] * length
        t += length + gap
    if open_gap:
        trailing = int(rng.integers(1, 4))
        values[-trailing:] = [None] * trailing
    options = ImputeOptions(model_kind=kind, order=order, mode=mode, allow_open_gap=open_gap)
    return Series.from_values(values), options


class TestBatchedAgainstPerGapLoop:
    """Gaps that share a model are solved and certified by length; the run
    is the one the per-gap loop gives."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(run=shared_model_runs())
    def test_same_run_as_per_gap_loop(self, run):
        series, options = run
        try:
            want = per_gap_loop(series, options)
        except (DataError, NumericalError) as exc:
            with pytest.raises(type(exc)) as raised:
                impute_series(series, options)
            assert str(raised.value) == str(exc)
            return
        got = impute_series(series, options)
        assert got.rendered_csv(precision=17) == want.rendered_csv(precision=17)
        assert got.report.notes == want.report.notes
        assert [g["oracle"] and g["oracle"]["certified"] for g in got.report.gaps] == [
            g["oracle"] and g["oracle"]["certified"] for g in want.report.gaps
        ]
        assert_close_trees(json.loads(got.report.to_json()), json.loads(want.report.to_json()))
