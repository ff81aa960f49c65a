import json

import numpy as np
import pytest

from gapfill import pipeline
from gapfill.errors import DataError
from gapfill.pipeline import ImputeOptions, impute_series
from gapfill.series import Series, parse_csv


def scalar_series(values):
    return Series.from_values(values)


class TestScalarPipeline:
    def test_single_gap_end_to_end(self):
        series = parse_csv("v\n1\n2\n3\n4\n5\nNA\nNA\n8\n")
        result = impute_series(series, ImputeOptions(model_kind="ar", order=1))
        assert set(result.imputed) == {6, 7}
        # the prefix fits x_n = x_{n-1} + 1 exactly, and the anchor sits on
        # that line, so the fill is the line itself
        assert result.imputed[6][0] == pytest.approx(6.0, abs=1e-9)
        assert result.imputed[7][0] == pytest.approx(7.0, abs=1e-9)
        (entry,) = result.report.gaps
        assert entry["oracle"]["certified"]
        assert entry["terminal_residual"] <= 1e-9 * 9

    def test_report_entry_fields(self):
        series = parse_csv("v\n1\n2\n3\n4\n5\nNA\nNA\n8\n")
        result = impute_series(series)
        (entry,) = result.report.gaps
        expected_keys = {
            "start", "end", "anchor_index", "anchor_value", "seed_indices",
            "constrained", "mode", "multiplier", "control_indices", "controls",
            "predicted_indices", "predicted", "imputed_indices", "imputed",
            "terminal_residual", "objective", "oracle", "diagnostics",
        }
        assert expected_keys <= set(entry)
        assert entry["start"] == 6
        assert entry["end"] == 7
        assert entry["anchor_index"] == 8
        assert entry["control_indices"] == [6, 7, 8]
        assert len(entry["predicted"]) == 3
        report_dict = result.report.to_dict()
        assert report_dict["schema_version"] == 1
        assert report_dict["gap_count"] == 1
        assert report_dict["model"]["kind"] == "ar"

    def test_report_json_round_trips(self):
        series = parse_csv("v\n1\n2\n3\n4\n5\nNA\nNA\n8\n")
        result = impute_series(series)
        parsed = json.loads(result.report.to_json())
        assert parsed["gaps"][0]["imputed_indices"] == [6, 7]

    def test_gapless_series_reports_zero_gaps(self):
        series = parse_csv("v\n1\n2\n3\n")
        result = impute_series(series)
        assert result.imputed == {}
        assert result.report.model is None
        assert result.report.gaps == []
        assert any("0 gaps" in note for note in result.report.notes)
        assert result.rendered_csv() == "v,origin\n1,observed\n2,observed\n3,observed\n"

    def test_later_gap_seeds_from_earlier_fill(self):
        # order 2: the second gap's seed window includes index 6, filled by gap one
        values = [1.0, 2.0, 1.5, 3.0, 2.5, None, 3.5, None, 4.5, 4.0]
        series = scalar_series(values)
        result = impute_series(series, ImputeOptions(model_kind="ar", order=2))
        assert set(result.imputed) == {6, 8}
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
        assert result.imputed[6][0] == pytest.approx(6.0, abs=1e-9)
        assert result.imputed[7][0] == pytest.approx(7.0, abs=1e-9)
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


class TestVectorPipeline:
    def test_var_end_to_end(self, phosphate_text):
        series = parse_csv(phosphate_text)
        result = impute_series(series, ImputeOptions(model_kind="var"))
        assert set(result.imputed) == {11, 12, 15}
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
            assert np.array_equal(exact.imputed[i], printed.imputed[i])
        assert "step_norm_formula" in printed.report.gaps[0]["diagnostics"]
        assert printed.report.gaps[0]["oracle"]["certified"]


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
        assert set(result.imputed) == {11, 12}
        # fitted line y = 2x + 1 predicts 27 at the anchor; mismatch 3 spreads
        # one unit per step
        assert result.imputed[11][0] == pytest.approx(24.0, abs=1e-8)
        assert result.imputed[12][0] == pytest.approx(27.0, abs=1e-8)
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


class TestRefitEquations:
    """The refit equations picked with array masks equal the row-by-row ones."""

    @pytest.mark.parametrize("kind, order, dim", [
        ("ar", 1, 1), ("ar", 2, 1), ("ar", 3, 1), ("var", 1, 2), ("regression", 1, 2),
    ])
    def test_rows_match_row_loop(self, monkeypatch, kind, order, dim):
        calls = []
        for name in ("fit_ar_lagged", "fit_var_pairs", "fit_regression"):
            monkeypatch.setattr(pipeline, name, lambda *args: calls.append(args) or "fitted")
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
            for gap_start in range(order + 1, n + 1):
                expected = refit_equations_by_row_loop(kind, order, values, covariates, gap_start)
                if expected is None or isinstance(expected, str):
                    message = expected or "no observed fit window"
                    with pytest.raises(DataError, match=message):
                        pipeline._refit_before(options, series, cov_series, gap_start)
                    continue
                calls.clear()
                assert pipeline._refit_before(options, series, cov_series, gap_start) == "fitted"
                (args,) = calls
                assert len(args) == 2
                for got, want in zip(args, expected):
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


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, phosphate_text):
        series = parse_csv(phosphate_text)
        first = impute_series(series, ImputeOptions(model_kind="var"))
        second = impute_series(series, ImputeOptions(model_kind="var"))
        assert first.rendered_csv() == second.rendered_csv()
        assert first.report.to_json() == second.report.to_json()
