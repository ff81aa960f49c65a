import json
import pathlib

import numpy as np
import pytest

from gapfill.cli import WRITE_SLICE, _write_output, main
from gapfill.fitting import fit_var1, predict_forward


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def linear_csv(tmp_path):
    path = tmp_path / "linear.csv"
    path.write_text("value\n1\n2\n3\n4\n5\nNA\nNA\n8\n")
    return str(path)


class TestImputeCommand:
    def test_fills_and_reports(self, capsys, tmp_path, linear_csv):
        report_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "impute", linear_csv, "--model", "ar", "--order", "1",
            "--report", str(report_path),
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "value,origin"
        assert lines[6] == "6,imputed"
        assert lines[7] == "7,imputed"
        assert lines[8] == "8,observed"
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 2
        assert report["gaps"][0]["oracle"]["certified"]

    def test_output_file(self, capsys, tmp_path, linear_csv):
        out_path = tmp_path / "filled.csv"
        code, out, _ = run(capsys, "impute", linear_csv, "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().splitlines()[6] == "6,imputed"

    def test_gapless_passthrough(self, capsys, tmp_path):
        path = tmp_path / "full.csv"
        path.write_text("v\n1\n2\n3\n")
        code, out, _ = run(capsys, "impute", str(path))
        assert code == 0
        assert out == "v,origin\n1,observed\n2,observed\n3,observed\n"

    def test_leading_gap_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v\nNA\n2\n3\n")
        code, out, err = run(capsys, "impute", str(path))
        assert code == 3
        assert err.count("\n") == 1
        assert "seed window" in err

    def test_trailing_gap_needs_flag(self, capsys, tmp_path):
        path = tmp_path / "trail.csv"
        path.write_text("v\n1\n2\n3\n4\nNA\n")
        code, _, err = run(capsys, "impute", str(path))
        assert code == 3
        assert "no anchor" in err
        code, out, err = run(capsys, "impute", str(path), "--allow-open-gap")
        assert code == 0
        assert out.splitlines()[5].endswith("imputed")

    def test_explosive_coefficients_numerical_error(self, capsys, tmp_path):
        # fits x_n = 10 x_{n-1}, then a 200-step gap overflows the weights
        rows = ["v"] + [str(10.0**i) for i in range(5)]
        rows += ["NA"] * 200 + ["1.0"]
        path = tmp_path / "explosive.csv"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, "impute", str(path))
        assert code == 4
        assert err.count("\n") == 1
        assert "overflow" in err or "unreachable" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "impute", "/nonexistent/input.csv")
        assert code == 3
        assert "cannot read" in err

    def test_custom_na_and_columns(self, capsys, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("t,y\n1,10\n2,11\n3,12\n4,miss\n5,14\n")
        code, out, _ = run(
            capsys, "impute", str(path), "--columns", "y", "--na", "miss",
        )
        assert code == 0
        assert out.splitlines()[4] == "4,13,imputed"

    def test_precision_flag(self, capsys, tmp_path):
        # anchor one short of the forecast: the mismatch spreads in thirds
        path = tmp_path / "p.csv"
        path.write_text("v\n1\n2\n3\nNA\nNA\n4\n")
        code, out, _ = run(capsys, "impute", str(path), "--precision", "12")
        assert code == 0
        assert out.splitlines()[4].startswith("3.33333333333,")
        code, out, _ = run(capsys, "impute", str(path), "--precision", "3")
        assert code == 0
        assert out.splitlines()[4].startswith("3.33,")

    def test_precision_out_of_range_is_usage_error(self, capsys, tmp_path, linear_csv):
        with pytest.raises(SystemExit) as excinfo:
            main(["impute", linear_csv, "--precision", "40"])
        assert excinfo.value.code == 2

    def test_unknown_model_is_usage_error(self, linear_csv):
        with pytest.raises(SystemExit) as excinfo:
            main(["impute", linear_csv, "--model", "arma"])
        assert excinfo.value.code == 2

    def test_regression_via_cli(self, capsys, tmp_path):
        rows = ["y,x"] + [f"{2 * n + 1},{n}" for n in range(1, 11)]
        rows += ["NA,11", "NA,12", "30,13"]
        path = tmp_path / "reg.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys, "impute", str(path), "--model", "regression",
            "--columns", "y", "--covariates", "x",
        )
        assert code == 0
        assert out.splitlines()[11].startswith("24,")

    def test_regression_gap_reads_no_covariate_before_it(self, capsys, tmp_path):
        # row 13 has a response but no covariate; the gap at row 14 is fitted
        # from the covariates of its own rows through the anchor, as an open
        # gap is, so row 13's covariate is never read
        rows = ["y,x"] + [f"{2 * n + 1},{n}" for n in range(1, 11)]
        rows += ["NA,11", "25,12", "27,NA", "NA,14", "31,15"]
        path = tmp_path / "reg.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(
            capsys, "impute", str(path), "--model", "regression",
            "--columns", "y", "--covariates", "x",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[11].startswith("23,")
        assert out.splitlines()[14].startswith("29,")

    def test_regression_overlapping_columns_rejected(self, capsys, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("y,x\n1,1\n2,2\n3,3\n4,4\n5,5\nNA,6\n7,7\n")
        code, _, err = run(
            capsys, "impute", str(path), "--model", "regression",
            "--columns", "y", "--covariates", "y",
        )
        assert code == 3
        assert "both value and covariate" in err

    def test_byte_identical_reruns(self, capsys, tmp_path, phosphate_path):
        args = ["impute", str(phosphate_path), "--model", "var"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_large_output_reaches_file_byte_for_byte(self, tmp_path):
        # every slice boundary falls between two multi-byte characters
        block = "漢" + "a," * (WRITE_SLICE // 2 - 1) + "é"
        text = block * 3 + "\U0001d11e\n"
        assert len(block) == WRITE_SLICE and len(text) > (1 << 20)
        path = tmp_path / "big.csv"
        _write_output(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")


def _growing_csv(path, columns: int, growth: float, gap: int, scale: float = 1.0):
    """x_n = growth * x_{n-1} + small noise for 30 rows, times ``scale``, then a long gap."""
    rng = np.random.default_rng(5)
    x = np.ones(columns)
    rows = [",".join(f"c{i}" for i in range(columns))]
    for _ in range(30):
        x = growth * x + rng.normal(0.0, 0.1, columns)
        rows.append(",".join(f"{scale * v:.17g}" for v in x))
    rows += [",".join(["NA"] * columns)] * gap + [",".join(["1.0"] * columns)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def _explosive_var_gap_csv(path, gap: int):
    """30 rows of a VAR(1) whose x1 grows by 1.5 per step, a gap of ``gap``
    steps, then an anchor at the fitted forecast plus (1, 1)."""
    rng = np.random.default_rng(3)
    a = np.array([[1.5, 0.33], [0.0, 0.49]])
    x, prefix = np.array([1.0, 10.0]), []
    for _ in range(30):
        x = a @ x + rng.normal(0.0, 0.01, 2)
        prefix.append(x)
    model = fit_var1(np.array(prefix))
    anchor = predict_forward(model, prefix[-1], gap + 1)[-1] + 1.0
    rows = ["a,b"] + [f"{float(u)!r},{float(v)!r}" for u, v in [*prefix, anchor]]
    rows[31:31] = ["NA,NA"] * gap
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def _normal_csv(path, scales, gaps):
    """40 rows of standard normals, column j times ``scales[j]``, with the
    (start, length) ``gaps`` blanked (0-based data rows)."""
    rng = np.random.default_rng(7)
    w = rng.standard_normal((40, len(scales))) * np.array(scales)
    rows = [",".join(f"{float(v)!r}" for v in row) for row in w]
    for start, length in gaps:
        rows[start : start + length] = [",".join(["NA"] * len(scales))] * length
    path.write_text(",".join(f"c{j}" for j in range(len(scales))) + "\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.mark.filterwarnings("error")
class TestErrorContract:
    """Explosive and degenerate inputs: one stderr line or none, never a
    Python warning or traceback (warnings are errors here, so a stray one
    fails the test instead of reaching stderr)."""

    def test_explosive_var_is_numerical_error(self, capsys, tmp_path):
        path = _growing_csv(tmp_path / "var.csv", 2, 1.3, 3000)
        code, out, err = run(capsys, "impute", path, "--model", "var")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: matrix power overflow")

    def test_explosive_ar_has_one_stderr_line(self, capsys, tmp_path):
        path = _growing_csv(tmp_path / "ar.csv", 1, 1.5, 3000)
        code, _, err = run(capsys, "impute", path)
        assert code == 4
        assert err.count("\n") == 1
        assert err.startswith("error: impulse weight overflow")

    @pytest.mark.parametrize("model, columns", [("ar", 1), ("var", 2)])
    def test_overflowing_forecast_is_numerical_error(self, capsys, tmp_path, model, columns):
        # moderate growth keeps the weights and powers finite; the huge values
        # make the forecast itself overflow
        path = _growing_csv(tmp_path / "huge.csv", columns, 1.5, 700, scale=1e200)
        code, out, err = run(capsys, "impute", path, "--model", model)
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: forecast overflow")

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    @pytest.mark.parametrize("model, columns", [("ar", 1), ("var", 2)])
    def test_values_too_large_to_square_are_numerical_error(self, capsys, tmp_path, model,
                                                            columns, mode):
        # the fit and forecast stay finite, but the squared controls overflow
        path = _normal_csv(tmp_path / "huge.csv", [1e300] * columns, [(30, 2)])
        code, out, err = run(capsys, "impute", path, "--model", model, "--mode", mode)
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ")

    def test_regression_on_huge_covariates_is_numerical_error(self, capsys, tmp_path):
        # the prefix fits y ~ 1e300 x; covariates of 1e10 in the gap overflow the forecast
        rng = np.random.default_rng(3)
        x = rng.uniform(0.5, 1.0, 30)
        y = 1e300 * x + 1e297 * rng.standard_normal(30)
        rows = [f"{a!r},{b!r}" for a, b in zip(y.tolist(), x.tolist())]
        rows += ["NA,1e10", "NA,1e10", "7e299,0.7"]
        path = tmp_path / "reg.csv"
        path.write_text("y,x\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "impute", str(path), "--model", "regression",
                             "--columns", "y", "--covariates", "x")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: fill overflow")

    def test_repeated_value_column_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n2,3\n3,5\n4,4\n5,6\nNA,NA\n7,8\n")
        code, out, err = run(capsys, "impute", str(path), "--model", "var", "--columns", "a,a")
        assert code == 3
        assert out == ""
        assert err == "error: column 'a' is selected twice\n"

    @pytest.mark.parametrize("long_gap", [True, False])
    def test_first_failing_gap_gives_the_error(self, capsys, tmp_path, long_gap):
        # under an explosive fit a 1400-step gap overflows the control Gram
        # matrix; a later 1-step gap with a 1e200 anchor overflows the norm of
        # its offset. With both gaps the earlier (longer) one is reported.
        path = tmp_path / "two.csv"
        lines = pathlib.Path(_growing_csv(path, 2, 1.3, 1400)).read_text().splitlines()
        if not long_gap:
            lines = [line.replace("NA", "1.0") for line in lines]
        lines += ["1.0,1.0"] * 3 + ["NA,NA", "1e200,1e200", "1.0,1.0"]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "impute", str(path), "--model", "var")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        expected = "matrix power overflow" if long_gap else "norm overflow"
        assert err.startswith(f"error: {expected}")

    def test_mixed_column_scales_are_named_in_the_message(self, capsys, tmp_path):
        # A is a diagonal similarity of a stable matrix, but its ~1e200
        # cross-coefficient overflows the Gram matrix of a 2-step gap
        path = _normal_csv(tmp_path / "mixed.csv", [1.0, 1e-200], [(19, 1), (30, 2)])
        code, out, err = run(capsys, "impute", path, "--model", "var")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: matrix power overflow")
        assert "value columns whose scales differ by many orders of magnitude" in err

    def test_explosive_open_gap_is_numerical_error(self, capsys, tmp_path):
        path = tmp_path / "open.csv"
        _growing_csv(path, 1, 1.5, 3000)
        path.write_text(path.read_text().rsplit("1.0\n", 1)[0])
        code, out, err = run(capsys, "impute", str(path), "--allow-open-gap")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: forecast overflow")

    def test_rank_deficiency_goes_to_report_notes(self, capsys, tmp_path):
        path = tmp_path / "constant.csv"
        path.write_text("v\n5\n5\n5\n5\n5\nNA\n7\n")
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "impute", str(path), "--report", str(report_path))
        assert code == 0
        assert err == ""
        report = json.loads(report_path.read_text())
        assert report["model"]["rank_deficient"]
        assert any(note.startswith("prefix fit: rank-deficient") for note in report["notes"])

    def test_large_level_is_not_rank_deficient(self, capsys, tmp_path):
        # a stationary AR(1) at level 1e6 with unit noise has a full-rank
        # design once the lag column is scaled to unit magnitude
        rng = np.random.default_rng(29)
        y = [0.0]
        for _ in range(199):
            y.append(0.6 * y[-1] + rng.standard_normal())
        cells = [f"{1e6 + v!r}" for v in y]
        cells[150:153] = ["NA"] * 3
        path = tmp_path / "level.csv"
        path.write_text("v\n" + "\n".join(cells) + "\n")
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "impute", str(path), "--report", str(report_path))
        assert code == 0
        assert err == ""
        report = json.loads(report_path.read_text())
        assert report["notes"] == []
        assert report["model"]["rank_deficient"] is False
        assert report["model"]["lag_coefficients"][0] == pytest.approx(0.6, abs=0.15)
        assert report["gaps"][0]["oracle"]["certified"]

    @pytest.mark.xfail(strict=True, reason=(
        "known limit: at level 1e10 the scaled lag and intercept columns agree to ~1e-10, "
        "so the fit reads rank 1 of 2 with a lag coefficient near 0.5; centring the lag "
        "columns before the scaled least squares would lift it"))
    def test_level_1e10_is_not_rank_deficient(self, capsys, tmp_path):
        # the series of test_large_level_is_not_rank_deficient, at level 1e10
        rng = np.random.default_rng(29)
        y = [0.0]
        for _ in range(199):
            y.append(0.6 * y[-1] + rng.standard_normal())
        cells = [f"{1e10 + v!r}" for v in y]
        cells[150:153] = ["NA"] * 3
        path = tmp_path / "level.csv"
        path.write_text("v\n" + "\n".join(cells) + "\n")
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "impute", str(path), "--report", str(report_path))
        assert (code, err) == (0, "")
        report = json.loads(report_path.read_text())
        assert report["model"]["rank_deficient"] is False
        assert report["model"]["lag_coefficients"][0] == pytest.approx(0.6, abs=0.15)

    def test_huge_alternating_values_fit_at_full_rank(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("x\n1e308\n-1e308\n1e308\n-1e308\n1e308\nNA\n1e308\n")
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "impute", str(path), "--report", str(report_path))
        assert code == 0
        assert err == ""
        report = json.loads(report_path.read_text())
        assert report["notes"] == []
        assert report["model"]["rank_deficient"] is False
        assert report["gaps"][0]["oracle"]["certified"]

    def test_unrepresentable_fit_is_numerical_error(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((40, 2)) * np.array([1.0, 1e-311])
        rows = ["a,b"] + [f"{float(u)!r},{float(v)!r}" for u, v in w]
        rows[30] = "NA,NA"
        path = tmp_path / "tiny.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "impute", str(path), "--model", "var")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: vector autoregression coefficients overflow")

    def test_explosive_var_gap_is_certified(self, capsys, tmp_path):
        # the control Gram matrix spans ~1e14 but is >= I, so the solve needs
        # no fallback and the fill is certified without a note
        path = _explosive_var_gap_csv(tmp_path / "explosive.csv", 40)
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "impute", path, "--model", "var", "--report", str(report_path))
        assert code == 0
        assert err == ""
        report = json.loads(report_path.read_text())
        assert report["notes"] == []
        assert report["gaps"][0]["oracle"]["certified"]

    def test_ill_conditioned_var_gap_is_numerical_error(self, capsys, tmp_path):
        # at 60 steps the Gram matrix is too ill-conditioned for the Lagrange
        # solve to meet its residual bound
        path = _explosive_var_gap_csv(tmp_path / "explosive.csv", 60)
        code, out, err = run(capsys, "impute", path, "--model", "var")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ill-conditioned control problem")

    def test_rank_deficient_fit_command_is_quiet(self, capsys, tmp_path):
        path = tmp_path / "constant.csv"
        path.write_text("v\n5\n5\n5\n5\n5\n")
        code, out, err = run(capsys, "fit", str(path))
        assert code == 0
        assert err == ""
        assert json.loads(out)["rank_deficient"]


class TestFitCommand:
    def test_prints_model_json(self, capsys, linear_csv):
        code, out, _ = run(capsys, "fit", linear_csv)
        assert code == 0
        model = json.loads(out)
        assert model["kind"] == "ar"
        assert model["lag_coefficients"][0] == pytest.approx(1.0, abs=1e-9)
        assert model["fit_rows"] == 5

    def test_short_window_fails(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("v\n1\n2\nNA\n4\n")
        code, _, err = run(capsys, "fit", str(path), "--order", "3")
        assert code == 3
        assert "too short" in err

    def test_regression_fit(self, capsys, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("y,x\n3,1\n5,2\n7,3\n9,4\nNA,5\n13,6\n")
        code, out, err = run(capsys, "fit", str(path), "--model", "regression",
                             "--columns", "y", "--covariates", "x")
        assert code == 0
        assert err == ""
        model = json.loads(out)
        assert model["kind"] == "regression"
        assert model["matrix"][0][0] == pytest.approx(2.0, abs=1e-9)
        assert model["intercept"][0] == pytest.approx(1.0, abs=1e-9)
        assert model["fit_rows"] == 4

    def test_trailing_gap_needs_no_flag(self, capsys, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text("v\n1\n2\n3\n4\n5\nNA\nNA\n")
        code, out, err = run(capsys, "fit", str(path))
        assert code == 0
        assert err == ""
        assert json.loads(out)["fit_rows"] == 5

    def test_leading_gap_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "leading.csv"
        path.write_text("v\nNA\n2\n3\n4\n5\n")
        code, out, err = run(capsys, "fit", str(path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: no observed prefix")

    def test_var_fit(self, capsys, phosphate_path):
        code, out, _ = run(capsys, "fit", str(phosphate_path), "--model", "var")
        assert code == 0
        model = json.loads(out)
        assert model["kind"] == "var"
        assert model["dimension"] == 2
        assert model["fit_rows"] == 10


class TestCoeffsCommand:
    def test_order_one_columns_agree(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--coefficients", "0.5", "--length", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("step")
        assert lines[1] == "0  1.0  1.0  0.0"
        assert lines[2] == "1  0.5  0.5  0.0"
        assert lines[3] == "2  0.25  0.25  0.0"
        assert lines[4] == "3  0.125  0.125  0.0"

    def test_order_two_columns_diverge(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--coefficients", "1,1", "--length", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "0  1.0  1.0  0.0"
        assert lines[2] == "1  1.0  2.0  1.0"
        assert lines[5] == "4  5.0  12.0  7.0"

    def test_zero_coefficients(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--coefficients", "0,0", "--length", "3")
        assert code == 0
        assert out.splitlines()[3] == "2  0.0  1.0  1.0"

    def test_bad_length(self, capsys):
        code, _, err = run(capsys, "coeffs", "--coefficients", "0.5", "--length", "0")
        assert code == 2
        assert "length" in err

    def test_bad_coefficients_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["coeffs", "--coefficients", "abc"])
        assert excinfo.value.code == 2


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--cases", "5")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 6
        for line in lines[:-1]:
            record = json.loads(line)
            assert record["passed"] is True
        assert lines[-1].startswith("verified 5/5")

    def test_vector_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "var", "--cases", "5")
        assert code == 0
        assert all(json.loads(l)["kind"] == "var" for l in out.splitlines()[:-1])

    def test_injected_fault_fails(self, capsys):
        code, out, err = run(capsys, "verify", "--cases", "3", "--inject-fault")
        assert code == 5
        assert "failed verification" in err
        assert err.count("\n") == 1

    def test_zero_cases_vacuous(self, capsys):
        code, out, err = run(capsys, "verify", "--cases", "0")
        assert code == 0
        assert "vacuous" in err
        assert out == "verified 0/0\n"

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--cases", "4", "--seed", "17")
        code2, out2, _ = run(capsys, "verify", "--cases", "4", "--seed", "17")
        assert out1 == out2


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["interpolate"])
        assert excinfo.value.code == 2
