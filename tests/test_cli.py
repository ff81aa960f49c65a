import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gapfill import cli
from gapfill.cli import _write_output, main
from gapfill.fitting import fit_var1, predict_forward
from gapfill.pipeline import ImputeOptions, impute_series
from gapfill.series import BLOCK, parse_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _cli_env(**extra) -> dict:
    """The environment of a fresh ``python -m gapfill.cli`` that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


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
        assert report["schema_version"] == 4
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
        # every piece boundary falls between two multi-byte characters
        pieces = ["漢" + "a," * (1 << 18) + "é"] * 3 + ["\U0001d11e\n"]
        path = tmp_path / "big.csv"
        _write_output(str(path), iter(pieces))
        assert path.read_bytes() == "".join(pieces).encode("utf-8")


def _ar_text(rows: int, gaps, delimiter: str, lineterminator: str, notes: bool) -> str:
    """An AR(1) series of ``rows`` rows, missing at the 1-based ``gaps``, as
    csv.writer writes it; with ``notes``, beside a time column and a note
    column whose cells need quoting, else alone with each gap a blank line."""
    rng = np.random.default_rng(4)
    x, out = 0.0, [["t", "v", "note"] if notes else ["v"]]
    texts = ["plain", "a,b", 'say "hi"', "two\nlines", "", "e.s"]
    for t in range(1, rows + 1):
        x = 0.7 * x + 1.0 + rng.standard_normal()
        value = "NA" if t in gaps else f"{x:.6f}"
        if notes:
            out.append([str(t), value, texts[t % len(texts)]])
        else:
            out.append([] if t in gaps else [value])
    buf = io.StringIO()
    csv.writer(buf, delimiter=delimiter, lineterminator=lineterminator).writerows(out)
    return buf.getvalue()


def _var_text(rows: int = 20_000, gaps: int = 1000) -> str:
    """A 3-column VAR(1) series with ``gaps`` gaps of 1-10 rows."""
    rng = np.random.default_rng(11)
    a = np.array([[0.5, 0.1, 0.0], [0.2, 0.4, 0.1], [0.0, 0.3, 0.3]])
    missing = np.zeros(rows, dtype=bool)
    for k in range(gaps):
        start = 500 + 19 * k
        missing[start : start + 1 + k % 10] = True
    x, lines = np.zeros(3), ["x,y,z"]
    for gone in missing:
        x = a @ x + 1.0 + rng.standard_normal(3)
        lines.append("NA,NA,NA" if gone else ",".join(f"{v:.6f}" for v in x))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def var_20k(tmp_path_factory):
    path = tmp_path_factory.mktemp("var") / "var20k.csv"
    path.write_text(_var_text())
    return str(path)


class _Recorder:
    """A text stream, or an open file, that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


class TestStreamedOutput:
    """The CSV and the report are written block by block, and the bytes are
    those of ``rendered_csv()`` and ``to_json()``."""

    @pytest.mark.parametrize("rows, delimiter, lineterminator, notes", [
        (2 * BLOCK + BLOCK // 2, ",", "\n", True),
        (300, ",", "\r\n", True),
        (300, ",", "\n", False),
        (300, "e", "\n", True),
        (300, ".", "\n", True),
        (300, "s", "\n", True),
    ], ids=["blocks", "crlf", "blank-lines", "delimiter-e", "delimiter-dot", "delimiter-s"])
    def test_outputs_equal_rendered_texts(self, capsys, tmp_path, rows, delimiter,
                                          lineterminator, notes):
        # gaps across the first two block edges, and one in the last block
        gaps = {BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, rows - 2}
        path = tmp_path / "in.csv"
        path.write_bytes(_ar_text(rows, gaps, delimiter, lineterminator, notes).encode())
        series = parse_csv(path.read_text(), value_columns=["v"], delimiter=delimiter)
        result = impute_series(series, ImputeOptions(order=1))
        rendered, report = result.rendered_csv(), result.report.to_json()
        assert series.missing_indices == tuple(sorted(g for g in gaps if g <= rows))
        argv = ["impute", str(path), "--columns", "v", "--delimiter", delimiter]
        out, rep = tmp_path / "out.csv", tmp_path / "report.json"
        assert main(argv + ["--output", str(out), "--report", str(rep)]) == 0
        assert out.read_bytes() == rendered.encode()
        assert rep.read_bytes() == report.encode()
        code, stdout, err = run(capsys, *argv, "--output", "-")
        assert (code, stdout, err) == (0, rendered, "")
        code, stdout, err = run(capsys, *argv, "--output", str(out), "--report", "-")
        assert (code, stdout, err) == (0, report, "")

    def test_stdin_gives_the_file_output(self, capsys, tmp_path, monkeypatch):
        # CRLF and a lone CR on stdin read as a file's newlines do
        data = _ar_text(300, {100, 101, 200}, ",", "\r\n", True).encode().replace(b"\r\n", b"\r", 5)
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        argv = ["impute", "--columns", "v", "--output", "-"]
        code, want, _ = run(capsys, argv[0], str(path), *argv[1:])
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                           errors="surrogateescape"))
        assert run(capsys, argv[0], "-", *argv[1:]) == (code, want, "")
        assert code == 0 and want.count("imputed") == 3

    def test_no_write_exceeds_256_kB(self, tmp_path, monkeypatch, var_20k):
        recorders = []

        def recording_open(path, mode="r", **kwargs):
            if "w" not in mode:
                return open(path, mode, **kwargs)
            recorders.append(_Recorder())
            return recorders[-1]

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        # a refit per gap writes each gap's model: a report over 1 MB
        argv = ["impute", var_20k, "--model", "var", "--refit-per-gap"]
        assert main(argv + ["--output", str(tmp_path / "o"), "--report", str(tmp_path / "r")]) == 0
        csv_writes, report_writes = recorders
        monkeypatch.setattr(sys, "stdout", _Recorder())
        assert main(argv) == 0
        assert sys.stdout.writes == csv_writes.writes
        for recorder in (csv_writes, report_writes):
            assert max(map(len, recorder.writes)) <= 256 * 1024
        assert sum(map(len, csv_writes.writes)) > 600_000
        assert sum(map(len, report_writes.writes)) > 1_000_000

    def test_impute_peak_memory_is_bounded(self, tmp_path, var_20k):
        # 20 000 rows, 3 columns, 1000 gaps: 0.7 MB of CSV and 0.7 MB of report
        argv = ["impute", var_20k, "--model", "var", "--output", str(tmp_path / "o"),
                "--report", str(tmp_path / "r")]
        assert main(argv) == 0  # imports and caches are not the run's
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000


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


def _explosive_var_gaps_csv(path):
    """``_explosive_var_gap_csv`` with a 60-step gap, then a row of 1e307, a
    2-step gap and an anchor at that gap's fitted forecast: solved beside the
    60-step gap, the short gap's forecast overflows past its own steps."""
    _explosive_var_gap_csv(path, 60)
    rows = path.read_text().splitlines()
    model = fit_var1(np.array([[float(v) for v in row.split(",")] for row in rows[1:31]]))
    seed = np.array([1e307, 1.0])
    anchor = predict_forward(model, seed, 3)[-1]
    rows += ["1e+307,1.0", "NA,NA", "NA,NA", f"{float(anchor[0])!r},{float(anchor[1])!r}"]
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


def _huge_anchor_csv(path):
    """Column ``a`` of 1.3^t for t < 2000 with rows 1001-1500 missing: the
    anchor's offset from its forecast is ~1e155, whose squared norm overflows."""
    rows = ["NA" if 1001 <= t + 1 <= 1500 else repr(1.3 ** t) for t in range(2000)]
    path.write_text("a\n" + "\n".join(rows) + "\n")
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

    def test_overflowing_fill_has_one_message_in_both_modes(self, capsys, tmp_path):
        # one VAR column of ~1e160 values: the 1x1 solve is a plain division,
        # and the squared controls toward a 1e300 anchor overflow
        rng = np.random.default_rng(11)
        x, rows = 0.0, []
        for _ in range(40):
            x = 0.5 * x + 1e160 * rng.standard_normal()
            rows.append(repr(x))
        rows[30:34] = ["NA"] * 3 + ["1e300"]
        path = tmp_path / "huge.csv"
        path.write_text("v\n" + "\n".join(rows) + "\n")
        errors = []
        for mode in ("exact", "paper"):
            code, out, err = run(capsys, "impute", str(path), "--model", "var", "--mode", mode)
            assert (code, out, err.count("\n")) == (4, "", 1)
            errors.append(err)
        assert errors[0].startswith("error: fill overflow in the gap at index 31")
        assert errors[1] == errors[0]

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

    def test_regression_anchor_forecast_overflow_is_numerical_error(self, capsys, tmp_path):
        # the prefix fits y = 2x on x near 1e307; the forecast 2 * 1.5e308 at
        # the anchor overflows, so the offset to the anchor is not finite
        rng = np.random.default_rng(7)
        x = rng.uniform(1e307, 8e307, 30).tolist()
        rows = [f"{2.0 * v!r},{v!r}" for v in x] + ["NA,1e307", "NA,1e307", "1.0,1.5e308"]
        path = tmp_path / "reg.csv"
        path.write_text("y,x\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "impute", str(path), "--model", "regression",
                             "--columns", "y", "--covariates", "x")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: fill overflow in the gap at index 31: ")

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

    def test_ill_conditioned_var_gap_beside_an_overflowing_short_gap(self, tmp_path):
        # the two gaps are solved as one stack, in which the short gap's
        # forecast overflows quietly past its own steps; the 60-step gap
        # still gives the error
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "gapfill.cli", "impute",
             _explosive_var_gaps_csv(tmp_path / "explosive.csv"), "--model", "var"],
            capture_output=True, text=True, env=_cli_env())
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("error: ill-conditioned control problem")

    def test_anchor_offset_that_overflows_is_one_line(self, capsys, tmp_path):
        # the forecast 1.5e308 and the anchor -1.5e308 are finite, their
        # difference is not: a numerical error, with no RuntimeWarning line
        path = tmp_path / "huge.csv"
        path.write_text("a\n1.5e308\n-1.5e308\n1.5e308\n-1.5e308\n1.5e308\nNA\n-1.5e308\n")
        code, out, err = run(capsys, "impute", str(path))
        assert (code, out) == (4, "")
        assert err == ("error: forecast overflow: the offset to the anchor is not finite (explosive "
                       "coefficients or huge values over a long horizon)\n")

    def test_overflowing_anchor_offset_is_not_certified(self, capsys, tmp_path):
        # the target norm overflows to inf, which no longer admits any residual
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "impute", _huge_anchor_csv(tmp_path / "growing.csv"),
                           "--columns", "a", "--output", str(tmp_path / "filled.csv"),
                           "--report", str(report_path))
        assert (code, err) == (0, "")
        (gap,) = json.loads(report_path.read_text())["gaps"]
        assert (gap["start"], gap["end"]) == (1001, 1500)
        assert gap["oracle"]["certified"] is False

    def test_overflowing_anchor_offset_is_quiet_in_a_fresh_process(self, tmp_path):
        report_path = tmp_path / "report.json"
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "gapfill.cli", "impute",
             _huge_anchor_csv(tmp_path / "growing.csv"), "--columns", "a",
             "--output", str(tmp_path / "filled.csv"), "--report", str(report_path)],
            capture_output=True, text=True, env=_cli_env())
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert json.loads(report_path.read_text())["gaps"][0]["oracle"]["certified"] is False

    def test_rank_deficient_fit_command_is_quiet(self, capsys, tmp_path):
        path = tmp_path / "constant.csv"
        path.write_text("v\n5\n5\n5\n5\n5\n")
        code, out, err = run(capsys, "fit", str(path))
        assert code == 0
        assert err == ""
        assert json.loads(out)["rank_deficient"]

    @pytest.mark.parametrize("command", ["impute", "fit"])
    def test_non_utf8_input_is_data_error(self, capsys, tmp_path, monkeypatch, command):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe\n")
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (3, "")
        assert err == f"error: cannot read {path}: not UTF-8 text (invalid start byte)\n"
        # stdin is read as bytes, so a stdin that decodes with surrogateescape
        # (as in the C locale) rejects them too
        for data in (b"\xff\xfe\n", b"v\n1\n2\xff\n3\n"):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                               errors="surrogateescape"))
            code, out, err = run(capsys, command, "-")
            assert (code, out) == (3, "")
            assert err == "error: cannot read -: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_byte_order_mark_is_not_part_of_the_header(self, capsys, tmp_path, monkeypatch, source):
        # spreadsheets that save "CSV UTF-8" put a byte-order mark before the header
        data = "\ufeffx\n1\n2\n3\n4\n5\nNA\n3\n".encode("utf-8")
        path = tmp_path / "bom.csv"
        path.write_bytes(data)
        outputs = []
        for columns in (["--columns", "x"], []):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                               errors="surrogateescape"))
            code, out, err = run(capsys, "impute", str(path) if source == "file" else "-", *columns)
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("x,origin\n") and outputs[0].count("imputed") == 1

    @pytest.mark.parametrize("quoted", [False, True])
    def test_overlong_cell_is_data_error(self, capsys, tmp_path, quoted):
        # over csv.reader's field limit of 131072 characters, in a non-value column
        cell = "a" * 200_000
        path = tmp_path / "long.csv"
        path.write_text("v,note\n1,x\n2," + (f'"{cell}"' if quoted else cell) + "\n3,y\n")
        code, out, err = run(capsys, "impute", str(path), "--columns", "v")
        assert (code, out) == (3, "")
        assert err == "error: cannot parse line 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("text", ["\n1\n2\nNA\n3\n", "\n\n\n", "\n", '\n"1"\n2\n'],
                             ids=["values", "all-blank", "one-line", "quoted"])
    def test_blank_header_is_data_error(self, capsys, tmp_path, text):
        path = tmp_path / "blank.csv"
        path.write_text(text)
        assert run(capsys, "impute", str(path)) == (
            3, "", "error: blank header row: the first line has no column names\n")

    @pytest.mark.parametrize("given, message", [
        (["--columns", "y"], "model 'regression' needs covariate columns (--covariates)"),
        (["--covariates", "x"], "model 'regression' needs explicit value columns (--columns)"),
    ])
    def test_regression_without_its_columns_is_data_error(self, capsys, tmp_path, given, message):
        path = tmp_path / "reg.csv"
        path.write_text("y,x\n1,1\n2,2\n3,3\n4,4\nNA,5\n6,6\n")
        code, out, err = run(capsys, "impute", str(path), "--model", "regression", *given)
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--output", "--report"])
    def test_unwritable_output_is_data_error(self, capsys, tmp_path, linear_csv, flag):
        target = tmp_path / "missing" / "out"
        args = ["impute", linear_csv, flag, str(target)]
        if flag == "--report":
            args += ["--output", str(tmp_path / "filled.csv")]
        code, out, err = run(capsys, *args)
        assert (code, out) == (3, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"
        code, _, err = run(capsys, "impute", linear_csv, flag, str(tmp_path))
        assert code == 3
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"


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


REGRESSION_ARGS = ("--model", "regression", "--columns", "y", "--covariates", "t")
# name -> (an input whose observed prefix is too short for its fit, or reads
# a missing covariate; the options; the one stderr line of every command
# that fits it)
PREFIX_ERRORS = {
    "ar2": ("x\n1\n2\n3\nNA\n4\n5\n", ("--order", "2"),
            "fit window too short: 3 values for order 2 (need at least 5)"),
    "ar1": ("x\n1\nNA\n4\n5\n", (), "fit window too short: 1 values for order 1 (need at least 3)"),
    "var": ("a,b\n1,2\n2,3\n3,5\nNA,NA\n5,6\n", ("--model", "var"),
            "fit window too short: 3 vectors of dimension 2 (need at least 4)"),
    "regression": ("y,t\n1,1\n2,2\nNA,3\n4,4\n", REGRESSION_ARGS,
                   "fit window too short: 2 rows with 1 covariates (need at least 3)"),
    "missing-covariate": ("y,t\n1,1\n2,2\n3,NA\n4,4\n5,5\nNA,6\n7,7\n", REGRESSION_ARGS,
                          "missing covariate at index 3 (covariates must be observed wherever used)"),
}


@pytest.mark.parametrize("command", [("impute",), ("impute", "--refit-per-gap"), ("fit",)],
                         ids=["impute", "refit", "fit"])
@pytest.mark.parametrize("name", PREFIX_ERRORS)
def test_prefix_fit_errors_keep_their_words(capsys, tmp_path, name, command):
    # the prefix fit is worded by the run of rows it reads, whichever
    # command fits it
    text, options, message = PREFIX_ERRORS[name]
    path = tmp_path / "short.csv"
    path.write_text(text)
    code, out, err = run(capsys, command[0], str(path), *command[1:], *options)
    assert (code, out, err) == (3, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("text", ["nan", "inf", "1e999", "0.5,-inf"])
    def test_non_finite_coefficients_usage_error(self, capsys, text):
        with pytest.raises(SystemExit) as excinfo:
            main(["coeffs", "--coefficients", text])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --coefficients: coefficients must be finite, got {text!r}\n")
        assert "Traceback" not in captured.err


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

    def test_negative_cases_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--cases", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --cases must be >= 0\n"

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --seed must be >= 0\n"

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--cases", "4", "--seed", "17")
        code2, out2, _ = run(capsys, "verify", "--cases", "4", "--seed", "17")
        assert out1 == out2


class TestUsage:
    @pytest.mark.parametrize("name", ["tab", "\\t"])
    def test_tab_delimiter_by_name(self, capsys, tmp_path, name):
        comma, tab = tmp_path / "comma.csv", tmp_path / "tab.csv"
        comma.write_text("t,value\n1,1\n2,2\n3,3\n4,NA\n5,5\n")
        tab.write_text(comma.read_text().replace(",", "\t"))
        code, want, _ = run(capsys, "impute", str(comma), "--columns", "value")
        assert code == 0
        assert run(capsys, "impute", str(tab), "--columns", "value", "--delimiter", name) == (
            0, want.replace(",", "\t"), "")

    @pytest.mark.parametrize("argv, message", [
        (["impute", "x.csv", "--delimiter", ";;"],
         "argument --delimiter: delimiter must be a single character (or 'tab')"),
        (["impute", "x.csv", "--columns", ","], "argument --columns: column list is empty"),
        (["coeffs", "--coefficients", ","], "argument --coefficients: coefficient list is empty"),
        (["impute", "x.csv", "--delimiter", '"'],
         "argument --delimiter: delimiter may not be '\"': the output would not read back"),
        (["fit", "x.csv", "--delimiter", "\n"],
         "argument --delimiter: delimiter may not be '\\n': the output would not read back"),
        (["impute", "x.csv", "--delimiter", "\r"],
         "argument --delimiter: delimiter may not be '\\r': the output would not read back"),
    ])
    def test_empty_or_long_argument_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["interpolate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("output, report", [
        ("same.csv", "same.csv"),
        ("same.csv", "./sub/../same.csv"),
        ("same.csv", "link.csv"),
        ("-", "-"),
        (None, "-"),
        ("kept.csv", "hard.csv"),
    ], ids=["equal", "dotted", "symlink", "both-stdout", "default-output", "hard-link"])
    def test_output_and_report_may_not_share_a_destination(self, capsys, tmp_path, monkeypatch,
                                                            output, report):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(tmp_path / "same.csv")
        (tmp_path / "kept.csv").write_text("kept\n")
        os.link(tmp_path / "kept.csv", tmp_path / "hard.csv")
        # the input does not exist: the check comes before any input is read
        argv = ["impute", "missing.csv", "--report", report]
        if output is not None:
            argv += ["--output", output]
        assert run(capsys, *argv) == (
            2, "", "error: --output and --report name the same destination\n")
        assert not (tmp_path / "same.csv").exists()
        assert (tmp_path / "kept.csv").read_text() == "kept\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize("argv", [
        ["--report", "/dev/stdout"],
        ["--output", "/dev/stdout", "--report", "-"],
    ], ids=["report-to-stdout", "output-to-stdout"])
    def test_stdout_named_by_path_is_the_same_destination(self, tmp_path, linear_csv, argv):
        # with stdout a file, writing the report to it would truncate the CSV
        out = tmp_path / "out"
        with open(out, "w") as handle:
            done = subprocess.run([sys.executable, "-m", "gapfill.cli", "impute", linear_csv, *argv],
                                  stdout=handle, stderr=subprocess.PIPE, text=True, env=_cli_env())
        assert (done.returncode, done.stderr) == (
            2, "error: --output and --report name the same destination\n")
        assert out.read_text() == ""

    def test_null_device_may_take_both(self, linear_csv):
        argv = ["impute", linear_csv, "--report", os.devnull]
        done = subprocess.run([sys.executable, "-m", "gapfill.cli", *argv], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, env=_cli_env())
        assert (done.returncode, done.stderr) == (0, "")


def _fresh(argv):
    """``main(argv)`` on a parser built for this call."""
    cli._parser.cache_clear()
    return _cached(argv)


def _cached(argv):
    """``main(argv)`` on the parser it holds; a usage exit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _parser_actions(parser):
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parser_actions(sub)


class TestSharedParser:
    """``main`` builds its parser on the first call and parses every later
    call with it, with the outputs a fresh parser gives."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_built_once_across_commands(self, monkeypatch, linear_csv):
        calls, build_parser = [], cli.build_parser

        def counting_build_parser():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        for argv in (["impute", linear_csv], ["fit", linear_csv],
                     ["coeffs", "--coefficients", "0.5", "--length", "3"],
                     ["verify", "--cases", "2"], ["impute", linear_csv, "--mode", "paper"]):
            assert _cached(argv)[0] == 0
        assert len(calls) == 1

    def test_usage_error_leaves_no_trace(self, linear_csv):
        valid = ["impute", linear_csv, "--order", "2", "--precision", "9"]
        want = _fresh(valid)
        assert want[0] == 0
        for bad in (["impute", linear_csv, "--precision", "x"], ["impute", linear_csv, "--order"],
                    ["interpolate"], ["coeffs", "--coefficients", "nan"], []):
            cli._parser.cache_clear()
            assert _cached(bad)[0] == 2
            assert _cached(valid) == want

    def test_omitted_option_takes_its_default_again(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("v,w\n1,5\n2,4.5\n3,3\n4,3.2\n5,2.5\nNA,NA\n7,1\n8,0.2\n")
        argv = ["impute", str(path), "--model", "var"]
        both = _fresh(argv)
        only_v = _cached(argv + ["--columns", "v", "--na", "NA,?"])
        again = _cached(argv)
        assert both[0] == only_v[0] == 0
        assert "6,NA,imputed" in only_v[1].splitlines()
        assert "6.04998,1.76929,imputed" in both[1].splitlines()
        assert again == both

    def test_none_reads_the_current_argv(self, monkeypatch, capsys):
        for length in (2, 3, 5):
            monkeypatch.setattr(sys, "argv", ["gapfill", "coeffs", "--coefficients", "0.5",
                                              "--length", str(length)])
            assert main(None) == 0
            assert len(capsys.readouterr().out.splitlines()) == length + 1

    def test_no_action_carries_state_between_parses(self):
        # every parse's namespace starts from the action's default object itself,
        # so a mutable default changed in place would reach the next parse
        actions = list(_parser_actions(cli.build_parser()))
        assert any(action.dest == "output_path" for action in actions)
        for action in actions:
            assert not isinstance(action.default, (list, dict, set)), action.dest
            assert not isinstance(action, (argparse._AppendAction,
                                           argparse._AppendConstAction)), action.dest

    @pytest.mark.parametrize("argv", [
        ["impute", "x.csv", "--precision", "x"],
        ["interpolate"],
        ["impute", "--help"],
    ], ids=["bad-precision", "unknown-command", "impute-help"])
    def test_usage_text_is_that_of_a_fresh_process(self, monkeypatch, argv):
        # help is wrapped to the terminal's width, which COLUMNS fixes
        monkeypatch.setenv("COLUMNS", "80")
        done = subprocess.run([sys.executable, "-m", "gapfill.cli", *argv], capture_output=True,
                              text=True, env=_cli_env(COLUMNS="80"))
        want = (done.returncode, done.stdout, done.stderr)
        assert want[0] in (0, 2) and (want[1] or want[2])
        assert _fresh(argv) == want
        assert _cached(argv) == want
        assert _cached(argv) == want


class TestClosedStdout:
    """A reader that stops early ends the run with one line and exit 3."""

    @pytest.mark.parametrize("command", ["impute", "coeffs", "verify"])
    def test_one_line_and_exit_3(self, tmp_path, command):
        # each writes well over a pipe buffer, so a write meets the closed pipe
        path = tmp_path / "long.csv"
        path.write_text("v\n" + "".join("NA\n" if t % 50 == 25 else f"{t % 17}.5\n"
                                        for t in range(100_000)))
        argv = {"impute": ["impute", str(path)],
                "coeffs": ["coeffs", "--coefficients", "0.5", "--length", "20000"],
                "verify": ["verify", "--cases", "3000"]}[command]
        with subprocess.Popen([sys.executable, "-m", "gapfill.cli", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=_cli_env()) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (3, b"error: cannot write -: Broken pipe\n")

    def test_in_process_closed_pipe_points_stdout_at_devnull(self, capsys, tmp_path):
        # stdout writes to a pipe whose read end is closed, so the first write fails
        path = tmp_path / "long.csv"
        path.write_text("v\n" + "".join("NA\n" if t % 50 == 25 else f"{t % 17}.5\n"
                                        for t in range(100_000)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            with contextlib.redirect_stdout(stdout):
                code = main(["impute", str(path)])
            # so the exit flush cannot fail again
            assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
        assert (code, capsys.readouterr().err) == (3, "error: cannot write -: Broken pipe\n")

    def test_in_process_closed_stdout_without_a_descriptor(self, capsys, linear_csv):
        class Closed(io.TextIOBase):
            """A closed stdout that has no descriptor to point at devnull."""

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with contextlib.redirect_stdout(Closed()):
            code = main(["impute", linear_csv])
        assert (code, capsys.readouterr().err) == (3, "error: cannot write -: Broken pipe\n")
