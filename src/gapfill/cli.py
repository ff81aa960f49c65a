"""Command-line front end: impute, fit, coeffs, verify.

Exit codes: 0 success, 2 usage (argparse), 3 bad input data, 4 numerical
failure, 5 verification failure. Every error path prints one diagnostic line
to stderr. All output is deterministic for fixed inputs and options.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys

from .errors import DataError, NumericalError
from .fitting import ArModel
from .control import gamma_weights, impulse_weights
from .oracle import InstanceLimits
from .pipeline import ImputeOptions, fit_prefix, impute_series, verify_instance
from .report import describe_model, json_pieces, render_json
from .series import DEFAULT_NA_MARKERS, check_delimiter, csv_blocks, parse_csv


def _read_input(path: str) -> str:
    # "utf-8-sig" drops the byte-order mark that spreadsheets put before the header
    try:
        if path == "-":
            # decoded strictly whatever the locale, with the newlines a file gets
            text = sys.stdin.buffer.read().decode("utf-8-sig")
            return text.replace("\r\n", "\n").replace("\r", "\n")
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_output(path: str, pieces) -> None:
    """Write the text pieces one by one, so no copy of the whole text exists."""
    if path == "-":
        for piece in pieces:
            sys.stdout.write(piece)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for piece in pieces:
                handle.write(piece)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_series(args: argparse.Namespace, text: str):
    series = parse_csv(text, na_markers=args.na_markers, value_columns=args.columns,
                       delimiter=args.delimiter)
    covariates = None
    if args.model_kind == "regression":
        if not args.covariates:
            raise DataError("model 'regression' needs covariate columns (--covariates)")
        if args.columns is None:
            raise DataError("model 'regression' needs explicit value columns (--columns)")
        overlap = set(args.columns) & set(args.covariates)
        if overlap:
            raise DataError(f"column {sorted(overlap)[0]!r} listed as both value and covariate")
        covariates = parse_csv(text, na_markers=args.na_markers, value_columns=args.covariates,
                               delimiter=args.delimiter)
    return series, covariates


def cmd_impute(args: argparse.Namespace) -> int:
    # the text is dropped once parsed; the series keeps its rows' lines
    series, covariates = _parse_series(args, _read_input(args.input))
    options = ImputeOptions(
        model_kind=args.model_kind,
        order=args.order,
        mode=args.mode,
        refit_per_gap=args.refit_per_gap,
        allow_open_gap=args.allow_open_gap,
    )
    result = impute_series(series, options, covariates)
    # every check that can fail the run has been made; the texts are streamed
    _write_output(args.output_path, csv_blocks(series, result.filled, precision=args.precision))
    if args.report_path:
        _write_output(args.report_path, json_pieces(result.report.to_dict()))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    """Fit on the observed prefix and print the model as JSON."""
    text = _read_input(args.input)
    series, covariates = _parse_series(args, text)
    model = fit_prefix(series, ImputeOptions(model_kind=args.model_kind, order=args.order),
                       covariates)
    payload = describe_model(model)
    payload["fit_rows"] = series.prefix_length
    sys.stdout.write(render_json(payload))
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    """Print the exact and printed-recurrence weight sequences side by side."""
    model = ArModel(a=args.coefficients, b=0.0)
    exact = impulse_weights(model, args.length)
    printed = gamma_weights(model, args.length)
    sys.stdout.write("step  impulse  printed  difference\n")
    for j in range(args.length):
        diff = float(printed[j] - exact[j])
        sys.stdout.write(f"{j}  {float(exact[j])!r}  {float(printed[j])!r}  {diff!r}\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run seeded random instances through the solver and the independent checker."""
    if args.cases == 0:
        print("warning: 0 cases requested; verification is vacuous", file=sys.stderr)
        sys.stdout.write("verified 0/0\n")
        return 0
    limits = InstanceLimits.scalar() if args.model_kind == "ar" else InstanceLimits.vector()
    failures = 0
    worst_gap = 0.0
    worst_residual = 0.0
    for seed in range(args.seed, args.seed + args.cases):
        checked = verify_instance(seed, limits, inject_fault=args.inject_fault)
        verdict = checked.verdict
        line = {
            "seed": seed,
            "kind": checked.kind,
            "passed": verdict.passed,
            "objective_gap": verdict.objective_gap,
            "constraint_residual": verdict.constraint_residual,
        }
        sys.stdout.write(json.dumps(line) + "\n")
        failures += 0 if verdict.passed else 1
        worst_gap = max(worst_gap, verdict.objective_gap)
        worst_residual = max(worst_residual, verdict.constraint_residual)
    sys.stdout.write(
        f"verified {args.cases - failures}/{args.cases}; worst objective gap {worst_gap!r}; "
        f"worst constraint residual {worst_residual!r}\n"
    )
    if failures:
        print(f"error: {failures} of {args.cases} instances failed verification", file=sys.stderr)
        return 5
    return 0


def _precision_arg(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 17:
        raise argparse.ArgumentTypeError("precision must be between 1 and 17")
    return value


def _coefficients_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("coefficient list is empty")
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"coefficients must be finite, got {text!r}")
    return values


def _delimiter_arg(text: str) -> str:
    if text == "tab" or text == "\\t":
        return "\t"
    if len(text) != 1:
        raise argparse.ArgumentTypeError("delimiter must be a single character (or 'tab')")
    try:
        return check_delimiter(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _columns_arg(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip() != "")
    if not names:
        raise argparse.ArgumentTypeError("column list is empty")
    return names


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="path to a delimited file with a header row ('-' for stdin)")
    parser.add_argument("--model", default="ar", choices=("ar", "var", "regression"),
                        dest="model_kind", help="recursion fitted to the data (default ar)")
    parser.add_argument("--order", type=int, default=1,
                        help="autoregression order (model ar only; default 1)")
    parser.add_argument("--na", type=_columns_arg, default=DEFAULT_NA_MARKERS,
                        dest="na_markers", metavar="MARKERS",
                        help="comma-separated missing-value markers "
                             "(default: NA, NaN, +; empty cells always count)")
    parser.add_argument("--columns", type=_columns_arg, default=None, metavar="NAMES",
                        help="value columns by header name (default: all columns)")
    parser.add_argument("--covariates", type=_columns_arg, default=None, metavar="NAMES",
                        help="covariate columns for model regression")
    parser.add_argument("--delimiter", type=_delimiter_arg, default=",",
                        help="cell delimiter (single character or 'tab'; default ',')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapfill",
        description="Fill gaps in a time series whose value right after each gap is known, "
                    "by fitting a recursion and applying minimum-energy corrections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_impute = sub.add_parser("impute", help="fill every gap and write the completed series")
    _add_input_options(p_impute)
    p_impute.add_argument("--mode", default="exact", choices=("exact", "paper"),
                          help="scalar weight formulation (default exact)")
    p_impute.add_argument("--output", default="-", dest="output_path",
                          help="where to write the completed series (default stdout)")
    p_impute.add_argument("--report", default=None, dest="report_path",
                          help="write the JSON run report to this path")
    p_impute.add_argument("--precision", type=_precision_arg, default=6,
                          help="significant digits for imputed cells (1..17, default 6)")
    p_impute.add_argument("--refit-per-gap", action="store_true",
                          help="refit on all observed values before each gap")
    p_impute.add_argument("--allow-open-gap", action="store_true",
                          help="fill a trailing gap with the plain forecast instead of failing")

    p_fit = sub.add_parser("fit", help="fit the model on the observed prefix and print it")
    _add_input_options(p_fit)

    p_coeffs = sub.add_parser("coeffs", help="print exact vs printed control weights for given coefficients")
    p_coeffs.add_argument("--coefficients", type=_coefficients_arg, required=True,
                          metavar="A1,A2,...", help="lag coefficients, most recent first")
    p_coeffs.add_argument("--length", type=int, default=8,
                          help="number of weights to print (default 8)")

    p_verify = sub.add_parser("verify", help="certify solver output against the independent checker "
                                             "on seeded random instances")
    p_verify.add_argument("--model", default="ar", choices=("ar", "var"), dest="model_kind",
                          help="instance family (default ar)")
    p_verify.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    p_verify.add_argument("--cases", type=int, default=100,
                          help="number of consecutive seeds to run (default 100)")
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="perturb each solution first; verification must then fail (self-test)")
    return parser


COMMANDS = {
    "impute": cmd_impute,
    "fit": cmd_fit,
    "coeffs": cmd_coeffs,
    "verify": cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: no action keeps state between parses."""
    return build_parser()


def _same_destination(output_path: str, report_path: str) -> bool:
    """Whether the two name one file ("-" is stdout): by file identity where
    both exist, else by path. A terminal or the null device loses nothing."""
    paths = (output_path, report_path)
    if output_path == report_path:
        return True
    try:
        stats = [os.fstat(sys.stdout.fileno()) if path == "-" else os.stat(path) for path in paths]
    except (AttributeError, OSError, ValueError):
        return "-" not in paths and os.path.realpath(output_path) == os.path.realpath(report_path)
    return os.path.samestat(*stats) and not stat.S_ISCHR(stats[0].st_mode)


def _usage_problem(args: argparse.Namespace) -> str | None:
    if args.command == "coeffs" and args.length < 1:
        return "--length must be >= 1"
    if args.command == "verify" and args.cases < 0:
        return "--cases must be >= 0"
    if args.command == "verify" and args.seed < 0:
        return "--seed must be >= 0"
    if (args.command == "impute" and args.report_path is not None
            and _same_destination(args.output_path, args.report_path)):
        return "--output and --report name the same destination"
    return None


def _stdout_to_devnull() -> None:
    """Point a closed stdout's descriptor at devnull, so the exit flush cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    problem = _usage_problem(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        code = COMMANDS[args.command](args)
        # a stdout closed early shows here, not in the interpreter's exit flush;
        # an in-process caller's stand-in for stdout may have no flush
        getattr(sys.stdout, "flush", lambda: None)()
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        print("error: cannot write -: Broken pipe", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
