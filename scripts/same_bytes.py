"""One sha256 line per ``gapfill impute`` or ``gapfill fit`` run of a fixed
matrix of inputs.

Each line hashes an impute run's output CSV, its report, its stderr and its
exit code, or a fit run's stdout, stderr and exit code. Two checkouts that
print the same lines wrote the same bytes on every run, so a ``diff`` of
this script's output under two source trees is a byte gate for changes that
must not move any output:

    PYTHONPATH=src python scripts/same_bytes.py > after.txt
    PYTHONPATH=/path/to/other/src python scripts/same_bytes.py > before.txt
    diff before.txt after.txt

The matrix is the three benchmark workloads (their inputs generated, read
only, by ``bench/workloads.py``) at seeds 1-3, each with its own options,
with ``--mode paper`` and with ``--refit-per-gap``; refit_ar's seed-1 input
spelled four more ways, so that every way ``parse_csv`` reads a block runs
(see ``SPELLINGS``), and read six more ways, as a regression, with an open
trailing gap and with a constant prefix (see ``VARIATIONS``);
``data/phosphate.csv`` as a VAR (exact and paper mode) and as an AR(2) of
column c1, with and without ``--refit-per-gap``; and ``gapfill fit`` of
four of those inputs (see ``FITS``).
The CLI runs in this process, on the ``gapfill`` that ``import`` finds.

Usage: python scripts/same_bytes.py [--size full|tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
VARIANTS = {"default": (), "paper": ("--mode", "paper"), "refit": ("--refit-per-gap",)}
# name -> (the spelling of one line of comma-separated text, given its row
# number, 0 for the header; the options that read it)
SPELLINGS = {
    # a row-number column before the cells, each separated by a tab: the byte scan
    "tab": (lambda i, line: "\t".join([str(i) if i else "t", *line.split(",")]),
            ("--delimiter", "tab", "--columns", "x")),
    # every cell padded with a space: each block is split whole and its cells stripped
    "padded": (lambda i, line: ",".join(f" {cell} " for cell in line.split(",")), ()),
    # a column of non-ASCII text beside the values: each block is split whole
    "non-ascii": (lambda i, line: line + (",note" if i == 0 else ",é"), ("--columns", "x")),
    # the header's cells quoted: csv.reader reads the whole text
    "quoted": (lambda i, line: ",".join(f'"{cell}"' for cell in line.split(",")) if i == 0 else line, ()),
}
REGRESSION = ("--model", "regression", "--columns", "x", "--covariates", "t")
OPEN_AR2 = ("--model", "ar", "--order", "2", "--refit-per-gap", "--allow-open-gap")
# name -> (whether each row gains its row number as a covariate column t
# before its cell; whether every value before the first NA row reads 1.5;
# how many trailing NA rows the text gains; the options)
VARIATIONS = {
    "regression": (True, False, 0, REGRESSION),
    "regression-refit": (True, False, 0, REGRESSION + ("--refit-per-gap",)),
    "open-gap": (False, False, 3, OPEN_AR2),
    "open-gap-paper": (False, False, 3, OPEN_AR2 + ("--mode", "paper")),
    "open-gap-regression": (True, False, 3, REGRESSION + ("--allow-open-gap",)),
    # rank-deficient prefix and first refit: two rank notes, and an open refit gap
    "constant-prefix-open-gap": (False, True, 3, OPEN_AR2),
}
PHOSPHATE = {
    "var": ("--model", "var"),
    "var-paper": ("--model", "var", "--mode", "paper"),
    "ar2": ("--model", "ar", "--columns", "c1", "--order", "2"),
    "ar2-refit": ("--model", "ar", "--columns", "c1", "--order", "2", "--refit-per-gap"),
}
# label -> (the name of an input written above, or of data/phosphate.csv; the fit options)
FITS = {
    "long_gap_ar seed=1": ("long_gap_ar-1.csv", ("--order", "3")),
    "many_gaps_var seed=1": ("many_gaps_var-1.csv", ("--model", "var")),
    "refit_ar seed=1 regression": ("refit_ar-1-regression.csv", REGRESSION),
    "phosphate var": ("phosphate.csv", ("--model", "var")),
}


def matrix(size: str, work: pathlib.Path):
    """(label, command, input path, options) of every run, in a fixed order."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, generate

    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            path = work / f"{name}-{seed}.csv"
            path.write_text(generate(workload, size, seed))
            for variant, options in VARIANTS.items():
                yield f"{name} seed={seed} {variant}", "impute", path, workload.extra_args + options
    text = generate(WORKLOADS["refit_ar"], size, 1)
    for spelling, (spell, options) in SPELLINGS.items():
        path = work / f"refit_ar-1-{spelling}.csv"
        path.write_text("".join(spell(i, line) + "\n" for i, line in enumerate(text.splitlines())))
        yield f"refit_ar seed=1 {spelling}", "impute", path, WORKLOADS["refit_ar"].extra_args + options
    for variation, (numbered, constant, trailing, options) in VARIATIONS.items():
        rows = text.splitlines() + ["NA"] * trailing
        if constant:
            rows[1 : rows.index("NA")] = ["1.5"] * (rows.index("NA") - 1)
        if numbered:
            rows = [f"{i},{line}" if i else f"t,{line}" for i, line in enumerate(rows)]
        path = work / f"refit_ar-1-{variation}.csv"
        path.write_text("\n".join(rows) + "\n")
        yield f"refit_ar seed=1 {variation}", "impute", path, options
    phosphate = ROOT / "data" / "phosphate.csv"
    for variant, options in PHOSPHATE.items():
        yield f"phosphate {variant}", "impute", phosphate, options
    for label, (name, options) in FITS.items():
        yield f"fit {label}", "fit", phosphate if name == phosphate.name else work / name, options


def run(command: str, path: pathlib.Path, options, work: pathlib.Path) -> tuple[int, str]:
    """The exit code and the sha256 of one run: an impute run's CSV,
    report, stderr and exit code, or a fit run's stdout, stderr and exit
    code."""
    from gapfill.cli import main

    output, report = work / "filled.csv", work / "report.json"
    for stale in (output, report):
        stale.unlink(missing_ok=True)
    argv = [command, str(path), *options]
    if command == "impute":
        argv += ["--output", str(output), "--report", str(report)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        # as in a fresh process: each warning is printed to stderr once
        warnings.simplefilter("default")
        code = main(argv)
    digest = hashlib.sha256()
    pieces = [stdout.getvalue().encode()] if command == "fit" else [
        piece.read_bytes() if piece.exists() else b"" for piece in (output, report)]
    for piece in pieces:
        digest.update(piece)
        digest.update(b"\0")
    digest.update(stderr.getvalue().encode())
    digest.update(f"\0{code}".encode())
    return code, digest.hexdigest()


def lines(size: str = "full") -> list:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        return [f"{label} exit={code} {digest}" for label, command, path, options in matrix(size, work)
                for code, digest in [run(command, path, options, work)]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload input size (default: full)")
    args = parser.parse_args(argv)
    print("\n".join(lines(args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
