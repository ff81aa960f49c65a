"""One sha256 line per ``gapfill impute`` run of a fixed matrix of inputs.

Each line hashes the run's output CSV, its report, its stderr and its exit
code. Two checkouts that print the same lines wrote the same bytes on every
run, so a ``diff`` of this script's output under two source trees is a byte
gate for changes that must not move any output:

    PYTHONPATH=src python scripts/same_bytes.py > after.txt
    PYTHONPATH=/path/to/other/src python scripts/same_bytes.py > before.txt
    diff before.txt after.txt

The matrix is the three benchmark workloads (their inputs generated, read
only, by ``bench/workloads.py``) at seeds 1-3, each with its own options,
with ``--mode paper`` and with ``--refit-per-gap``; refit_ar's seed-1 input
spelled four more ways, so that every way ``parse_csv`` reads a block runs
(see ``SPELLINGS``), and read five more ways, as a regression and with an
open trailing gap (see ``VARIATIONS``); and ``data/phosphate.csv`` as a VAR
(exact and paper mode) and as an AR(2) of column c1, with and without
``--refit-per-gap``.
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
# before its cell; how many trailing NA rows the text gains; the options)
VARIATIONS = {
    "regression": (True, 0, REGRESSION),
    "regression-refit": (True, 0, REGRESSION + ("--refit-per-gap",)),
    "open-gap": (False, 3, OPEN_AR2),
    "open-gap-paper": (False, 3, OPEN_AR2 + ("--mode", "paper")),
    "open-gap-regression": (True, 3, REGRESSION + ("--allow-open-gap",)),
}
PHOSPHATE = {
    "var": ("--model", "var"),
    "var-paper": ("--model", "var", "--mode", "paper"),
    "ar2": ("--model", "ar", "--columns", "c1", "--order", "2"),
    "ar2-refit": ("--model", "ar", "--columns", "c1", "--order", "2", "--refit-per-gap"),
}


def matrix(size: str, work: pathlib.Path):
    """(label, input path, options) of every run, in a fixed order."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, generate

    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            path = work / f"{name}-{seed}.csv"
            path.write_text(generate(workload, size, seed))
            for variant, options in VARIANTS.items():
                yield f"{name} seed={seed} {variant}", path, workload.extra_args + options
    text = generate(WORKLOADS["refit_ar"], size, 1)
    for spelling, (spell, options) in SPELLINGS.items():
        path = work / f"refit_ar-1-{spelling}.csv"
        path.write_text("".join(spell(i, line) + "\n" for i, line in enumerate(text.splitlines())))
        yield f"refit_ar seed=1 {spelling}", path, WORKLOADS["refit_ar"].extra_args + options
    for variation, (numbered, trailing, options) in VARIATIONS.items():
        rows = text.splitlines() + ["NA"] * trailing
        if numbered:
            rows = [f"{i},{line}" if i else f"t,{line}" for i, line in enumerate(rows)]
        path = work / f"refit_ar-1-{variation}.csv"
        path.write_text("\n".join(rows) + "\n")
        yield f"refit_ar seed=1 {variation}", path, options
    for variant, options in PHOSPHATE.items():
        yield f"phosphate {variant}", ROOT / "data" / "phosphate.csv", options


def run(path: pathlib.Path, options, work: pathlib.Path) -> tuple[int, str]:
    """The exit code and the sha256 of one run's CSV, report, stderr and exit code."""
    from gapfill.cli import main

    output, report = work / "filled.csv", work / "report.json"
    for stale in (output, report):
        stale.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        # as in a fresh process: each warning is printed to stderr once
        warnings.simplefilter("default")
        code = main(["impute", str(path), *options, "--output", str(output), "--report", str(report)])
    digest = hashlib.sha256()
    for piece in (output, report):
        digest.update(piece.read_bytes() if piece.exists() else b"")
        digest.update(b"\0")
    digest.update(stderr.getvalue().encode())
    digest.update(f"\0{code}".encode())
    return code, digest.hexdigest()


def lines(size: str = "full") -> list:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        return [f"{label} exit={code} {digest}" for label, path, options in matrix(size, work)
                for code, digest in [run(path, options, work)]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload input size (default: full)")
    args = parser.parse_args(argv)
    print("\n".join(lines(args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
