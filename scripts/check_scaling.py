"""Gate on how the cost of an ``impute`` run grows with its input.

Each benchmark workload's ``full`` shape (generated read only by
``bench/workloads.py``) is scaled 1x, 2x, 4x and 8x: its rows and its gap
list are multiplied and its prefix is kept, so every scaled input has the
same prefix fit window, as many times the gaps and room for all of them
(``generate`` raises a ValueError for a shape that does not fit its gaps).
At each size ``gapfill impute`` runs with the workload's options in this
process, from the seed-1 input file to a CSV file and a report file, and
keeps its best of 3 runs after an untimed one that lets caches fill and
lazy set-up finish; the cost per row is that time over the rows. A
run whose cost grows linearly with its input keeps its per-row cost, so
the gate fails when the per-row cost at 8x is more than SCALING_BOUND
times the cost at 1x on any workload.

Measured on a shared 2-core x86-64 Linux host with numpy 2.4.6, five runs:
8x/1x ratios of 0.29-0.77 (long_gap_ar), 0.72-1.36 (many_gaps_var) and
0.46-0.77 (refit_ar); a cost that grows with the square of the input would
read about 8.

Prints one line per workload, then "ok" or the problems found, and exits 1
when the gate fails:

    PYTHONPATH=src python scripts/check_scaling.py
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
FACTORS = (1, 2, 4, 8)
ROUNDS = 3
SCALING_BOUND = 2.0
SEED = 1


def scaled(workload, factor: int):
    """``workload`` with the one size "scaled": its full shape with ``factor``
    times the rows and the gaps, and the same prefix."""
    shape = workload.sizes["full"]
    shape = dataclasses.replace(shape, rows=factor * shape.rows, gap_lengths=factor * shape.gap_lengths)
    return dataclasses.replace(workload, sizes={"scaled": shape})


def best_time(argv: list) -> tuple[float, int]:
    """The best of ROUNDS in-process runs of ``gapfill`` with ``argv``,
    after an untimed one, and the exit code of the last."""
    from gapfill.cli import main

    best, code = float("inf"), main(argv)
    for _ in range(ROUNDS):
        start = time.perf_counter()
        code = main(argv)
        best = min(best, time.perf_counter() - start)
    return best, code


def main() -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, generate

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        for name, workload in WORKLOADS.items():
            costs = []
            for factor in FACTORS:
                sized = scaled(workload, factor)
                path = work / f"{name}-{factor}x.csv"
                path.write_text(generate(sized, "scaled", SEED))
                seconds, code = best_time(["impute", str(path), *workload.extra_args,
                                           "--output", str(work / "filled.csv"),
                                           "--report", str(work / "report.json")])
                if code != 0:
                    problems.append(f"{name} at {factor}x exited {code}")
                costs.append(seconds / sized.sizes["scaled"].rows)
            ratio = costs[-1] / costs[0]
            print(f"{name}: " + ", ".join(f"{factor}x {cost * 1e6:.2f}" for factor, cost in zip(FACTORS, costs))
                  + f" us per row; 8x/1x {ratio:.2f}")
            if ratio > SCALING_BOUND:
                problems.append(f"{name} costs {ratio:.2f} times as much per row at 8x as at 1x, "
                                f"expected at most {SCALING_BOUND}")
    print("; ".join(problems) or f"ok: every 8x/1x per-row cost ratio is at most {SCALING_BOUND}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
