"""Gate on the speed of the CSV reader and writer.

``parse_csv`` and ``csv_blocks`` run against the cell-by-cell and
row-by-row loops kept as test references (``tests/test_series.py``), on
many_gaps_var's seed-1 input (20 000 rows, 3 columns, 1000 gaps, generated
read only by ``bench/workloads.py``). The runs alternate and each side keeps
its best of 20. A ratio of the two stands up to a shared runner where a
time in seconds would not. Both sides must give the same outputs, parse
must take at most PARSE_BOUND of its reference's time and write at most
WRITE_BOUND; 1.0 would mean a loop as slow as the reference.

Measured on a 2-core x86-64 Linux host with numpy 2.4.6: parse 0.61 with
each block split whole and 0.31-0.33 with the byte scan, write
0.087-0.103; the per-row reader and writer they replaced measured 0.62-0.77
and 0.12-0.13.

Prints one line ("ok: ..." or the problems found) and exits 1 when a gate
fails:

    PYTHONPATH=src python scripts/check_csv_speed.py
"""

from __future__ import annotations

import csv
import io
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
PARSE_BOUND = 0.5
WRITE_BOUND = 0.15
ROUNDS = 20


def main() -> int:
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    from test_series import parse_cells_by_row_loop, write_csv_by_row_loop
    from workloads import WORKLOADS, generate

    from gapfill.series import DEFAULT_NA_MARKERS, csv_blocks, parse_csv

    text = generate(WORKLOADS["many_gaps_var"], "full", 1)
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    series = parse_csv(text)
    filled = np.where(series.missing[:, None], np.arange(len(series))[:, None] / 7.0, series.data)
    sides = {
        "parse": (lambda: parse_csv(text),
                  lambda: parse_cells_by_row_loop(list(csv.reader(io.StringIO(text)))[1:],
                                                  range(len(header)), DEFAULT_NA_MARKERS)),
        "write": (lambda: "".join(csv_blocks(series, filled)),
                  lambda: write_csv_by_row_loop(header, body, header, ",", filled, 6)),
    }
    best = {(name, k): float("inf") for name in sides for k in (0, 1)}
    for _ in range(ROUNDS):
        for name, pair in sides.items():
            for k, side in enumerate(pair):
                start = time.perf_counter()
                side()
                best[name, k] = min(best[name, k], time.perf_counter() - start)
    ratios = {name: best[name, 0] / best[name, 1] for name in sides}
    data, missing = parse_cells_by_row_loop(body, range(len(header)), DEFAULT_NA_MARKERS)
    problems = []
    if (series.data.tobytes(), series.missing.tolist()) != (data.tobytes(), missing.tolist()):
        problems.append("parse_csv differs from the reference loop")
    if "".join(csv_blocks(series, filled)) != write_csv_by_row_loop(header, body, header, ",", filled, 6):
        problems.append("csv_blocks differs from the reference loop")
    for name, bound in (("parse", PARSE_BOUND), ("write", WRITE_BOUND)):
        if ratios[name] > bound:
            problems.append(f"{name} takes {ratios[name]:.3f} of the reference loop's time, "
                            f"expected at most {bound}")
    print("; ".join(problems) or "ok: same outputs, " + ", ".join(
        f"{name} {ratio:.3f} of the reference loop's time" for name, ratio in ratios.items()))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
