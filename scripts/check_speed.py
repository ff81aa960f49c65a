"""Gates on the speed of gapfill's kernels, its CSV layer and its whole runs.

Every check times through ``_best``: its sides alternate and each keeps its
best of ROUNDS (of SCALING_ROUNDS for ``scaling``). A ratio of two best
times stands up to a shared runner where a time in seconds would not. Each
check prints its lines, then one line ("ok: ..." or the problems found),
and exits 1 when its gate fails:

    ar
        ``fitting.roll_ar`` against the per-step reversed-zip loop
        (``tests/test_fitting.py``) on a 2-path, 1200-step AR(3) stack with
        1198 controls, the kernel given arrays and the loop lists: the same
        bits in at most AR_BOUND of the loop's time (0.45-0.55 measured;
        1.0 would mean the gain is gone);
    refit
        ``fitting.roll_ar`` against the same loop run once per step count
        on a 200-path AR(2) stack of 1-7 steps each with 6 controls, the
        shape of a ``--refit-per-gap`` run's corrected fills: the same bits
        in at most REFIT_BOUND of the loop's time (0.11-0.16 measured with
        all its paths stepped together, 0.97-1.34 when rolled path by path);
    powers
        ``oracle.build_problem``'s doubling table against the
        one-product-per-step loop (``tests/test_oracle.py``) on a 1200-step
        AR(3): the two multiply in different orders, so they must agree to
        rtol 1e-12, in at most POWERS_BOUND of the loop's time (0.06-0.07);
    csv
        ``parse_csv`` and ``csv_blocks`` against the cell-by-cell and
        row-by-row loops (``tests/test_series.py``) on many_gaps_var's
        seed-1 input (20 000 rows, 3 columns, 1000 gaps): the same outputs,
        parse in at most PARSE_BOUND of its reference's time (0.31-0.35
        with the byte scan, 0.61 with each block split whole) and write in
        at most WRITE_BOUND (0.087-0.103);
    scaling
        each workload's ``full`` shape scaled 1x, 2x, 4x and 8x: its rows
        and gap list multiplied and its prefix kept, so every size has the
        same prefix fit window and room for all its gaps. Each size is
        timed as in-process ``gapfill impute`` runs with the workload's
        options after an untimed run that lets caches fill; one line per
        workload. The per-row cost at 8x may be at most SCALING_BOUND times
        that at 1x (0.29-1.36 measured; a cost that grows with the square
        of the input would read about 8);
    certify
        in-process ``gapfill impute`` runs of each workload's seed-1 input
        with its options, one untimed and then ROUNDS timed, with
        ``pipeline._solve_gaps`` and ``pipeline._certify_batch`` (each
        called once per run) wrapped by a timer; one line per workload with
        each stage's best time. Certification may take at most
        CERTIFY_BOUND times the solve it checks (0.33-0.35 on long_gap_ar,
        0.56-0.59 on many_gaps_var, 0.87-0.91 on refit_ar).

The inputs are generated read only by ``bench/workloads.py``. Measured on a
shared 2-core x86-64 Linux host with numpy 2.4.6.

Usage: PYTHONPATH=src python scripts/check_speed.py ar|refit|powers|csv|scaling|certify
"""

from __future__ import annotations

import csv
import dataclasses
import io
import pathlib
import random
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
AR_BOUND = 0.8
REFIT_BOUND = 0.4
POWERS_BOUND = 0.25
PARSE_BOUND = 0.5
WRITE_BOUND = 0.15
SCALING_BOUND = 2.0
CERTIFY_BOUND = 2.0
ROUNDS = 20
SCALING_ROUNDS = 3
FACTORS = (1, 2, 4, 8)


def _best(sides: dict, rounds: int) -> dict:
    """Each side's best time of ``rounds``, the sides alternating."""
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(rounds):
        for name, side in sides.items():
            start = time.perf_counter()
            side()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def _roll_ar_gate(kernel, loop, bound: float) -> tuple[list, str]:
    """The gate of a ``roll_ar`` call that must give its reference loop's
    bits in at most ``bound`` of its time."""
    best = _best({"kernel": kernel, "loop": loop}, ROUNDS)
    ratio = best["kernel"] / best["loop"]
    problems = []
    if kernel().tobytes() != loop().tobytes():
        problems.append("roll_ar's bits differ from the reference loop")
    if ratio > bound:
        problems.append(f"roll_ar takes {ratio:.2f} of the reference loop's time, expected at most {bound}")
    return problems, f"ok: same bits, {ratio:.2f} of the reference loop's time"


def ar() -> tuple[list, str]:
    import numpy as np
    from test_fitting import roll_ar_by_reversed_zip

    from gapfill.fitting import roll_ar

    rng = random.Random(19)
    loop = ([(0.6, -0.25, 0.3), (1.1, -0.5, 0.2)], [0.4, -1.3],
            [[rng.uniform(-3, 3) for _ in range(3)] for _ in range(2)], 1200,
            [[rng.gauss(0, 1) for _ in range(1198)] for _ in range(2)])
    # the kernel takes arrays, as a Models holds them, the loop Python floats
    kernel = tuple(np.array(arg) if isinstance(arg, list) else arg for arg in loop)
    return _roll_ar_gate(lambda: roll_ar(*kernel), lambda: roll_ar_by_reversed_zip(*loop), AR_BOUND)


def refit() -> tuple[list, str]:
    import numpy as np
    from test_fitting import roll_each_by_reversed_zip

    from gapfill.fitting import roll_ar

    rng = np.random.default_rng(23)
    lags = np.column_stack([rng.uniform(-1, 1, 200), rng.uniform(-0.5, 0.5, 200)])
    intercepts, seeds = rng.uniform(-1, 1, 200), rng.uniform(-3, 3, (200, 2))
    counts, controls = rng.integers(1, 8, 200).tolist(), rng.standard_normal((200, 6))
    # the kernel takes the arrays a Models holds, the loop Python floats
    kernel = (lags, intercepts, seeds, counts, controls)
    loop = (lags.tolist(), intercepts.tolist(), seeds.tolist(), counts, controls.tolist())
    return _roll_ar_gate(lambda: roll_ar(*kernel), lambda: roll_each_by_reversed_zip(*loop), REFIT_BOUND)


def powers() -> tuple[list, str]:
    from test_oracle import assert_powers_close, descending_powers_by_product

    from gapfill.fitting import ArModel, Models
    from gapfill.oracle import _transition_matrix, build_problem

    model = ArModel(a=(0.6, -0.25, 0.3), b=0.0)
    sides = {
        "doubling": lambda: build_problem(model, 1200, 1.0).steps,
        "by_product": lambda: descending_powers_by_product(_transition_matrix(Models.of([model]))[0],
                                                           1200)[:, :1, :1],
    }
    best = _best(sides, ROUNDS)
    ratio = best["doubling"] / best["by_product"]
    problems = []
    try:
        assert_powers_close(sides["doubling"](), sides["by_product"](), rtol=1e-12)
    except AssertionError:
        problems.append("build_problem's steps differ from the reference loop beyond rtol 1e-12")
    if ratio > POWERS_BOUND:
        problems.append(f"build_problem takes {ratio:.2f} of the reference loop's time, "
                        f"expected at most {POWERS_BOUND}")
    return problems, f"ok: agree to rtol 1e-12, {ratio:.2f} of the reference loop's time"


def csv_io() -> tuple[list, str]:
    import numpy as np
    from test_series import parse_cells_by_row_loop, write_csv_by_row_loop
    from workloads import WORKLOADS, generate

    from gapfill.series import DEFAULT_NA_MARKERS, csv_blocks, parse_csv

    text = generate(WORKLOADS["many_gaps_var"], "full", 1)
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    series = parse_csv(text)
    filled = np.where(series.missing[:, None], np.arange(len(series))[:, None] / 7.0, series.data)
    best = _best({
        "parse": lambda: parse_csv(text),
        "parse loop": lambda: parse_cells_by_row_loop(list(csv.reader(io.StringIO(text)))[1:],
                                                      range(len(header)), DEFAULT_NA_MARKERS),
        "write": lambda: "".join(csv_blocks(series, filled)),
        "write loop": lambda: write_csv_by_row_loop(header, body, header, ",", filled, 6),
    }, ROUNDS)
    ratios = {name: best[name] / best[f"{name} loop"] for name in ("parse", "write")}
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
    return problems, "ok: same outputs, " + ", ".join(
        f"{name} {ratio:.3f} of the reference loop's time" for name, ratio in ratios.items())


def _impute(text: str, workload, rounds: int) -> tuple[int, float]:
    """The exit code of an untimed in-process ``gapfill impute`` of ``text``
    with ``workload``'s options, and the best time of ``rounds`` more."""
    from gapfill.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        (work / "input.csv").write_text(text)
        argv = ["impute", str(work / "input.csv"), *workload.extra_args,
                "--output", str(work / "filled.csv"), "--report", str(work / "report.json")]
        return main(argv), _best({"run": lambda: main(argv)}, rounds)["run"]


def scaling() -> tuple[list, str]:
    from workloads import WORKLOADS, generate

    problems = []
    for name, workload in WORKLOADS.items():
        costs = []
        for factor in FACTORS:
            full = workload.sizes["full"]
            shape = dataclasses.replace(full, rows=factor * full.rows, gap_lengths=factor * full.gap_lengths)
            sized = dataclasses.replace(workload, sizes={"scaled": shape})
            code, seconds = _impute(generate(sized, "scaled", 1), workload, SCALING_ROUNDS)
            if code != 0:
                problems.append(f"{name} at {factor}x exited {code}")
            costs.append(seconds / shape.rows)
        ratio = costs[-1] / costs[0]
        print(f"{name}: " + ", ".join(f"{factor}x {cost * 1e6:.2f}" for factor, cost in zip(FACTORS, costs))
              + f" us per row; 8x/1x {ratio:.2f}")
        if ratio > SCALING_BOUND:
            problems.append(f"{name} costs {ratio:.2f} times as much per row at 8x as at 1x, "
                            f"expected at most {SCALING_BOUND}")
    return problems, f"ok: every 8x/1x per-row cost ratio is at most {SCALING_BOUND}"


def certify() -> tuple[list, str]:
    from workloads import WORKLOADS, generate

    from gapfill import pipeline

    names = {"solve": "_solve_gaps", "certify": "_certify_batch"}
    originals = {stage: getattr(pipeline, name) for stage, name in names.items()}
    times = {stage: [] for stage in names}

    def timed(stage):
        def call(*args):
            start = time.perf_counter()
            result = originals[stage](*args)
            times[stage].append(time.perf_counter() - start)
            return result
        return call

    problems = []
    try:
        for stage, name in names.items():
            setattr(pipeline, name, timed(stage))
        for name, workload in WORKLOADS.items():
            for column in times.values():
                column.clear()
            code, _ = _impute(generate(workload, "full", 1), workload, ROUNDS)
            if code != 0:
                problems.append(f"{name} exited {code}")
            best = {stage: min(column[1:]) for stage, column in times.items()}  # past the untimed run
            ratio = best["certify"] / best["solve"]
            print(f"{name}: solve {best['solve'] * 1e3:.2f} ms, certify {best['certify'] * 1e3:.2f} ms; "
                  f"certify/solve {ratio:.2f}")
            if ratio > CERTIFY_BOUND:
                problems.append(f"{name}'s certification takes {ratio:.2f} times its solve, "
                                f"expected at most {CERTIFY_BOUND}")
    finally:
        for stage, name in names.items():
            setattr(pipeline, name, originals[stage])
    return problems, f"ok: every certify/solve ratio is at most {CERTIFY_BOUND}"


CHECKS = {"ar": ar, "refit": refit, "powers": powers, "csv": csv_io, "scaling": scaling, "certify": certify}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    problems, ok = CHECKS[argv[0]]()
    print("; ".join(problems) or ok)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
