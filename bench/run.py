"""Seeded end-to-end benchmark of ``gapfill impute``, with a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload many_gaps_var --seed 1 --seconds 30 --trace 0

It generates the workload's CSV from the seed, then

* ``--trace 0`` measures what a user sees: ``peak_rss_mb`` (a fresh
  ``python -m gapfill.cli impute`` process), ``impute_s`` (the median of
  in-process ``gapfill.cli.main(["impute", ...])`` runs for ``--seconds``
  after a warm-up) and ``setup_s`` (the median of fresh interpreters
  importing ``gapfill.cli``, one after each timed run). Both times are
  scaled to the host's reference speed by ``hostspeed.HostSpeed``;
* ``--trace 1`` alternates traced and untraced in-process runs for
  ``--seconds`` and reports the per-layer metrics of ``tracing.py``.

Every run's output is checked, outside the timed region, against the rules
in ``check_run``; a failed check makes the result ``"correct": false``. The
human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names and
units come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One process, one thread: BLAS pools are pinned before numpy is imported,
# here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_TIMED = 3      # in-process runs of each kind timed even when --seconds has run out
MAX_PRINTED_FAILURES = 20


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's self-test")
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------- checking


class Expected:
    """What every run of one input must produce, derived from the input and
    from the first (reference) run."""

    def __init__(self, input_text: str):
        lines = input_text.split("\n")
        self.header = lines[0]
        self.rows = lines[1:-1]
        self.csv = None
        self.report = None
        self.content_problems = []


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def content_problems(expected: Expected, csv_text: str, report_text: str) -> list:
    """What is wrong with one run's CSV and report, judged against the input alone."""
    out = csv_text.split("\n")
    if out[0] != expected.header + ",origin" or len(out) != len(expected.rows) + 2 or out[-1] != "":
        return ["output CSV header or row count differs from the input"]
    problems = []
    for i, (row, line) in enumerate(zip(expected.rows, out[1:]), start=1):
        if "NA" not in row:
            if line != row + ",observed":
                problems.append(f"row {i}: observed cells not echoed byte-for-byte")
                break
            continue
        cells = line.split(",")
        if cells[-1] != "imputed" or not all(_finite(c) for c in cells[:-1]):
            problems.append(f"row {i}: bad imputed row {line[:80]!r}")
            break
    try:
        gaps = json.loads(report_text)["gaps"]
    except (ValueError, KeyError):
        return problems + ["report is not a JSON run report"]
    uncertified = [g["start"] for g in gaps
                   if g["constrained"] and not (g["oracle"] and g["oracle"]["certified"])]
    if uncertified:
        problems.append(f"{len(uncertified)} constrained gaps not certified, first at index {uncertified[0]}")
    return problems


def check_run(expected: Expected, rc: int, stderr: str, csv_text: str, report_text: str) -> list:
    """Reasons the run failed; empty when it passed.

    A run fails on a nonzero exit, on any stderr output (Python warnings
    included), on an observed row not echoed byte-for-byte, on an imputed
    cell that is not a finite number, on a constrained gap that is not
    certified, or on a CSV or report that differs from the reference run.
    """
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[:200]}"]
    problems = []
    if stderr:
        problems.append(f"stderr: {stderr.strip().splitlines()[0][:200]}")
    if expected.csv is None:
        expected.csv, expected.report = csv_text, report_text
        expected.content_problems = content_problems(expected, csv_text, report_text)
    if csv_text == expected.csv and report_text == expected.report:
        # the same bytes as the reference run get the same verdict on content
        return problems + expected.content_problems
    problems += content_problems(expected, csv_text, report_text)
    if csv_text != expected.csv:
        problems.append("CSV differs from the reference run")
    if report_text != expected.report:
        problems.append("report differs from the reference run")
    return problems


class Tally:
    """Runs checked so far, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, what: str, problems: list) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{what}: {p}" for p in problems]


# ---------------------------------------------------------------- running


def time_import() -> float:
    """Wall time of one fresh interpreter importing gapfill.cli."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import gapfill.cli"], env=child_env(), check=True)
    return perf_counter() - start


def fresh_impute(argv: list, work: Path) -> tuple[int, str, str, str, float]:
    """One ``python -m gapfill.cli impute`` process; returns its outputs and peak RSS in MB."""
    err_path = work / "child.err"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "gapfill.cli", *argv], env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, err_path.read_text(), *read_outputs(work), usage.ru_maxrss / 1024.0)


def read_outputs(work: Path) -> tuple[str, str]:
    texts = []
    for name in ("out.csv", "report.json"):
        path = work / name
        texts.append(path.read_text() if path.exists() else "")
        path.unlink(missing_ok=True)
    return texts[0], texts[1]


def run_in_process(main, argv: list, work: Path, tracer=None) -> tuple[int, str, str, str, float]:
    """One ``gapfill.cli.main`` call; stderr and Python warnings are captured, not printed.

    An exception that escapes ``main`` counts as exit code 1 with one line on
    stderr, which is how the command-line entry point would end.
    """
    err = io.StringIO()
    gc.collect()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = perf_counter()
        try:
            rc = main(argv) if tracer is None else tracer.call(main, argv)
        except Exception as exc:
            rc = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = perf_counter() - start
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return (rc, stderr, *read_outputs(work), elapsed)


def main(argv=None) -> int:
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    if not (SRC / "gapfill" / "cli.py").is_file():
        print(f"error: no gapfill sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(SRC))

    import numpy as np
    import gapfill
    import gapfill.cli
    from hostspeed import PROBE_REF_S, HostSpeed
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, generate

    if Path(gapfill.__file__).resolve().parent != SRC / "gapfill":
        print(f"error: imported gapfill from {gapfill.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_text = generate(workload, args.size, args.seed)
    input_path = work / "input.csv"
    input_path.write_text(input_text)
    sha256 = hashlib.sha256(input_text.encode()).hexdigest()
    cli_argv = ["impute", str(input_path), "--output", str(work / "out.csv"),
                "--report", str(work / "report.json"), *workload.extra_args]

    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    print(f"workload {workload.name} ({args.size}): {why}")
    print(f"machine: nproc={len(os.sched_getaffinity(0))} arch={platform.machine()} "
          f"python={platform.python_version()} numpy={np.__version__}")

    expected = Expected(input_text)
    tally = Tally()

    # The reference run, through the real entry point in a fresh process; it
    # also gives peak_rss_mb, which varies by well under 1% between processes.
    rc, stderr, csv_text, report_text, peak_rss_mb = fresh_impute(cli_argv, work)
    tally.add("fresh process", check_run(expected, rc, stderr, csv_text, report_text))

    tracer = Tracer()
    main_fn = gapfill.cli.main
    with tracer.installed():
        rc, stderr, csv_text, report_text, _ = run_in_process(main_fn, cli_argv, work, tracer)
    tally.add("warm-up", check_run(expected, rc, stderr, csv_text, report_text))
    counts = layer_metrics(tracer.runs[0])
    print(f"input: seed={args.seed} sha256={sha256} series.rows={counts['series.rows']} "
          f"pipeline.gaps={counts['pipeline.gaps']} control.steps={counts['control.steps']} "
          f"fitting.fit_rows={counts['fitting.fit_rows']}")

    # With --trace 0 each timed run is followed by a fresh-interpreter import
    # (setup_s), and host-speed probes bracket each of the two.
    speed = None
    if args.trace == 0:
        time_import()  # writes the bytecode cache; untimed
        speed = HostSpeed()
    untraced, traced, scaled, setup = [], [], [], []
    deadline = perf_counter() + args.seconds
    while (perf_counter() < deadline or len(untraced) < MIN_TIMED
           or (args.trace == 1 and len(traced) < MIN_TIMED)):
        use_tracer = args.trace == 1 and len(traced) <= len(untraced)
        with tracer.installed() if use_tracer else contextlib.nullcontext():
            rc, stderr, csv_text, report_text, elapsed = run_in_process(
                main_fn, cli_argv, work, tracer if use_tracer else None)
        (traced if use_tracer else untraced).append(elapsed)
        if speed is not None:
            scaled.append(speed.scale(elapsed))
            setup.append(speed.scale(time_import()))
        tally.add(f"{'traced' if use_tracer else 'timed'} run {len(traced) + len(untraced)}",
                  check_run(expected, rc, stderr, csv_text, report_text))

    q1, raw_s, q3 = statistics.quantiles(untraced, n=4)
    print(f"wall time = {raw_s:.4f} s  (median of {len(untraced)} runs; quartiles {q1:.4f} .. {q3:.4f})")
    if args.trace == 0:
        q1, impute_s, q3 = statistics.quantiles(scaled, n=4)
        metrics = {
            "impute_s": impute_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        probe_s = statistics.median(speed.probes)
        print(f"host speed = {PROBE_REF_S / probe_s:.3f} of reference  "
              f"(median probe {probe_s * 1000:.2f} ms over {len(speed.probes)} probes; reference {PROBE_REF_S * 1000:.2f} ms)")
        print(f"impute_s = {impute_s:.4f} s  (at reference speed; median of {len(scaled)} runs; "
              f"quartiles {q1:.4f} .. {q3:.4f})")
        print(f"setup_s = {metrics['setup_s']:.4f} s  (at reference speed; median of {len(setup)} fresh interpreters)")
        print(f"peak_rss_mb = {peak_rss_mb:.1f} MB  (one fresh process)")
    else:
        per_run = [layer_metrics(spans) for spans in tracer.runs[1:]]
        # median_low keeps counts whole when the number of traced runs is even
        metrics = {name: statistics.median_low(m[name] for m in per_run) for name in per_run[0]}
        metrics["trace.impute_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.impute_s"] - raw_s
        metrics["trace.runs"] = len(traced)
        for name in sorted(metrics):
            print(f"{name} = {metrics[name]!r} {units(spec, 'per_layer').get(name, '?')}")
        with open(work / "spans.jsonl", "w") as handle:
            for run, spans in enumerate(tracer.runs):
                for span in spans:
                    handle.write(json.dumps([run, *span]) + "\n")

    print(f"fail_frac = {tally.failed / tally.attempted:.4f} ratio  "
          f"({tally.failed} of {tally.attempted} checked runs failed)")
    for failure in tally.failures[:MAX_PRINTED_FAILURES]:
        print(f"FAIL {failure}")
    if len(tally.failures) > MAX_PRINTED_FAILURES:
        print(f"FAIL ... and {len(tally.failures) - MAX_PRINTED_FAILURES} more")

    declared = units(spec, "end_to_end" if args.trace == 0 else "per_layer")
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in sorted(metrics.items())},
    }
    (work / "record.json").write_text(json.dumps(
        {"workload": workload.name, "size": args.size, "seed": args.seed, "input_sha256": sha256,
         "counts": {k: counts[k] for k in ("series.rows", "pipeline.gaps", "control.steps",
                                           "fitting.fit_rows")},
         **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
