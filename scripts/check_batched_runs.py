"""Gates on benchmark runs of the workloads: the batched solve and
certification, the long AR gaps and the peak memory.

Each check reads files that the benchmark and the CLI wrote, prints one
line ("ok: ..." or the problems found) and exits 1 when a gate fails:

    paper REPORT STDERR
        a paper-mode ``gapfill impute`` run of many_gaps_var wrote nothing to
        stderr, certified every gap and kept its report within 1 MB;
    shared BENCH_JSON REPORT
        a traced ``bench/run.py`` run of many_gaps_var passed its output
        check and certified every gap with at most 2 SPD solves (one stack
        for the solver, one for the verifier), and the exact-mode report
        file is within 1 MB;
    refit BENCH_JSON
        a traced ``bench/run.py`` run of refit_ar passed its output check,
        certified every gap with at most 2 SPD solves, accounted for all of
        its time and traced its AR rolls as ``fitting.predict``;
    long BENCH_JSON
        a ``bench/run.py`` run of long_gap_ar passed its output check and
        certified both of its 600-step gaps;
    peaks VAR_BENCH_JSON AR_BENCH_JSON
        ``bench/run.py`` runs of many_gaps_var and long_gap_ar passed their
        output checks, and the first run's peak_rss_mb is at most PEAK_SPREAD_MB
        above the second's: both write their texts in bounded pieces, so the
        ~1.5 MB of many_gaps_var's CSV and report do not raise its peak.

The inputs are made as CI makes them, for example:

    python3 bench/run.py --workload refit_ar --seed 1 --seconds 0 --trace 1 | tail -n 1 > refit.json
    python3 scripts/check_batched_runs.py refit refit.json
"""

from __future__ import annotations

import json
import os
import sys

REPORT_BYTES = 1_000_000
SPD_CALLS = 2
PEAK_SPREAD_MB = 5.0


def _result(path: str) -> tuple[dict, list]:
    """A benchmark result's metric values, and the problem of its output check."""
    with open(path) as handle:
        result = json.load(handle)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return metrics, [] if result["correct"] is True else ["the run's output check failed"]


def _certified(path: str) -> tuple[dict, list]:
    """``_result``, and the problem of a gap left uncertified."""
    metrics, problems = _result(path)
    if metrics["oracle.certified_frac"] != 1.0:
        problems.append(f"oracle.certified_frac is {metrics['oracle.certified_frac']}, expected 1.0")
    return metrics, problems


def _metrics(path: str) -> tuple[dict, list]:
    """``_certified``, and the problem of more than SPD_CALLS SPD solves."""
    metrics, problems = _certified(path)
    if metrics["linalg.spd_calls"] > SPD_CALLS:
        problems.append(f"linalg.spd_calls is {metrics['linalg.spd_calls']}, expected at most {SPD_CALLS}")
    return metrics, problems


def paper(report_path: str, stderr_path: str) -> tuple[list, str]:
    with open(report_path) as handle:
        report = json.load(handle)
    with open(stderr_path) as handle:
        stderr = handle.read()
    problems = [f"paper mode wrote to stderr: {stderr!r}"] if stderr else []
    uncertified = sum(1 for gap in report["gaps"] if not (gap["oracle"] or {}).get("certified"))
    if uncertified or not report["gaps"]:
        problems.append(f"paper mode left {uncertified} of {len(report['gaps'])} gaps uncertified")
    size = os.path.getsize(report_path)
    if size > REPORT_BYTES:
        problems.append(f"the paper-mode report is {size} bytes, expected at most {REPORT_BYTES}")
    return problems, f"ok: paper mode certified every gap in {size} report bytes"


def shared(bench_path: str, report_path: str) -> tuple[list, str]:
    metrics, problems = _metrics(bench_path)
    # the report is streamed in pieces, which the tracer's report.bytes does not see
    size = os.path.getsize(report_path)
    if size > REPORT_BYTES:
        problems.append(f"report.bytes is {size}, expected at most {REPORT_BYTES}")
    return problems, f"ok: {metrics['linalg.spd_calls']} SPD solves, all gaps certified, {size} report bytes"


def refit(bench_path: str) -> tuple[list, str]:
    metrics, problems = _metrics(bench_path)
    # a sum of self times over the root time: 1.0 up to rounding
    if abs(metrics["trace.accounted_frac"] - 1.0) > 1e-9:
        problems.append(f"trace.accounted_frac is {metrics['trace.accounted_frac']}, expected 1.0")
    if not metrics["fitting.predict_s"] > 0:
        problems.append("fitting.predict_s is 0: the batched AR roll is not traced as fitting.predict")
    return problems, f"ok: {metrics['linalg.spd_calls']} SPD solves, all gaps certified, rolls traced"


def long(bench_path: str) -> tuple[list, str]:
    return _certified(bench_path)[1], "ok: both long gaps certified"


def peaks(var_path: str, ar_path: str) -> tuple[list, str]:
    runs = [(path, *_result(path)) for path in (var_path, ar_path)]
    problems = [f"{path} run's output check failed" for path, _, failed in runs if failed]
    high, low = (metrics["peak_rss_mb"] for _, metrics, _ in runs)
    if high - low > PEAK_SPREAD_MB:
        problems.append(f"many_gaps_var peaks at {high:.1f} MB, over {PEAK_SPREAD_MB:.0f} MB above "
                        f"long_gap_ar's {low:.1f} MB")
    return problems, f"ok: peaks {high:.1f} and {low:.1f} MB"


CHECKS = {"paper": paper, "shared": shared, "refit": refit, "long": long, "peaks": peaks}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    problems, ok = CHECKS[argv[0]](*argv[1:])
    print("; ".join(problems) or ok)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
