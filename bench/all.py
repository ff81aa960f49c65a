"""Run every workload of BENCHMARK.json and summarise the results.

    python3 bench/all.py --seeds 1,2,3 --seconds 20 [--trace]

For each workload it runs ``bench/run.py`` once per seed, prints each
end-to-end metric's median over the seeds with its spread (interquartile
range over median, the measure the bounds in BENCHMARK.json are checked
against) and ``fail_frac`` over all checked runs. With ``--trace`` it also
makes one traced run per workload, on the first seed, and prints its
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("FAIL "):
            print(f"{workload} seed {seed}: {line}")
    return json.loads(lines[-1])


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="comma-separated workload seeds (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            print(f"{workload} {metric['name']} = {statistics.median(values):.4f} {metric['unit']}  "
                  f"(median of {len(values)} seeds; spread {spread(values):.3f}, bound {metric['bound']})")
        if args.trace:
            results.append(run(workload, seeds[0], seconds, 1))
            for name, metric in results[-1]["metrics"].items():
                print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload} fail_frac = {failed / attempted:.4f} ratio  ({failed} of {attempted} checked runs)")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
