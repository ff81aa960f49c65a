"""Gate: reports of real gap lists render as ``json`` does.

``impute_series`` holds a run's gaps as columns, and ``to_json`` renders
the gap list from them, CHUNK gaps at a time through one template per gap
shape. On each benchmark workload's seed-1 input (generated read only by
``bench/workloads.py``), with default options, ``--mode paper`` and
``--refit-per-gap``, the rendered text must equal ``json.dumps`` of the
report's tree, first with the gap columns and then with the per-gap entries
that ``report.gaps`` builds from them. The render time against
``json.dumps`` (best of 5 each) is printed for information only.

Prints one line per run, then one line ("ok: ..." or the problems found),
and exits 1 when a report differs:

    PYTHONPATH=src python scripts/check_report_render.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = {"long_gap_ar": {"order": 3}, "many_gaps_var": {"model_kind": "var"}, "refit_ar": {"order": 2}}
VARIANTS = {"default": {}, "paper": {"mode": "paper"}, "refit": {"refit_per_gap": True}}


def dumps(tree) -> str:
    return json.dumps(tree, indent=2, default=lambda value: value.tolist()) + "\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, generate

    from gapfill.pipeline import ImputeOptions, impute_series
    from gapfill.series import parse_csv

    problems = []
    for name, model in MODELS.items():
        series = parse_csv(generate(WORKLOADS[name], "full", 1))
        for variant, extra in VARIANTS.items():
            report = impute_series(series, ImputeOptions(**model, **extra)).report
            # the gap columns, as the tree holds them until report.gaps is read
            tree = report.to_dict()
            sides = {"render": report.to_json, "json.dumps": lambda: dumps(tree)}
            best = dict.fromkeys(sides, float("inf"))
            for _ in range(5):
                for side, call in sides.items():
                    start = time.perf_counter()
                    call()
                    best[side] = min(best[side], time.perf_counter() - start)
            text = sides["render"]()
            if text != sides["json.dumps"]():
                problems.append(f"{name} {variant}: the report differs from json.dumps")
            if text != dumps(dict(tree, gaps=report.gaps)):
                problems.append(f"{name} {variant}: the report differs from json.dumps of its built gaps")
            print(f"{name} {variant}: {len(tree['gaps'])} gaps, render {best['render'] * 1e3:.1f} ms, "
                  f"json.dumps {best['json.dumps'] * 1e3:.1f} ms "
                  f"({best['render'] / best['json.dumps']:.2f})")
    print("; ".join(problems) or "ok: every report equals json.dumps of its tree and of its built gaps")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
