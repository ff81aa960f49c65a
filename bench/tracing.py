"""Per-layer tracing of one ``gapfill impute`` run, from outside the program.

The tracer replaces the public functions each module calls across a layer
boundary with wrappers that record a span (name, parent, start, end and a
small piece of information about the call). Spans stay in memory; the
benchmark writes them out when it ends. Nothing under ``src/`` knows about
tracing: the wrappers are installed by patching the names the calling
module looks up, and removed again after the run.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter

import numpy as np

ROOT_SPAN = "cli.main"


# (calling module, attribute it looks up, span name, info taken from the call).
# A span name is "<layer>.<operation>"; the layer is a module of src/gapfill.
# Functions are patched where they are looked up, so internal calls inside a
# layer (fit_ar_scalar -> fit_ar_lagged) are not double counted.
BOUNDARIES = (
    ("gapfill.cli", "parse_csv", "series.parse", lambda args, result: len(result)),
    ("gapfill.cli", "impute_series", "pipeline.impute", None),
    ("gapfill.pipeline", "detect_gaps", "series.detect", lambda args, result: len(result[1])),
    ("gapfill.pipeline", "write_csv", "series.write", None),
    # the info of a fit is its number of equations
    ("gapfill.pipeline", "fit_ar_scalar", "fitting.fit", lambda args, result: len(args[0]) - args[1]),
    ("gapfill.pipeline", "fit_ar_lagged", "fitting.fit", lambda args, result: len(args[0])),
    ("gapfill.pipeline", "fit_var1", "fitting.fit", lambda args, result: len(args[0]) - 1),
    ("gapfill.pipeline", "fit_var_pairs", "fitting.fit", lambda args, result: len(args[0])),
    ("gapfill.pipeline", "fit_regression", "fitting.fit", lambda args, result: len(args[0])),
    ("gapfill.pipeline", "predict_forward", "fitting.predict", None),
    ("gapfill.control", "predict_forward", "fitting.predict", None),
    ("gapfill.pipeline", "impute_gap_ar", "control.solve", lambda args, result: len(result.control_indices)),
    ("gapfill.pipeline", "impute_gap_var", "control.solve", lambda args, result: len(result.control_indices)),
    ("gapfill.pipeline", "impute_gap_regression", "control.solve",
     lambda args, result: len(result.control_indices)),
    ("gapfill.pipeline", "build_problem", "oracle.build", None),
    ("gapfill.pipeline", "certify", "oracle.certify", lambda args, result: int(result.passed)),
    ("gapfill.control", "solve_spd", "linalg.spd", lambda args, result: int(result.fallback)),
    ("gapfill.oracle", "solve_spd", "linalg.spd", lambda args, result: int(result.fallback)),
    ("gapfill.control", "mat_pow_table", "linalg.pow", None),
    ("gapfill.fitting", "least_squares", "linalg.lstsq", None),
    ("gapfill.pipeline", "gap_entry", "report.entry", None),
    ("gapfill.report", "ImputationReport.to_json", "report.json", lambda args, result: len(result)),
)


class Tracer:
    """Records the spans of traced runs; one list of spans per run."""

    def __init__(self):
        self.runs = []      # per run, its spans: [name, parent index or -1, start, end, info]
        self._spans = None
        self._stack = []

    def _wrap(self, name, func, info):
        def traced(*args, **kwargs):
            spans = self._spans
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            index = len(spans)
            spans.append(span)
            self._stack.append(index)
            span[2] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block, then restore it."""
        saved = []
        try:
            for module_name, attribute, name, info in BOUNDARIES:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original, info))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def call(self, func, *args):
        """Run ``func(*args)`` as the root span of a new traced run."""
        self._spans = []
        self.runs.append(self._spans)
        wrapped = self._wrap(ROOT_SPAN, func, None)
        try:
            return wrapped(*args)
        finally:
            self._spans = None
            self._stack.clear()


def _self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(spans)]


# Metrics that are the self time of one kind of span; together they cover
# every span, so their sum is the duration of the root span.
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "series.parse_s": "series.parse",
    "series.detect_s": "series.detect",
    "series.write_s": "series.write",
    "pipeline.self_s": "pipeline.impute",
    "fitting.fit_s": "fitting.fit",
    "fitting.predict_s": "fitting.predict",
    "control.solve_s": "control.solve",
    "oracle.build_s": "oracle.build",
    "oracle.certify_s": "oracle.certify",
    "linalg.spd_s": "linalg.spd",
    "linalg.pow_s": "linalg.pow",
    "linalg.lstsq_s": "linalg.lstsq",
    "report.entry_s": "report.entry",
    "report.json_s": "report.json",
}


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one traced run, keyed by benchmark metric name."""
    self_s, busy_s, calls, info_sum = {}, {}, {}, {}
    solve_ms = []
    root_s = 0.0
    for (name, parent, start, end, info), own in zip(spans, _self_times(spans)):
        self_s[name] = self_s.get(name, 0.0) + own
        busy_s[name] = busy_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if info is not None:
            info_sum[name] = info_sum.get(name, 0) + info
        if name == "control.solve":
            solve_ms.append((end - start) * 1e3)
        if parent == -1:
            root_s += end - start
    metrics = {metric: self_s.get(name, 0.0) for metric, name in SELF_TIMES.items()}
    gap_p50, gap_p99 = np.percentile(solve_ms, [50, 99]) if solve_ms else (0.0, 0.0)
    oracle_busy = busy_s.get("oracle.build", 0.0) + busy_s.get("oracle.certify", 0.0)
    metrics.update({
        "series.rows": info_sum.get("series.parse", 0),
        "pipeline.gaps": info_sum.get("series.detect", 0),
        "fitting.fit_calls": calls.get("fitting.fit", 0),
        "fitting.fit_rows": info_sum.get("fitting.fit", 0),
        "control.calls": calls.get("control.solve", 0),
        "control.steps": info_sum.get("control.solve", 0),
        "control.gap_p50_ms": float(gap_p50),
        "control.gap_p99_ms": float(gap_p99),
        "oracle.over_control": oracle_busy / max(metrics["control.solve_s"], 1e-12),
        "oracle.certified_frac": info_sum.get("oracle.certify", 0) / max(calls.get("oracle.certify", 0), 1),
        "linalg.spd_calls": calls.get("linalg.spd", 0),
        "linalg.spd_fallbacks": info_sum.get("linalg.spd", 0),
        "linalg.lstsq_calls": calls.get("linalg.lstsq", 0),
        "report.bytes": info_sum.get("report.json", 0),
        "trace.spans": len(spans),
        "trace.accounted_frac": sum(metrics[m] for m in SELF_TIMES) / root_s,
    })
    return metrics
