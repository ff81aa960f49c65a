"""The benchmark tracer's boundaries still name functions of gapfill.

``bench/tracing.py`` patches, for each entry of its ``BOUNDARIES``, the
function that a gapfill module looks up by that name, and the benchmark
steps in CI run with tracing on. A renamed or removed function would only
fail there; these tests install the tracer against the package under test
instead. They read ``bench/`` and change nothing in it.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from gapfill.pipeline import ImputeOptions, impute_series
from gapfill.series import Series

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("gapfill_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched(boundary):
    """The object a boundary patches and the attribute name it sets."""
    module_name, attribute = boundary[:2]
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_every_boundary_is_wrapped_and_restored(tracing):
    targets = [patched(boundary) for boundary in tracing.BOUNDARIES]
    originals = [getattr(owner, leaf) for owner, leaf in targets]
    with tracing.Tracer().installed():
        for (owner, leaf), original in zip(targets, originals):
            assert getattr(owner, leaf) is not original, f"{owner.__name__}.{leaf} is not wrapped"
    for (owner, leaf), original in zip(targets, originals):
        assert getattr(owner, leaf) is original, f"{owner.__name__}.{leaf} is not restored"


def test_refit_sweep_is_timed_as_least_squares(tracing):
    # the prefix fit and the refit sweep each make one least-squares call
    rng = np.random.default_rng(2)
    x = [0.0]
    for _ in range(59):
        x.append(0.6 * x[-1] + 1.0 + rng.standard_normal())
    values = [None if t in (20, 21, 40) else v for t, v in enumerate(x)]
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.call(impute_series, Series.from_values(values),
                    ImputeOptions(order=2, refit_per_gap=True))
    (spans,) = tracer.runs
    assert tracing.layer_metrics(spans)["linalg.lstsq_calls"] == 2


def test_refit_ar_rolls_once_per_run(tracing):
    # six AR(2) refit gaps of three lengths are solved as one stack, which
    # rolls every forecast in one call and every corrected fill in another,
    # each path to its own length
    rng = np.random.default_rng(5)
    x = [0.0, 0.0]
    for _ in range(118):
        x.append(0.5 * x[-1] - 0.2 * x[-2] + 1.0 + rng.standard_normal())
    gaps = {20: 1, 35: 2, 50: 3, 65: 1, 80: 2, 95: 3}
    values = [None if any(start <= t < start + n for start, n in gaps.items()) else v
              for t, v in enumerate(x)]
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.call(impute_series, Series.from_values(values),
                    ImputeOptions(order=2, refit_per_gap=True))
    (spans,) = tracer.runs
    assert [span[0] for span in spans].count("fitting.predict") == 2
    assert tracing.layer_metrics(spans)["fitting.predict_s"] > 0


def _refit_var_spans(tracing):
    """The spans of six VAR(1) refit gaps of three lengths, and the run's result."""
    rng = np.random.default_rng(6)
    a = np.array([[0.5, 0.2], [-0.1, 0.4]])
    x = [np.zeros(2)]
    for _ in range(119):
        x.append(a @ x[-1] + 1.0 + rng.standard_normal(2))
    gaps = {20: 1, 35: 2, 50: 3, 65: 1, 80: 2, 95: 3}
    values = [None if any(start <= t < start + n for start, n in gaps.items()) else v
              for t, v in enumerate(x)]
    tracer = tracing.Tracer()
    with tracer.installed():
        result = tracer.call(impute_series, Series.from_values(values),
                             ImputeOptions(model_kind="var", refit_per_gap=True))
    (spans,) = tracer.runs
    return [span[0] for span in spans], result


def test_refit_var_rolls_once_per_run(tracing):
    # the six gaps of three lengths are one stack, which rolls every
    # forecast, and every corrected fill, in one stacked call to the longest
    names, result = _refit_var_spans(tracing)
    assert names.count("fitting.predict") == 2
    assert all(gap["oracle"]["certified"] for gap in result.report.gaps)


def test_refit_var_builds_powers_once_per_run(tracing):
    # the stack builds the power tables of all its gaps' models in one call
    names, _ = _refit_var_spans(tracing)
    assert names.count("linalg.pow") == 1


def test_refit_regression_predicts_once_per_length_batch(tracing):
    # six regression refit gaps of three lengths are one stack, but a
    # regression's forecast is a matmul over a gap's covariate rows, whose
    # bits depend on the row count: each length predicts its gaps from one
    # stack of covariate rows
    rng = np.random.default_rng(7)
    x = rng.standard_normal((120, 2)).cumsum(axis=0)
    y = x @ np.array([1.5, -0.5]) + 2.0 + 0.1 * rng.standard_normal(120)
    gaps = {20: 1, 35: 2, 50: 3, 65: 1, 80: 2, 95: 3}
    values = [None if any(start <= t < start + n for start, n in gaps.items()) else v
              for t, v in enumerate(y)]
    tracer = tracing.Tracer()
    with tracer.installed():
        result = tracer.call(impute_series, Series.from_values(values),
                             ImputeOptions(model_kind="regression", refit_per_gap=True),
                             Series.from_values(list(x)))
    (spans,) = tracer.runs
    assert [span[0] for span in spans].count("fitting.predict") == 3
    assert len(result.report.gaps) == 6
