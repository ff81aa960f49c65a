"""Argument checks of the library's inner calls: each raises its own type
and message.

These are the raises that no run of ``gapfill`` and no other test reaches,
because every caller in the package passes well-formed arguments; here each
is called directly with the argument it rejects.
"""

import numpy as np
import pytest

from gapfill import control
from gapfill.control import impute_gaps, impute_stacks, solve_controls
from gapfill.errors import DataError, NumericalError
from gapfill.fitting import fit_ar_lagged, fit_var_pairs, predict_forward
from gapfill.linalg import least_squares, solve_spd
from gapfill.models import ArModel, RegModel, VarModel
from gapfill.oracle import ConstrainedProblem, build_problem
from gapfill.report import describe_model
from gapfill.series import Series, detect_gaps
from gapfill.weights import gamma_weights, step_norm_differences

AR = ArModel(a=(0.5,), b=0.0)


def series(values):
    return Series.from_values(values)


def bare_series(data, missing):
    return Series(data=data, missing=missing, header=("a",), lines=(), value_columns=(0,))


CASES = {
    "fit_ar_lagged-1d": (lambda: fit_ar_lagged([1.0, 2.0], [1.0, 2.0]),
                         DataError, "lag rows must form a 2-D array"),
    "fit_var_pairs-shapes": (lambda: fit_var_pairs(np.ones((3, 2)), np.ones((3, 3))),
                             DataError, "pair rows must align: previous and current shapes differ"),
    "predict_forward-steps": (lambda: predict_forward(AR, [1.0], -1), ValueError, "steps must be >= 0"),
    "predict_forward-var-seed": (
        lambda: predict_forward(VarModel(A=np.eye(2), b=[0.0, 0.0]), [1.0, 2.0, 3.0], 2),
        DataError, "seed must have 2 components, got shape (3,)"),
    "predict_forward-covariates": (
        lambda: predict_forward(RegModel(A=[[1.0, 2.0]], b=[0.0]), None, 2, covariates=np.ones((2, 3))),
        DataError, "covariate rows have 3 columns, model expects 2"),
    "solve_controls-blocks": (
        lambda: solve_controls(np.ones((2, 2)), [1.0]),
        ValueError, "blocks must be a nonempty stack of square matrices of one dimension"),
    "solve_controls-delta": (lambda: solve_controls([1.0, 0.5], [[[1.0]]]),
                             ValueError, "delta has shape (1, 1, 1), expected (1,) or (g, 1)"),
    "impute_gaps-open": (
        lambda: impute_gaps(AR, detect_gaps(series([1.0, 2.0, None]), 1, True)[1], [[2.0]], [0.0]),
        ValueError, "gap has no anchor; use the open-gap prediction path"),
    "solve_spd-square": (lambda: solve_spd(np.ones((2, 3)), [[1.0, 2.0, 3.0]]),
                         ValueError, "expected a square matrix, got 2x3"),
    "least_squares-ndim": (lambda: least_squares(np.ones(3), np.ones(3), [3]), ValueError,
                           "expected a 2-D design and 1-D or 2-D targets, got shapes (3,) and (3,)"),
    "least_squares-rows": (lambda: least_squares(np.ones((3, 1)), np.ones(4), [3]),
                           ValueError, "dimension mismatch: design has 3 rows, target has 4"),
    "VarModel-intercept-shape": (lambda: VarModel(A=np.eye(2), b=[1.0]),
                                 ValueError, "b must have shape (2,), got (1,)"),
    "VarModel-finite": (lambda: VarModel(A=[[np.inf]], b=[0.0]), ValueError, "A must be finite"),
    "ArModel-intercept": (lambda: ArModel(a=(0.5,), b=float("nan")), ValueError, "intercept must be finite"),
    "RegModel-ndim": (lambda: RegModel(A=[1.0, 2.0], b=[0.0]),
                      ValueError, "coefficient matrix must be 2-D, got shape (2,)"),
    "ConstrainedProblem-ndim": (lambda: ConstrainedProblem(np.ones((1, 1, 1, 1, 1)), [1.0]), ValueError,
                                "constraint steps must form an (m, k, k) stack, got shape (1, 1, 1, 1, 1)"),
    "ConstrainedProblem-counts": (lambda: ConstrainedProblem(np.ones((2, 1, 1)), [[1.0], [1.0]], [2, 1]),
                                  ValueError, "counts must be one per target, non-decreasing and in 1..2"),
    "build_problem-type": (lambda: build_problem(object(), 1, [1.0]), TypeError, "unknown model type object"),
    "Series-ndim": (lambda: bare_series(np.ones(3), np.zeros(3, dtype=bool)),
                    DataError, "series needs at least one value column"),
    "Series-mask": (lambda: bare_series(np.ones((3, 1)), np.zeros(2, dtype=bool)),
                    DataError, "missing mask has shape (2,), expected (3,)"),
    "detect_gaps-order": (lambda: detect_gaps(series([1.0, None, 2.0]), 0), ValueError, "order must be >= 1"),
    "gamma_weights-length": (lambda: gamma_weights(AR, 0), ValueError, "length must be >= 1"),
    "step_norm_differences-overflow": (
        lambda: step_norm_differences(np.eye(2)[None], np.array([[np.inf, 1.0]]), np.zeros((1, 1, 2))),
        NumericalError, "norm overflow: the anchor offset or the Lagrange solve's residual has no finite "
                        "length (values beyond ~1e154 cannot be squared in float64)"),
    "describe_model-type": (lambda: describe_model(object()), TypeError, "unknown model type object"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_raises_its_type_and_message(name):
    call, kind, message = CASES[name]
    with pytest.raises(kind) as raised:
        call()
    assert type(raised.value) is kind
    assert str(raised.value) == message


def test_failing_stack_whose_gaps_pass_alone_raises_the_stack_s_error(monkeypatch):
    # each gap of a stack has the bits it has alone, so a real stack fails
    # only where one of its gaps fails alone; a stubbed stack solve that
    # fails only for two or more gaps shows the stack's error is raised then
    solve = control._impute

    def fails_together(model, firsts, *rest):
        if len(firsts) > 1:
            raise NumericalError("the stack failed")
        return solve(model, firsts, *rest)

    monkeypatch.setattr(control, "_impute", fails_together)
    _, gaps = detect_gaps(series([1.0, 2.0, 1.5, None, 2.0, 1.0, None, 1.5]))
    with pytest.raises(NumericalError, match="^the stack failed$"):
        impute_stacks(AR, gaps, [[1.5], [1.0]], [2.0, 1.5])
