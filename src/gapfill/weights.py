"""The per-step weights of a fitted recursion on its endpoint, exact and printed.

``impulse_weights`` is an AR's impulse response, the blocks C F^j B with
which the solver (``gapfill.control``) builds its controls. ``paper`` mode
compares the exact solve with the printed formulas: ``printed_weights``,
the printed AR weight recurrence of a stack of models (``gamma_weights`` of
one), and ``step_norm_differences``, how far the
printed per-step norm formula of a VAR strays from its controls' norms.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .fitting import ArModel, roll_ar
from .linalg import row_norms
from .models import as_models

# Weight recurrences abort once any entry passes this magnitude; squared sums
# would otherwise overflow float64.
WEIGHT_OVERFLOW_LIMIT = 1e150


def impulse_response(models, lengths: list) -> np.ndarray:
    """The unchecked ``impulse_weights`` of each AR model of the Models
    ``models`` to its own of ``lengths``, (g, max(lengths)) and zero past
    each: an explosive recursion overflows silently to inf. The weights are
    ``roll_ar`` paths with a zero intercept from the seeds 0, ..., 0, 1, so
    they carry the bits of ``predict_forward``'s recursion."""
    g = len(lengths)
    seeds = np.zeros((g, models.p))
    seeds[:, -1] = 1.0
    rolled = roll_ar(models.a, np.zeros(g), seeds, [n - 1 for n in lengths])
    return np.column_stack([np.ones(g), rolled])


def checked_weights(w: np.ndarray, what: str = "impulse weight") -> np.ndarray:
    """``w``, a row of weights or a stack of rows, unless an entry passes
    1e150: the first such, row by row, raises NumericalError at its step."""
    beyond = np.flatnonzero(np.abs(w) > WEIGHT_OVERFLOW_LIMIT)
    if beyond.size:
        raise NumericalError(
            f"{what} overflow at step {int(beyond[0]) % w.shape[-1]}: magnitude exceeds 1e150 "
            f"(explosive coefficients over a long horizon)"
        )
    return w


def impulse_weights(model: ArModel, length: int) -> np.ndarray:
    """Impulse response of the fitted recursion, most recent step first.

    ``w[j]`` is the effect on the endpoint of a unit control applied j steps
    before it: w_0 = 1 and w_j = sum_i a_i w_{j-i} over the available lags,
    which is the intercept-free recursion rolled from the seeds 0, ..., 0, 1.
    The response is prefix-stable: its first m entries are the bits of the
    length-m response. A weight past 1e150 raises NumericalError.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    return checked_weights(impulse_response(as_models(model), [length])[0])


def printed_weights(models, lengths: list) -> np.ndarray:
    """The ``gamma_weights`` of each AR model of the Models ``models`` to
    its own of ``lengths``: (g, max(lengths)), zero past each, from one
    recurrence over the (g, p) coefficients. The first row with a weight
    past 1e150 within its length raises NumericalError at that step.

    Each step sums the p running components of every row at once (a
    row-wise ``sum`` of the (g, p) components, in the order of one row's
    own); order 1 is one cumulative product. Each row has the bits of its
    model alone.
    """
    (g, p), a, counts = models.a.shape, models.a, np.asarray(lengths)
    w = np.ones((g, int(counts.max())))
    with np.errstate(all="ignore"):
        if p == 1:
            # plain powers: each weight is a_1 times the one before
            w[:, 1:] = a
            w = np.multiply.accumulate(w, axis=1)
        else:
            # at step n, component k <= n is a_k times the weight k steps
            # back; component n + 1 < p is its unit entry, and the rest 0
            alpha = np.zeros((g, p))
            for n in range(1, min(p, w.shape[1])):
                np.multiply(a[:, :n], w[:, :n][:, ::-1], out=alpha[:, :n])
                alpha[:, n] = 1.0
                w[:, n] = alpha.sum(axis=1)
            feed = alpha[:, -1]  # from step p on, the highest lag's unit feed
            for n in range(p, w.shape[1]):
                np.multiply(a, w[:, n - p : n][:, ::-1], out=alpha)
                feed += 1.0
                w[:, n] = alpha.sum(axis=1)
    w[np.arange(w.shape[1]) >= counts[:, None]] = 0.0
    return checked_weights(w, "weight")


def gamma_weights(model: ArModel, length: int) -> np.ndarray:
    """Printed-recurrence weights used by ``paper`` mode, most recent step first.

    For order 1 these are plain powers of the lag coefficient and coincide
    with ``impulse_weights``. For order >= 2 each weight sums p running
    components: component k starts with a unit entry at step k-1, then follows
    a_k times the whole weight k steps back, and the highest-lag component
    additionally receives a constant unit feed. The result equals the running
    sums of the impulse weights, so beyond order 1 a path corrected with these
    weights generally misses the endpoint; callers report the residual.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    return printed_weights(as_models(model), [length])[0]


def norm_overflow() -> NumericalError:
    return NumericalError(
        "norm overflow: the anchor offset or the Lagrange solve's residual has no "
        "finite length (values beyond ~1e154 cannot be squared in float64)"
    )


def step_norm_differences(blocks: np.ndarray, delta: np.ndarray, controls: np.ndarray) -> list:
    """Paper-mode diagnostics of a batch of VAR gaps, under the (m, k, k) or
    (g, m, k, k) powers of A in ``blocks``: per gap, the largest difference
    between the printed norm formula for step j, ||delta|| / sum_i
    ||1^T A^i||^2 * (the sum of the entries of A^(m-1-j)), and ||u_j||."""
    column_sum_square = np.cumsum(np.sum(blocks.sum(axis=-2) ** 2, axis=-1), axis=-1)[..., -1]
    with np.errstate(over="ignore", invalid="ignore"):
        length, peak = row_norms(delta), np.abs(delta).max(axis=1)
        # the squares of an offset beyond ~1e154 overflow before its length does
        length = np.where(np.isfinite(length), length, peak * row_norms(delta / peak[:, None]))
        scale = length / column_sum_square
        exact = np.linalg.norm(controls, axis=-1)
    if not (np.isfinite(scale).all() and np.isfinite(exact).all()):
        raise norm_overflow()
    formula = scale[:, None] * blocks.sum(axis=(-2, -1))[..., ::-1]
    return np.abs(formula - exact).max(axis=1).tolist()
