"""The per-step weights of a fitted recursion on its endpoint, exact and printed.

``impulse_weights`` is an AR's impulse response, the blocks C F^j B with
which the solver (``gapfill.control``) builds its controls. ``paper`` mode
compares the exact solve with the printed formulas: ``gamma_weights``, the
printed AR weight recurrence, and ``step_norm_differences``, how far the
printed per-step norm formula of a VAR strays from its controls' norms.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .fitting import ArModel, roll_ar
from .linalg import row_norms

# Weight recurrences abort once any entry passes this magnitude; squared sums
# would otherwise overflow float64.
WEIGHT_OVERFLOW_LIMIT = 1e150


def _check_magnitude(value: float, step: int, what: str) -> None:
    if abs(value) > WEIGHT_OVERFLOW_LIMIT:
        raise NumericalError(
            f"{what} overflow at step {step}: magnitude exceeds 1e150 "
            f"(explosive coefficients over a long horizon)"
        )


def impulse_response(models: list, lengths: list) -> np.ndarray:
    """The unchecked ``impulse_weights`` of each of ``models`` to its own of
    ``lengths``, (g, max(lengths)) and zero past each: an explosive
    recursion overflows silently to inf. The weights are ``roll_ar`` paths
    with a zero intercept from the seeds 0, ..., 0, 1, so they carry the
    bits of ``predict_forward``'s recursion."""
    seeds = [[0.0] * (m.p - 1) + [1.0] for m in models]
    rolled = roll_ar([m.a for m in models], [0.0] * len(models), seeds, [n - 1 for n in lengths])
    return np.column_stack([np.ones(len(models)), rolled])


def checked_weights(w: np.ndarray) -> np.ndarray:
    beyond = np.flatnonzero(np.abs(w) > WEIGHT_OVERFLOW_LIMIT)
    if beyond.size:
        _check_magnitude(w[beyond[0]], int(beyond[0]), "impulse weight")
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
    return checked_weights(impulse_response([model], [length])[0])


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
    p = model.p
    if p == 1:
        g = np.empty(length)
        g[0] = 1.0
        for j in range(1, length):
            g[j] = model.a[0] * g[j - 1]
            _check_magnitude(g[j], j, "weight")
        return g

    alpha = np.zeros((length, p))
    gamma = np.empty(length)
    for k in range(1, p + 1):
        if k - 1 < length:
            alpha[k - 1, k - 1] = 1.0
    gamma[0] = alpha[0].sum()
    for n in range(1, length):
        for k in range(1, p + 1):
            if n >= k:
                alpha[n, k - 1] = model.a[k - 1] * gamma[n - k] + (1.0 if k == p else 0.0)
        gamma[n] = alpha[n].sum()
        _check_magnitude(gamma[n], n, "weight")
    return gamma


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
