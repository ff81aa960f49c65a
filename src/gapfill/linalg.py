"""Small dense linear-algebra layer used by fitting, the control solves, and the verifier.

Everything operates on plain float64 numpy arrays. Inputs are validated and
copied, outputs are freshly allocated, and the factorizations are LAPACK's,
so repeated runs produce identical bits on one platform.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Relative singular-value cutoff below which least_squares treats a direction
# as rank deficient.
RANK_TOLERANCE = 1e-10

SYMMETRY_TOLERANCE = 1e-10


def as_matrix(values) -> np.ndarray:
    """Validate and convert to a 2-D float64 array (finite entries, at least 1x1)."""
    a = np.array(values, dtype=float, order="C")
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(values) -> np.ndarray:
    """Validate and convert to a 1-D float64 array (finite entries, nonempty)."""
    a = np.array(values, dtype=float)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector entries must be finite")
    return a


def row_norms(rows) -> np.ndarray:
    """Euclidean length of each row of a 2-D array.

    Each length has the bits of ``np.linalg.norm`` of that row alone, which
    ``np.linalg.norm(rows, axis=1)`` does not promise. A length too large
    for float64 overflows to inf.
    """
    r = np.asarray(rows, dtype=float)
    return np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def mat_pow_table(matrix, kmax: int) -> np.ndarray:
    """Return the (kmax + 1, k, k) stack I, A, A^2, ..., A^kmax.

    The table is built by repeated multiplication rather than eigen methods so
    the entries satisfy table[i + 1] == A @ table[i] exactly as computed. An
    explosive A overflows silently to inf; callers check finiteness.
    """
    a = as_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix powers need a square matrix, got {a.shape[0]}x{a.shape[1]}")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    powers = np.empty((kmax + 1,) + a.shape)
    powers[0] = np.eye(a.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, kmax + 1):
            powers[i] = a @ powers[i - 1]
    return powers


class SpdSolution(NamedTuple):
    x: np.ndarray
    # True when LAPACK rejected G and x, or a row of it, is the minimum-norm
    # least-squares solution
    fallback: bool


def solve_spd(matrix, rhs) -> SpdSolution:
    """Solve G x = rhs for symmetric positive-definite G.

    ``rhs`` is one right-hand side or a 2-D array of them, one per row, and
    ``x`` has its shape. Each row gets its own LAPACK solve, so it carries the
    bits it would get alone. LAPACK's Cholesky factorization decides positive
    definiteness and LAPACK solves the system. If either rejects the matrix
    as indefinite or singular, the minimum-norm least-squares solution is
    returned with ``fallback=True``; stacked rows are then solved again one at
    a time, and ``fallback`` is True if any of them fell back. Callers decide
    whether the residual is acceptable.
    """
    g = as_matrix(matrix)
    n = g.shape[0]
    if g.shape[1] != n:
        raise ValueError(f"expected a square matrix, got {g.shape[0]}x{g.shape[1]}")
    stacked = np.ndim(rhs) == 2
    b = as_matrix(rhs) if stacked else as_vector(rhs)
    if b.shape[-1] != n:
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, rhs has length {b.shape[-1]}")
    # array methods: np.max and np.all add a Python dispatch layer on each call
    scale = float(np.abs(g).max())
    if float(np.abs(g - g.T).max()) > SYMMETRY_TOLERANCE * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    try:
        np.linalg.cholesky(g)
        # numpy treats b as a vector only when it is 1-D, so stacked rows keep
        # an explicit column axis
        if stacked:
            return SpdSolution(np.linalg.solve(g[None], b[:, :, None])[:, :, 0], False)
        return SpdSolution(np.linalg.solve(g, b), False)
    except np.linalg.LinAlgError:
        if stacked:
            rows = [solve_spd(g, row) for row in b]
            return SpdSolution(np.array([row.x for row in rows]), any(row.fallback for row in rows))
        x, _, _, _ = np.linalg.lstsq(g, b, rcond=None)
        return SpdSolution(x, True)


class LeastSquaresFit(NamedTuple):
    coeffs: np.ndarray  # shaped like ``targets`` with one row per design column
    rank: int


def least_squares(design, targets) -> LeastSquaresFit:
    """Minimum-norm least squares with the rank judged on scaled columns.

    ``targets`` is one right-hand side or a 2-D array of them, one per
    column, all solved in one LAPACK call. Each design column is first
    divided by its largest magnitude (a zero column is left as it is), so
    the rank decision does not depend on the data's units: singular values
    of the scaled design below ``RANK_TOLERANCE`` times the largest are
    treated as zero. A rank-deficient design gets the solution of minimum
    norm in scaled units, and ``rank`` is less than the number of columns.
    Requires at least as many rows as columns and finite entries.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1 or y.ndim not in (1, 2):
        raise ValueError(
            f"expected a 2-D design and 1-D or 2-D targets, got shapes {x.shape} and {y.shape}"
        )
    if x.shape[0] < x.shape[1]:
        raise ValueError(f"least squares needs rows >= columns, got {x.shape[0]}x{x.shape[1]}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"dimension mismatch: design has {x.shape[0]} rows, target has {y.shape[0]}"
        )
    # max-abs rather than the 2-norm, which overflows for entries near 1e308;
    # a non-finite entry makes its column's scale non-finite
    scale = np.abs(x).max(axis=0)
    if not (np.all(np.isfinite(scale)) and np.all(np.isfinite(y))):
        raise ValueError("least squares inputs must be finite")
    scale[scale == 0.0] = 1.0
    coeffs, _, rank, _ = np.linalg.lstsq(x / scale, y, rcond=RANK_TOLERANCE)
    if y.ndim == 2:
        scale = scale[:, None]
    with np.errstate(over="ignore"):
        return LeastSquaresFit(coeffs / scale, int(rank))
