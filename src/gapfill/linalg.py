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
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(values) -> np.ndarray:
    """Validate and convert to a 1-D float64 array (finite entries, nonempty)."""
    a = np.array(values, dtype=float)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")
    return a


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
    fallback: bool  # True when LAPACK rejected G and x is the minimum-norm least-squares solution


def solve_spd(matrix, rhs) -> SpdSolution:
    """Solve G x = rhs for symmetric positive-definite G.

    LAPACK's Cholesky factorization decides positive definiteness and LAPACK
    solves the system. If either rejects the matrix as indefinite or
    singular, the minimum-norm least-squares solution is returned with
    ``fallback=True``; callers decide whether its residual is acceptable.
    """
    g = as_matrix(matrix)
    n = g.shape[0]
    if g.shape[1] != n:
        raise ValueError(f"expected a square matrix, got {g.shape[0]}x{g.shape[1]}")
    b = as_vector(rhs)
    if b.shape[0] != n:
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, rhs has length {b.shape[0]}")
    scale = float(np.max(np.abs(g)))
    if float(np.max(np.abs(g - g.T))) > SYMMETRY_TOLERANCE * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    try:
        np.linalg.cholesky(g)
        return SpdSolution(np.linalg.solve(g, b), False)
    except np.linalg.LinAlgError:
        x, _, _, _ = np.linalg.lstsq(g, b, rcond=None)
        return SpdSolution(x, True)


class LeastSquaresFit(NamedTuple):
    coeffs: np.ndarray
    rank: int
    residual_norm: float


def least_squares(design, target, rank_tolerance: float = RANK_TOLERANCE) -> LeastSquaresFit:
    """Minimum-norm least squares via SVD with a relative rank cutoff.

    Requires at least as many rows as columns. Singular values below
    ``rank_tolerance`` times the largest are treated as zero; when that makes
    the design rank deficient the returned coefficients are the minimum-norm
    minimizer and ``rank`` is less than the number of columns.
    """
    x = as_matrix(design)
    y = as_vector(target)
    if x.shape[0] < x.shape[1]:
        raise ValueError(f"least squares needs rows >= columns, got {x.shape[0]}x{x.shape[1]}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"dimension mismatch: design has {x.shape[0]} rows, target has {y.shape[0]}"
        )
    coeffs, _, rank, _ = np.linalg.lstsq(x, y, rcond=rank_tolerance)
    r = x @ coeffs - y
    # scaled so that squaring huge residuals cannot overflow
    scale = float(np.max(np.abs(r)))
    residual = scale * float(np.linalg.norm(r / scale)) if scale > 0.0 else 0.0
    return LeastSquaresFit(coeffs, int(rank), residual)
