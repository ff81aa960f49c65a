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
    ``x`` has its shape. ``matrix`` is one G shared by every row, or a
    (g, k, k) stack with one G per row of a (g, k) ``rhs``. Each row gets its
    own LAPACK solve, so it carries the bits it would get alone. LAPACK's
    Cholesky factorization decides positive definiteness and LAPACK solves
    the system. If either rejects a matrix as indefinite or singular, the
    minimum-norm least-squares solution is returned with ``fallback=True``;
    stacked rows are then solved again one at a time, and ``fallback`` is
    True if any of them fell back. Callers decide whether the residual is
    acceptable.
    """
    per_row = np.ndim(matrix) == 3
    g = np.array(matrix, dtype=float) if per_row else as_matrix(matrix)
    n = g.shape[-1]
    if g.shape[-2] != n:
        raise ValueError(f"expected a square matrix, got {g.shape[-2]}x{n}")
    stacked = np.ndim(rhs) == 2
    b = as_matrix(rhs) if stacked else as_vector(rhs)
    if b.shape[-1] != n:
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, rhs has length {b.shape[-1]}")
    if per_row and not (stacked and len(b) == len(g) and np.isfinite(g).all()):
        raise ValueError(
            f"a stack of matrices needs finite entries and one rhs row each, got shapes "
            f"{g.shape} and {b.shape}"
        )
    # array methods: np.max and np.all add a Python dispatch layer on each call
    scale = np.abs(g).max(axis=(-2, -1))
    if (np.abs(g - np.swapaxes(g, -2, -1)).max(axis=(-2, -1))
            > SYMMETRY_TOLERANCE * np.maximum(scale, 1.0)).any():
        raise ValueError("matrix is not symmetric")
    try:
        np.linalg.cholesky(g)
        # numpy treats b as a vector only when it is 1-D, so stacked rows keep
        # an explicit column axis
        if stacked:
            return SpdSolution(np.linalg.solve(g if per_row else g[None], b[:, :, None])[:, :, 0],
                               False)
        return SpdSolution(np.linalg.solve(g, b), False)
    except np.linalg.LinAlgError:
        if stacked:
            rows = [solve_spd(gi, row) for gi, row in zip(g if per_row else [g] * len(b), b)]
            return SpdSolution(np.array([row.x for row in rows]), any(row.fallback for row in rows))
        x, _, _, _ = np.linalg.lstsq(g, b, rcond=None)
        return SpdSolution(x, True)


class LeastSquaresFit(NamedTuple):
    # shaped like ``targets`` with one row per design column; from
    # least_squares_sweep, both fields have a leading axis, one entry per count
    coeffs: np.ndarray
    rank: int | np.ndarray


def _shaped(design, targets) -> tuple[np.ndarray, np.ndarray]:
    """A least-squares problem as float arrays, its shapes checked."""
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
    return x, y


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
    x, y = _shaped(design, targets)
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


def least_squares_sweep(design, targets, counts) -> LeastSquaresFit:
    """``least_squares`` of each leading block of rows, from one pass over the rows.

    Entry i of ``coeffs`` and ``rank`` is the fit of ``design[:c]`` to
    ``targets[:c]`` for c = ``counts[i]``; counts must not decrease, and each
    needs at least as many rows as columns. The rank is judged on the design
    columns scaled as ``least_squares`` scales them, with the same
    ``RANK_TOLERANCE`` cutoff, and a rank-deficient block gets the
    minimum-norm answer in those scaled units. The coefficients agree with
    ``least_squares`` to rounding, not bit for bit.

    The pass keeps the triangular factor R of [design | targets] with every
    column divided by its largest magnitude so far. At each new count, R is
    stacked over the rows added since the previous count and factored again
    (``np.linalg.qr``), so each row enters once and the normal equations,
    whose entries overflow beyond ~1e154, are never formed (Golub & Van
    Loan, Matrix Computations, 4th ed., sec. 6.5). A column whose
    largest magnitude grows has its column of R rescaled first, which is
    exact because QR commutes with column scaling. The leading square block
    of R has the singular values of the scaled design, so one batched SVD of
    the blocks gives every rank and solution.
    """
    x, y = _shaped(design, targets)
    columns = x.shape[1]
    cuts = [int(c) for c in counts]
    if not cuts or cuts[0] < columns or cuts[-1] > len(x) or any(
            b < a for a, b in zip(cuts, cuts[1:])):
        raise ValueError(
            f"counts must be nonempty, must not decrease and must lie in {columns}..{len(x)}"
        )
    augmented = np.column_stack([x[: cuts[-1]], y[: cuts[-1]]])
    # max-abs rather than the 2-norm, as in least_squares; a non-finite entry
    # makes every later scale of its column non-finite
    peaks = np.maximum.accumulate(np.abs(augmented), axis=0)[np.array(cuts) - 1]
    if not np.isfinite(peaks[-1]).all():
        raise ValueError("least squares inputs must be finite")
    scales = np.where(peaks == 0.0, 1.0, peaks)
    # how much each cut shrinks the columns of R built so far; a column that
    # has been zero has a zero column of R, which any ratio keeps
    before = np.vstack([np.zeros(peaks.shape[1]), peaks[:-1]])
    ratios = np.divide(before, peaks, out=np.ones_like(peaks), where=before > 0.0)
    rescaled = (ratios != 1.0).any(axis=1).tolist()
    # each row scaled as of the first cut that holds it
    rows = augmented / scales[np.searchsorted(cuts, np.arange(cuts[-1]), side="right")]
    width = augmented.shape[1]
    upper = np.triu(np.ones((width, width)))
    blocks = np.empty((len(cuts), columns, width))
    r, done = np.zeros((0, width)), 0
    for i, c in enumerate(cuts):
        if c > done:
            if rescaled[i]:
                r = r * ratios[i]
            # mode "raw" holds R in the upper triangle of its transposed first result
            h = np.linalg.qr(np.concatenate((r, rows[done:c])), mode="raw")[0].T
            r = h[:width] * upper[: len(h)]
            done = c
        blocks[i] = r[:columns]
    u, s, vt = np.linalg.svd(blocks[:, :, :columns])
    keep = s > RANK_TOLERANCE * s[:, :1]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    scaled = np.matmul(vt.transpose(0, 2, 1),
                       inverse[:, :, None] * np.matmul(u.transpose(0, 2, 1), blocks[:, :, columns:]))
    with np.errstate(over="ignore"):
        coeffs = scaled * scales[:, None, columns:] / scales[:, :columns, None]
    if y.ndim == 1:
        coeffs = coeffs[:, :, 0]
    return LeastSquaresFit(coeffs, keep.sum(axis=1))
