"""Small dense linear-algebra layer used by fitting, the control solves, and the verifier.

Everything operates on plain float64 numpy arrays. Inputs are validated and
never written to, outputs are freshly allocated, and the factorizations are
LAPACK's, so repeated runs produce identical bits on one platform.
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


def row_norms(rows) -> np.ndarray:
    """Euclidean length of each row of a 2-D array.

    Each length has the bits of ``np.linalg.norm`` of that row alone, which
    ``np.linalg.norm(rows, axis=1)`` does not promise. A length too large
    for float64 overflows to inf.
    """
    r = np.asarray(rows, dtype=float)
    with np.errstate(over="ignore"):
        return np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def equal_runs(counts: np.ndarray) -> list:
    """(lo, hi, m) of each run of equal values m in the sorted ``counts``."""
    if counts[0] == counts[-1]:
        return [(0, len(counts), int(counts[0]))]
    cuts = [0, *(np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist(), len(counts)]
    return [(lo, hi, int(counts[lo])) for lo, hi in zip(cuts, cuts[1:])]


def split_runs(rows: np.ndarray, widths: np.ndarray, runs: list) -> list:
    """Each run's (n, width, ...) view of ``rows``, which hold ``widths[i]``
    rows for item i, one item after another; ``runs`` are ``equal_runs`` of
    the items."""
    bounds = [0, *np.cumsum(widths).tolist()]
    return [rows[bounds[lo] : bounds[hi]].reshape((hi - lo, int(widths[lo])) + rows.shape[1:])
            for lo, hi, _ in runs]


def mat_pow_table(matrix, kmax: int) -> np.ndarray:
    """Return the (kmax + 1, k, k) stack I, A, A^2, ..., A^kmax; a (g, k, k) stack
    of matrices gives (g, kmax + 1, k, k), each table with the bits it has alone.

    The table is built by repeated multiplication rather than eigen methods so
    the entries satisfy table[i + 1] == A @ table[i] exactly as computed. An
    explosive A overflows silently to inf; callers check finiteness.
    """
    stacked = np.ndim(matrix) == 3
    a = np.array(matrix, dtype=float, order="C") if stacked else as_matrix(matrix)[None]
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if a.shape[1] != a.shape[2]:
        raise ValueError(f"matrix powers need a square matrix, got {a.shape[1]}x{a.shape[2]}")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    powers = np.empty((len(a), kmax + 1) + a.shape[1:])
    powers[:, 0] = np.eye(a.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, kmax + 1):
            powers[:, i] = np.matmul(a, powers[:, i - 1])
    return powers if stacked else powers[0]


class SpdSolution(NamedTuple):
    x: np.ndarray
    # True when LAPACK rejected G and x, or a row of it, is the minimum-norm
    # least-squares solution
    fallback: bool


def solve_spd(matrix, rhs) -> SpdSolution:
    """Solve G x = rhs for symmetric positive-definite G, one row of the
    (g, k) ``rhs`` at a time; ``x`` has its shape.

    ``matrix`` is one G shared by every row, or a (g, k, k) stack with one G
    per row. Each row gets its own LAPACK solve, so it carries the bits it
    would get alone. LAPACK's Cholesky factorization decides positive
    definiteness and LAPACK solves the system. If either rejects a matrix as
    indefinite or singular, each row is solved again as a stack of one, and
    a row whose G is still rejected gets the minimum-norm least-squares
    solution; ``fallback`` is then True. Callers decide whether the residual
    is acceptable.
    """
    per_row = np.ndim(matrix) == 3
    g = np.asarray(matrix, dtype=float) if per_row else as_matrix(matrix)
    n = g.shape[-1]
    if g.shape[-2] != n:
        raise ValueError(f"expected a square matrix, got {g.shape[-2]}x{n}")
    b = as_matrix(rhs)
    if b.shape[-1] != n:
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, rhs has length {b.shape[-1]}")
    if per_row and not (len(b) == len(g) and np.isfinite(g).all()):
        raise ValueError(
            f"a stack of matrices needs finite entries and one rhs row each, got shapes "
            f"{g.shape} and {b.shape}"
        )
    # array methods: np.max and np.all add a Python dispatch layer on each call
    scale, skew = np.abs(g).max(axis=(-2, -1)), g - np.swapaxes(g, -2, -1)
    if (np.abs(skew, out=skew).max(axis=(-2, -1)) > SYMMETRY_TOLERANCE * np.maximum(scale, 1.0)).any():
        raise ValueError("matrix is not symmetric")
    try:
        np.linalg.cholesky(g)
        # numpy treats b as a vector only when it is 1-D, so the rows keep an
        # explicit column axis
        return SpdSolution(np.linalg.solve(g if per_row else g[None], b[:, :, None])[:, :, 0], False)
    except np.linalg.LinAlgError:
        if len(b) == 1:
            x, _, _, _ = np.linalg.lstsq(g[0] if per_row else g, b[0], rcond=None)
            return SpdSolution(x[None], True)
        rows = [solve_spd(gi, row[None]) for gi, row in zip(g if per_row else [g] * len(b), b)]
        return SpdSolution(np.concatenate([row.x for row in rows]), any(row.fallback for row in rows))


class LeastSquaresFit(NamedTuple):
    # one entry per count: coeffs shaped like ``targets`` with one row per
    # design column, behind a leading axis
    coeffs: np.ndarray
    rank: np.ndarray


def least_squares(design, targets, counts) -> LeastSquaresFit:
    """Minimum-norm least squares of each leading block of rows, from one pass.

    Entry i of ``coeffs`` and ``rank`` is the fit of ``design[:c]`` to
    ``targets[:c]`` for c = ``counts[i]``; counts must not decrease, and each
    needs at least as many rows as columns. ``targets`` is one right-hand
    side or a 2-D array of them, one per column. The rank is judged on
    scaled columns: each design column of a block is divided by its largest
    magnitude in that block (a zero column is left as it is), so the
    decision does not depend on the data's units, and singular values below
    ``RANK_TOLERANCE`` times the largest are treated as zero. A
    rank-deficient block gets the solution of minimum norm in scaled units,
    and its ``rank`` is less than the number of columns. Entries must be
    finite.

    The pass keeps the triangular factor R of [design | targets] with every
    column divided by its largest magnitude so far. At each new count, R is
    stacked over the rows added since the previous count and factored again
    (``np.linalg.qr``), so each row enters once and the normal equations,
    whose entries overflow beyond ~1e154, are never formed (Golub & Van
    Loan, Matrix Computations, 4th ed., sec. 6.5). A column whose
    largest magnitude grows has its column of R rescaled first, which is
    exact because QR commutes with column scaling. The leading square block
    of R has the singular values of the scaled design, so one batched SVD of
    the blocks gives every rank and solution. An entry does not depend on
    the counts after it, so the first entry has the bits of a fit of that
    count alone.
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
    columns = x.shape[1]
    cuts = [int(c) for c in counts]
    if not cuts or cuts[0] < columns or cuts[-1] > len(x) or any(
            b < a for a, b in zip(cuts, cuts[1:])):
        raise ValueError(
            f"counts must be nonempty, must not decrease and must lie in {columns}..{len(x)}"
        )
    augmented = np.column_stack([x[: cuts[-1]], y[: cuts[-1]]])
    # max-abs rather than the 2-norm, which overflows for entries near 1e308,
    # of each block of rows between distinct cuts, then running over the
    # blocks; a non-finite entry makes every later scale of its column non-finite
    ends = np.unique(cuts)
    heads = np.concatenate(([0], ends[:-1]))
    block_peaks = np.maximum(np.abs(np.maximum.reduceat(augmented, heads)),
                             np.abs(np.minimum.reduceat(augmented, heads)))
    peaks = np.maximum.accumulate(block_peaks, axis=0)[np.searchsorted(ends, cuts)]
    if not np.isfinite(peaks[-1]).all():
        raise ValueError("least squares inputs must be finite")
    scales = np.where(peaks == 0.0, 1.0, peaks)
    # how much each cut shrinks the columns of R built so far; a column that
    # has been zero has a zero column of R, which any ratio keeps
    before = np.vstack([np.zeros(peaks.shape[1]), peaks[:-1]])
    ratios = np.divide(before, peaks, out=np.ones_like(peaks), where=before > 0.0)
    rescaled = (ratios != 1.0).any(axis=1).tolist()
    # each row scaled in place as of the first cut that holds it, one
    # division per run of cuts that share a scale
    changed = (np.flatnonzero((scales[1:] != scales[:-1]).any(axis=1)) + 1).tolist()
    for lo, hi in zip([0, *changed], [*changed, len(cuts)]):
        augmented[cuts[lo - 1] if lo else 0 : cuts[hi - 1]] /= scales[lo]
    width = augmented.shape[1]
    upper = np.triu(np.ones((width, width)))
    blocks = np.empty((len(cuts), columns, width))
    r, done = np.zeros((0, width)), 0
    for i, c in enumerate(cuts):
        if c > done:
            if rescaled[i]:
                r = r * ratios[i]
            # mode "raw" holds R in the upper triangle of its transposed first result
            h = np.linalg.qr(np.concatenate((r, augmented[done:c])), mode="raw")[0].T
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
