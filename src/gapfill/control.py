"""Minimum-energy corrections that steer a fitted recursion to a known endpoint.

Each gap is filled by rolling the fitted model forward and adding per-step
controls of least summed squared magnitude that land the path on the first
observed value after the gap. With F the model's transition matrix, the
control applied j steps before the anchor is u_j = (C F^j B)^T lambda, where
G lambda = delta (the anchor's offset from the forecast) and
G = sum_j (C F^j B)(C F^j B)^T (Kailath, Linear Systems, 1980). ``_blocks``
gives C F^j B: the impulse weights of an AR (its companion matrix with
B = C^T = e_1), the powers of a VAR's A (B = C = I), and identities for a
regression (F = I, so lambda = delta / m is a uniform correction).
``impute_stacks`` solves a run of gaps of every model as one stack sorted
by control count m: one table of blocks and Gram sums, read at each m; one
``_lagrange`` solve (one SPD solve); one forecast and one corrected roll.
Only the products with the blocks, the objectives and a regression's
forecast run per run of equal m, because their bits depend on the length.
In ``paper`` mode an AR's controls follow a printed recurrence kept for
comparison, whose miss is reported, and a VAR reports how far a printed
per-step norm formula strays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericalError
from .fitting import ArModel, RegModel, VarModel, predict_forward
from .linalg import equal_runs, mat_pow_table, row_norms, solve_spd, split_runs
from .models import as_models
from .series import Gaps
from .weights import (
    checked_weights,
    gamma_weights,  # not called here; one of this module's public names
    impulse_response,
    impulse_weights,  # not called here; one of this module's public names
    norm_overflow,
    printed_weights,
    step_norm_differences,
)

MODES = ("exact", "paper")

# A stack of gaps is padded to its longest, so it takes shorter gaps only
# while that at most doubles its steps, plus this many (see ``_stacks``).
PAD_SLACK = 4096


class ControlSolution(NamedTuple):
    """Optimal controls, multiplier, and filled values for one gap.

    ``controls`` is chronological with one entry (scalar or vector) per
    control index. ``imputed`` holds the filled values of the gap's
    positions, and ``predicted`` the uncorrected forecast over every step
    from the gap start through the anchor index, so its last entry is what
    the recursion would have reached with no correction. ``diagnostics`` holds
    the mode's checks of the fill (empty for an exact autoregression or VAR).
    """

    control_indices: range
    controls: np.ndarray
    multiplier: float | np.ndarray
    imputed: np.ndarray
    predicted: np.ndarray
    terminal_residual: float | None
    objective: float
    mode: str
    constrained: bool
    diagnostics: dict


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")


def _fill_overflow(start: int) -> NumericalError:
    return NumericalError(
        f"fill overflow in the gap at index {start}: the filled values, the summed "
        f"squared controls or the terminal residual are not finite (magnitudes beyond ~1e154 "
        f"overflow when squared)"
    )


def _blocks(models, counts: list) -> np.ndarray:
    """The (g, M, k, k) blocks C F^j B, j < M = max(counts), of each model
    of the Models ``models``, one per entry of ``counts``, built in one call,
    unchecked for overflow and prefix-stable: an AR's impulse response (to
    its own count, zero past it), a VAR's powers of A, or a regression's
    identities (F = I)."""
    if models.kind is ArModel:
        return impulse_response(models, counts)[:, :, None, None]
    if models.kind is VarModel:
        return mat_pow_table(models.A, max(counts) - 1)
    k = models.n_outputs
    return np.broadcast_to(np.eye(k), (len(counts), max(counts), k, k))


def _gram_sums(blocks: np.ndarray) -> np.ndarray:
    """Running sums G_m = sum_{j<m} blocks[j] blocks[j]^T along the step axis
    (third from last), strictly in step order (np.sum would reorder the
    additions), so the sum of the first m blocks has the bits of theirs alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(np.matmul(blocks, np.swapaxes(blocks, -2, -1)), axis=-3)


def _full(blocks: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per gap of ``counts``, whether any of its own first blocks of the
    (1, M, k, k) shared or (g, M, k, k) ``blocks`` is not diagonal."""
    if blocks.shape[-1] == 1:
        return np.zeros(len(counts), dtype=bool)
    off = (blocks[..., ~np.eye(blocks.shape[-1], dtype=bool)] != 0).any(axis=-1)
    return np.logical_or.accumulate(off, axis=1)[0 if len(blocks) == 1 else np.arange(len(counts)),
                                                  counts - 1]


def solve_controls(blocks, delta) -> tuple[np.ndarray, np.ndarray]:
    """Lambda and the chronological controls of least summed squared length
    that move the endpoint by ``delta``: one offset (k,), or a (g, k) stack
    of them solved row by row. ``blocks`` is the (m, k, k) stack of C F^j B,
    most recent first (1-D for k = 1), and ``blocks[0]`` must be the identity
    (a ValueError otherwise), so G >= I. A non-finite G or ``delta``, or (for
    blocks not all diagonal) a solve missing by over 1e-8 (1 + ||delta||),
    raises NumericalError.
    """
    mats = np.asarray(blocks, dtype=float)
    if mats.ndim == 1:
        mats = mats[:, None, None]
    if mats.ndim != 3 or mats.shape[0] < 1 or mats.shape[1] != mats.shape[2]:
        raise ValueError("blocks must be a nonempty stack of square matrices of one dimension")
    k = mats.shape[1]
    if not np.array_equal(mats[0], np.eye(k)):
        raise ValueError("blocks[0] must be the identity matrix")
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    if d.shape[-1:] != (k,) or d.ndim > 2:
        raise ValueError(f"delta has shape {d.shape}, expected ({k},) or (g, {k})")
    d = d.reshape(-1, k)
    full = _full(mats[None], np.full(len(d), len(mats)))
    lam = _lagrange(np.broadcast_to(_gram_sums(mats)[-1], (len(d), k, k)), d, full)
    controls = _controls(lam, np.flip(mats, axis=0)[None], full)
    return (lam, controls) if np.ndim(delta) == 2 else (lam[0], controls[0])


def _lagrange(gram: np.ndarray, delta: np.ndarray, full: np.ndarray) -> np.ndarray:
    """The (g, k) multipliers of the (g, k) offsets ``delta`` under their
    (g, k, k) Gram matrices: a plain division per output where a gap's
    blocks are all diagonal (a Cholesky solve would give delta / sqrt(G) /
    sqrt(G)), and one SPD solve of the gaps marked ``full``, each of which
    must meet its offset to 1e-8 (1 + ||delta||)."""
    # a non-finite block puts inf or nan on the diagonal of G
    if not np.isfinite(gram).all():
        raise NumericalError(
            "matrix power overflow: the control Gram matrix is not finite "
            "(explosive transition matrix over a long horizon, or value columns "
            "whose scales differ by many orders of magnitude)"
        )
    if not np.isfinite(delta).all():
        raise NumericalError(
            "forecast overflow: the offset to the anchor is not finite "
            "(explosive coefficients or huge values over a long horizon)"
        )
    lam = delta / np.diagonal(gram, axis1=-2, axis2=-1)
    if full.any():
        gram, delta = gram[full], delta[full]
        solution = solve_spd(gram, delta)
        with np.errstate(over="ignore", invalid="ignore"):
            residual = row_norms(np.matmul(gram, solution.x[:, :, None])[:, :, 0] - delta)
            offset = row_norms(delta)
        if not (np.isfinite(residual).all() and np.isfinite(offset).all()):
            raise norm_overflow()
        missed = ~(residual <= 1e-8 * (1.0 + offset))
        if solution.fallback or missed.any():
            raise NumericalError(
                f"ill-conditioned control problem: the Lagrange solve misses the anchor "
                f"offset by {residual[missed.argmax()]:.3g} (explosive transition matrix over a "
                f"long horizon)"
            )
        lam[full] = solution.x
    return lam


def _controls(lam: np.ndarray, steps: np.ndarray, full: np.ndarray) -> np.ndarray:
    """The (n, m, k) chronological controls u_j = steps_j^T lambda of (n, k)
    multipliers, under (1, m, k, k) shared or (n, m, k, k) ``steps``: a
    matmul for the gaps marked ``full``, and otherwise a product, which
    keeps the sign of a zero control where matmul does not."""
    if full.all():
        return np.matmul(lam[:, None, None, :], steps)[:, :, 0, :]
    product = lam[:, None, :] * np.diagonal(steps, axis1=-2, axis2=-1)
    return (np.where(full[:, None, None], np.matmul(lam[:, None, None, :], steps)[:, :, 0, :], product)
            if full.any() else product)


def _summaries(starts, counts, lag, controls, imputed, ends, targets) -> tuple[np.ndarray, np.ndarray]:
    """The objectives and terminal residuals of a stack of fills sorted by
    control count, gap i from 1-based ``starts[i]`` with ``counts[i]``
    ``controls`` from ``lag`` steps after it, and ``imputed`` values before
    its anchor, one row per step; ``ends`` are the values at the anchors.
    The miss of a (g,) ``targets`` row is its magnitude, of a (g, k) row its
    norm; an objective, the summed squared controls, is taken per run of
    equal counts, so each has the bits of its fill alone. The first gap
    that overflows raises NumericalError.
    """
    g, runs = len(counts), equal_runs(counts)
    objectives = np.empty(g)
    with np.errstate(over="ignore", invalid="ignore"):
        for (lo, hi, _), u in zip(runs, split_runs(controls, counts, runs)):
            u = u.reshape(hi - lo, -1)
            objectives[lo:hi] = np.matmul(u[:, None, :], u[:, :, None])[:, 0, 0]
        miss = ends.reshape(targets.shape) - targets
        residuals = np.abs(miss) if miss.ndim == 1 else row_norms(miss)
    finite = np.isfinite(objectives) & np.isfinite(residuals) & np.isfinite(ends.reshape(g, -1)).all(axis=1)
    finite &= np.concatenate([np.isfinite(path.reshape(len(path), -1)).all(axis=1)
                              for path in split_runs(imputed, counts + lag - 1, runs)])
    if not finite.all():
        raise _fill_overflow(int(starts[int(finite.argmin())]))
    return objectives, residuals


def _inputs(models, lengths, starts, anchors):
    """``starts`` and ``anchors`` of gaps of ``lengths`` as the solver reads
    them, checked, for the Models ``models``; the anchors are (g,) for an
    AR and (g, k) otherwise."""
    if models.kind is ArModel:
        targets = np.asarray(anchors, dtype=float).reshape(len(lengths), -1)[:, 0]
        if isinstance(starts, np.ndarray) and starts.ndim == 2:
            return starts, targets
        # at least p values each; the trailing ones of a common width stack
        seeds = [np.asarray(s, dtype=float).ravel() for s in starts]
        width = min(map(len, seeds))
        return np.array([s[len(s) - width :] for s in seeds]), targets
    if models.kind is RegModel:
        k, seeds = models.n_outputs, [np.column_stack([x]) for x in starts]  # 1-D: one column
        for length, x in zip(lengths.tolist(), seeds):
            if len(x) != length + 1:
                raise ValueError(f"need {length + 1} covariate rows (gap start through anchor), "
                                 f"got {len(x)}")
        targets = np.array([np.atleast_1d(np.asarray(a, dtype=float)) for a in anchors])
    else:
        k = models.dim
        # checked once for the stack, but worded for one gap, as impute_gap_var reports
        seeds = np.asarray(starts, dtype=float).reshape(len(lengths), -1)
        if seeds.shape[1] != k:
            raise DataError(f"seed must have {k} components, got shape {seeds.shape[1:]}")
        targets = np.asarray(anchors, dtype=float)
        if targets.ndim != 2 or targets.shape[1] < 1:
            raise ValueError(f"expected a 1-D vector, got shape {targets.shape[1:]}")
        if not np.isfinite(targets).all():
            raise ValueError("vector entries must be finite")
    if targets.shape[1] != k:
        raise ValueError(f"anchor has {targets.shape[1]} components, expected {k}")
    return seeds, targets


class GapStack(NamedTuple):
    """Gaps solved as one stack, sorted by control count, as columns: gap
    ``index[i]`` of the call starts at row ``starts[i]`` and has
    ``counts[i]`` controls from ``lag`` steps after it, an anchor offset
    from the forecast, a multiplier ((g,) for scalar anchors, else (g, k)),
    an objective, a residual and an entry of each ``diagnostics`` column.
    ``controls``, ``imputed`` (the fill at the 1-based ``indices``) and
    ``forecasts`` (each path through the anchor) hold one row per step."""

    index: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    lag: int
    mode: str
    controls: np.ndarray
    offsets: np.ndarray
    imputed: np.ndarray
    indices: np.ndarray
    forecasts: np.ndarray
    multipliers: np.ndarray
    objectives: np.ndarray
    residuals: np.ndarray
    diagnostics: dict


def stack_solutions(stacks, count: int) -> list:
    """The ControlSolutions of the ``count`` gaps of ``stacks``, in gap
    order, holding views of the stacks' rows."""
    solutions = [None] * count
    for stack in stacks:
        runs, lengths, index = equal_runs(stack.counts), stack.counts + stack.lag, stack.index.tolist()
        multipliers = stack.multipliers.tolist() if stack.multipliers.ndim == 1 else stack.multipliers
        notes = [dict(zip(stack.diagnostics, values))
                 for values in zip(*[column.tolist() for column in stack.diagnostics.values()])]
        indices = list(map(range, (stack.starts + stack.lag).tolist(), (stack.starts + lengths).tolist()))
        residuals, objectives = stack.residuals.tolist(), stack.objectives.tolist()
        for (lo, hi, _), u, path, forecast in zip(runs, split_runs(stack.controls, stack.counts, runs),
                                                  split_runs(stack.imputed, lengths - 1, runs),
                                                  split_runs(stack.forecasts, lengths, runs)):
            n = hi - lo
            solved = map(ControlSolution, indices[lo:hi], u, multipliers[lo:hi], path, forecast,
                         residuals[lo:hi], objectives[lo:hi], [stack.mode] * n, [True] * n,
                         notes[lo:hi] or [{} for _ in range(n)])
            for i, solution in zip(index[lo:hi], solved):
                solutions[i] = solution
    return solutions


def _stacks(counts: np.ndarray) -> list:
    """Cut the ascending ``counts`` into stacks, (lo, hi) each: from the
    longest down, a stack takes shorter gaps while padding them to its
    longest at most doubles its steps, plus PAD_SLACK."""
    sums, cuts, hi = np.concatenate(([0], np.cumsum(counts))), [], len(counts)
    if hi * counts[-1] <= 2 * sums[-1] + PAD_SLACK:
        return [(0, hi)]
    while hi:
        lo = np.arange(hi)
        over = np.flatnonzero((hi - lo) * counts[hi - 1] > 2 * (sums[hi] - sums[lo]) + PAD_SLACK)
        cuts.append((int(over[-1]) + 1 if over.size else 0, hi))
        hi = cuts[-1][0]
    return cuts[::-1]


def impute_gaps(model, gaps, starts, anchors, mode: str = "exact") -> list:
    """Fill constrained gaps so each path ends at its anchor; one
    ControlSolution per gap, in order.

    ``model`` is the model of every gap (or a Models of one), or a Models
    with one per gap (``Models.of`` stacks a list).
    ``gaps`` are GapSegments, or a Gaps of constrained gaps. ``gaps[i]`` is
    rolled from ``starts[i]``: at least p values before it for an AR(p),
    the row before it for a VAR, or a regression's covariate rows from the
    gap start through the anchor. ``anchors[i]`` is a scalar for an AR, a
    vector for a VAR, and per output (or a scalar) for a regression.
    Controls act on the last m steps: all but the first p - 1 of an AR(p).
    The gaps are solved as one stack (``impute_stacks``), and each gets the
    bits it would get alone. A regression is exact in either mode. The
    first failing gap's error is raised.
    """
    return stack_solutions(impute_stacks(model, gaps, starts, anchors, mode), len(gaps))


def _edges(gaps) -> tuple[np.ndarray, np.ndarray]:
    """The 1-based starts and anchor indices of constrained ``gaps``: a Gaps, or GapSegments."""
    if isinstance(gaps, Gaps) and len(gaps.anchor_values) == len(gaps):
        return gaps.starts, gaps.ends + 1
    if isinstance(gaps, Gaps) or not all(gap.constrained for gap in gaps):
        raise ValueError("gap has no anchor; use the open-gap prediction path")
    return np.array([gap.gap_start for gap in gaps], int), np.array([gap.anchor_index for gap in gaps], int)


def impute_stacks(model, gaps, starts, anchors, mode: str = "exact") -> list:
    """The GapStacks that ``impute_gaps`` solves the gaps in: one, unless
    padding would more than double it (``_stacks``). A failing stack is
    solved again gap by gap, so the first failing gap's error is raised."""
    _check_mode(mode)
    firsts, anchor_indices = _edges(gaps)
    if not len(firsts):
        return []
    models = as_models(model)
    try:
        return _impute(models, firsts, anchor_indices, starts, anchors, mode)
    except NumericalError:
        if len(firsts) == 1:
            raise
        for i in range(len(firsts)):
            impute_stacks(models.at(slice(i, i + 1)), gaps[i : i + 1], starts[i : i + 1],
                          anchors[i : i + 1], mode)
        # not reached by any input: each gap of a stack has the bits it has
        # alone, so some gap alone has raised; kept so no error is lost
        raise


def _impute(models, firsts, anchor_indices, starts, anchors, mode: str) -> list:
    """``impute_stacks`` of the gaps from 1-based ``firsts`` through
    ``anchor_indices`` by ``models``, without the gap-by-gap rerun."""
    # an AR(p)'s first p - 1 gap values follow the uncorrected recursion
    lag = models.p - 1 if models.kind is ArModel else 0
    starts, targets = _inputs(models, anchor_indices - firsts, starts, anchors)
    counts = anchor_indices - firsts + 1 - lag
    if counts.min() < 1:
        raise NumericalError(
            f"unreachable terminal constraint: order {lag + 1} leaves no control step "
            f"in a gap of length {(anchor_indices - firsts)[int(np.argmax(counts < 1))]}"
        )
    # an AR, or a regression of one output given scalar anchors
    scalar = models.kind is ArModel or np.ndim(anchors[0]) == 0
    order = np.argsort(counts, kind="stable")
    stacks = []
    for lo, hi in _stacks(counts[order]):
        index = order[lo:hi]
        mine = starts[index] if isinstance(starts, np.ndarray) else [starts[i] for i in index]
        stacks.append(_stack(models.at(index), firsts[index], mine, targets[index], counts[index], lag,
                             mode, scalar)._replace(index=index))
    return stacks


def _stack(models, firsts, starts, targets, counts, lag: int, mode: str, scalar) -> GapStack:
    """``_impute`` of one stack sorted by control count m, of gaps from the
    1-based ``firsts``, by a Models of one model or of one per gap: one
    table of blocks and prefix-stable Gram sums, read at each gap's own m;
    one forecast roll and one corrected roll, a VAR's to the longest m with
    each gap's controls zero past its own, an AR's each path to its own
    end; and one ``_lagrange`` solve. What rounds differently at another
    length runs per run of equal m, on slices of the stack: the products
    with the blocks, the objectives and a regression's forecast. The
    GapStack's index is left None."""
    shared = len(models) == 1
    ar, regression = models.kind is ArModel, models.kind is RegModel
    g, longest, runs = len(firsts), int(counts[-1]), equal_runs(counts)
    # one table to the longest count for a shared model, one per gap otherwise
    lengths = [longest] if shared else counts.tolist()
    blocks = _blocks(models, lengths)
    if ar:
        impulse = blocks[..., 0, 0]
        if mode == "paper":
            printed = printed_weights(models, lengths)
            blocks = printed[..., None, None]
        else:
            checked_weights(impulse)
    gram = _gram_sums(blocks)[0 if shared else np.arange(g), counts - 1]
    full = _full(blocks, counts)

    steps = (counts + lag).tolist() if ar else longest
    if regression:
        # a matmul over a gap's covariate rows, whose bits depend on the row count
        predicted = np.zeros((g, longest, targets.shape[1]))
        for lo, hi, m in runs:
            rows = np.array(starts[lo:hi])
            predicted[lo:hi, :m] = predict_forward(models.at(slice(lo, hi)), rows, m, covariates=rows)
    else:
        predicted = predict_forward(models, starts, steps)
    with np.errstate(over="ignore"):  # an offset that overflows is raised below or by _lagrange
        delta = (targets - predicted[np.arange(g), counts + lag - 1].reshape(targets.shape)).reshape(g, -1)
    if regression and not np.isfinite(delta).all():
        # a regression forecasts pointwise, so an overflowed forecast is an overflowed fill
        raise _fill_overflow(int(firsts[int(np.isfinite(delta).all(axis=1).argmin())]))
    # each gap's own values, one gap after another: a padded stack is dropped once it is read
    forecasts = predicted[np.arange(predicted.shape[1]) < (counts + lag)[:, None]]
    lam = _lagrange(gram, delta, full)
    controls = np.zeros((g, longest, delta.shape[1]))
    for lo, hi, m in runs:
        part = blocks if shared else blocks[lo:hi]
        controls[lo:hi, :m] = _controls(lam[lo:hi], np.flip(part[:, :m], axis=1), full[lo:hi])
    if regression:
        values = predicted + np.cumsum(controls, axis=1)
    else:
        values = predict_forward(models, starts, steps, controls=controls[..., 0] if ar else controls)
    del predicted
    controls = controls[np.arange(longest) < counts[:, None]]
    positions = np.arange(values.shape[1])
    fill = positions < (counts + lag - 1)[:, None]
    imputed, ends = values[fill], values[np.arange(g), counts + lag - 1]
    indices = (firsts[:, None] + positions)[fill]
    del values

    diagnostics = {"correction_rule": np.full(g, "uniform")} if regression else {}
    if mode == "paper" and ar:
        checked_weights(impulse)
        differences = diagnostics["max_weight_difference"] = np.empty(g)
        for lo, hi, m in runs:
            rows = slice(None) if shared else slice(lo, hi)
            differences[lo:hi] = np.abs(printed[rows, :m] - impulse[rows, :m]).max(axis=1)
    multipliers = lam
    if scalar:
        controls, multipliers = controls[..., 0], lam[:, 0]
        if regression:
            imputed, ends, forecasts = imputed[..., 0], ends[..., 0], forecasts[..., 0]
    objectives, residuals = _summaries(firsts, counts, lag, controls, imputed, ends, targets)
    if mode == "paper" and not (ar or regression):
        # after the fills' overflow check, so that an overflowing fill
        # fails with the same message in both modes
        differences = diagnostics["max_step_norm_difference"] = np.empty(g)
        for lo, hi, m in runs:
            part, u = blocks[0] if shared else blocks[lo:hi], controls[counts[:lo].sum() :][: (hi - lo) * m]
            differences[lo:hi] = step_norm_differences(part[..., :m, :, :], delta[lo:hi],
                                                       u.reshape(hi - lo, m, -1))
    return GapStack(None, firsts, counts, lag, "exact" if regression else mode, controls, delta, imputed,
                    indices, forecasts, multipliers, objectives, residuals, diagnostics)


def impute_gap_ar(model: ArModel, gap, seeds, anchor: float, mode: str = "exact") -> ControlSolution:
    """``impute_gaps`` of one autoregressive gap, from at least p ``seeds``
    up to the position before it."""
    return impute_gaps(model, [gap], [seeds], [anchor], mode)[0]


def impute_gap_var(model: VarModel, gap, seed, anchor, mode: str = "exact") -> ControlSolution:
    """``impute_gaps`` of one VAR(1) gap, from the row ``seed`` before it."""
    return impute_gaps(model, [gap], [seed], [anchor], mode)[0]


def impute_gap_regression(model: RegModel, gap, covariates, anchor) -> ControlSolution:
    """``impute_gaps`` of one regression gap, from its ``covariates`` rows
    (gap start through anchor): the fitted values plus a uniform correction."""
    return impute_gaps(model, [gap], [covariates], [anchor])[0]
