"""Parsing, gap segmentation, and output for delimited observation files."""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DataError

# Cells are compared against these after stripping surrounding whitespace.
# Empty cells always count as missing, independent of the marker set.
DEFAULT_NA_MARKERS: tuple[str, ...] = ("NA", "NaN", "+")


@dataclass(frozen=True)
class Series:
    """An ordered sequence of scalar or vector observations with gaps.

    Positions are 1-based row order. ``data`` is an n x dim float64 array
    whose row i-1 holds the observation at position i, NaN where any selected
    cell was missing; ``missing`` is the boolean mask of those rows. Both are
    read-only. The raw header and rows are kept so observed cells can be
    echoed verbatim on output.
    """

    data: np.ndarray
    missing: np.ndarray
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    value_columns: tuple[int, ...]
    na_markers: tuple[str, ...] = DEFAULT_NA_MARKERS
    delimiter: str = ","

    def __post_init__(self):
        data = np.array(self.data, dtype=float)
        missing = np.array(self.missing, dtype=bool)
        if data.ndim != 2 or data.shape[1] < 1:
            raise DataError("series needs at least one value column")
        if missing.shape != data.shape[:1]:
            raise DataError(f"missing mask has shape {missing.shape}, expected ({data.shape[0]},)")
        if missing.all():
            raise DataError("no observed values")
        data.setflags(write=False)
        missing.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "missing", missing)

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def value(self, index: int):
        """Observation at 1-based ``index`` (None when missing)."""
        if not 1 <= index <= len(self):
            raise IndexError(f"position {index} is outside 1..{len(self)}")
        return None if self.missing[index - 1] else self.data[index - 1]

    @property
    def missing_indices(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(self.missing) + 1).tolist())

    @property
    def observed_indices(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(~self.missing) + 1).tolist())

    @property
    def prefix_length(self) -> int:
        """Number of observed positions before the first missing one."""
        return int(self.missing.argmax()) if self.missing.any() else len(self)

    @classmethod
    def from_values(cls, values: Sequence, column_names: Sequence[str] | None = None,
                    na_marker: str = "NA", delimiter: str = ",") -> "Series":
        """Build a Series directly from numeric values; None marks a missing point."""
        observed = [None if v is None else np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
        first = next((v for v in observed if v is not None), None)
        if first is None:
            raise DataError("no observed values")
        dim = first.shape[0]
        data = np.full((len(observed), dim), np.nan)
        rows = []
        for pos, v in enumerate(observed, start=1):
            if v is None:
                rows.append((na_marker,) * dim)
                continue
            if v.shape != (dim,):
                raise DataError(f"value at position {pos} has {v.shape[0]} components, expected {dim}")
            data[pos - 1] = v
            rows.append(tuple(repr(float(c)) for c in v))
        if column_names is not None:
            header = tuple(column_names)
        elif dim == 1:
            header = ("value",)
        else:
            header = tuple(f"v{i + 1}" for i in range(dim))
        return cls(data=data, missing=[v is None for v in observed], header=header,
                   rows=tuple(rows), value_columns=tuple(range(dim)), na_markers=(na_marker,),
                   delimiter=delimiter)


@dataclass(frozen=True)
class GapSegment:
    """One maximal run of missing positions with its seed window and anchor.

    ``seed_indices`` are the positions feeding the recursion into the gap; they
    may point into an earlier gap, in which case the caller fills gaps left to
    right so those positions carry imputed values by the time they are read.
    ``anchor_index``/``anchor_value`` are None only for a gap that runs to the
    end of the series (open-gap mode).
    """

    gap_start: int
    gap_end: int
    seed_indices: tuple[int, ...]
    anchor_index: int | None
    anchor_value: np.ndarray | None

    @property
    def length(self) -> int:
        return self.gap_end - self.gap_start + 1

    @property
    def indices(self) -> range:
        return range(self.gap_start, self.gap_end + 1)

    @property
    def constrained(self) -> bool:
        return self.anchor_index is not None


def parse_csv(text: str, na_markers: Sequence[str] = DEFAULT_NA_MARKERS,
              value_columns: Sequence[str] | None = None, delimiter: str = ",") -> Series:
    """Parse delimited text with a header row into a Series.

    A cell is missing when it is empty or (after stripping) equals one of
    ``na_markers``; a row whose selected cells are partly missing counts as a
    missing observation, though its non-missing cells are still validated.
    ``value_columns`` selects columns by header name, each at most once;
    default is all columns.
    """
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    all_rows = [tuple(r) for r in reader]
    if not all_rows:
        raise DataError("empty input: no header row")
    header = all_rows[0]
    body = all_rows[1:]
    if not body:
        raise DataError("no data rows")
    ncol = len(header)
    # a blank line comes back as a zero-cell row; read it as one fully-empty row
    body = [row if row else ("",) * ncol for row in body]
    for i, row in enumerate(body, start=1):
        if len(row) != ncol:
            raise DataError(f"ragged row {i}: expected {ncol} cells, got {len(row)}")

    if value_columns is None:
        cols = tuple(range(ncol))
    else:
        names = list(value_columns)
        if not names:
            raise DataError("no value columns selected")
        cols = []
        for i, name in enumerate(names):
            if name in names[:i]:
                raise DataError(f"column {name!r} is selected twice")
            matches = [i for i, h in enumerate(header) if h.strip() == name]
            if not matches:
                raise DataError(f"unknown column {name!r}; header has {', '.join(header)}")
            cols.append(matches[0])
        cols = tuple(cols)

    markers = tuple(na_markers)
    try:
        data, missing = _convert_columns(body, cols, frozenset(("",) + markers))
    except ValueError:
        data, missing = _convert_cells(body, cols, header, markers)
    data[missing] = np.nan
    return Series(data=data, missing=missing, header=tuple(header), rows=tuple(body),
                  value_columns=cols, na_markers=markers, delimiter=delimiter)


def _convert_columns(body, cols, absent) -> tuple[np.ndarray, np.ndarray]:
    """The selected cells as floats (NaN where a stripped cell is in
    ``absent``) and the mask of rows with any such cell; one numpy
    conversion per column. A cell that is not a finite number raises
    ValueError, for ``_convert_cells`` to name."""
    data = np.empty((len(body), len(cols)))
    missing = np.zeros(len(body), dtype=bool)
    for j, c in enumerate(cols):
        cells = [row[c].strip() for row in body]
        gone = [cell in absent for cell in cells]
        # numpy parses each cell as float() does, bit for bit
        values = np.array(["nan" if g else cell for cell, g in zip(cells, gone)], dtype=float)
        gone = np.array(gone, dtype=bool)
        if not (np.isfinite(values) | gone).all():
            raise ValueError("non-finite cell")
        data[:, j] = values
        missing |= gone
    return data, missing


def _convert_cells(body, cols, header, markers) -> tuple[np.ndarray, np.ndarray]:
    """``_convert_columns`` cell by cell in row order, raising DataError
    for the first cell that is not a finite number."""
    cells = []
    missing = []
    for i, row in enumerate(body, start=1):
        row_missing = False
        for c in cols:
            cell = row[c].strip()
            if cell == "" or cell in markers:
                row_missing = True
                cells.append(math.nan)
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"non-numeric value {cell!r} in row {i}, column {header[c]!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(
                    f"non-finite value {cell!r} in row {i}, column {header[c]!r} "
                    f"(add it to the missing-value markers if it denotes a gap)"
                )
            cells.append(v)
        missing.append(row_missing)
    return np.array(cells).reshape(len(body), len(cols)), np.array(missing, dtype=bool)


def detect_gaps(series: Series, order: int = 1,
                allow_open_gap: bool = False) -> tuple[int, list[GapSegment]]:
    """Segment the series into an observed prefix and maximal gaps.

    Returns ``(prefix_length, segments)`` where ``prefix_length`` is the number
    of observed positions before the first gap and segments are ordered left to
    right. Each gap needs ``order`` seed positions before it and, unless
    ``allow_open_gap`` is set, one observed anchor right after it.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = len(series)
    # +1 where a run of missing rows starts, -1 just past where it ends
    edges = np.diff(series.missing.astype(np.int8), prepend=0, append=0)
    runs = zip((np.flatnonzero(edges == 1) + 1).tolist(), np.flatnonzero(edges == -1).tolist())

    segments = []
    for gap_start, gap_end in runs:
        if gap_start == 1:
            raise DataError("gap has no seed window: the series begins with a missing value")
        if gap_start - order < 1:
            raise DataError(
                f"gap at index {gap_start} needs {order} seed values "
                f"but only {gap_start - 1} positions precede it"
            )
        if gap_end == n:
            if not allow_open_gap:
                raise DataError(
                    f"gap at indices {gap_start}..{gap_end} has no anchor: the series ends "
                    f"inside the gap (enable open-gap mode to fill it without a terminal value)"
                )
            anchor_index = None
            anchor_value = None
        else:
            anchor_index = gap_end + 1
            anchor_value = series.data[gap_end]
        segments.append(GapSegment(
            gap_start=gap_start,
            gap_end=gap_end,
            seed_indices=tuple(range(gap_start - order, gap_start)),
            anchor_index=anchor_index,
            anchor_value=anchor_value,
        ))
    return series.prefix_length, segments


def write_csv(series: Series, filled, precision: int = 6) -> str:
    """Render the series with gaps filled, appending an ``origin`` column.

    ``filled`` is an n x dim array shaped like ``series.data``. Observed rows
    echo their original cells; missing rows get their value cells replaced
    by the row of ``filled``, printed with ``precision`` significant digits.
    """
    if not 1 <= precision <= 17:
        raise ValueError("precision must be between 1 and 17")
    values = np.asarray(filled, dtype=float)
    if values.shape != series.data.shape:
        raise DataError(
            f"filled values have shape {values.shape}, expected {len(series)} rows "
            f"of {series.dim} components"
        )
    order = series.missing_indices
    dim = series.dim
    # every imputed cell in one formatting pass ("%g" never prints a comma)
    numbers = values[series.missing].ravel().tolist()
    cells = ((f"%.{precision}g," * len(numbers)) % tuple(numbers)).split(",")[:-1]
    # the imputed rows, column by column: raw cells, then the value columns replaced
    raw = [series.rows[i - 1] for i in order]
    columns = [[row[c] for row in raw] for c in range(len(series.header))]
    for pos, c in enumerate(series.value_columns):
        columns[c] = cells[pos::dim]
    rows = list(series.rows)
    tags = [("observed",)] * len(rows)
    for i, row in zip(order, zip(*columns)):
        rows[i - 1] = row
        tags[i - 1] = ("imputed",)

    header = tuple(series.header) + ("origin",)
    # rows are joined to their tags as they are written, so none of them outlives its line
    lines = map(operator.add, rows, tags)
    # csv.writer quotes a cell that holds the delimiter, a quote or a line
    # break; when no cell does, a line is just its cells joined
    every_cell = "".join(chain(header, chain.from_iterable(series.rows), cells, ("observed", "imputed")))
    if not any(mark in every_cell for mark in (series.delimiter, '"', "\n", "\r")):
        return "\n".join(map(series.delimiter.join, chain((header,), lines))) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=series.delimiter, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(lines)
    return buf.getvalue()
