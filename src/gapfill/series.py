"""Parsing, gap segmentation, and output for delimited observation files."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import DataError

# Cells are compared against these after stripping surrounding whitespace.
# Empty cells always count as missing, independent of the marker set.
DEFAULT_NA_MARKERS: tuple[str, ...] = ("NA", "NaN", "+")

# Rows are converted on input, and written on output, this many at a time.
BLOCK = 2048


class _Echo:
    """A file for ``csv.writer`` whose ``write`` returns the line without its
    two-character terminator, so that ``writerow`` returns it."""

    def write(self, line: str) -> str:
        return line[:-2]


def _line_writer(delimiter: str):
    """``writerow`` of a ``csv.writer`` that returns each row as its line,
    without the line break. The row is written with a carriage return and a
    line feed as its terminator, so every cell that holds either is quoted
    and ``csv.reader`` reads the line back as exactly this row."""
    return csv.writer(_Echo(), delimiter=delimiter, lineterminator="\r\n").writerow


@dataclass(frozen=True)
class Series:
    """An ordered sequence of scalar or vector observations with gaps.

    Positions are 1-based row order. ``data`` is an n x dim float64 array
    whose row i-1 holds the observation at position i, NaN where any selected
    cell was missing; ``missing`` is the boolean mask of those rows. Both are
    read-only. The header cells and, per position, its row as one line are
    kept so that observed rows can be echoed verbatim on output. A line is
    the row as ``csv.writer`` writes it with ``delimiter`` (see
    ``_line_writer``), without the line break, and ``csv.reader`` reads it
    back as exactly that row; a blank row is the empty line.
    """

    data: np.ndarray
    missing: np.ndarray
    header: tuple[str, ...]
    lines: tuple[str, ...]
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
        render = _line_writer(delimiter)
        lines = []
        for pos, v in enumerate(observed, start=1):
            if v is None:
                lines.append(render((na_marker,) * dim))
                continue
            if v.shape != (dim,):
                raise DataError(f"value at position {pos} has {v.shape[0]} components, expected {dim}")
            data[pos - 1] = v
            lines.append(render([repr(float(c)) for c in v]))
        if column_names is not None:
            header = tuple(column_names)
        elif dim == 1:
            header = ("value",)
        else:
            header = tuple(f"v{i + 1}" for i in range(dim))
        return cls(data=data, missing=[v is None for v in observed], header=header,
                   lines=tuple(lines), value_columns=tuple(range(dim)), na_markers=(na_marker,),
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

    ``csv.reader`` reads the rows BLOCK at a time, and each block's value
    columns are converted before the next is read, so the cells of all rows
    never exist at once. Errors keep the order of a whole-text parse: no
    header, no data rows, the first ragged row, the column selection, then
    the first bad cell.
    """
    plain = '"' not in text and "\r" not in text
    if plain:
        # no cell can be quoted: each line is one row, as csv.writer writes it
        lines = text.split("\n") if text else []
        if text.endswith("\n"):
            lines.pop()
        reader = csv.reader(lines, delimiter=delimiter)
    else:
        reader = csv.reader(io.StringIO(text), delimiter=delimiter)
        lines, render = [], _line_writer(delimiter)
    first = _read_rows(reader, 1)
    if not first:
        raise DataError("empty input: no header row")
    header = tuple(first[0])
    ncol = len(header)
    markers = tuple(na_markers)
    absent = frozenset(("",) + markers)
    try:
        cols, pending = _select_columns(header, value_columns), None
    except DataError as exc:
        cols, pending = None, exc
    parts, count = [], 0
    while block := _read_rows(reader, BLOCK):
        if not plain:
            lines += map(render, block)
        lengths = set(map(len, block))
        if not lengths <= {ncol, 0}:
            i = next(i for i, row in enumerate(block) if len(row) not in (ncol, 0))
            raise DataError(f"ragged row {count + i + 1}: expected {ncol} cells, got {len(block[i])}")
        if 0 in lengths:
            # a blank line comes back as a zero-cell row; read it as one fully-empty row
            block = [row or ("",) * ncol for row in block]
        if pending is None:
            try:
                parts.append(_convert_columns(block, cols, absent))
            except ValueError:
                try:
                    parts.append(_convert_cells(block, cols, header, markers, count + 1))
                except DataError as exc:
                    # a ragged row further on still comes first
                    pending = exc
        count += len(block)
    if count == 0:
        raise DataError("no data rows")
    if pending is not None:
        raise pending
    if plain:
        del lines[0]
    data = np.concatenate([d for d, _ in parts])
    missing = np.concatenate([m for _, m in parts])
    data[missing] = np.nan
    return Series(data=data, missing=missing, header=header, lines=tuple(lines),
                  value_columns=cols, na_markers=markers, delimiter=delimiter)


def _read_rows(reader, count: int) -> list:
    """Up to ``count`` more rows of ``reader``; a row it cannot read (a cell
    over the csv field limit, say) is bad data on its line."""
    try:
        return list(islice(reader, count))
    except csv.Error as exc:
        raise DataError(f"cannot parse line {reader.line_num}: {exc}") from None


def _select_columns(header: tuple, value_columns) -> tuple[int, ...]:
    """Indices of the ``value_columns`` named in ``header`` (default all)."""
    if value_columns is None:
        return tuple(range(len(header)))
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
    return tuple(cols)


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


def _convert_cells(body, cols, header, markers, first: int) -> tuple[np.ndarray, np.ndarray]:
    """``_convert_columns`` cell by cell in row order, raising DataError
    for the first cell that is not a finite number; ``body[0]`` is row
    ``first``."""
    cells = []
    missing = []
    for i, row in enumerate(body, start=first):
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
    The text is the join of ``csv_blocks``.
    """
    return "".join(csv_blocks(series, filled, precision))


def csv_blocks(series: Series, filled, precision: int = 6):
    """``write_csv``'s text in pieces: the header line, then the lines of
    BLOCK rows at a time. The arguments are checked before this returns."""
    if not 1 <= precision <= 17:
        raise ValueError("precision must be between 1 and 17")
    values = np.asarray(filled, dtype=float)
    if values.shape != series.data.shape:
        raise DataError(
            f"filled values have shape {values.shape}, expected {len(series)} rows "
            f"of {series.dim} components"
        )
    return _csv_blocks(series, values, precision)


def _csv_blocks(series: Series, values: np.ndarray, precision: int):
    delimiter, dim, lines = series.delimiter, series.dim, series.lines
    render = _line_writer(delimiter)
    header = series.header + ("origin",)
    yield render(header) + "\n"
    # a row is its cells' line and the tag, which csv.writer quotes on its own
    observed, imputed = (delimiter + render((tag,)) for tag in ("observed", "imputed"))
    template = f"%.{precision}g,"
    others = [c for c in range(len(series.header)) if c not in series.value_columns]
    for start in range(0, len(series), BLOCK):
        stop = start + BLOCK
        out = [line + observed for line in lines[start:stop]]
        gone = np.flatnonzero(series.missing[start:stop]).tolist()
        if gone:
            # the block's imputed cells in one formatting pass ("%g" never prints a comma)
            numbers = values[start:stop][series.missing[start:stop]].ravel().tolist()
            text = (template * len(numbers)) % tuple(numbers)
            cells = text.split(",")
            columns = [None] * len(series.header)
            for pos, c in enumerate(series.value_columns):
                columns[c] = cells[pos:-1:dim]
            raw = [lines[start + i] for i in gone]
            if others:
                read = [row or [""] * len(series.header)
                        for row in csv.reader(raw, delimiter=delimiter)]
                for c in others:
                    columns[c] = [row[c] for row in read]
            quote_numbers = delimiter != "," and delimiter in text
            # csv.writer quotes a cell that holds the delimiter, a quote, "\r" or
            # "\n", and a line holds a quote exactly when one of its cells was
            # quoted; a row none of whose cells needs quoting is its cells joined
            for i, line, row in zip(gone, raw, zip(*columns)):
                if quote_numbers or '"' in line:
                    out[i] = render(row + ("imputed",))
                else:
                    out[i] = delimiter.join(row) + imputed
        yield "\n".join(out) + "\n"
