"""Parsing, gap segmentation, and output for delimited observation files."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import not_
from typing import NamedTuple, Sequence

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


def check_delimiter(delimiter: str) -> str:
    """``delimiter``; ValueError for '"', which quotes cells, or a line break, which ends rows."""
    if delimiter in ('"', "\n", "\r"):
        raise ValueError(f"delimiter may not be {delimiter!r}: the output would not read back")
    return delimiter


def _line_writer(delimiter: str):
    """``writerow`` of a ``csv.writer`` that returns each row as its line,
    without the line break. The row is written with a carriage return and a
    line feed as its terminator, so every cell that holds either is quoted
    and ``csv.reader`` reads the line back as exactly this row."""
    return csv.writer(_Echo(), delimiter=check_delimiter(delimiter), lineterminator="\r\n").writerow


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
                   lines=tuple(lines), value_columns=tuple(range(dim)), delimiter=delimiter)


class GapSegment(NamedTuple):
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

    Rows are read BLOCK at a time, and each block's value columns are
    converted before the next is read, so the cells of all rows never exist
    at once. Plain text (an ASCII delimiter, no quote, carriage return or
    NUL, and no line over the csv field limit) is one row per line, and one
    byte scan of each block finds its cells (see ``_scanned_blocks``); other
    text is read with ``csv.reader``. Errors keep the order of a whole-text
    parse: no header, no data rows, the first ragged row, the column
    selection, then the first bad cell.
    """
    render = _line_writer(delimiter)  # a delimiter csv cannot take fails here
    plain = '"' not in text and "\r" not in text and "\0" not in text and delimiter.isascii()
    if plain:
        # no cell can be quoted: each line is one row, as csv.writer writes it
        lines = text.split("\n") if text else []
        if text.endswith("\n"):
            lines.pop()
        plain = max(map(len, lines), default=0) <= csv.field_size_limit()
    if plain:
        rows = [lines[0].split(delimiter) if lines[0] else []] if lines else []
    else:
        reader = csv.reader(io.StringIO(text), delimiter=delimiter)
        rows, lines = _read_rows(reader, 1), []
    if not rows:
        raise DataError("empty input: no header row")
    header, ncol = tuple(rows[0]), len(rows[0])
    if not header:
        raise DataError("blank header row: the first line has no column names")
    blocks = _scanned_blocks(lines, delimiter, ncol) if plain else _reader_blocks(reader, lines, render, ncol)
    absent = frozenset(("", *na_markers))
    try:
        cols, pending = _select_columns(header, value_columns), None
    except DataError as exc:
        cols, pending = None, exc
    split = (lambda block: delimiter.join(block).split(delimiter)) if plain else (lambda cells: cells)
    parts, count = [], 0
    for n, block, scan in blocks:
        if pending is None:
            try:
                # a block that the scan cannot take is split whole
                parts.append(scan and _complete_rows(block, scan, delimiter, ncol, cols, absent)
                             or _convert_columns(split(block), ncol, cols, absent))
            except ValueError:
                # a ragged row further on still comes first
                pending = _bad_cell(split(block), ncol, cols, header, absent, count + 1)
        count += n
    if count == 0:
        raise DataError("no data rows")
    if pending is not None:
        raise pending
    data = np.concatenate([d for d, _ in parts])
    missing = np.concatenate([m for _, m in parts])
    data[missing] = np.nan
    return Series(data=data, missing=missing, header=header, lines=tuple(lines[1:] if plain else lines),
                  value_columns=cols, delimiter=delimiter)


def _scanned_blocks(lines: list, delimiter: str, ncol: int):
    """(row count, lines, scan) of ``lines[1:]``, BLOCK rows at a time; a blank line
    is one fully-empty row. ``scan`` is a block's bytes and each cell's (ncol,
    rows) start and width, or None when a byte other than the delimiter and
    line feeds is not printable ASCII, which ``str.strip`` might remove."""
    for start in range(1, len(lines), BLOCK):
        block = lines[start:start + BLOCK]
        if ncol > 1 and "" in block:
            block = [line or delimiter * (ncol - 1) for line in block]
        buf = np.frombuffer("\n".join(block + [""]).encode(), dtype=np.uint8)
        ends = np.flatnonzero((buf == ord(delimiter)) | (buf == 10))
        # cells per line: the count of delimiters and line feeds up to each line feed
        counts = np.diff(np.flatnonzero(buf[ends] == 10), prepend=-1)
        if (counts != ncol).any():
            i = int(np.argmax(counts != ncol))
            raise DataError(f"ragged row {start + i}: expected {ncol} cells, got {counts[i]}")
        odd = (buf - 0x21) > 0x7e - 0x21  # not printable ASCII: uint8 wraps below 0x21
        odd[ends] = False
        starts = np.concatenate(([0], ends[:-1] + 1)).reshape(-1, ncol)
        yield len(block), block, None if odd.any() else (buf, starts.T, (ends.reshape(-1, ncol) - starts).T)


def _complete_rows(block: list, scan, delimiter: str, ncol: int, cols, absent) -> tuple | None:
    """``_convert_columns`` of a scanned block, whose cells need no strip: a
    cell is missing when its bytes are those of a marker in ``absent``, and
    only the complete rows are split and converted. None when a row is
    partly missing, for the caller to check its present cells."""
    buf, starts, widths = scan
    starts, widths = starts[list(cols)], widths[list(cols)]
    gone = np.zeros(widths.shape, dtype=bool)
    for marker in [m.encode() for m in absent if m.isascii()]:  # a scanned cell is ASCII
        hit = widths == len(marker)
        for k, byte in enumerate(marker):
            hit[hit] = buf[starts[hit] + k] == byte
        gone |= hit
    missing = gone.any(axis=0)
    if (gone.all(axis=0) != missing).any():
        return None
    data = np.empty(widths.shape[::-1])
    kept = list(compress(block, (~missing).tolist()))
    cells = delimiter.join(kept).split(delimiter) if kept else []
    # one numpy conversion, which parses each cell as float() does
    values = np.array([cells[c::ncol] for c in cols], dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("non-finite cell")
    data[~missing] = values.T
    return data, missing


def _reader_blocks(reader, lines: list, render, ncol: int):
    """``_scanned_blocks`` for text that needs ``csv.reader``, with the cells
    for lines; appends each row's line, as ``render`` writes it, to ``lines``."""
    count = 0
    while block := _read_rows(reader, BLOCK):
        lines += map(render, block)
        lengths = set(map(len, block))
        if not lengths <= {ncol, 0}:
            i = next(i for i, row in enumerate(block) if len(row) not in (ncol, 0))
            raise DataError(f"ragged row {count + i + 1}: expected {ncol} cells, got {len(block[i])}")
        if 0 in lengths:
            # a blank line comes back as a zero-cell row; read it as one fully-empty row
            block = [row or ("",) * ncol for row in block]
        count += len(block)
        yield len(block), list(chain.from_iterable(block)), None


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


def _convert_columns(cells: list, ncol: int, cols, absent) -> tuple[np.ndarray, np.ndarray]:
    """The selected columns of ``cells`` (rows of ``ncol`` cells one after
    another) as floats, and the mask of rows where a stripped selected cell
    is in ``absent``, whose entries are left unset; one slice and one numpy
    conversion per column. A cell that is not a finite number raises
    ValueError, for ``_bad_cell`` to name."""
    data = np.empty((len(cells) // ncol, len(cols)))
    missing = np.zeros(len(data), dtype=bool)
    for j, c in enumerate(cols):
        column = list(map(str.strip, cells[c::ncol]))
        gone = list(map(absent.__contains__, column))
        # numpy parses each cell as float() does, bit for bit
        values = np.array(list(compress(column, map(not_, gone))), dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("non-finite cell")
        gone = np.array(gone, dtype=bool)
        data[~gone, j] = values
        missing |= gone
    return data, missing


def _bad_cell(cells: list, ncol: int, cols, header, absent, first: int) -> DataError:
    """The error for the first selected cell of ``_convert_columns`` that is
    not a finite number, found cell by cell in row order; the first row of
    ``cells`` is row ``first``."""
    for i, row in enumerate(zip(*[iter(cells)] * ncol), start=first):
        for c in cols:
            cell = row[c].strip()
            if cell in absent:
                continue
            try:
                v = float(cell)
            except ValueError:
                return DataError(f"non-numeric value {cell!r} in row {i}, column {header[c]!r}")
            if not math.isfinite(v):
                return DataError(
                    f"non-finite value {cell!r} in row {i}, column {header[c]!r} "
                    f"(add it to the missing-value markers if it denotes a gap)"
                )


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
        segments.append(GapSegment(gap_start, gap_end, tuple(range(gap_start - order, gap_start)),
                                   anchor_index, anchor_value))
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
    delimiter, header, lines = series.delimiter, series.header, series.lines
    render = _line_writer(delimiter)
    yield render(header + ("origin",)) + "\n"
    # each tag as csv.writer writes it after a row's cells, with the line break
    observed, imputed = (delimiter + render((tag,)) + "\n" for tag in ("observed", "imputed"))
    # the value cells in header order; when they are the whole row, an
    # imputed row is one template, escaped for "%", unless a formatted
    # number holds the delimiter and csv.writer would quote it
    columns = sorted(series.value_columns)
    values = values[:, np.argsort(series.value_columns)]
    template = (delimiter.replace("%", "%%").join([f"%.{precision}g"] * series.dim)
                + imputed.replace("%", "%%"))
    per_row = (delimiter * (series.dim - 1) + imputed).count(delimiter)
    whole = len(columns) == len(header)
    # the maximal runs of the mask, cut at every BLOCK rows; one piece per block
    n = len(lines)
    cuts = sorted({*(np.flatnonzero(np.diff(series.missing)) + 1).tolist(), *range(0, n, BLOCK), n})
    piece = []
    for a, b in zip(cuts, cuts[1:]):
        if series.missing[a]:
            numbers = tuple(values[a:b].ravel().tolist())
            text = (template * (b - a)) % numbers if whole else ""
            if not whole or text.count(delimiter) != (b - a) * per_row:
                # csv.writer's render of each row, its other cells read back from its line
                cells = iter(((f"%.{precision}g\n" * len(numbers)) % numbers).split("\n"))
                text = "".join(
                    render([next(cells) if c in columns else cell
                            for c, cell in enumerate(row or [""] * len(header))]
                           + ["imputed"]) + "\n"
                    for row in csv.reader(lines[a:b], delimiter=delimiter))
            piece.append(text)
        else:
            piece.append(observed.join(lines[a:b]) + observed)
        if b % BLOCK == 0 or b == n:
            yield "".join(piece)
            piece = []
