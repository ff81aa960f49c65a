import csv
import io
import math
import pathlib
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill import series as series_module
from gapfill.errors import DataError
from gapfill.series import (
    BLOCK,
    DEFAULT_NA_MARKERS,
    Series,
    csv_blocks,
    detect_gaps,
    parse_csv,
    write_csv,
)


ROOT = pathlib.Path(__file__).resolve().parent.parent


def make_series(values):
    return Series.from_values(values)


def runs_by_row_loop(missing):
    """Reference: maximal runs of missing rows (1-based, inclusive), found row by row."""
    runs = []
    for i, gone in enumerate(missing, start=1):
        if not gone:
            continue
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return [tuple(r) for r in runs]


def write_csv_by_row_loop(header, rows, value_columns, delimiter, filled, precision,
                          markers=DEFAULT_NA_MARKERS):
    """Reference: the filled CSV rendered row by row from the cells the input
    was written from, one formatted cell at a time. Each row is written with
    a carriage return and a line feed as its terminator, which quotes every
    cell holding either, and ends in a line feed alone instead."""
    cols = [header.index(name) for name in value_columns]
    out = [written([list(header) + ["origin"]], delimiter, "\r\n")[:-2]]
    for row, values in zip(rows, filled):
        cells = list(row) or [""] * len(header)
        if any(cells[c].strip() in ("",) + tuple(markers) for c in cols):
            for c, v in zip(cols, values):
                cells[c] = format(v, f".{precision}g")
            tag = "imputed"
        else:
            tag = "observed"
        out.append(written([cells + [tag]], delimiter, "\r\n")[:-2])
    return "\n".join(out) + "\n"


def written(rows, delimiter=",", lineterminator="\n") -> str:
    buf = io.StringIO()
    csv.writer(buf, delimiter=delimiter, lineterminator=lineterminator).writerows(rows)
    return buf.getvalue()


@st.composite
def csv_cases(draw):
    """A delimited file with value columns out of header order beside other columns,
    the parsed series, a filled array for it, and the cells the file was
    written from; its observed rows hold arbitrary numbers, which must not
    be rendered."""
    dim = draw(st.integers(1, 3))
    extra = draw(st.integers(0, 2))
    header = [f"c{j}" for j in range(dim + extra)]
    value_columns = draw(st.permutations(header))[:dim]
    delimiter = draw(st.sampled_from([",", "\t", ".", "e", "s"]))
    free_text = st.lists(st.sampled_from(["a", " ", ",", "\t", '"', "'", "NA", "\n", "é"]),
                         max_size=4).map("".join)
    value_cell = st.one_of(
        st.floats(-1e6, 1e6).map(repr),
        st.integers(-999, 999).map(str),
        st.sampled_from(["NA", "", " NA ", "+", "NaN", "1.50", "-0", "1e-7"]),
    )
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        rows.append([draw(value_cell) if name in value_columns else draw(free_text) for name in header])
    rows.append(["1.0" if name in value_columns else draw(free_text) for name in header])
    text = written([header] + rows, delimiter, draw(st.sampled_from(["\n", "\r\n"])))
    series = parse_csv(text, value_columns=value_columns, delimiter=delimiter)
    components = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 2.0 / 3.0]))
    filled = np.array(draw(st.lists(st.lists(components, min_size=dim, max_size=dim),
                                    min_size=len(series), max_size=len(series))))
    return series, filled, (header, rows, value_columns, delimiter)


def filled_rows(series, imputed):
    """``series.data`` with the rows of ``imputed`` (1-based index to vector) filled in."""
    filled = series.data.copy()
    for index, vector in imputed.items():
        filled[index - 1] = vector
    return filled


def parse_cells_by_row_loop(rows, columns, markers):
    """Reference: the selected cells read one at a time with ``float()`` in
    row order; (data, missing rows) or the (row, column, kind) of the first
    cell that is not a finite number."""
    data = np.full((len(rows), len(columns)), np.nan)
    missing = np.zeros(len(rows), dtype=bool)
    for i, row in enumerate(rows):
        for j, c in enumerate(columns):
            cell = row[c].strip()
            if cell == "" or cell in markers:
                missing[i] = True
                continue
            try:
                data[i, j] = float(cell)
            except ValueError:
                return i + 1, c, "non-numeric"
            if not math.isfinite(data[i, j]):
                return i + 1, c, "non-finite"
    data[missing] = np.nan
    return data, missing


ODD_CELLS = st.lists(st.lists(st.sampled_from([
    "1", "-2.5", " 3e-7 ", "1_0", "0x10", "1e", "infinity", "-inf", "nan", "NaN", "NA", "",
    " NA ", "+", ".5", "5.", "\u0661\u0662", "1e400", "4.9e-324", "0.1", "x", "1,5",
]), min_size=2, max_size=2), min_size=1, max_size=8)


def assert_columns_match_cell_loop(text, cells, selected, delimiter=","):
    """``parse_csv(text)`` gives what ``parse_cells_by_row_loop`` gives for
    the cells ``text`` was written from."""
    names = [["a", "b"][c] for c in selected]
    want = parse_cells_by_row_loop(cells, selected, DEFAULT_NA_MARKERS)
    if isinstance(want[0], int):
        row, column, kind = want
        cell = cells[row - 1][column].strip()
        with pytest.raises(DataError, match=re.escape(f"{kind} value {cell!r} in row {row}, "
                                                      f"column {['a', 'b'][column]!r}")):
            parse_csv(text, value_columns=names, delimiter=delimiter)
        return
    if want[1].all():
        with pytest.raises(DataError, match="no observed values"):
            parse_csv(text, value_columns=names, delimiter=delimiter)
        return
    got = parse_csv(text, value_columns=names, delimiter=delimiter)
    assert got.data.tobytes() == want[0].tobytes()
    assert got.missing.tolist() == want[1].tolist()


# markers that share prefixes with each other and with numbers, and one that is not ASCII
SCAN_MARKERS = [DEFAULT_NA_MARKERS, ("N", "NA", "NaN", "-", "1"), ("-9", "-99", "NA"), ("NA", "é")]


@st.composite
def plain_texts(draw):
    """Unquoted text, one row per line, whose parse must not depend on how it is
    read: blank lines, padded markers, columns that are not values and ragged
    rows, and in some texts one cell that holds NUL or is at or over a field
    limit of 64; with its delimiter, missing-value markers and a row-block
    size. About half the texts have no whitespace in their cells, so that
    their blocks take the byte scan, with all-missing and partly missing rows."""
    ncol = draw(st.integers(1, 3))
    header = [f"c{j}" for j in range(ncol)]
    value_columns = draw(st.permutations(header))[:draw(st.integers(1, ncol))]
    delimiter = draw(st.sampled_from([",", ";", "\t", "§"]))
    if draw(st.booleans()):
        markers = draw(st.sampled_from(SCAN_MARKERS))
        value_cell = st.sampled_from(["1", "12", "-1", "-12", "-9", "-99", "-999", "2.5", "N", "NA", "NaN",
                                      "-", "", "+"] * 2 + ["NAN", "x", "1e400", "é"])
        free_cell = st.sampled_from(["a", "", "NA", "1"])
        gone_cell = st.sampled_from(["", *markers])
    else:
        markers = DEFAULT_NA_MARKERS
        value_cell = st.sampled_from(["1", "-2.5", " 3 ", "0.5", "7", "1e-7", "4", "-0", "NA", " NA ", "",
                                      "+", "NaN", "nan", "x", "1e400"])
        free_cell = st.sampled_from(["a", " ", "", "NA", "é"])
        gone_cell = st.sampled_from(["", " ", " NA ", "NaN ", " +"])
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 8 + ["gone"] * 4 + ["blank", "ragged"]))
        cells = [draw(gone_cell if kind == "gone" and name in value_columns else
                      value_cell if name in value_columns else free_cell) for name in header]
        if kind == "ragged":
            cells = cells[:-1] if ncol > 1 and draw(st.booleans()) else cells + ["1"]
        rows.append([] if kind == "blank" else cells)
    special = draw(st.sampled_from([None] * 5 + ["a\0b", "b" * 64, "b" * 65]))
    if special and any(rows):
        row = draw(st.sampled_from([row for row in rows if row]))
        row[draw(st.integers(0, len(row) - 1))] = special
    lines = [delimiter.join(header)] + [delimiter.join(row) for row in rows]
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return text, value_columns, delimiter, markers, draw(st.integers(1, 4))


def parsed_or_error(text, **kwargs):
    try:
        s = parse_csv(text, **kwargs)
    except DataError as exc:
        return str(exc)
    return s.data.tobytes(), s.missing.tolist(), s.lines, s.header, s.value_columns


class TestParseCsv:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(cells=ODD_CELLS, selected=st.sampled_from([[0], [1], [1, 0]]))
    def test_columns_match_cell_loop(self, cells, selected):
        text = "a,b\n" + "".join(f'"{a}","{b}"\n' for a, b in cells)
        assert_columns_match_cell_loop(text, cells, selected)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(cells=ODD_CELLS, selected=st.sampled_from([[0], [1], [1, 0]]))
    def test_unquoted_columns_match_cell_loop(self, cells, selected):
        # the twin of the quoted test: no cell holds ";", so each line is split as it is
        text = "a;b\n" + "".join(f"{a};{b}\n" for a, b in cells)
        assert_columns_match_cell_loop(text, cells, selected, delimiter=";")

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(case=plain_texts())
    def test_split_lines_read_as_csv_reader_reads_them(self, case):
        # quoting one header cell sends the same rows through csv.reader
        text, value_columns, delimiter, markers, block = case
        quoted = '"c0"' + text[2:]
        limit = csv.field_size_limit(64)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(series_module, "BLOCK", block)
                kwargs = {"value_columns": value_columns, "delimiter": delimiter, "na_markers": markers}
                assert parsed_or_error(text, **kwargs) == parsed_or_error(quoted, **kwargs)
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_workload_rows_take_the_byte_scan(self, delimiter, monkeypatch):
        # no block of many_gaps_var's input is split whole, and of its rows
        # only the complete ones are split into cells
        sys.path.insert(0, str(ROOT / "bench"))
        try:
            from workloads import WORKLOADS, generate
        finally:
            sys.path.remove(str(ROOT / "bench"))
        text = generate(WORKLOADS["many_gaps_var"], "tiny", 1).replace(",", delimiter)
        want = parsed_or_error('"x1"' + text[2:], delimiter=delimiter)
        joined = []

        class Spy(str):
            def join(self, lines):
                lines = list(lines)
                joined.extend(lines)
                return str.join(self, lines)

        def split_whole(*args):
            raise AssertionError("a block was split whole")

        monkeypatch.setattr(series_module, "_convert_columns", split_whole)
        assert parsed_or_error(text, delimiter=Spy(delimiter)) == want
        gone = delimiter.join(["NA"] * 3)
        assert gone in text.splitlines() and joined
        assert gone not in joined and len(joined) == (~np.asarray(want[1])).sum()

    def test_scalar_column_with_empty_cell(self):
        s = parse_csv("value\n1.5\n\n2.5\n")
        assert s.dim == 1
        assert len(s) == 3
        assert s.value(1)[0] == 1.5
        assert s.value(2) is None
        assert s.missing_indices == (2,)

    def test_na_markers(self):
        s = parse_csv("v\n1\nNA\nNaN\n+\n4\n")
        assert s.missing_indices == (2, 3, 4)

    def test_custom_marker_replaces_default(self):
        s = parse_csv("v\n1\nmiss\n3\n", na_markers=("miss",))
        assert s.missing_indices == (2,)
        # 'NA' is no longer a marker, so it must fail as non-numeric
        with pytest.raises(DataError, match="non-numeric"):
            parse_csv("v\n1\nNA\n3\n", na_markers=("miss",))

    def test_marker_matching_strips_whitespace(self):
        s = parse_csv("v\n1\n  NA \n3\n")
        assert s.missing_indices == (2,)

    def test_vector_partial_row_counts_missing(self):
        s = parse_csv("a,b\n1,2\n3,+\n5,6\n")
        assert s.dim == 2
        assert s.missing_indices == (2,)

    def test_partial_row_still_validates_cells(self):
        with pytest.raises(DataError, match="non-numeric"):
            parse_csv("a,b\n1,2\njunk,+\n5,6\n")

    def test_column_selection(self):
        s = parse_csv("t,a,b\n1,10,20\n2,30,40\n", value_columns=["b"])
        assert s.dim == 1
        assert s.value(2)[0] == 40.0

    def test_unknown_column(self):
        with pytest.raises(DataError, match="unknown column"):
            parse_csv("a,b\n1,2\n", value_columns=["c"])
        with pytest.raises(DataError, match="^no value columns selected$"):
            parse_csv("a,b\n1,2\n", value_columns=[])

    def test_ragged_row(self):
        with pytest.raises(DataError, match="ragged row 2"):
            parse_csv("a,b\n1,2\n3\n")

    def test_non_numeric_cell(self):
        with pytest.raises(DataError, match="non-numeric value 'x'"):
            parse_csv("a\n1\nx\n")

    def test_non_finite_rejected_with_hint(self):
        with pytest.raises(DataError, match="non-finite"):
            parse_csv("a\n1\ninf\n")

    def test_all_missing_rejected(self):
        with pytest.raises(DataError, match="no observed values"):
            parse_csv("a\nNA\nNA\n")

    def test_empty_input(self):
        with pytest.raises(DataError):
            parse_csv("")

    def test_header_only(self):
        with pytest.raises(DataError, match="no data rows"):
            parse_csv("a,b\n")

    def test_tab_delimiter(self):
        s = parse_csv("a\tb\n1\t2\n", delimiter="\t")
        assert s.dim == 2

    def test_lines_are_rows_as_csv_writer_writes_them(self):
        plain = "v,note\n1, a \n\nNA,b;c\n4,d"
        assert parse_csv(plain, value_columns=["v"]).lines == ("1, a ", "", "NA,b;c", "4,d")
        quoted = 'v,note\r\n1,"a,b"\r\n\r\n"NA","say ""hi"""\r\n4,"two\r\nlines"\r\n'
        assert parse_csv(quoted, value_columns=["v"]).lines == (
            '1,"a,b"', "", 'NA,"say ""hi"""', '4,"two\r\nlines"')
        assert Series.from_values([1.5, None], delimiter=".").lines == ('"1.5"', "NA")

    def test_errors_keep_their_order_across_blocks(self):
        rows = ["1,2"] * (2 * BLOCK + 10)

        def text(**cells):
            body = list(rows)
            for row, line in cells.items():
                body[int(row[1:]) - 1] = line
            return "a,b\n" + "\n".join(body) + "\n"

        # a ragged row anywhere comes before a bad cell or an unknown column
        far = 2 * BLOCK + 3
        for kwargs in ({"value_columns": ["c"]}, {}):
            with pytest.raises(DataError, match=rf"^ragged row {far}: expected 2 cells, got 1$"):
                parse_csv(text(r5="x,2", **{f"r{far}": "1"}), **kwargs)
        # a bad cell keeps its row number past the first block; the first one is named
        with pytest.raises(DataError, match=rf"^non-numeric value 'x' in row {BLOCK + 7}, column 'b'$"):
            parse_csv(text(**{f"r{BLOCK + 7}": "1,x", f"r{BLOCK + 9}": "y,2"}))
        with pytest.raises(DataError, match="^unknown column 'c'"):
            parse_csv(text(r5="x,2"), value_columns=["c"])
        # no data rows comes before an unknown column
        with pytest.raises(DataError, match="^no data rows$"):
            parse_csv("a,b\n", value_columns=["c"])
        s = parse_csv(text(**{f"r{BLOCK}": "NA,2", f"r{BLOCK + 1}": "NA,NA"}))
        assert s.missing_indices == (BLOCK, BLOCK + 1) and len(s.lines) == len(rows)

    @pytest.mark.parametrize("cell", ["a" * 200_000, '"' + "a" * 200_000 + '"'])
    def test_overlong_cell_is_data_error(self, cell):
        # csv.reader's field limit is 131072 characters
        with pytest.raises(DataError, match=r"^cannot parse line 3: field larger than field limit \(131072\)$"):
            parse_csv(f"v,note\n1,x\n2,{cell}\n3,y\n", value_columns=["v"])

    def test_phosphate_fixture(self, phosphate_text):
        s = parse_csv(phosphate_text)
        assert s.dim == 2
        assert len(s) == 16
        assert s.missing_indices == (11, 12, 15)
        assert np.array_equal(s.value(13), [166.0, 68.0])


class TestDetectGaps:
    def test_fully_observed(self):
        prefix, gaps = detect_gaps(make_series([1.0, 2.0, 3.0]))
        assert prefix == 3
        assert gaps == []

    def test_single_gap(self):
        prefix, gaps = detect_gaps(make_series([1.0, 2.0, None, None, 5.0]))
        assert prefix == 2
        (g,) = gaps
        assert (g.gap_start, g.gap_end) == (3, 4)
        assert g.anchor_index == 5
        assert g.anchor_value[0] == 5.0
        assert g.seed_indices == (2,)
        assert g.length == 2
        assert g.constrained

    def test_seed_window_grows_with_order(self):
        _, gaps = detect_gaps(make_series([1.0, 2.0, 3.0, None, 5.0]), order=3)
        assert gaps[0].seed_indices == (1, 2, 3)

    def test_multiple_gaps_ordered(self):
        prefix, gaps = detect_gaps(make_series([1.0, None, 3.0, None, None, 6.0]))
        assert prefix == 1
        assert [(g.gap_start, g.gap_end) for g in gaps] == [(2, 2), (4, 5)]

    def test_seeds_may_point_into_earlier_gap(self):
        # order 2 seed window for the second gap includes index 2 (itself a gap)
        _, gaps = detect_gaps(make_series([1.0, 1.0, None, 4.0, None, 6.0]), order=2)
        assert gaps[1].seed_indices == (3, 4)
        _, gaps = detect_gaps(make_series([1.0, 1.0, None, None, 5.0, None, 7.0]), order=2)
        assert gaps[1].seed_indices == (4, 5)
        assert 4 in gaps[0].indices

    def test_leading_gap_rejected(self):
        with pytest.raises(DataError, match="begins with a missing value"):
            detect_gaps(make_series([None, 2.0, 3.0]))

    def test_short_seed_window_rejected(self):
        with pytest.raises(DataError, match="needs 3 seed values"):
            detect_gaps(make_series([1.0, 2.0, None, 4.0]), order=3)

    def test_trailing_gap_rejected_by_default(self):
        with pytest.raises(DataError, match="no anchor"):
            detect_gaps(make_series([1.0, 2.0, None]))

    def test_trailing_gap_allowed_when_open(self):
        prefix, gaps = detect_gaps(make_series([1.0, 2.0, None]), allow_open_gap=True)
        (g,) = gaps
        assert g.anchor_index is None
        assert g.anchor_value is None
        assert not g.constrained

    def test_phosphate_segmentation(self, phosphate_text):
        s = parse_csv(phosphate_text)
        prefix, gaps = detect_gaps(s)
        assert prefix == 10
        assert [(g.gap_start, g.gap_end) for g in gaps] == [(11, 12), (15, 15)]
        assert gaps[0].anchor_index == 13
        assert np.array_equal(gaps[0].anchor_value, [166.0, 68.0])
        assert gaps[1].anchor_index == 16
        assert np.array_equal(gaps[1].anchor_value, [68.0, 59.0])

    def test_partition_invariant_random(self):
        # gap indices plus observed indices partition 1..n, and every anchor
        # is the first observed index after its gap
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            values = [float(v) for v in rng.uniform(-5, 5, n)]
            for i in sorted(rng.choice(range(1, n - 1), size=min(n - 2, 5), replace=False)):
                if rng.uniform() < 0.5:
                    values[i] = None
            series = make_series(values)
            prefix, gaps = detect_gaps(series)
            gap_indices = [i for g in gaps for i in g.indices]
            assert sorted(gap_indices) == list(series.missing_indices)
            assert set(gap_indices).isdisjoint(series.observed_indices)
            for g in gaps:
                assert g.anchor_index == g.gap_end + 1
                assert series.value(g.anchor_index) is not None
            assert prefix == (series.missing_indices[0] - 1 if gap_indices else n)


    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(missing=st.lists(st.booleans(), min_size=1, max_size=60), order=st.integers(1, 3))
    def test_runs_match_row_loop(self, missing, order):
        missing[:order] = [False] * order
        series = make_series([None if gone else float(i) for i, gone in enumerate(missing)])
        prefix, gaps = detect_gaps(series, order, allow_open_gap=True)
        runs = runs_by_row_loop(missing)
        assert [(g.gap_start, g.gap_end) for g in gaps] == runs
        assert prefix == (runs[0][0] - 1 if runs else len(missing))
        for g in gaps:
            assert g.seed_indices == tuple(range(g.gap_start - order, g.gap_start))
            if g.gap_end == len(missing):
                assert g.anchor_index is None
            else:
                assert g.anchor_index == g.gap_end + 1
                assert g.anchor_value[0] == float(g.gap_end)


class TestWriteCsv:
    def test_round_trip_gapless(self):
        text = "a,b\n1,2\n3,4\n"
        s = parse_csv(text)
        out = write_csv(s, s.data)
        assert out == "a,b,origin\n1,2,observed\n3,4,observed\n"

    def test_imputed_cells_formatted(self):
        s = parse_csv("v\n1\nNA\n3\n")
        out = write_csv(s, filled_rows(s, {2: [2.0 / 3.0]}), precision=6)
        assert out.splitlines()[2] == "0.666667,imputed"

    def test_precision_controls_digits(self):
        s = parse_csv("v\n1\nNA\n3\n")
        out = write_csv(s, filled_rows(s, {2: [2.0 / 3.0]}), precision=12)
        assert "0.666666666667,imputed" in out

    def test_observed_cells_echoed_verbatim(self):
        s = parse_csv("v\n1.50\nNA\n0003\n")
        lines = write_csv(s, filled_rows(s, {2: [2.0]})).splitlines()
        assert lines[1] == "1.50,observed"
        assert lines[3] == "0003,observed"

    def test_wrong_dimension_rejected(self):
        s = parse_csv("a,b\n1,2\n+,+\n5,6\n")
        with pytest.raises(DataError, match="components"):
            write_csv(s, np.ones((3, 1)))

    def test_wrong_row_count_rejected(self):
        s = parse_csv("a,b\n1,2\n+,+\n5,6\n+,+\n7,8\n")
        with pytest.raises(DataError, match=r"shape \(4, 2\), expected 5 rows of 2 components"):
            write_csv(s, np.ones((4, 2)))

    def test_deterministic_bytes(self):
        s = parse_csv("a,b\n1,2\n+,+\n5,6\n")
        filled = filled_rows(s, {2: [3.3333333, 4.4444444]})
        assert write_csv(s, filled) == write_csv(s, filled)

    def test_precision_out_of_range(self):
        s = parse_csv("v\n1\n")
        with pytest.raises(ValueError, match="precision"):
            write_csv(s, s.data, precision=0)

    @pytest.mark.parametrize("delimiter", [",", "\t", ";", ".", "e", "+", "n", "s", "p", "o"])
    def test_quotes_as_csv_writer_does(self, delimiter):
        # "." "e" "+" "n" occur in the imputed numbers, "s" "o" in the tags, "p" in both
        header, rows = ["v", "note"], [["1.5", "a"], ["NA", "b"], ["NA", "c"], ["2", "d"]]
        series = parse_csv(written([header] + rows, delimiter), value_columns=["v"], delimiter=delimiter)
        filled = filled_rows(series, {2: [1e300], 3: [np.nan]})
        assert write_csv(series, filled) == write_csv_by_row_loop(header, rows, ["v"], delimiter, filled, 6)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=csv_cases(), precision=st.integers(1, 17))
    def test_matches_row_loop(self, case, precision):
        series, filled, drawn = case
        assert write_csv(series, filled, precision) == write_csv_by_row_loop(*drawn, filled, precision)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    @pytest.mark.parametrize("delimiter", [",", "e", ".", "s"])
    def test_blocks_match_row_loop(self, monkeypatch, block, delimiter):
        # gaps across every block edge, and observed and imputed runs longer
        # than a block; quoted cells hold the delimiter, a quote, a line break
        # and a carriage return; one row is blank. Without the note column an
        # imputed row is one template unless a number holds the delimiter
        header = ["note", "v", "w"]
        rows = [["a", "1", "2"], [f"x{delimiter}y", "NA", "NA"], ['say "hi"', "NA", "3"],
                ["multi\nline", "4", "5"], ["cr\rhere", "", "6"], ["", "", ""], [], ["z", "7", "8"],
                ["", "NA", "9"]]
        rows += [["o", str(k), "1"] for k in range(7)] + [["i", "NA", ""] for _ in range(6)]
        rows += [["end", "10", "11"]]
        monkeypatch.setattr(series_module, "BLOCK", block)
        for cut in (0, 1):
            text = written([header[cut:]] + [row[cut:] for row in rows], delimiter, "\r\n")
            series = parse_csv(text, value_columns=["w", "v"], delimiter=delimiter)
            filled = np.where(series.missing[:, None], [[2.0 / 3.0, -1e-300]], series.data)
            want = write_csv_by_row_loop(header[cut:], [row[cut:] for row in rows], ["w", "v"],
                                         delimiter, filled, 6)
            pieces = list(csv_blocks(series, filled))
            assert len(pieces) == 1 + -(-len(rows) // block)
            assert "".join(pieces) == write_csv(series, filled) == want

    @pytest.mark.parametrize("delimiter", [",", ";"])
    def test_every_row_reads_back_as_one_row(self, delimiter):
        # observed and imputed rows whose text cells hold "\r", "\n", "\r\n",
        # a quote and the delimiter
        header = ["v", "note"]
        notes = ["cr\rhere", "lf\nhere", "crlf\r\nhere", 'say "hi"', f"x{delimiter}y", "plain"]
        rows = [[v, note] for note in notes for v in ("1.5", "NA")] + [["2", "end"]]
        series = parse_csv(written([header] + rows, delimiter, "\r\n"), value_columns=["v"],
                           delimiter=delimiter)
        for line, row in zip(series.lines, rows):
            assert list(csv.reader([line], delimiter=delimiter)) == [row]
        filled = np.where(series.missing[:, None], 2.0 / 3.0, series.data)
        out = io.StringIO(write_csv(series, filled), newline="")
        assert list(csv.reader(out, delimiter=delimiter)) == [header + ["origin"]] + [
            ["0.666667", note, "imputed"] if v == "NA" else [v, note, "observed"] for v, note in rows]

    def test_checks_come_before_the_first_block(self):
        s = parse_csv("a,b\n1,2\n+,+\n5,6\n")
        with pytest.raises(DataError, match="components"):
            csv_blocks(s, np.ones((3, 1)))
        with pytest.raises(ValueError, match="precision"):
            csv_blocks(s, s.data, precision=18)


class TestUnreadableDelimiters:
    """'"' quotes cells and a line break ends rows, so no entry point takes
    them as the delimiter; each raises with the wording of the CLI."""

    @pytest.mark.parametrize("delimiter", ['"', "\n", "\r"], ids=["quote", "lf", "cr"])
    def test_every_entry_point_rejects(self, delimiter):
        message = re.escape(f"delimiter may not be {delimiter!r}: the output would not read back")
        with pytest.raises(ValueError, match=message):
            parse_csv("a\n1\nNA\n3\n", delimiter=delimiter)
        with pytest.raises(ValueError, match=message):
            Series.from_values([1.0, None, 3.0], delimiter=delimiter)
        # a Series built field by field writes with its own delimiter
        series = replace(parse_csv("a\n1\nNA\n3\n"), delimiter=delimiter)
        with pytest.raises(ValueError, match=message):
            write_csv(series, [[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match=message):
            list(csv_blocks(series, [[1.0], [2.0], [3.0]]))


class TestSeriesConstruction:
    def test_from_values_vector(self):
        s = Series.from_values([np.array([1.0, 2.0]), None, np.array([3.0, 4.0])])
        assert s.dim == 2
        assert s.missing_indices == (2,)
        assert s.header == ("v1", "v2")
        named = Series.from_values([np.array([1.0, 2.0]), None], column_names=["x", "y"])
        assert named.header == ("x", "y")

    def test_from_values_requires_observation(self):
        with pytest.raises(DataError, match="no observed values"):
            Series.from_values([None, None])

    def test_data_and_mask_are_read_only(self, phosphate_text):
        for s in (parse_csv(phosphate_text), Series.from_values([1.0, None, 3.0])):
            assert s.data.dtype == np.float64 and s.missing.dtype == bool
            assert np.isnan(s.data[s.missing]).all()
            with pytest.raises(ValueError, match="read-only"):
                s.data[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                s.missing[0] = True
            with pytest.raises(ValueError, match="read-only"):
                s.value(1)[0] = 0.0

    def test_value_outside_positions_raises(self):
        s = Series.from_values([1.0, None, 3.0])
        for index in (0, -1, 4):
            with pytest.raises(IndexError, match=r"position -?\d is outside 1\.\.3"):
                s.value(index)
        assert s.value(1)[0] == 1.0 and s.value(2) is None and s.value(3)[0] == 3.0

    def test_inconsistent_dimension_rejected(self):
        with pytest.raises(DataError, match="components"):
            Series.from_values([np.array([1.0, 2.0]), np.array([3.0])])
