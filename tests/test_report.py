import enum
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill.pipeline import ImputeOptions, impute_series
from gapfill.report import CHUNK, render_json
from gapfill.series import Series, parse_csv


def jsonable_by_element(value):
    """Reference: the conversion recursing into every element of an array."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonable_by_element(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: jsonable_by_element(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_by_element(v) for v in value]
    return value


rng = np.random.default_rng(17)


@pytest.mark.parametrize("array", [
    rng.standard_normal(7) * 1e5,
    rng.standard_normal((12, 3)),
    np.array([0.1, -0.0, 1e300, 5e-324, 2.0]),
    rng.integers(-1000, 1000, 9),
    rng.integers(-1000, 1000, (4, 3), dtype=np.int32),
    rng.uniform(size=6) < 0.5,
    rng.uniform(size=(3, 2)) < 0.5,
], ids=["float-1d", "float-2d", "float-edge", "int-1d", "int32-2d", "bool-1d", "bool-2d"])
def test_array_dumps_as_before(array):
    got = render_json({"a": array, "nested": [array]})
    assert got == json.dumps(jsonable_by_element({"a": array, "nested": [array]}), indent=2) + "\n"


Level = enum.IntEnum("Level", "LOW HIGH")
NON_FINITE_AND_EDGE = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300]
numbers = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70) | st.integers(min_value=-(2**70), max_value=-(2**63) + 2),
    st.floats(),
    st.sampled_from(NON_FINITE_AND_EDGE),
)
texts = st.lists(st.sampled_from(["a", "Z", "0", " ", "\x00", "%", "%s", '"', "'", "\\", "\n", "\t",
                                  "\x7f", "é", "☃", "\U0001f600", "\ud800", "[", "]", ",", ":",
                                  "nan", "inf"]), max_size=5).map("".join)
leaves = st.one_of(st.none(), st.booleans(), numbers, texts)
number_lists = st.lists(st.one_of(numbers, st.booleans()), max_size=6)
# equal-length rows, ragged rows and empty rows, as lists or tuples
number_tables = st.integers(0, 3).flatmap(
    lambda k: st.lists(st.lists(numbers, min_size=k, max_size=k), max_size=4)) | st.lists(number_lists, max_size=4)
trees = st.recursive(
    leaves | number_lists | number_tables | number_tables.map(lambda rows: tuple(map(tuple, rows))),
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(tree=trees)
def test_render_matches_json_dumps(tree):
    assert render_json(tree) == json.dumps(tree, indent=2) + "\n"


def float_arrays(shape):
    size = math.prod(shape)
    return st.lists(st.floats() | st.sampled_from(NON_FINITE_AND_EDGE), min_size=size,
                    max_size=size).map(lambda values: np.array(values).reshape(shape))


shapes = st.sampled_from([(1,), (3,), (2, 2), (2, 1), (0,), (2, 0)])
oracles = st.fixed_dictionaries({"certified": st.booleans(), "objective_gap": numbers,
                                 "%s margin": st.floats()})
# each column draws a pool of one to three values, and each record takes one
# of them: a pool of one value is a constant column, a pool of mixed types or
# shapes an irregular one
pools = st.one_of(
    st.lists(numbers, min_size=1, max_size=3),  # ints and floats, NaN and +-inf
    st.lists(st.booleans(), min_size=1, max_size=2),  # true against false
    st.lists(texts, min_size=1, max_size=3),  # % in strings
    shapes.flatmap(lambda shape: st.lists(float_arrays(shape), min_size=1, max_size=3)),
    st.lists(shapes.flatmap(float_arrays), min_size=2, max_size=3),  # shapes that differ
    st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=1, max_size=3),
    st.lists(number_lists, min_size=1, max_size=3),  # lengths that differ, bools among numbers
    st.lists(oracles | st.none(), min_size=1, max_size=3),  # an open gap's null oracle
    st.lists(st.floats().map(np.float64) | st.sampled_from(list(Level)), min_size=1, max_size=3),
    st.lists(st.sampled_from([{}, [], (), {"note": "100%"}]), min_size=1, max_size=3),
    st.lists(leaves | number_tables, min_size=1, max_size=3),
)


@st.composite
def same_keyed_records(draw):
    """A list of dicts with one key order, longer than a chunk, whose
    columns are sometimes constant, sometimes regular, sometimes irregular."""
    keys = draw(st.lists(texts, min_size=1, max_size=6, unique=True))
    columns = [draw(pools) for _ in keys]
    picks = random.Random(draw(st.integers(0, 2**32 - 1)))
    return [{key: picks.choice(pool) for key, pool in zip(keys, columns)}
            for _ in range(draw(st.integers(CHUNK + 1, 3 * CHUNK)))]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(records=same_keyed_records())
def test_record_columns_match_json_dumps(records):
    tree = {"gaps": records, "gap_count": len(records)}
    want = json.dumps(jsonable_by_element(tree), indent=2) + "\n"
    assert render_json(tree) == want


@pytest.mark.parametrize("value", [
    {"floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]},
    [[1.0, 2], [3, math.nan]],
    [[1.0], [], [2.0]],
    [[1.0, 2.0], [3.0]],
    [[], []],
    [np.float64(0.1), 3, True],
    {"a": np.float64(1e-7), "b": [np.float64(2.5)], "c": [[np.float64(2.5), 1.0]]},
    {"s": "NUL\x00 % \"q\" \n é ☃"},
    {"level": Level.HIGH, "levels": [Level.LOW, 2.5]},
], ids=["non-finite", "mixed-table", "empty-row", "ragged", "empty-rows", "numpy-scalars",
        "float64-nested", "string-escapes", "int-enum"])
def test_render_matches_json_dumps_on_edge_cases(value):
    assert render_json(value) == json.dumps(value, indent=2) + "\n"


def test_records_across_chunks_match_json_dumps():
    # 152 items cross two chunk boundaries (items are filled 64 at a time);
    # records of one shape share a template, so values that differ between
    # records of one shape must land in the right slots
    rng = np.random.default_rng(29)
    items = []
    for i in range(150):
        m = 1 + i % 7
        record = {
            "start": i,
            "value": float(rng.standard_normal()),
            "big": 2**70 + i,
            "controls": rng.standard_normal((m, 1 + i % 3)) if i % 2 else rng.standard_normal(m),
            "indices": [i, i + m],
            "flag": i % 3 == 0,
            "mode": "100%" if i % 5 else "%s done %%",
            "%s key %": [math.nan, math.inf, -math.inf, 0.5][i % 4],
            "scalar": np.float64(i / 3),
            "empty": {},
            "none": None,
            "nested": {"deep": {"x": i * 0.5, "ok": i % 2 == 0}, "ints": np.arange(i % 4),
                       "zero": np.zeros((0,)), "zero_rows": np.zeros((2, 0)), "level": Level.HIGH},
        }
        if i % 11 == 0:
            record["extra"] = ["a", 1, [2.0, "%"], (3, 4)]
        items.append(record)
    items.insert(70, "%s loose item")
    items.insert(100, [1.5, math.nan])
    tree = {"gaps": items, "numbers": [*rng.standard_normal(150).tolist(), math.nan, 7], "n": len(items)}
    assert len(items) == 152
    assert render_json(tree) == json.dumps(jsonable_by_element(tree), indent=2) + "\n"


def test_render_rejects_what_json_rejects():
    for value in ({"a": np.float32(1.0)}, [np.bool_(True)], {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            render_json(value)


def _regression_run():
    rows = ["y,x"] + [f"{2 * n + 1},{n}" for n in range(1, 11)] + ["NA,11", "NA,12", "30.0,13"]
    text = "\n".join(rows) + "\n"
    return impute_series(parse_csv(text, value_columns=["y"]), ImputeOptions(model_kind="regression"),
                         parse_csv(text, value_columns=["x"]))


@pytest.mark.parametrize("run", [
    lambda text: impute_series(parse_csv(text, value_columns=["c1"]), ImputeOptions(order=2)),
    lambda text: impute_series(parse_csv(text), ImputeOptions(model_kind="var")),
    lambda text: impute_series(parse_csv(text), ImputeOptions(model_kind="var", mode="paper")),
    lambda text: impute_series(parse_csv(text, value_columns=["c1"]),
                               ImputeOptions(order=2, mode="paper")),
    lambda text: _regression_run(),
    lambda text: impute_series(parse_csv(text, value_columns=["c1"]),
                               ImputeOptions(order=2, refit_per_gap=True)),
    lambda text: impute_series(parse_csv(text), ImputeOptions(model_kind="var", refit_per_gap=True)),
    lambda text: impute_series(Series.from_values([1.0, 2.5, 2.0, 3.5, 3.0, None, 4.0, None, None]),
                               ImputeOptions(allow_open_gap=True)),
], ids=["ar", "var", "var-paper", "ar-paper", "regression", "ar-refit", "var-refit", "open-gap"])
def test_to_json_matches_json_dumps(run, phosphate_text):
    report = run(phosphate_text).report
    assert report.gaps
    assert report.to_json() == json.dumps(jsonable_by_element(report.to_dict()), indent=2) + "\n"
