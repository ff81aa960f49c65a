"""Structured run report: one JSON document per imputation run.

The report is deterministic: fixed key order, no timestamps, plain repr
floats. Byte-identical inputs and options give byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter

import numpy as np

from .models import ArModel, Models, VarModel

SCHEMA_VERSION = 4


_NUMBER_TYPES = frozenset((int, float))
# types whose equal values render alike, so a column of one value is a constant
_LITERAL_TYPES = frozenset((bool, str, type(None)))

# Items of a list are filled, and yielded, this many at a time, so that only
# one chunk's number reprs and text exist at once.
CHUNK = 64


def render_json(value) -> str:
    """``json.dumps(value, indent=2)`` plus a final newline, for a tree with
    str keys; the join of ``json_pieces``."""
    return "".join(json_pieces(value))


def json_pieces(value):
    """``render_json``'s text in pieces, the items of a list CHUNK at a time.

    A numpy array in the tree is rendered as its ``tolist()``.

    With an indent, ``json`` encodes one value at a time in Python. Here
    the items of a list are rendered CHUNK at a time as one column
    (``_column``): one ``%`` template that every item has, filled with the
    texts of each item's slots. Dicts with one key order (the gaps' records)
    are cut into one column per key, so the numbers of a column cost one
    ``map(repr)``. A value that does not share its column's shape, and
    each scalar field of the report, is rendered by ``json.dumps``
    (``_alone``).
    """
    yield from _render(value, "\n", {})
    yield "\n"


def _render(value, newline: str, templates: dict):
    # ``newline`` is a line break plus the indent of the line that closes
    # ``value``; ``templates`` holds the run's compiled templates by shape
    if isinstance(value, (list, tuple, Records)) and value:
        inner = newline + "  "
        separator = "," + inner
        chunks = value.chunks() if type(value) is Records else (
            value[start : start + CHUNK] for start in range(0, len(value), CHUNK))
        for i, chunk in enumerate(chunks):
            template, texts = _column(chunk, inner, templates)
            text = separator.join([template] * len(chunk)) % tuple(chain.from_iterable(texts or ()))
            yield (separator if i else "[" + inner) + text
        yield newline + "]"
    elif isinstance(value, dict) and value:
        # walked, not templated: such a dict may hold a long list (the gaps)
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            yield separator + encode_basestring_ascii(key) + ": "
            yield from _render(item, inner, templates)
            separator = "," + inner
        yield newline + "}"
    else:
        yield _alone(value, newline)


def _alone(value, newline: str) -> str:
    """The text of ``value`` rendered at ``newline``, as ``json`` renders it
    (a numpy array as its ``tolist()``)."""
    if type(value) is np.ndarray:
        value = value.tolist()
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, indent=2, default=np.ndarray.tolist).replace("\n", newline)
    return json.dumps(value)


def _dict_template(newline: str, keys, members: list, templates: dict) -> str:
    """The template of a dict with ``keys`` whose values have the templates
    ``members``, compiled once per run."""
    key = (newline, *keys, *members)
    if key not in templates:
        inner = newline + "  "
        pieces = [encode_basestring_ascii(name).replace("%", "%%") + ": " + member
                  for name, member in zip(keys, members)]
        templates[key] = "{" + inner + ("," + inner).join(pieces) + newline + "}"
    return templates[key]


def _columns(keys, columns, newline: str, templates: dict):
    """The template that every one of the dicts held as ``columns`` under
    ``keys`` has at ``newline``, and per dict the texts of its ``%s``
    slots, in order (None when it has none).

    Each column is rendered as one (``_column``).
    """
    inner = newline + "  "
    members, slots = [], []
    for column in columns:
        member, texts = _column(column, inner, templates)
        members.append(member)
        if texts is not None:
            slots.append(texts)
    texts = map(chain.from_iterable, zip(*slots)) if slots else None
    return _dict_template(newline, keys, members, templates), texts


def _column(column, newline: str, templates: dict):
    """The template that every value of ``column`` has at ``newline``, and
    per value the texts of its slots, or None when the template holds them.

    A column of one literal or of empty containers is written into the
    template. Plain numbers, float arrays of one shape (one ``np.array``),
    lists of numbers of one length, same-keyed dicts and a Records fill the
    slots of one template, as does a numeric array column, whose rows are
    its values. Any other column is one slot per value, the value rendered
    alone.
    """
    if type(column) is Records:
        return _columns(column.keys, column.columns, newline, templates) if column.keys else ("{}", None)
    if type(column) is np.ndarray:
        if column.dtype.kind not in "if":
            return _column(column.tolist(), newline, templates)
        flat = column.ravel().tolist()
        if column.ndim == 1:
            return "%s", zip(_reprs(flat))
        return _numbers_template(newline, column.shape[1:], templates), _rows(flat, column.shape[1:])
    kinds = {*map(type, column)}
    if kinds <= _NUMBER_TYPES:
        return "%s", zip(_reprs(column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in (dict, list, tuple) and not any(column):
        return "{}" if kind is dict else "[]", None
    if kind in _LITERAL_TYPES and len({*column}) == 1:
        # met once per chunk, so its text is kept for the run
        key = (kind, column[0])
        if key not in templates:
            templates[key] = _alone(column[0], newline).replace("%", "%%")
        return templates[key], None
    if kind is dict and len({*map(tuple, column)}) == 1:
        return _columns(column[0], zip(*map(dict.values, column)), newline, templates)
    if kind is np.ndarray and len(specs := {*map(attrgetter("dtype", "shape"), column)}) == 1:
        ((dtype, shape),) = specs
        if dtype == np.float64 and shape and 0 not in shape:
            return _column(np.array(column), newline, templates)
    if kind in (list, tuple) and len({*map(len, column)}) == 1:
        flat, shape = list(chain.from_iterable(column)), (len(column[0]),)
        if {*map(type, flat)} <= _NUMBER_TYPES:
            return _numbers_template(newline, shape, templates), _rows(flat, shape)
    return "%s", [(_alone(value, newline),) for value in column]


def _rows(numbers: list, shape: tuple):
    """The texts of ``numbers``, grouped into one tuple per value of ``shape``."""
    return zip(*[iter(_reprs(numbers))] * math.prod(shape))


def _numbers_template(newline: str, shape: tuple, templates: dict) -> str:
    """The template of a list of ``shape[0]`` numbers, or of lists of the
    remaining shape, compiled once per run."""
    key = (newline, shape)
    if key not in templates:
        inner = newline + "  "
        item = _numbers_template(inner, shape[1:], templates) if len(shape) > 1 else "%s"
        templates[key] = "[" + inner + ("," + inner).join([item] * shape[0]) + newline + "]"
    return templates[key]


def _reprs(numbers) -> list:
    """The json texts of the plain ints and floats ``numbers`` (at least
    one), their reprs with the non-finite ones spelled as json does."""
    # a repr holds no comma
    return _spell_nonfinite(",".join(map(repr, numbers))).split(",")


def _spell_nonfinite(numbers: str) -> str:
    # only the reprs of nan and +-inf contain an "n"; json spells them NaN and +-Infinity
    if "n" not in numbers:
        return numbers
    return numbers.replace("nan", "NaN").replace("inf", "Infinity")


def describe_model(model) -> dict:
    """Full-precision JSON description of a fitted model: the one row of
    ``describe_models`` of a stack of it."""
    return describe_models(Models.of([model])).tolist()[0]


def describe_models(models) -> "Records":
    """The description of each model of the Models ``models``, as columns:
    the one writer of the model schema."""
    n, kind = len(models), models.kind
    if kind is ArModel:
        keys = ("kind", "order", "lag_coefficients", "intercept")
        # lists of floats, as each description holds them
        columns = [["ar"] * n, [models.p] * n, models.a.tolist(), models.b]
    elif kind is VarModel:
        keys = ("kind", "order", "dimension", "matrix", "intercept")
        columns = [["var"] * n, [1] * n, [models.dim] * n, models.A, models.b]
    else:
        keys = ("kind", "outputs", "covariates", "matrix", "intercept")
        columns = [["regression"] * n, [models.n_outputs] * n, [models.n_covariates] * n, models.A, models.b]
    return Records(keys + ("rank_deficient",), columns + [models.rank_deficient], n)


class Records:
    """``count`` same-keyed dicts held as columns, then the dicts of
    ``tail``: ``columns[j]`` holds each dict's value of ``keys[j]``, as a
    list, a Records, or a numpy array of numbers or strs with one row per
    dict. It renders as the list of its dicts (``tolist``)."""

    def __init__(self, keys: tuple, columns: list, count: int, tail: list = ()):
        self.keys, self.columns, self.count, self.tail = keys, columns, count, list(tail)

    def __len__(self) -> int:
        return self.count + len(self.tail)

    def __getitem__(self, rows: slice) -> "Records":
        return Records(self.keys, [column[rows] for column in self.columns], len(range(self.count)[rows]))

    def chunks(self):
        """The dicts CHUNK at a time: Records of the columns, then the tail."""
        for start in range(0, self.count, CHUNK):
            yield self[start : start + CHUNK]
        if self.tail:
            yield self.tail

    def tolist(self) -> list:
        """The dicts. A float array column of two or more dimensions gives
        its rows as arrays, as ``gap_entry`` does; any other array, and a
        Records, gives its ``tolist()``."""
        columns = []
        for column in self.columns:
            rows = type(column) is np.ndarray and column.ndim > 1 and column.dtype.kind == "f"
            columns.append(column if type(column) is list or rows else column.tolist())
        rows = zip(*columns) if columns else [()] * self.count
        return [dict(zip(self.keys, row)) for row in rows] + self.tail


GAP_KEYS = ("start", "end", "anchor_index", "anchor_value", "seed_indices", "constrained", "mode",
            "multiplier", "control_indices", "terminal_residual", "objective", "oracle", "diagnostics")
ORACLE_KEYS = ("certified", "objective_gap", "constraint_residual")


@dataclass
class ImputationReport:
    """Everything a run decided: the fit, and per gap its multiplier and
    checks (``gap_entry``), from which its controls follow. A report of
    ``impute_series`` renders ``gap_columns`` (``gap_records``) until
    ``gaps``, the list of entries, is first read and built from them."""

    mode: str
    prefix_length: int
    model: dict | None = None
    notes: list = field(default_factory=list)
    gap_columns: Records | None = field(default=None, repr=False, compare=False)
    _gaps: list | None = field(default=None, init=False, repr=False)

    @property
    def gaps(self) -> list:
        if self._gaps is None:
            self._gaps = [] if self.gap_columns is None else self.gap_columns.tolist()
        return self._gaps

    def to_dict(self) -> dict:
        gaps = self.gaps if self._gaps is not None or self.gap_columns is None else self.gap_columns
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "prefix_length": self.prefix_length,
            "model": self.model,
            "gap_count": len(gaps),
            "gaps": gaps,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return render_json(self.to_dict())


def gap_entry(segment, solution, verdict=None) -> dict:
    """Assemble the report entry for one gap from its pieces.

    Index runs are written as ``[first, last]``. The forecast, the fill and
    the controls are not repeated: ``start``, ``end``, the seeds and the
    model determine the first two, and the multiplier, the mode and the
    model the controls (see the README's "Report schema").
    """
    seeds, controlled = segment.seed_indices, solution.control_indices
    return dict(zip(GAP_KEYS, (
        segment.gap_start, segment.gap_end, segment.anchor_index, segment.anchor_value, [seeds[0], seeds[-1]],
        solution.constrained, solution.mode, solution.multiplier, [controlled[0], controlled[-1]],
        solution.terminal_residual, solution.objective,
        None if verdict is None else dict(zip(ORACLE_KEYS, verdict[:3])), solution.diagnostics)))


def gap_records(gaps, stacks, verdicts, refit_models, opened) -> Records:
    """The ``gap_entry`` dicts of a run's ``gaps`` (a Gaps) as columns, in
    gap order: the constrained gaps from the solver's ``stacks`` (GapStacks),
    their BatchVerdict ``verdicts`` (or None) and ``refit_models`` (a
    Models with one per gap, or None), then the entry of an open last gap
    solved as ``opened``.
    """
    count = len(gaps.anchor_values)
    keys = GAP_KEYS if refit_models is None else GAP_KEYS + ("refit_model",)
    tail = [] if opened is None else [gap_entry(gaps[count], opened)]
    if tail and refit_models is not None:
        tail[0]["refit_model"] = describe_models(refit_models[count:]).tolist()[0]
    if not stacks:
        return Records(keys, [], 0, tail)
    order = np.argsort(np.concatenate([stack.index for stack in stacks]))
    solved = {name: np.concatenate([getattr(stack, name) for stack in stacks])[order]
              for name in ("multipliers", "residuals", "objectives")}
    diagnostics = {key: np.concatenate([stack.diagnostics[key] for stack in stacks])[order]
                   for key in stacks[0].diagnostics}
    starts, ends, lag = gaps.starts[:count], gaps.ends[:count], stacks[0].lag
    oracle = [None] * count if verdicts is None else Records(ORACLE_KEYS, list(verdicts.columns[:3]), count)
    columns = [starts, ends, ends + 1, gaps.anchor_values, np.stack([starts - gaps.order, starts - 1], 1),
               [True] * count, [stacks[0].mode] * count, solved["multipliers"],
               np.stack([starts + lag, ends + 1], 1), solved["residuals"], solved["objectives"], oracle,
               Records(tuple(diagnostics), list(diagnostics.values()), count)]
    if refit_models is not None:
        columns.append(describe_models(refit_models[:count]))
    return Records(keys, columns, count, tail)
