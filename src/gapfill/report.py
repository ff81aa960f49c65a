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

from .fitting import ArModel, RegModel, VarModel

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
    ``map(repr)``, and only the values that do not share their column's
    shape are rendered alone (``_shape``).
    """
    yield from _render(value, "\n", {})
    yield "\n"


def _render(value, newline: str, templates: dict):
    # ``newline`` is a line break plus the indent of the line that closes
    # ``value``; ``templates`` holds the run's compiled templates by shape
    if isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        separator = "," + inner
        for start in range(0, len(value), CHUNK):
            chunk = value[start : start + CHUNK]
            template, texts = _column(chunk, inner, templates)
            text = separator.join([template] * len(chunk)) % tuple(chain.from_iterable(texts or ()))
            yield (separator if start else "[" + inner) + text
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
        yield _alone(value, newline, templates)


def _alone(value, newline: str, templates: dict) -> str:
    """The text of ``value`` rendered at ``newline`` (``_shape`` filled)."""
    numbers = []
    return _fill(_shape(value, newline, numbers, templates), numbers)


def _shape(value, newline: str, numbers: list, templates: dict) -> str:
    """The ``%`` template of ``value`` rendered at ``newline``, with a ``%s``
    for each plain int and float, which are appended to ``numbers`` in order.

    The template is compiled once per shape: for a dict its keys and the
    shapes of its values; for a list of numbers or a float array, its
    dimensions. Anything else is its rendered text, as ``json`` renders it
    (an int or float subclass by its base's repr).
    """
    kind = type(value)
    if kind is float or kind is int:
        numbers.append(value)
        return "%s"
    if kind is str:
        return encode_basestring_ascii(value).replace("%", "%%")
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    if kind is dict and value:
        inner = newline + "  "
        members = []
        for item in value.values():
            kind = type(item)
            if kind is float or kind is int:
                numbers.append(item)
                members.append("%s")
            else:
                members.append(_shape(item, inner, numbers, templates))
        return _dict_template(newline, value, members, templates)
    if kind is np.ndarray:
        if value.dtype == np.float64 and value.ndim and value.size:
            numbers += value.ravel().tolist()
            return _numbers_template(newline, value.shape, templates)
        value = value.tolist()
        kind = type(value)
    if (kind is list or kind is tuple) and value and set(map(type, value)) <= _NUMBER_TYPES:
        numbers += value
        return _numbers_template(newline, (len(value),), templates)
    if isinstance(value, (list, tuple, dict)) and value:
        literal = "".join(_render(value, newline, templates))
    elif isinstance(value, (list, tuple, dict)):
        literal = "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, int):
        literal = int.__repr__(value)
    elif isinstance(value, float):
        literal = _spell_nonfinite(float.__repr__(value))
    else:
        literal = json.dumps(value)
    return literal.replace("%", "%%")


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


def _columns(records, newline: str, templates: dict):
    """The template that every one of the same-keyed dicts ``records`` has at
    ``newline``, and per record the texts of its ``%s`` slots, in order (None
    when it has none).

    Each key's values are one column (``_column``).
    """
    inner = newline + "  "
    members, columns = [], []
    for column in zip(*map(dict.values, records)):
        member, texts = _column(column, inner, templates)
        members.append(member)
        if texts is not None:
            columns.append(texts)
    texts = map(chain.from_iterable, zip(*columns)) if columns else None
    return _dict_template(newline, records[0], members, templates), texts


def _column(column, newline: str, templates: dict):
    """The template that every value of ``column`` has at ``newline``, and
    per value the texts of its slots, or None when the template holds them.

    A column of one literal or of empty containers is written into the
    template. Plain numbers, float arrays of one shape (one ``np.array``),
    lists of numbers of one length and same-keyed dicts fill the slots of
    one template. Any other column is one slot per value, the value rendered
    alone.
    """
    kinds = {*map(type, column)}
    if kinds <= _NUMBER_TYPES:
        return "%s", zip(_reprs(column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if (kind in _LITERAL_TYPES and len({*column}) == 1
            or kind in (dict, list, tuple) and not any(column)):
        return _shape(column[0], newline, [], templates), None
    if kind is dict and len({*map(tuple, column)}) == 1:
        return _columns(column, newline, templates)
    if kind is np.ndarray and len(specs := {*map(attrgetter("dtype", "shape"), column)}) == 1:
        ((dtype, shape),) = specs
        if dtype == np.float64 and shape and 0 not in shape:
            flat = np.array(column).ravel().tolist()
            return _numbers_template(newline, shape, templates), _rows(flat, shape)
    if kind in (list, tuple) and len({*map(len, column)}) == 1:
        flat, shape = list(chain.from_iterable(column)), (len(column[0]),)
        if {*map(type, flat)} <= _NUMBER_TYPES:
            return _numbers_template(newline, shape, templates), _rows(flat, shape)
    return "%s", [(_alone(value, newline, templates),) for value in column]


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


def _fill(template: str, numbers: list) -> str:
    """``template`` filled with the texts of ``numbers``."""
    return template % tuple(_reprs(numbers)) if numbers else template % ()


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
    """Full-precision JSON description of a fitted model."""
    if isinstance(model, ArModel):
        return {
            "kind": "ar",
            "order": model.p,
            "lag_coefficients": list(model.a),
            "intercept": model.b,
            "rank_deficient": model.rank_deficient,
        }
    if isinstance(model, VarModel):
        return {
            "kind": "var",
            "order": 1,
            "dimension": model.dim,
            "matrix": model.A,
            "intercept": model.b,
            "rank_deficient": model.rank_deficient,
        }
    if isinstance(model, RegModel):
        return {
            "kind": "regression",
            "outputs": model.n_outputs,
            "covariates": model.n_covariates,
            "matrix": model.A,
            "intercept": model.b,
            "rank_deficient": model.rank_deficient,
        }
    raise TypeError(f"unknown model type {type(model).__name__}")


@dataclass
class ImputationReport:
    """Everything a run decided: the fit, and per gap its multiplier and
    checks (``gap_entry``), from which its controls follow."""

    mode: str
    prefix_length: int
    model: dict | None = None
    gaps: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "prefix_length": self.prefix_length,
            "model": self.model,
            "gap_count": len(self.gaps),
            "gaps": self.gaps,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return render_json(self.to_dict())


def gap_entry(segment, solution, verdict=None, refit_model=None) -> dict:
    """Assemble the report entry for one gap from its pieces.

    Index runs are written as ``[first, last]``. The forecast, the fill and
    the controls are not repeated: ``start``, ``end``, the seeds and the
    model determine the first two, and the multiplier, the mode and the
    model the controls (see the README's "Report schema").
    """
    seeds, controlled = segment.seed_indices, solution.control_indices
    entry = {
        "start": segment.gap_start,
        "end": segment.gap_end,
        "anchor_index": segment.anchor_index,
        "anchor_value": segment.anchor_value,
        "seed_indices": [seeds[0], seeds[-1]],
        "constrained": solution.constrained,
        "mode": solution.mode,
        "multiplier": solution.multiplier,
        "control_indices": [controlled[0], controlled[-1]],
        "terminal_residual": solution.terminal_residual,
        "objective": solution.objective,
        "oracle": None,
        "diagnostics": solution.diagnostics,
    }
    if verdict is not None:
        entry["oracle"] = {
            "certified": verdict.passed,
            "objective_gap": verdict.objective_gap,
            "constraint_residual": verdict.constraint_residual,
        }
    if refit_model is not None:
        entry["refit_model"] = describe_model(refit_model)
    return entry
