"""Structured run report: one JSON document per imputation run.

The report is deterministic: fixed key order, no timestamps, plain repr
floats. Byte-identical inputs and options give byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .fitting import ArModel, RegModel, VarModel

SCHEMA_VERSION = 2


_NUMBER_TYPES = frozenset((int, float))
_LIST_TYPES = frozenset((list, tuple))


def render_json(value) -> str:
    """``json.dumps(value, indent=2)`` plus a final newline, for a tree with str keys.

    A numpy array in the tree is rendered as its ``tolist()``.

    With an indent, ``json`` encodes one value at a time in Python. Here a
    list of plain ints and floats, or of equal-length lists of them, becomes
    one ``str.join`` of the reprs (a 2-D list fills a repeated row template),
    so each number costs only its repr. Each list is rendered when the walk
    reaches it, so only one list's reprs exist at a time, and the document
    is joined once from the rendered pieces.
    """
    out = []
    _render(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(value, newline: str, out: list) -> None:
    # ``newline`` is a line break plus the indent of the line that closes ``value``
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_spell_nonfinite(float.__repr__(value)))
    elif isinstance(value, (list, tuple, dict)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        body = _numbers(value, inner)
        if body is not None:
            out += ("[", inner, body, newline, "]")
        else:
            separator = "[" + inner
            for item in value:
                out.append(separator)
                _render(item, inner, out)
                separator = "," + inner
            out += (newline, "]")
    elif isinstance(value, dict):
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            out += (separator, encode_basestring_ascii(key), ": ")
            _render(item, inner, out)
            separator = "," + inner
        out += (newline, "}")
    elif isinstance(value, np.ndarray):
        _render(value.tolist(), newline, out)
    else:
        out.append(json.dumps(value))


def _numbers(items, inner: str) -> str | None:
    """The lines inside a list of numbers or of equal-length lists of numbers, else None."""
    kinds = set(map(type, items))
    if kinds <= _NUMBER_TYPES:
        return _spell_nonfinite(("," + inner).join(map(repr, items)))
    if not kinds <= _LIST_TYPES or len(set(map(len, items))) != 1 or not items[0]:
        return None
    flat = list(chain.from_iterable(items))
    if not set(map(type, flat)) <= _NUMBER_TYPES:
        return None
    cell = inner + "  "
    row = "[" + cell + ("," + cell).join(["%s"] * len(items[0])) + inner + "]"
    return _spell_nonfinite(("," + inner).join([row] * len(items)) % tuple(map(repr, flat)))


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
    """Everything a run decided: the fit, and per gap the controls and checks."""

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

    Index runs are written as ``[first, last]``. The forecast and the fill
    are not repeated: ``start``, ``end``, the seeds and the model determine
    them (see the README's "Report schema").
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
        "controls": solution.controls,
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
