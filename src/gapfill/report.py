"""Structured run report: one JSON document per imputation run.

The report is deterministic: fixed key order, no timestamps, plain repr
floats. Byte-identical inputs and options give byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import json

import numpy as np

from .fitting import ArModel, RegModel, VarModel

SCHEMA_VERSION = 1


def jsonable(value):
    """Convert numpy scalars/arrays (and containers of them) to JSON-ready types."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


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
            "matrix": jsonable(model.A),
            "intercept": jsonable(model.b),
            "rank_deficient": model.rank_deficient,
        }
    if isinstance(model, RegModel):
        return {
            "kind": "regression",
            "outputs": model.n_outputs,
            "covariates": model.n_covariates,
            "matrix": jsonable(model.A),
            "intercept": jsonable(model.b),
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
        return json.dumps(self.to_dict(), indent=2) + "\n"


def gap_entry(segment, solution, verdict=None, refit_model=None) -> dict:
    """Assemble the report entry for one gap from its pieces."""
    entry = {
        "start": segment.gap_start,
        "end": segment.gap_end,
        "anchor_index": segment.anchor_index,
        "anchor_value": jsonable(segment.anchor_value),
        "seed_indices": list(segment.seed_indices),
        "constrained": solution.constrained,
        "mode": solution.mode,
        "multiplier": jsonable(solution.multiplier),
        "control_indices": list(solution.control_indices),
        "controls": jsonable(solution.controls),
        "predicted_indices": list(solution.predicted_indices),
        "predicted": jsonable(solution.predicted),
        "imputed_indices": list(solution.imputed_indices),
        "imputed": jsonable(solution.imputed),
        "terminal_residual": jsonable(solution.terminal_residual),
        "objective": solution.objective,
        "oracle": None,
        "diagnostics": jsonable(solution.diagnostics),
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
