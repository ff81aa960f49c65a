"""The fitted recursion models: one at a time, or a stack of them held as columns."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


def _frozen_array(obj, name: str, value, shape=None) -> None:
    arr = np.array(value, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


class _Fitted:
    """Rank bookkeeping of a fitted model.

    ``rank`` is the rank of the least-squares design the model was fitted
    on, None for a model given directly. Each model names its design in
    ``design`` and counts its columns, intercept included, in
    ``design_columns``.
    """

    @property
    def rank_deficient(self) -> bool:
        return self.rank is not None and self.rank < self.design_columns


@dataclass(frozen=True)
class ArModel(_Fitted):
    """Scalar autoregression x_n = a_1 x_{n-1} + ... + a_p x_{n-p} + b."""

    a: tuple[float, ...]
    b: float
    rank: int | None = None
    design = "autoregression"

    def __post_init__(self):
        coeffs = tuple(float(v) for v in self.a)
        if not coeffs:
            raise ValueError("order must be >= 1")
        if not all(math.isfinite(v) for v in coeffs):
            raise ValueError("lag coefficients must be finite")
        if not math.isfinite(self.b):
            raise ValueError("intercept must be finite")
        object.__setattr__(self, "a", coeffs)
        object.__setattr__(self, "b", float(self.b))

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def design_columns(self) -> int:
        return self.p + 1


@dataclass(frozen=True)
class VarModel(_Fitted):
    """First-order vector autoregression x_n = A x_{n-1} + b."""

    A: np.ndarray
    b: np.ndarray
    rank: int | None = None
    design = "vector autoregression"

    def __post_init__(self):
        # column-major, as every fit returns it, so that a model rebuilt from
        # its description computes with the bits of the fitted one
        a = np.array(self.A, dtype=float, order="F")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {a.shape}")
        _frozen_array(self, "A", a)
        _frozen_array(self, "b", self.b, shape=(a.shape[0],))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def design_columns(self) -> int:
        return self.dim + 1


@dataclass(frozen=True)
class RegModel(_Fitted):
    """Pointwise regression y_n = A x_n + b on covariate rows x_n."""

    A: np.ndarray
    b: np.ndarray
    rank: int | None = None
    design = "regression"

    def __post_init__(self):
        a = np.array(self.A, dtype=float, order="F")  # column-major, as for VarModel
        if a.ndim != 2:
            raise ValueError(f"coefficient matrix must be 2-D, got shape {a.shape}")
        _frozen_array(self, "A", a)
        _frozen_array(self, "b", self.b, shape=(a.shape[0],))

    @property
    def n_outputs(self) -> int:
        return self.A.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.A.shape[1]

    @property
    def design_columns(self) -> int:
        return self.n_covariates + 1


def _model(design: type, coeffs: np.ndarray, rank: int | None):
    """The ``design`` model with ``coeffs``: one row per input column, the
    intercept last."""
    if design is ArModel:
        return ArModel(a=coeffs[:-1].tolist(), b=float(coeffs[-1]), rank=rank)
    return design(A=coeffs[:-1].T, b=coeffs[-1], rank=rank)


class Models(Sequence):
    """Models of one class ``kind`` held as columns, as ``fit_sweep`` fits
    them: model i has the coefficients ``coeffs[i]`` (one row per input
    column, the intercept last; one column per output, but for an AR) and
    the least-squares rank ``ranks[i]`` (``ranks`` is None for models given
    directly), or failed with the DataError or NumericalError ``errors[i]``
    (``errors`` is None when none did). Indexing makes model i, or gives
    its error; a slice or an array of indices is a Models. ``a``, ``b``,
    ``A`` and the sizes are the models' fields, stacked.
    """

    def __init__(self, kind: type, coeffs: np.ndarray, ranks: np.ndarray | None, errors: list | None = None):
        self.kind, self.coeffs, self.ranks, self.errors = kind, coeffs, ranks, errors

    @classmethod
    def of(cls, models: list) -> "Models":
        """The list ``models``, all of one class and size, as columns."""
        kind = type(models[0])
        if kind not in (ArModel, VarModel, RegModel):
            raise TypeError(f"unknown model type {kind.__name__}")
        ranks = [m.rank for m in models]
        if kind is ArModel:
            coeffs = np.array([(*m.a, m.b) for m in models])
        else:
            intercepts = np.array([m.b for m in models])[:, None]
            coeffs = np.concatenate([[m.A.T for m in models], intercepts], axis=1)
        return cls(kind, coeffs, None if None in ranks else np.array(ranks))

    def at(self, rows) -> "Models":
        """The models of ``rows``, one per row; a Models of one serves every row."""
        return self if len(self) == 1 else self[rows]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i):
        ranks, errors = self.ranks, self.errors
        if isinstance(i, (slice, np.ndarray)):
            if errors is not None:
                errors = errors[i] if isinstance(i, slice) else [errors[j] for j in i.tolist()]
            return Models(self.kind, self.coeffs[i], None if ranks is None else ranks[i], errors)
        i = range(len(self))[i]
        if errors is not None and errors[i] is not None:
            return errors[i]
        return _model(self.kind, self.coeffs[i], None if ranks is None else int(ranks[i]))

    def __setitem__(self, i: int, error: Exception) -> None:
        """Mark model i failed with ``error``."""
        if self.errors is None:
            self.errors = [None] * len(self)
        self.errors[i] = error

    @property
    def failed(self) -> np.ndarray:
        """Per model, whether its fit failed."""
        if self.errors is None:
            return np.zeros(len(self), dtype=bool)
        return np.array([error is not None for error in self.errors], dtype=bool)

    @property
    def rank_deficient(self) -> np.ndarray:
        """Per model, whether it was fitted on a rank-deficient design; a
        failed fit was not."""
        if self.ranks is None:
            return np.zeros(len(self), dtype=bool)
        return (self.ranks < self.coeffs.shape[1]) & ~self.failed

    @property
    def a(self) -> np.ndarray:
        return self.coeffs[:, :-1]

    @property
    def b(self) -> np.ndarray:
        return self.coeffs[:, -1]

    @property
    def A(self) -> np.ndarray:
        return self.coeffs[:, :-1].transpose(0, 2, 1)

    @property
    def p(self) -> int:
        return self.coeffs.shape[1] - 1

    dim = n_covariates = p

    @property
    def n_outputs(self) -> int:
        return self.coeffs.shape[-1]


def as_models(model) -> Models:
    """``model`` as a Models: a Models as it is, and one model as a Models
    of one, which serves every gap or path, as numpy broadcasts a row."""
    return model if isinstance(model, Models) else Models.of([model])
