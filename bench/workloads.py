"""Seeded input generators for the benchmark workloads.

Each workload writes one CSV from a seed; the program under test sees only
that file. The amount of work (rows, the gap lengths in order) is fixed per
size, and the seed moves only the model coefficients, the values and the gap
positions, so runs with different seeds do the same work and their times
can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    rows: int
    prefix: int          # observed rows before the first gap (the prefix fit window)
    gap_lengths: tuple   # one entry per gap, in order
    min_observed: int    # least observed rows after each gap, the anchor included


@dataclass(frozen=True)
class Workload:
    name: str
    columns: int
    order: int           # AR order, or 1 for VAR(1)
    extra_args: tuple    # CLI options beyond input/output/report
    sizes: dict          # size name -> Shape


def _stable_ar(rng, order: int, max_modulus: float) -> np.ndarray:
    """Lag coefficients (most recent first) whose characteristic roots lie
    inside the circle of radius ``max_modulus``, so the process is stationary."""
    roots = []
    while len(roots) < order:
        modulus = rng.uniform(0.3, max_modulus)
        if order - len(roots) >= 2 and rng.uniform() < 0.5:
            angle = rng.uniform(0.3, 2.5)
            roots += [modulus * np.exp(1j * angle), modulus * np.exp(-1j * angle)]
        else:
            roots.append(modulus * rng.choice((-1.0, 1.0)))
    return -np.poly(roots).real[1:]


def _simulate_ar(rng, rows: int, order: int) -> np.ndarray:
    a = _stable_ar(rng, order, 0.85)
    b = rng.uniform(-1.0, 1.0)
    burn = 200
    noise = rng.standard_normal(rows + burn)
    x = np.zeros(rows + burn)
    for t in range(order, rows + burn):
        x[t] = b + a @ x[t - order:t][::-1] + noise[t]
    return x[burn:, None]


def _simulate_var(rng, rows: int, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    a *= rng.uniform(0.5, 0.85) / max(abs(np.linalg.eigvals(a)))
    b = rng.uniform(-1.0, 1.0, dim)
    burn = 200
    noise = rng.standard_normal((rows + burn, dim))
    x = np.zeros((rows + burn, dim))
    for t in range(1, rows + burn):
        x[t] = a @ x[t - 1] + b + noise[t]
    return x[burn:]


def _missing_mask(rng, shape: Shape) -> np.ndarray:
    """Gaps after the prefix, in the order given, separated by observed runs
    of at least ``min_observed`` rows whose spare rows are spread at random;
    the last row is always observed, so every gap has an anchor. The order is
    fixed because refit cost grows with each gap's position."""
    lengths = shape.gap_lengths
    spare = shape.rows - shape.prefix - sum(lengths) - len(lengths) * shape.min_observed
    if spare < 0:
        raise ValueError("shape does not fit its gaps")
    observed = shape.min_observed + rng.multinomial(spare, np.full(len(lengths), 1.0 / len(lengths)))
    mask = np.zeros(shape.rows, dtype=bool)
    start = shape.prefix
    for length, run in zip(lengths, observed):
        mask[start:start + length] = True
        start += length + run
    return mask


def generate(workload: Workload, size: str, seed: int) -> str:
    """The workload's input CSV for ``seed``: same seed, same bytes."""
    shape = workload.sizes[size]
    rng = np.random.Generator(np.random.PCG64(seed))
    if workload.columns == 1:
        values = _simulate_ar(rng, shape.rows, workload.order)
        header = "x"
    else:
        values = _simulate_var(rng, shape.rows, workload.columns)
        header = ",".join(f"x{i + 1}" for i in range(workload.columns))
    mask = _missing_mask(rng, shape)
    missing_line = ",".join(["NA"] * workload.columns)
    lines = [header]
    for row, missing in zip(values, mask):
        lines.append(missing_line if missing else ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long_gap_ar",
            columns=1,
            order=3,
            extra_args=("--model", "ar", "--order", "3"),
            sizes={
                "full": Shape(rows=2000, prefix=400, gap_lengths=(600, 600), min_observed=4),
                "tiny": Shape(rows=200, prefix=60, gap_lengths=(40, 40), min_observed=4),
            },
        ),
        Workload(
            name="many_gaps_var",
            columns=3,
            order=1,
            extra_args=("--model", "var"),
            sizes={
                "full": Shape(rows=20000, prefix=500, gap_lengths=tuple(range(1, 21)) * 50,
                              min_observed=1),
                "tiny": Shape(rows=600, prefix=60, gap_lengths=tuple(range(1, 21)), min_observed=1),
            },
        ),
        Workload(
            name="refit_ar",
            columns=1,
            order=2,
            extra_args=("--model", "ar", "--order", "2", "--refit-per-gap"),
            sizes={
                "full": Shape(rows=4000, prefix=200, gap_lengths=tuple(range(1, 6)) * 40,
                              min_observed=3),
                "tiny": Shape(rows=300, prefix=40, gap_lengths=tuple(range(1, 6)) * 4,
                              min_observed=3),
            },
        ),
    )
}
