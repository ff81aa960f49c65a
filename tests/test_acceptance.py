"""End-to-end acceptance checks for the whole package.

Each test covers one acceptance criterion and prints a single
``[acceptance] <label>: PASS|FAIL`` line on the real terminal, so the
verdicts stay visible under pytest's capture. Tolerances are pinned as
module constants; loosening them counts as a failure, not a fix.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from gapfill.control import impute_gap_ar, impute_gap_regression
from gapfill.fitting import ArModel, RegModel
from gapfill.oracle import InstanceLimits, random_instance, verify_instance
from gapfill.pipeline import ImputeOptions, impute_series
from gapfill.series import Series, detect_gaps, parse_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_SCRIPT = ROOT / "scripts" / "phosphate_report.py"
COMMITTED_REPORT = ROOT / "reports" / "phosphate_reproduction.json"

CERTIFY_BOUND = 1e-9          # relative optimality gap and constraint residual
CLOSED_FORM_BOUND = 1e-12     # first-order geometric-profile identity
FEASIBILITY_BOUND = 1e-9      # terminal residual, relative to 1 + |anchor|
UNIFORM_BOUND = 1e-12         # equal-spread identity for pointwise models
EQUIVARIANCE_BOUND = 1e-8     # affine transport of the full fit-and-fill path


@pytest.fixture
def verdict(capsys):
    """Print one acceptance line outside pytest's capture, then assert."""

    def emit(label: str, ok: bool, detail: str = "") -> None:
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{tail}")
        assert ok, f"{label}{tail}"

    return emit


def test_scalar_certification_sweep(verdict):
    worst_gap = 0.0
    worst_res = 0.0
    failed = []
    for seed in range(1000):
        inst = verify_instance(seed, InstanceLimits.scalar())
        worst_gap = max(worst_gap, abs(inst.verdict.objective_gap))
        worst_res = max(worst_res, inst.verdict.constraint_residual)
        if not inst.verdict.passed:
            failed.append(seed)
    verdict(
        "1000 random scalar gaps solved and certified optimal",
        not failed,
        f"worst gap {worst_gap:.2e}, worst residual {worst_res:.2e}",
    )


def test_vector_certification_sweep(verdict):
    worst_gap = 0.0
    worst_res = 0.0
    failed = []
    for seed in range(500):
        inst = verify_instance(seed, InstanceLimits.vector())
        worst_gap = max(worst_gap, abs(inst.verdict.objective_gap))
        worst_res = max(worst_res, inst.verdict.constraint_residual)
        if not inst.verdict.passed:
            failed.append(seed)
    verdict(
        "500 random vector gaps solved and certified optimal",
        not failed,
        f"worst gap {worst_gap:.2e}, worst residual {worst_res:.2e}",
    )


def test_first_order_closed_form(verdict):
    # for a single lag the optimal corrections follow a geometric profile:
    # u at distance d from the anchor is multiplier * a**d, and the
    # multiplier is the endpoint miss over the sum of squared powers
    limits = replace(InstanceLimits.scalar(), max_order=1)
    worst = 0.0
    for seed in range(200):
        inst = verify_instance(seed, limits)
        a = inst.model.a[0]
        controls = np.asarray(inst.solution.controls, dtype=float)
        m = controls.shape[0]
        delta = float(inst.segment.anchor_value[0]) - float(inst.solution.predicted[-1])
        denom = sum(a ** (2 * j) for j in range(m))
        c = delta / denom
        expected = np.array([c * a ** (m - 1 - i) for i in range(m)])
        err = np.max(np.abs(controls - expected) / (1.0 + np.abs(expected)))
        err = max(err, abs(inst.solution.multiplier - c) / (1.0 + abs(c)))
        worst = max(worst, float(err))
    verdict(
        "single-lag corrections match the geometric closed form",
        worst <= CLOSED_FORM_BOUND,
        f"worst relative deviation {worst:.2e} over 200 gaps",
    )


def test_terminal_feasibility(verdict):
    worst_exact = 0.0
    paper_checked = 0
    paper_ok = True
    for seed in range(300):
        series, model = random_instance(seed, InstanceLimits.scalar())
        _, gaps = detect_gaps(series, model.p)
        segment = gaps[0]
        seeds = series.data[np.array(segment.seed_indices) - 1, 0]
        anchor = float(segment.anchor_value[0])
        sol = impute_gap_ar(model, segment, seeds, anchor)
        worst_exact = max(worst_exact, sol.terminal_residual / (1.0 + abs(anchor)))
        if model.p >= 2:
            # the printed-recurrence weights give a running-sum profile, so
            # the anchor is generally missed; the residual must be reported
            # and finite, with the weight comparison in the diagnostics
            alt = impute_gap_ar(model, segment, seeds, anchor, mode="paper")
            paper_checked += 1
            paper_ok = paper_ok and np.isfinite(alt.terminal_residual)
            paper_ok = paper_ok and alt.mode == "paper"
            paper_ok = paper_ok and "max_weight_difference" in alt.diagnostics
    for seed in range(100):
        inst = verify_instance(seed, InstanceLimits.vector())
        anchor_norm = float(np.linalg.norm(np.asarray(inst.segment.anchor_value, float)))
        worst_exact = max(
            worst_exact, inst.solution.terminal_residual / (1.0 + anchor_norm)
        )
    ok = worst_exact <= FEASIBILITY_BOUND and paper_ok and paper_checked >= 50
    verdict(
        "exact fills hit the anchor; alternate-weight fills report their miss",
        ok,
        f"worst relative residual {worst_exact:.2e}, {paper_checked} alternate-weight runs",
    )


def test_uniform_correction_and_unit_reduction(verdict):
    rng = np.random.default_rng(2024)
    worst_spread = 0.0
    worst_reduction = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        gap_len = int(rng.integers(1, 9))
        model = RegModel(A=rng.uniform(-2, 2, (1, k)), b=[float(rng.uniform(-1, 1))])
        values = [float(rng.uniform(-5, 5))] + [None] * gap_len + [float(rng.uniform(-5, 5))]
        series = Series.from_values(values)
        _, gaps = detect_gaps(series)
        segment = gaps[0]
        covariates = rng.uniform(-5, 5, (gap_len + 2, k))
        anchor = values[-1]
        sol = impute_gap_regression(model, segment, covariates[1:], anchor)
        m = len(sol.controls)
        # rebuild the uncorrected path from the fitted start and verify the
        # fill is that path plus an equal share of the miss at every step
        fitted = covariates @ np.asarray(model.A, float).T + np.asarray(model.b, float)
        path = [float(fitted[0, 0])]
        for t in range(m):
            step = float(((covariates[t + 1] - covariates[t]) @ np.asarray(model.A, float).T)[0])
            path.append(path[-1] + step)
        share = (anchor - path[-1]) / m
        worst_spread = max(
            worst_spread,
            abs(sol.multiplier - share) / (1.0 + abs(share)),
            float(np.max(np.abs(np.asarray(sol.controls) - share)) / (1.0 + abs(share))),
        )
        for i, x in enumerate(np.asarray(sol.imputed, float).ravel()):
            expected = path[i + 1] + share * (i + 1)
            worst_spread = max(worst_spread, abs(x - expected) / (1.0 + abs(expected)))

        # one covariate with a unit coefficient and constant inputs walks the
        # same line as the unit-coefficient scalar recursion
        start = float(rng.uniform(-5, 5))
        target = float(rng.uniform(-5, 5))
        unit_values = [start] + [None] * gap_len + [target]
        _, unit_gaps = detect_gaps(Series.from_values(unit_values))
        unit_cov = np.full((gap_len + 2, 1), start)
        reg = impute_gap_regression(RegModel(A=[[1.0]], b=[0.0]), unit_gaps[0], unit_cov[1:], target)
        ar = impute_gap_ar(ArModel(a=(1.0,), b=0.0), unit_gaps[0], [start], target)
        worst_reduction = max(
            worst_reduction,
            float(np.max(np.abs(np.asarray(reg.imputed).ravel() - np.asarray(ar.imputed).ravel()))),
        )
    ok = worst_spread <= UNIFORM_BOUND and worst_reduction <= UNIFORM_BOUND
    verdict(
        "pointwise models spread the miss uniformly and reduce to the unit recursion",
        ok,
        f"worst spread deviation {worst_spread:.2e}, worst reduction deviation {worst_reduction:.2e}",
    )


def test_reference_fragment_study(verdict, phosphate_text, tmp_path):
    series = parse_csv(phosphate_text)
    prefix, gaps = detect_gaps(series)
    seg_ok = (
        prefix == 10
        and [(g.gap_start, g.gap_end, g.anchor_index) for g in gaps]
        == [(11, 12, 13), (15, 15, 16)]
        and np.allclose(gaps[0].anchor_value, [166.0, 68.0])
        and np.allclose(gaps[1].anchor_value, [68.0, 59.0])
    )
    result = impute_series(series, ImputeOptions(model_kind="var"))
    run_ok = len(result.report.gaps) == 2 and all(
        entry["oracle"]["certified"] for entry in result.report.gaps
    )

    regen = tmp_path / "regen.json"
    proc = subprocess.run(
        [sys.executable, str(REPORT_SCRIPT), str(regen)],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
    )
    bytes_ok = (
        proc.returncode == 0
        and COMMITTED_REPORT.is_file()
        and regen.read_bytes() == COMMITTED_REPORT.read_bytes()
    )

    # the quoted fill-ins are not reproducible within one unit under the
    # documented fitting conventions, so the committed study must say so
    # and carry the componentwise deviations and the convention analysis
    payload = json.loads(COMMITTED_REPORT.read_text()) if COMMITTED_REPORT.is_file() else {}
    study_ok = (
        payload.get("within_unit_tolerance") is False
        and "componentwise_deviation" in payload
        and len(payload.get("analysis", [])) >= 3
        and payload.get("oracle_certified") == [True, True]
    )
    ok = seg_ok and run_ok and bytes_ok and study_ok
    verdict(
        "phosphate fragment: segmentation, certified run, committed deviation study",
        ok,
        f"largest committed deviation {payload.get('largest_absolute_deviation', 'n/a')}",
    )


def multi_gap_series(rng):
    """A scalar series of uniform values with two to four interior gaps, each
    long enough to leave a control step, and an order p for it."""
    p = int(rng.integers(1, 4))
    values = list(rng.uniform(-5.0, 5.0, int(rng.integers(2 * p + 4, 30))))
    for _ in range(int(rng.integers(2, 5))):
        values += [None] * int(rng.integers(max(1, p - 1), 6))
        values += list(rng.uniform(-5.0, 5.0, int(rng.integers(1, 2 * p + 3))))
    return values, p


def test_affine_equivariance(verdict):
    # |alpha| is log-uniform in 1e-150..1e150 and beta a multiple of |alpha|;
    # past ~1e154 the summed squared controls overflow and the run exits 4
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed + 10_000)
        raw, order = multi_gap_series(rng)
        scale = 10.0 ** float(rng.uniform(-150.0, 150.0))
        alpha = scale * (1.0 if rng.uniform() < 0.5 else -1.0)
        beta = scale * float(rng.uniform(-10.0, 10.0))
        series = Series.from_values(raw)
        shifted = Series.from_values([None if v is None else alpha * v + beta for v in raw])
        for refit in (False, True):
            options = ImputeOptions(model_kind="ar", order=order, refit_per_gap=refit)
            base = impute_series(series, options)
            moved = impute_series(shifted, options)
            for index, value in base.imputed.items():
                x = float(value[0])
                got = float(moved.imputed[index][0])
                worst = max(worst, abs(got - (alpha * x + beta)) / (scale * (1.0 + abs(x))))
    verdict(
        "refit fills transport exactly under scale and shift",
        worst <= EQUIVARIANCE_BOUND,
        f"worst relative deviation {worst:.2e} over 100 multi-gap instances, "
        f"each with and without refits",
    )


def test_deterministic_bytes(verdict, phosphate_path, tmp_path):
    runner = (
        "import sys\n"
        "from gapfill.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def run_cli(args):
        return subprocess.run(
            [sys.executable, "-c", runner, *args],
            cwd=str(ROOT),
            capture_output=True,
        )

    reports = []
    outs = []
    for i in range(2):
        report = tmp_path / f"report{i}.json"
        proc = run_cli(
            ["impute", str(phosphate_path), "--model", "var", "--report", str(report)]
        )
        outs.append(proc.stdout)
        reports.append(report.read_bytes() if report.is_file() else b"")
        if proc.returncode != 0:
            verdict("repeated runs produce identical bytes", False, "impute run failed")

    verify_outs = [
        run_cli(["verify", "--model", "var", "--seed", "7", "--cases", "25"]).stdout
        for _ in range(2)
    ]
    ok = (
        outs[0] == outs[1]
        and len(outs[0]) > 0
        and reports[0] == reports[1]
        and len(reports[0]) > 0
        and verify_outs[0] == verify_outs[1]
        and len(verify_outs[0]) > 0
    )
    verdict(
        "repeated runs produce identical bytes",
        ok,
        f"{len(outs[0])} csv bytes, {len(reports[0])} report bytes",
    )
