"""Reproduction study for the two-column phosphate fragment in data/phosphate.csv.

Runs the default vector pipeline on the fragment, compares the results with
the fill-in values quoted for this dataset in the earlier published analysis,
and probes which fitting conventions could explain the quoted numbers. The
output is deterministic JSON; the committed copy lives at
reports/phosphate_reproduction.json and the acceptance suite regenerates it
and compares bytes.

Usage: python scripts/phosphate_report.py [output-path]
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

from gapfill.fitting import fit_ar_lagged, fit_ar_scalar, fit_var1, predict_forward
from gapfill.pipeline import ImputeOptions, fit_prefix, impute_series
from gapfill.series import detect_gaps, parse_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Values quoted for this fragment in the earlier published analysis: the
# uncorrected two-step forecast into the first gap, the corrected fill for
# both gaps, and the one-step forecast into the second gap.
REFERENCE = {
    "predicted_11": [60.43, 28.57],
    "predicted_12": [61.10, 47.98],
    "filled_11": [95.10, 55.33],
    "filled_12": [130.43, 56.67],
    "predicted_15": [76.90, 62.93],
    "filled_15": [71.45, 61.15],
}


def rounded(values, digits=4):
    return [round(float(v), digits) for v in np.atleast_1d(values)]


def per_component_ar1(columns, window):
    """Independent scalar fit per component, the diagonal-fit hypothesis."""
    models = [fit_ar_scalar(col[:window], 1) for col in columns]
    return models


def roll_scalar(model, start, steps):
    return predict_forward(model, [start], steps)


def main() -> int:
    out_path = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else (
        ROOT / "reports" / "phosphate_reproduction.json"
    )
    text = (ROOT / "data" / "phosphate.csv").read_text()
    series = parse_csv(text)
    prefix, gaps = detect_gaps(series)
    options = ImputeOptions(model_kind="var")
    result = impute_series(series, options)

    # the uncorrected forecast into each gap, rolled from the row before it
    # with the prefix model, as the pipeline rolls it
    model = fit_prefix(series, options)
    forecast_11 = predict_forward(model, series.data[gaps[0].gap_start - 2], 2)
    forecast_15 = predict_forward(model, series.data[gaps[1].gap_start - 2], 1)
    pipeline_values = {
        "predicted_11": rounded(forecast_11[0]),
        "predicted_12": rounded(forecast_11[1]),
        "filled_11": rounded(result.filled[10]),
        "filled_12": rounded(result.filled[11]),
        "predicted_15": rounded(forecast_15[0]),
        "filled_15": rounded(result.filled[14]),
    }
    deviations = {
        key: rounded(np.array(pipeline_values[key]) - np.array(REFERENCE[key]))
        for key in REFERENCE
    }
    worst = max(abs(v) for devs in deviations.values() for v in devs)

    # --- sensitivity probes -------------------------------------------------
    observed = series.data[~series.missing]
    columns = [observed[:10, c] for c in range(2)]
    full_columns = [series.data[:, c] for c in range(2)]

    sensitivity = []

    # joint first-order vector fit on the prefix: the documented pipeline
    var_model = fit_var1(series.data[:10])
    sensitivity.append({
        "hypothesis": "joint vector fit on rows 1..10 (this tool's default)",
        "predicted_11": pipeline_values["predicted_11"],
        "predicted_12": pipeline_values["predicted_12"],
        "filled_11": pipeline_values["filled_11"],
        "filled_12": pipeline_values["filled_12"],
        "transition_matrix": [rounded(row) for row in var_model.A],
        "intercept": rounded(var_model.b),
    })

    # independent scalar fit per component on the same window
    scalar_models = per_component_ar1(columns, 10)
    xhat11 = [roll_scalar(m, col[-1], 2) for m, col in zip(scalar_models, columns)]
    sensitivity.append({
        "hypothesis": "independent scalar fit per component on rows 1..10",
        "lag_coefficient": rounded([m.a[0] for m in scalar_models]),
        "intercept": rounded([m.b for m in scalar_models]),
        "predicted_11": rounded([path[0] for path in xhat11]),
        "predicted_12": rounded([path[1] for path in xhat11]),
    })

    # one-step forecast into the second gap under three fit windows
    pair_13_14_models = []
    for c in range(2):
        col = full_columns[c]
        lag_rows = [[col[t - 1]] for t in range(1, 14) if not (np.isnan(col[t - 1]) or np.isnan(col[t]))]
        targets = [col[t] for t in range(1, 14) if not (np.isnan(col[t - 1]) or np.isnan(col[t]))]
        pair_13_14_models.append(fit_ar_lagged(np.array(lag_rows), np.array(targets)))
    xhat15_refit = [float(m.a[0] * 77.0 + m.b) for m in pair_13_14_models]

    completed = [col.copy() for col in full_columns]
    for c in range(2):
        completed[c][10] = REFERENCE["filled_11"][c]
        completed[c][11] = REFERENCE["filled_12"][c]
    completed_models = [fit_ar_scalar(col[:14], 1) for col in completed]
    xhat15_completed = [float(m.a[0] * 77.0 + m.b) for m in completed_models]

    var_completed = fit_var1(np.vstack([np.array([c1, c2]) for c1, c2 in
                                        zip(completed[0][:14], completed[1][:14])]))
    xhat15_var_completed = var_completed.A @ np.array([77.0, 77.0]) + var_completed.b

    sensitivity.append({
        "hypothesis": "second-gap forecast under alternative fit windows",
        "scalar_per_component_rows_1_10": rounded(
            [float(m.a[0] * 77.0 + m.b) for m in scalar_models]
        ),
        "scalar_per_component_all_observed_rows_before_gap": rounded(xhat15_refit),
        "scalar_per_component_on_reference_completed_rows_1_14": rounded(xhat15_completed),
        "joint_vector_on_reference_completed_rows_1_14": rounded(xhat15_var_completed),
        "reference_predicted_15": REFERENCE["predicted_15"],
    })

    analysis = [
        "The segmentation matches the reference exactly: observed prefix rows 1..10, "
        "a two-row gap at rows 11..12 anchored by row 13 = (166, 68), and a one-row "
        "gap at row 15 anchored by row 16 = (68, 59).",
        "The default pipeline (joint first-order vector fit on the prefix, corrections "
        "certified optimal by the independent checker) lands far from the reference "
        f"fill-ins; the largest componentwise deviation is {worst:.2f}, versus the "
        "plus-or-minus 1.0 band the reference values themselves would satisfy.",
        "An independent scalar fit per component on rows 1..10 reproduces the "
        "reference first-component forecasts to every printed digit (60.4305 vs 60.43 "
        "at row 11, 61.1009 vs 61.10 at row 12), so the reference numbers almost "
        "certainly come from per-component scalar fits rather than a joint vector fit.",
        "No convention tried reproduces the reference second components (28.57 at row "
        "11 lies below every value in the fit window, which no least-squares "
        "one-step forecast from this window can do), so those remain unexplained.",
        "For the second gap the reference forecast (76.90, 62.93) is approached only "
        "when the fit window includes the first gap's reference fill-ins (rows 1..14 "
        "completed), giving (78.32, 62.62) per component; fitting on the observed "
        "prefix alone gives (54.02, 62.53). The reference analysis therefore appears "
        "to refit on its own earlier fill-ins, which this tool deliberately never "
        "does (imputed values may seed a later gap's recursion but never enter a fit).",
        "Conclusion: the pipeline, its terminal constraints, and its optimality "
        "certificates behave as specified on this fragment; the reference fill-in "
        "values are not reproducible from the stated fitting conventions, and the "
        "deviations are attributable to the fit-window and per-component choices "
        "documented above.",
    ]

    payload = {
        "schema_version": 1,
        "dataset": "data/phosphate.csv",
        "command": "gapfill impute data/phosphate.csv --model var --report <path>",
        "segmentation": {
            "prefix_length": prefix,
            "gaps": [
                {
                    "start": g.gap_start,
                    "end": g.gap_end,
                    "anchor_index": g.anchor_index,
                    "anchor_value": [float(v) for v in g.anchor_value],
                }
                for g in gaps
            ],
        },
        "reference_values": REFERENCE,
        "pipeline_values": pipeline_values,
        "componentwise_deviation": deviations,
        "largest_absolute_deviation": round(float(worst), 4),
        "within_unit_tolerance": bool(worst <= 1.0),
        "oracle_certified": [entry["oracle"]["certified"] for entry in result.report.gaps],
        "sensitivity": sensitivity,
        "analysis": analysis,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
