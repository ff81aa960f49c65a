"""Fill gaps in time series whose endpoint after each gap is known.

A recursion (scalar autoregression, first-order vector autoregression, or a
covariate regression) is fitted to the observed prefix by least squares; each
gap is then filled by the forecast plus per-step corrections that minimize the
summed squared correction magnitudes subject to landing on the first observed
value after the gap. Every constrained solution can be certified against an
independent solve of the same minimization.
"""

from .errors import DataError, GapfillError, NumericalError
from .fitting import (
    ArModel,
    RegModel,
    VarModel,
    fit_ar_scalar,
    fit_regression,
    fit_var1,
    predict_forward,
)
from .control import (
    ControlSolution,
    gamma_weights,
    impulse_weights,
    impute_gap_ar,
    impute_gap_regression,
    impute_gap_var,
    impute_gaps,
    solve_controls,
)
from .oracle import (
    BatchVerdict,
    ConstrainedProblem,
    InstanceLimits,
    OracleResult,
    Verdict,
    build_problem,
    certify,
    kkt_solve,
    random_instance,
)
from .pipeline import ImputeOptions, ImputeResult, fit_prefix, impute_series, verify_instance
from .report import ImputationReport
from .series import GapSegment, Series, detect_gaps, parse_csv, write_csv

__all__ = [
    "ArModel",
    "BatchVerdict",
    "ConstrainedProblem",
    "ControlSolution",
    "DataError",
    "GapSegment",
    "GapfillError",
    "ImputationReport",
    "ImputeOptions",
    "ImputeResult",
    "InstanceLimits",
    "NumericalError",
    "OracleResult",
    "RegModel",
    "Series",
    "VarModel",
    "Verdict",
    "build_problem",
    "certify",
    "detect_gaps",
    "fit_ar_scalar",
    "fit_prefix",
    "fit_regression",
    "fit_var1",
    "gamma_weights",
    "impulse_weights",
    "impute_gap_ar",
    "impute_gap_regression",
    "impute_gap_var",
    "impute_gaps",
    "impute_series",
    "kkt_solve",
    "parse_csv",
    "predict_forward",
    "random_instance",
    "solve_controls",
    "verify_instance",
    "write_csv",
]

__version__ = "0.1.0"
