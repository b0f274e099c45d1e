"""Special-function kernel and inequality certification toolkit.

The package evaluates the log-gamma/digamma/polygamma family with its own
Stirling-series kernel, exposes the two-parameter function family

    h_{alpha,y}(x) = [Gamma(x+y+1)/Gamma(y+1)]^(1/x) / (x+y+1)^alpha

together with closed-form derivatives of ln h, and certifies sign conditions,
inequality windows, and classification scans over (alpha, y) with explicit
noise-aware verdicts.  The ``gammacert`` console script drives the suites.
"""

from .ballvol import ball_ratio_checks, log_omega, omega, recurrence_check
from .certify import (
    Certificate,
    Classification,
    Direction,
    GridSpec,
    ScanCell,
    Verdict,
    certify_lcm,
    classify,
    default_grid,
    finite_diff_crosscheck,
    grid_points,
    in_conjecture_zone,
    lcm_certifier,
    necessity_limits,
    scan_values,
    verify_thm3,
)
from .errors import CapabilityError, DomainError, ParameterError, PrecisionError
from .gammakit import (
    EULER_GAMMA,
    EXP_NEG_EULER_GAMMA,
    MAX_DERIV_ORDER,
    digamma,
    gamma_table,
    lngamma,
    polygamma,
)
from .hfamily import (
    DerivSample,
    HParams,
    alpha_necessary_bound,
    bigH_eval,
    h_eval,
    log_h,
    logh_deriv,
    logh_deriv_table,
    logh_derivs_with_scale,
    q_surface,
    q_surface_table,
)
from .ineq import (
    AuxFn,
    CheckResult,
    aux_eval,
    batir_ineq,
    gamma_ratio_ineq,
    log_upper_bound_ineq,
    polygamma_bounds,
    psi_integral_mean_ineq,
    psi_log_bounds,
    psi_upper_refinement,
    qcub_root,
    suffice_chain,
    thm2_ineq,
)
from .means import gen_log_mean, log_mean
from .report import (
    Report,
    build_report,
    dumps,
    from_jsonable,
    make_timestamp,
    result_status,
    to_jsonable,
)

__version__ = "0.1.0"

__all__ = [
    "AuxFn",
    "CapabilityError",
    "Certificate",
    "CheckResult",
    "Classification",
    "DerivSample",
    "Direction",
    "DomainError",
    "EULER_GAMMA",
    "EXP_NEG_EULER_GAMMA",
    "GridSpec",
    "HParams",
    "MAX_DERIV_ORDER",
    "ParameterError",
    "PrecisionError",
    "Report",
    "ScanCell",
    "Verdict",
    "__version__",
    "alpha_necessary_bound",
    "aux_eval",
    "ball_ratio_checks",
    "batir_ineq",
    "bigH_eval",
    "build_report",
    "certify_lcm",
    "classify",
    "default_grid",
    "digamma",
    "gamma_table",
    "dumps",
    "finite_diff_crosscheck",
    "from_jsonable",
    "gamma_ratio_ineq",
    "gen_log_mean",
    "grid_points",
    "h_eval",
    "in_conjecture_zone",
    "lcm_certifier",
    "lngamma",
    "log_h",
    "log_mean",
    "log_omega",
    "log_upper_bound_ineq",
    "logh_deriv",
    "logh_deriv_table",
    "logh_derivs_with_scale",
    "make_timestamp",
    "necessity_limits",
    "omega",
    "polygamma",
    "polygamma_bounds",
    "psi_integral_mean_ineq",
    "psi_log_bounds",
    "psi_upper_refinement",
    "q_surface",
    "q_surface_table",
    "qcub_root",
    "recurrence_check",
    "result_status",
    "scan_values",
    "suffice_chain",
    "thm2_ineq",
    "to_jsonable",
    "verify_thm3",
]
