"""Unit-ball volumes and inequalities between nearby-dimension volume ratios.

Omega_n = pi^{n/2} / Gamma(1 + n/2) is the volume of the n-dimensional unit
ball.  Since Omega_n underflows binary64 rapidly (Omega_100 ~ 1e-40), every
ratio comparison here is carried out on ln Omega_n; exponentiation never
happens inside a check.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .gammakit import lngamma
from .ineq import CheckResult, one_sided, two_sided

__all__ = ["ball_ratio_checks", "log_omega", "omega", "recurrence_check"]

_HALF_LOG_PI = 0.5 * math.log(math.pi)
_LOG_2 = math.log(2.0)


def _check_dim(n: int, minimum: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < minimum:
        raise DomainError(f"dimension n must be an integer >= {minimum}, got {n!r}")
    return n


def log_omega(n: int) -> float:
    """ln Omega_n = (n/2) ln pi - lnGamma(1 + n/2) for integer n >= 0."""
    n = _check_dim(n, 0)
    return n * _HALF_LOG_PI - lngamma(1.0 + 0.5 * n)


def omega(n: int) -> float:
    """Volume of the n-dimensional unit ball (may underflow for huge n)."""
    return math.exp(log_omega(n))


def ball_ratio_checks(n: int) -> list[CheckResult]:
    """Ratio and sandwich inequalities at dimension n >= 1, in log scale.

    (a) sqrt((n+2)/(n+4)) < Omega_{n+2}^{1/(n+2)} / Omega_n^{1/n}
                          < ((n+2)/(n+4))^{1/4}
    (b) sqrt((n+2)/(n+3)) < Omega_{n+1}^{1/(n+1)} / Omega_n^{1/n}
                          < ((n+2)/(n+3))^{1/4}
    (c) (2/sqrt(pi)) Omega_{n+1}^{n/(n+1)} <= Omega_n
                                           < sqrt(e) Omega_{n+1}^{n/(n+1)}
        (the lower side is non-strict: equality holds exactly at n = 1)
    (d) for n > 2 only: window (b) places Omega_n strictly inside (c)'s
        sandwich, i.e. (b) refines (c); both refinement slacks must be
        positive.
    """
    n = _check_dim(n, 1)
    lo_n = log_omega(n)
    lo_n1 = log_omega(n + 1)
    lo_n2 = log_omega(n + 2)
    inputs = (("n", n),)
    ratio_skip = lo_n2 / (n + 2) - lo_n / n
    log_skip = math.log((n + 2.0) / (n + 4.0))
    ratio_adj = lo_n1 / (n + 1) - lo_n / n
    log_adj = math.log((n + 2.0) / (n + 3.0))
    sandwich_mid = (n / (n + 1.0)) * lo_n1
    results = [
        two_sided("ball_ratio_skip2_window", inputs + (("log_scale", 1.0),),
                  0.5 * log_skip, ratio_skip, 0.25 * log_skip),
        two_sided("ball_ratio_adjacent_window", inputs + (("log_scale", 1.0),),
                  0.5 * log_adj, ratio_adj, 0.25 * log_adj),
        two_sided("ball_sandwich_consecutive", inputs + (("log_scale", 1.0),),
                  _LOG_2 - _HALF_LOG_PI + sandwich_mid, lo_n,
                  0.5 + sandwich_mid, strict_lower=False),
    ]
    if n > 2:
        # refinement slacks: refined lower bound above (c)'s lower bound,
        # refined upper bound below (c)'s upper bound
        slack_lo = (n / 4.0) * (-log_adj) - (_LOG_2 - _HALF_LOG_PI)
        slack_up = 0.5 - (n / 2.0) * (-log_adj)
        results.append(one_sided(
            "ball_adjacent_refines_sandwich",
            inputs + (("slack_lower", slack_lo), ("slack_upper", slack_up),
                      ("log_scale", 1.0)),
            0.0, min(slack_lo, slack_up)))
    return results


def recurrence_check(n: int) -> CheckResult:
    """Omega_n = Omega_{n-2} * 2 pi / n for n >= 2, as a log-space residual.

    Non-strict two-sided check that the residual lies within 1e-12 of zero.
    """
    n = _check_dim(n, 2)
    residual = log_omega(n) - (log_omega(n - 2) + math.log(2.0 * math.pi / n))
    return two_sided("ball_volume_recurrence",
                     (("n", n), ("log_scale", 1.0)),
                     -1e-12, residual, 1e-12, strict=False)
