"""Unit-ball volumes and inequalities between nearby-dimension volume ratios.

Omega_n = pi^{n/2} / Gamma(1 + n/2) is the volume of the n-dimensional unit
ball.  Since Omega_n underflows binary64 rapidly (Omega_100 ~ 1e-40), every
ratio comparison here is carried out on ln Omega_n; exponentiation never
happens inside a check.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import CheckResult, CheckTable
from .errors import (
    CapabilityError, DomainError, as_grid, as_integer, first_bad_point, is_finite)
from .gammakit import libm, lngamma
from .ineq import one_sided_stack, stack_table, two_sided_rows, two_sided_stack

__all__ = ["ball_ratio_checks", "log_omega", "omega", "recurrence_check"]

_HALF_LOG_PI = 0.5 * math.log(math.pi)
_LOG_2 = math.log(2.0)
_WINDOW = ("n", "log_scale", "mid")
_KEYS = (("ball_ratio_skip2_window", _WINDOW, True), ("ball_ratio_adjacent_window", _WINDOW, True),
         ("ball_sandwich_consecutive", _WINDOW, False),  # its lower side is non-strict
         ("ball_adjacent_refines_sandwich", ("n", "slack_lower", "slack_upper", "log_scale"), True))


# Each function takes one dimension or a 1-D grid of them and evaluates the
# grid at once: + - * / in numpy, each log and exp by libm per element, every
# n + 1, n + 2 and n - 2 an exact int before it becomes a float.  So every
# value and row is bit for bit that of its one-dimension call.

def _dims(n, minimum: int) -> list[int]:
    """The dimensions in n; DomainError for the first that is not an integer
    >= minimum, CapabilityError for one beyond the binary64 range."""
    dims = as_grid(n)
    dims = [n] if dims is None else dims
    for i, d in enumerate(dims):
        dims[i] = as_integer(d)  # a numpy integer as a Python int
        if dims[i] is None or d < minimum:
            raise DomainError(f"dimension n must be an integer >= {minimum}, got {d!r}")
        if not is_finite(d):
            raise CapabilityError(
                f"dimension n = {d} is outside the double-precision range")
    return dims


def _log_omegas(dims: list[int]) -> np.ndarray:
    n = np.array(dims, dtype=float)
    return n * _HALF_LOG_PI - lngamma(1.0 + 0.5 * n)  # one lngamma grid


@first_bad_point
def log_omega(n) -> float | np.ndarray:
    """ln Omega_n = (n/2) ln pi - lnGamma(1 + n/2) for integer n >= 0.

    One n gives a float, a 1-D grid the array of the per-n values.
    """
    values = _log_omegas(_dims(n, 0))
    return values[0].item() if np.ndim(n) == 0 else values


def omega(n) -> float | np.ndarray:
    """Volume of the n-dimensional unit ball (may underflow for huge n)."""
    values = log_omega(n)
    return math.exp(values) if np.ndim(n) == 0 else libm(math.exp, values)


@first_bad_point
def ball_ratio_checks(n) -> CheckTable:
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

    n is one dimension or a 1-D grid; the rows of the table come dimension
    by dimension.
    """
    dims = _dims(n, 1)
    shifted = [d + s for s in (0, 1, 2) for d in dims]
    n, n1, n2 = np.array(shifted, dtype=float).reshape(3, -1)
    lo_n, lo_n1, lo_n2 = _log_omegas(shifted).reshape(3, -1)
    with np.errstate(all="ignore"):  # inf and nan, as Python float arithmetic gives
        log_skip = libm(math.log, (n + 2.0) / (n + 4.0))
        log_adj = libm(math.log, (n + 2.0) / (n + 3.0))
        sandwich_mid = (n / (n + 1.0)) * lo_n1
        # refinement slacks: refined lower bound above (c)'s lower bound,
        # refined upper bound below (c)'s upper bound
        slack_lo = (n / 4.0) * (-log_adj) - (_LOG_2 - _HALF_LOG_PI)
        slack_up = 0.5 - (n / 2.0) * (-log_adj)
        log_ratios = np.array([log_skip, log_adj])
        table = stack_table(_KEYS, [
            two_sided_stack(np.arange(2)[:, None], [n, 1.0], 0.5 * log_ratios,
                            np.array([lo_n2 / n2, lo_n1 / n1]) - lo_n / n, 0.25 * log_ratios),
            two_sided_stack(2, [n, 1.0], _LOG_2 - _HALF_LOG_PI + sandwich_mid, lo_n,
                            0.5 + sandwich_mid, strict_lower=False),
            one_sided_stack(3, [n, slack_lo, slack_up, 1.0], 0.0,
                            np.where(slack_up < slack_lo, slack_up, slack_lo)),
        ], point_major=True)
    # each dimension's three window rows, then its refinement row if n > 2
    return table.take(np.flatnonzero((np.arange(4) < 3) | (n > 2.0)[:, None]))


@first_bad_point
def recurrence_check(n) -> CheckResult | CheckTable:
    """Omega_n = Omega_{n-2} * 2 pi / n for n >= 2, as a log-space residual.

    Non-strict two-sided check that the residual lies within 1e-12 of zero.
    One n gives its CheckResult, a 1-D grid a table, one row per n.
    """
    dims = _dims(n, 2)
    lo_n, lo_n2 = _log_omegas(dims + [d - 2 for d in dims]).reshape(2, -1)
    ns = np.array(dims, dtype=float)
    with np.errstate(all="ignore"):
        residual = lo_n - (lo_n2 + libm(math.log, 2.0 * math.pi / ns))
        rows = two_sided_rows("ball_volume_recurrence", (("n", ns), ("log_scale", 1.0)),
                              -1e-12, residual, 1e-12, strict=False)
    return rows[0] if np.ndim(n) == 0 else rows
