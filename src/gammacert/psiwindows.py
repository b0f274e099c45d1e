"""The digamma / polygamma windows of the lemma suite.

Logarithmic windows around psi(x) and power windows around psi^(k)(x),
each a CheckTable of ``gammacert.ineq``'s two-sided rule (the builders
follow the catalogue's conventions, stated in ``ineq``).  psi_log_bounds
and polygamma_bounds give their rows window by window, one row per point
in grid order; lemma_windows lays the same windows out point by point.
Only the lemma suite loads this module.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import CheckResult, CheckTable
from .errors import PACKAGE_ERRORS, first_bad_point, real_points, require_positive
from .gammakit import EXP_NEG_EULER_GAMMA, check_order, digamma, gamma_rows, libm, polygamma, power
from .ineq import one_sided_stack, row_or_rows, stack_table, two_sided_stack

__all__ = ["lemma_windows", "polygamma_bounds", "psi_log_bounds", "psi_upper_refinement"]

_PSI_KEYS = tuple((name, ("x", "mid"), True) for name in (
    "psi_between_log_offsets", "psi_between_shifted_logs", "psi_between_shifted_logs_sharp",
    "psi_second_order_window"))
_REFINEMENT_KEY = ("psi_sharp_upper_refines_shifted_log", ("x",), True)
_POWER_KEYS = tuple((name, ("k", "x", "mid"), True)
                    for name in ("polygamma_power_window", "polygamma_shifted_power_window"))
_LEMMA_ORDERS = range(1, 7)  # the orders of polygamma_bounds in lemma_windows
_LEMMA_SIGNS = np.array([[(-1.0) ** (k + 1)] for k in _LEMMA_ORDERS])


def _shifted_uppers(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1/x, ln(x+1) - 1/x, ln(x+e^{-gamma}) - 1/x) at xs."""
    with np.errstate(all="ignore"):  # inf and nan, as Python float arithmetic gives
        inv = 1.0 / xs
        return inv, libm(math.log, xs + 1.0) - inv, libm(math.log, xs + EXP_NEG_EULER_GAMMA) - inv


def _psi_sides(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): the sides of psi_log_bounds' four windows at xs, one
    row per window."""
    inv, one, sharp = _shifted_uppers(xs)
    lx = libm(math.log, xs)
    log_half = libm(math.log, xs + 0.5)
    with np.errstate(all="ignore"):
        upper = lx - 0.5 * inv
        return (np.array([lx - inv, log_half - inv, log_half - inv,
                          upper - 1.0 / (12.0 * xs * xs)]), np.array([upper, one, sharp, upper]))


def _power_sides(ks, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): the sides of polygamma_bounds' two windows for each
    order in ks at xs, one row per window, each k's two in turn.  The orders
    share their powers of x."""
    x_pow = {e: power(xs, float(e)) for e in sorted({*ks, *(k + 1 for k in ks)})}
    one, half = xs + 1.0, xs + 0.5
    lower, upper = [], []
    with np.errstate(all="ignore"):
        for k in ks:
            km1f, kf = float(math.factorial(k - 1)), float(math.factorial(k))
            head, tail = km1f / x_pow[k], kf / x_pow[k + 1]
            lower += [head + 0.5 * tail, km1f / power(one, float(k)) + tail]
            upper += [head + tail, km1f / power(half, float(k)) + tail]
    return np.array(lower), np.array(upper)


@first_bad_point
def psi_log_bounds(x) -> CheckTable:
    """Four two-sided logarithmic windows around psi(x), x > 0.

    1. ln x - 1/x            < psi(x) < ln x - 1/(2x)
    2. ln(x+1/2) - 1/x       < psi(x) < ln(x+1) - 1/x
    3. ln(x+1/2) - 1/x       < psi(x) < ln(x+e^{-gamma}) - 1/x   (sharp shifts)
    4. ln x - 1/(2x) - 1/(12x^2) < psi(x) < ln x - 1/(2x)
    """
    xs = real_points(x, "x", require_positive)
    psi = digamma(xs)
    lower, upper = _psi_sides(xs)
    return stack_table(_PSI_KEYS,
                       [two_sided_stack(np.arange(4)[:, None], [xs], lower, psi, upper)])


@first_bad_point
def psi_upper_refinement(x) -> CheckResult | CheckTable:
    """The sharp-shift upper bound is tighter: ln(x+e^{-gamma}) < ln(x+1).

    One point gives its CheckResult, a grid the table of rows.
    """
    xs = real_points(x, "x", require_positive)
    _, one, sharp = _shifted_uppers(xs)
    return row_or_rows(stack_table([_REFINEMENT_KEY], [one_sided_stack(0, [xs], sharp, one)]),
                       x)


@first_bad_point
def polygamma_bounds(k: int, x) -> CheckTable:
    """Two power windows around v = (-1)^{k+1} psi^(k)(x) > 0 for k >= 1, x > 0.

    1. (k-1)!/x^k + k!/(2x^{k+1})     < v < (k-1)!/x^k + k!/x^{k+1}
    2. (k-1)!/(x+1)^k + k!/x^{k+1}    < v < (k-1)!/(x+1/2)^k + k!/x^{k+1}
    """
    xs = real_points(x, "x", require_positive)
    k = check_order(k)
    v = (-1.0) ** (k + 1) * polygamma(k, xs)
    lower, upper = _power_sides([k], xs)
    return stack_table(_POWER_KEYS, [two_sided_stack(np.arange(2)[:, None], [float(k), xs],
                                                     lower, v, upper)])


def lemma_windows(x) -> CheckTable:
    """The lemma suite at x > 0: psi_log_bounds, psi_upper_refinement and
    polygamma_bounds for k = 1..6, 17 rows per point.

    Each point's rows come in turn, in that order and each builder's windows
    in its order, and every row is the row of the builder's own call.  A
    grid with a bad point raises the error of the first of those builders
    that fails, at its first bad point: the builders run again, in order,
    when the one pass raises.
    """
    try:
        xs = real_points(x, "x", require_positive)
        rows = gamma_rows(range(_LEMMA_ORDERS[-1] + 1), xs)  # psi, then psi^(k) for k = 1..6
        psi, v = rows[0], rows[1:] * _LEMMA_SIGNS  # the magnitudes (-1)^(k+1) psi^(k)
        lower, upper = _psi_sides(xs)
        p_lower, p_upper = _power_sides(_LEMMA_ORDERS, xs)
        ks = np.repeat([float(k) for k in _LEMMA_ORDERS], 2)[:, None]
        return stack_table((*_PSI_KEYS, _REFINEMENT_KEY, *_POWER_KEYS), [
            two_sided_stack(np.arange(4)[:, None], [xs], lower, psi, upper),
            one_sided_stack(4, [xs], upper[2], upper[1]),
            two_sided_stack(np.tile([5, 6], len(_LEMMA_ORDERS))[:, None], [ks, xs], p_lower,
                            np.repeat(v, 2, axis=0), p_upper),
        ], point_major=True)
    except PACKAGE_ERRORS:
        psi_log_bounds(x)
        psi_upper_refinement(x)
        for k in _LEMMA_ORDERS:
            polygamma_bounds(k, x)
        raise
