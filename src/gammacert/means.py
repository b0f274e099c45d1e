"""Logarithmic and generalized logarithmic means of positive numbers.

The generalized logarithmic mean L_p(a, b) interpolates (for a != b)

    L_p(a, b) = [ (b^{p+1} - a^{p+1}) / ((p+1)(b - a)) ]^{1/p}      p != -1, 0
    L_{-1}(a, b) = (b - a) / (ln b - ln a)                          (log mean)
    L_0(a, b) = e^{-1} (b^b / a^a)^{1/(b-a)}                        (identric)

and L_p(a, a) = a.  L_p is increasing in p; L_1 is the arithmetic mean and
L_{-2} the geometric mean.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import (
    DomainError, broadcast_points, first_bad_point, real_points, require_positive, require_real)
from .gammakit import libm, power

__all__ = ["gen_log_mean", "log_mean"]

#: Relative half-width of the a == b diagonal where the mean returns a.
DIAGONAL_REL_TOL = 1e-12
#: Half-width of the exceptional-exponent branches around p = -1 and p = 0.
BRANCH_TOL = 1e-9


# a and b are each one point or a 1-D grid: two points give a float, else
# the array of the per-pair means.  + - * / run in numpy, which rounds as
# Python floats do; each log, log1p, expm1 and exp is libm's, one element at
# a time, and each power libm's pow through gammakit.power, so every element
# is bit for bit its one-pair mean.

def _pairs(a, b) -> tuple[np.ndarray, ...]:
    """(a, lo, hi, off): a, each pair ordered, and the pairs off the
    diagonal, where the mean is not a."""
    a, b = broadcast_points("a, b", real_points(a, "a", require_positive),
                            real_points(b, "b", require_positive))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return a, lo, hi, ~(hi - lo <= DIAGONAL_REL_TOL * hi)


def _gap(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative gap r = (hi - lo)/lo of 0 < lo < hi and ln(hi/lo).

    ln hi - ln lo loses digits for nearby lo, hi; log1p(r) does not.  Where
    r overflows binary64, the difference of logs has no cancellation.
    """
    r = (hi - lo) / lo
    log_gap = libm(math.log1p, r)
    wide = np.isinf(r)
    log_gap[wide] = libm(math.log, hi[wide]) - libm(math.log, lo[wide])
    return r, log_gap


@first_bad_point
def log_mean(a, b) -> float | np.ndarray:
    """Logarithmic mean (b - a)/(ln b - ln a), with L(a, a) = a.

    The ordered pair keeps L(a, b) = L(b, a) exact.
    """
    out, lo, hi, off = _pairs(a, b)
    out = out.copy()
    with np.errstate(all="ignore"):  # inf and 0.0, as Python float arithmetic gives
        lo, hi = lo[off], hi[off]
        out[off] = (hi - lo) / _gap(lo, hi)[1]
    return out[0].item() if np.ndim(a) == np.ndim(b) == 0 else out


@first_bad_point
def gen_log_mean(p: float, a, b) -> float | np.ndarray:
    """Generalized logarithmic mean L_p(a, b) for real p and a, b > 0."""
    p = require_real(p, "p")
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p!r}")
    if abs(p + 1.0) <= BRANCH_TOL:
        return log_mean(a, b)
    out, lo, hi, off = _pairs(a, b)
    out = out.copy()
    with np.errstate(all="ignore"):
        # L_p is homogeneous of degree 1: a pair below 2**-968 is scaled by the
        # exact 2**600, where hi - lo is no subnormal that q * (hi - lo) rounds
        scale = np.where(hi[off] < 2.0 ** -968, 2.0 ** 600, 1.0)
        lo, hi = lo[off] * scale, hi[off] * scale
        r, log_gap = _gap(lo, hi)
        if abs(p) <= BRANCH_TOL:
            # identric mean hi exp(ln(hi/lo)/r - 1): unlike b ln b - a ln a,
            # nothing cancels near the diagonal, and the exponent stays in [-1, 0]
            out[off] = hi * libm(math.exp, log_gap / r - 1.0) / scale
        else:
            # L_p = base [(1 - s^(p+1)) / ((p+1)(1 - s))]^(1/p), s = other/base,
            # with base picked so s^(p+1) < 1; expm1/log1p keep digits
            # b^(p+1) - a^(p+1) loses
            base = hi if p > -1.0 else lo
            q = abs(p + 1.0)
            head = -libm(math.expm1, -q * log_gap)
            ratio = head / (q * (hi - lo) / base)
            normal = ratio >= sys.float_info.min
            means = base * power(np.where(normal, ratio, 1.0), 1.0 / p)
            # ratio underflows for p < -1 and a wide pair: the same formula in logs
            tiny = ~normal
            log_base = libm(math.log, base[tiny])
            means[tiny] = libm(math.exp, log_base + (
                libm(math.log, head[tiny]) - math.log(q)
                - libm(math.log, hi[tiny] - lo[tiny]) + log_base) / p)
            out[off] = means / scale
    return out[0].item() if np.ndim(a) == np.ndim(b) == 0 else out
