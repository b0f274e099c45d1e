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

from .errors import DomainError, require_positive, require_real

__all__ = ["gen_log_mean", "log_mean"]

#: Relative half-width of the a == b diagonal where the mean returns a.
DIAGONAL_REL_TOL = 1e-12
#: Half-width of the exceptional-exponent branches around p = -1 and p = 0.
BRANCH_TOL = 1e-9


def _gap(lo: float, hi: float) -> tuple[float, float]:
    """Relative gap r = (hi - lo)/lo of 0 < lo < hi and ln(hi/lo).

    ln hi - ln lo loses digits for nearby lo, hi; log1p(r) does not.  Where
    r overflows binary64, the difference of logs has no cancellation.
    """
    r = (hi - lo) / lo
    return r, math.log1p(r) if r < math.inf else math.log(hi) - math.log(lo)


def log_mean(a: float, b: float) -> float:
    """Logarithmic mean (b - a)/(ln b - ln a), with L(a, a) = a.

    The ordered pair keeps L(a, b) = L(b, a) exact.
    """
    a, b = require_positive(a, "a"), require_positive(b, "b")
    lo, hi = min(a, b), max(a, b)
    if hi - lo <= DIAGONAL_REL_TOL * hi:
        return a
    return (hi - lo) / _gap(lo, hi)[1]


def gen_log_mean(p: float, a: float, b: float) -> float:
    """Generalized logarithmic mean L_p(a, b) for real p and a, b > 0."""
    p = require_real(p, "p")
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p!r}")
    a, b = require_positive(a, "a"), require_positive(b, "b")
    lo, hi = min(a, b), max(a, b)
    if hi - lo <= DIAGONAL_REL_TOL * hi:
        return a
    if abs(p + 1.0) <= BRANCH_TOL:
        return log_mean(a, b)
    r, log_gap = _gap(lo, hi)
    if abs(p) <= BRANCH_TOL:
        # identric mean hi exp(ln(hi/lo)/r - 1): unlike b ln b - a ln a, nothing
        # cancels near the diagonal, and the exponent stays in [-1, 0]
        return hi * math.exp(log_gap / r - 1.0)
    # L_p = base [(1 - s^(p+1)) / ((p+1)(1 - s))]^(1/p), s = other/base, with
    # base picked so s^(p+1) < 1; expm1/log1p keep digits b^(p+1) - a^(p+1) loses
    base = hi if p > -1.0 else lo
    q = abs(p + 1.0)
    head = -math.expm1(-q * log_gap)
    ratio = head / (q * (hi - lo) / base)
    if ratio >= sys.float_info.min:
        return base * ratio ** (1.0 / p)
    # ratio underflows for p < -1 and a wide pair: the same formula in logs
    return math.exp(math.log(base) + (math.log(head) - math.log(q) - math.log(hi - lo)
                                      + math.log(base)) / p)
