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

from .errors import DomainError, require_positive

__all__ = ["gen_log_mean", "log_mean"]

#: Relative half-width of the a == b diagonal where the mean returns a.
DIAGONAL_REL_TOL = 1e-12
#: Half-width of the exceptional-exponent branches around p = -1 and p = 0.
BRANCH_TOL = 1e-9


def log_mean(a: float, b: float) -> float:
    """Logarithmic mean (b - a)/(ln b - ln a), with L(a, a) = a.

    ln b - ln a loses digits for nearby a, b; log1p of the ordered pair's
    relative gap does not, and keeps L(a, b) = L(b, a) exact.
    """
    a, b = require_positive(a, "a"), require_positive(b, "b")
    lo, hi = min(a, b), max(a, b)
    if hi - lo <= DIAGONAL_REL_TOL * hi:
        return a
    return (hi - lo) / math.log1p((hi - lo) / lo)


def gen_log_mean(p: float, a: float, b: float) -> float:
    """Generalized logarithmic mean L_p(a, b) for real p and a, b > 0."""
    p = float(p)
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p!r}")
    a, b = require_positive(a, "a"), require_positive(b, "b")
    lo, hi = min(a, b), max(a, b)
    if hi - lo <= DIAGONAL_REL_TOL * hi:
        return a
    if abs(p + 1.0) <= BRANCH_TOL:
        return log_mean(a, b)
    if abs(p) <= BRANCH_TOL:
        # identric mean, computed in log space
        return math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)
    # L_p = base [(1 - r^(p+1)) / ((p+1)(1 - r))]^(1/p), r = other/base, with
    # base picked so r^(p+1) < 1; expm1/log1p keep digits b^(p+1) - a^(p+1) loses
    base = hi if p > -1.0 else lo
    q = abs(p + 1.0)
    head = -math.expm1(-q * math.log1p((hi - lo) / lo))
    return base * (head / (q * (hi - lo) / base)) ** (1.0 / p)
