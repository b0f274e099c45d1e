"""The two-parameter gamma-ratio family h and its log-derivatives.

For parameters alpha (real) and y > -1, define on x > -(y+1), x != 0

    h(x) = [Gamma(x+y+1) / Gamma(y+1)]^(1/x) * (x+y+1)^(-alpha),

extended continuously to x = 0 by h(0) = exp(psi(y+1)) * (y+1)^(-alpha).
The companion normalization bigH uses Gamma(x+y)/Gamma(y) (shift y -> y-1).

Every derivative of ln h has the closed form (u = x+y+1, k >= 1)

    (ln h)^(k)(x) = k!/x^(k+1) * [ (-1)^k (lnGamma(u) - lnGamma(y+1))
                                   + sum_{i=1}^{k} (-1)^(k-i) x^i psi^(i-1)(u)/i! ]
                    + (-1)^k (k-1)! alpha / u^k,

with psi^(0) = digamma, so order k needs polygamma orders up to k-1 only.
The bracket suffers catastrophic cancellation as x -> 0 (it is O(x^(k+1))),
hence the evaluation exclusion zone |x| < X_EPSILON.

``alpha_necessary_bound`` is the threshold surface

    B(x, y) = (u/x^2) * (x psi(u) - lnGamma(u) + lnGamma(y+1)),

for which (ln h)'(x) = (B(x, y) - alpha)/u; B has limits 1/(y+1) as
x -> -(y+1)+ and 1 as x -> +inf.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    CapabilityError, DomainError, PrecisionError, require_finite, require_real)
from .gammakit import (  # noqa: F401  (polygamma unused; perfbench/test_perfbench.py reads it)
    check_order, digamma, gamma_table, lngamma, polygamma)

__all__ = [
    "DerivSample",
    "ENDPOINT_CLEARANCE",
    "HParams",
    "X_EPSILON",
    "alpha_necessary_bound",
    "bigH_eval",
    "h_eval",
    "lcm_threshold",
    "log_h",
    "logh_deriv",
    "logh_deriv_table",
    "logh_derivs_with_scale",
    "q_surface",
    "q_surface_table",
    "q_surface_with_scale",
    "reciprocal_threshold",
]

#: Half-width of the x = 0 exclusion zone for closed-form log-derivatives.
X_EPSILON = 1e-3
#: Minimum distance of u = x+y+1 from the left endpoint of the domain.
ENDPOINT_CLEARANCE = 1e-9


@dataclass(frozen=True)
class HParams:
    """Parameter pair (alpha, y) of the family; requires finite alpha, y > -1."""

    alpha: float
    y: float

    def __post_init__(self) -> None:
        if not (isinstance(self.alpha, Real) and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be finite, got {self.alpha!r}")
        if not (isinstance(self.y, Real) and math.isfinite(self.y) and self.y > -1.0):
            raise DomainError(f"y must be a finite real > -1, got {self.y!r}")


@dataclass(frozen=True)
class DerivSample:
    """One evaluated derivative sign sample: order k at abscissa x."""

    k: int
    x: float
    value: float


def _shifted_argument(x: float, y: float) -> float:
    u = x + y + 1.0
    if not (math.isfinite(u) and u >= ENDPOINT_CLEARANCE):
        raise DomainError(
            f"x+y+1 must be >= {ENDPOINT_CLEARANCE:g} (domain x > -(y+1)), "
            f"got x={x!r}, y={y!r}")
    return u


def _shifted_arguments(xs, y: float, exclusion: float = 0.0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(x, u = x+y+1) as arrays.  The first x that is not real, lies outside
    the domain or has |x| < exclusion raises DomainError or PrecisionError."""
    x = np.array([require_real(v, "x") for v in xs], dtype=float)
    u = x + y + 1.0
    bad = (np.abs(x) < exclusion) | ~(np.isfinite(u) & (u >= ENDPOINT_CLEARANCE))
    if bad.any():
        first = float(x[bad][0])
        if abs(first) < exclusion:
            raise PrecisionError(
                f"|x| = {abs(first):.3e} is inside the cancellation exclusion zone "
                f"(< {exclusion:g}) for closed-form log-derivatives")
        _shifted_argument(first, y)  # raises DomainError
    return x, u


def log_h(params: HParams, x: float) -> float:
    """ln h(x) for the parameter pair; continuous through x = 0."""
    x = require_real(x, "x")
    if x == 0.0:
        c = params.y + 1.0
        return digamma(c) - params.alpha * math.log(c)
    u = _shifted_argument(x, params.y)
    ratio = (lngamma(u) - lngamma(params.y + 1.0)) / x
    return ratio - params.alpha * math.log(u)


def h_eval(params: HParams, x: float) -> float:
    """h(x) itself (always positive on the domain).

    A result outside the binary64 range raises CapabilityError.
    """
    log_value = log_h(params, x)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise CapabilityError(f"h_eval({params!r}, {x!r}) = exp({log_value!r}) is "
                              "outside the double-precision range") from None


def bigH_eval(alpha: float, y: float, x: float) -> float:
    """Companion normalization [Gamma(x+y)/Gamma(y)]^(1/x) (x+y)^(-alpha), y > 0."""
    if not (isinstance(y, Real) and math.isfinite(y) and y > 0.0):
        raise DomainError(f"bigH_eval requires y > 0, got {y!r}")
    return h_eval(HParams(alpha=alpha, y=y - 1.0), x)


def logh_deriv_table(k_max: int, y: float,
                     xs) -> Callable[[float], tuple[np.ndarray, np.ndarray]]:
    """(ln h)^(k) for k = 1..k_max at every x in xs, as a function of alpha.

    alpha enters the closed form only through its last term, so the rest is
    evaluated once; at(alpha) adds that term and returns (values, scales) of
    shape (k_max, len(xs)).  A scale sums the absolute values of the combined
    terms: it bounds the rounding noise and feeds certificate noise floors.
    """
    check_order(k_max)
    y = require_real(y, "y")
    lg_y = lngamma(y + 1.0)
    x, u = _shifted_arguments(xs, y, X_EPSILON)
    lg_u, psi = gamma_table(k_max, u)  # psi^(j)(u), j = 0..k_max-1 (order k uses up to k-1)
    ks = range(1, k_max + 1)
    core, core_scale, u_pow = np.empty((3, k_max, x.size))
    try:
        with np.errstate(over="raise"):  # as a float ** would
            terms = [x ** i * psi[i - 1] / math.factorial(i) for i in ks]
            abs_sum = abs(lg_u) + abs(lg_y)
            for k in ks:  # each bracket summed term by term in i, across all points
                lead = math.factorial(k) / x ** (k + 1)
                bracket = (-1.0) ** k * (lg_u - lg_y)
                for i in range(1, k + 1):
                    bracket = bracket + (-1.0) ** (k - i) * terms[i - 1]
                abs_sum = abs_sum + abs(terms[k - 1])
                core[k - 1] = lead * bracket
                core_scale[k - 1] = abs(lead) * abs_sum
                u_pow[k - 1] = u ** k
    except FloatingPointError:
        raise CapabilityError(
            f"(ln h)^(k) for k <= {k_max} at y={y!r} needs a value outside the "
            "double-precision range") from None
    alpha_coef = np.array([[(-1.0) ** k * math.factorial(k - 1)] for k in ks])

    def at(alpha: float) -> tuple[np.ndarray, np.ndarray]:
        alpha_term = alpha_coef * float(alpha) / u_pow
        return core + alpha_term, core_scale + np.abs(alpha_term)

    return at


def logh_derivs_with_scale(k_max: int, params: HParams,
                           x: float) -> list[tuple[float, float]]:
    """(value, magnitude_scale) of (ln h)^(k)(x), k = 1..k_max: logh_deriv_table at x."""
    values, scales = logh_deriv_table(k_max, params.y, [x])(params.alpha)
    return list(zip(values[:, 0].tolist(), scales[:, 0].tolist()))


def logh_deriv(k: int, params: HParams, x: float) -> float:
    """(ln h)^(k)(x) via the closed form; |x| >= X_EPSILON required."""
    return logh_derivs_with_scale(k, params, x)[k - 1][0]


def lcm_threshold(y: float) -> float:
    """Smallest alpha for which h is LCM (Theorem 1): max{1, 1/(y+1)}."""
    HParams(alpha=0.0, y=y)  # reuse the domain validation for y
    return max(1.0, 1.0 / (y + 1.0))


def reciprocal_threshold(y: float) -> float:
    """Largest alpha for which 1/h is LCM (Theorem 1): min{1, 1/(2(y+1))}."""
    HParams(alpha=0.0, y=y)  # reuse the domain validation for y
    return min(1.0, 0.5 / (y + 1.0))


def _slope_terms(x: float, u: float, y: float) -> tuple[float, float, float]:
    """x psi(u), lnGamma(u), lnGamma(y+1): the terms that both B and q are built from."""
    return x * digamma(u), lngamma(u), lngamma(y + 1.0)


def alpha_necessary_bound(x: float, y: float) -> float:
    """Threshold surface B(x, y) = (u/x^2)(x psi(u) - lnGamma(u) + lnGamma(y+1)).

    (ln h)'(x) = (B(x, y) - alpha)/u with u = x+y+1 > 0, so h decreases at x
    exactly when alpha > B(x, y).
    Limits: B -> 1/(y+1) as x -> -(y+1)+ and B -> 1 as x -> +inf.
    Relative accuracy degrades near the removable singularity at x = 0.
    A result outside the binary64 range raises CapabilityError.
    """
    x, y = require_real(x, "x"), require_real(y, "y")
    if x == 0.0:
        raise DomainError("alpha_necessary_bound is undefined at x = 0 "
                          "(removable singularity); evaluate nearby instead")
    u = _shifted_argument(x, y)
    xpsi, lg_u, lg_y = _slope_terms(x, u, y)
    bound = u * (xpsi - lg_u + lg_y) / (x * x)
    return require_finite(bound, "alpha_necessary_bound", x, y)


def _q_with_scale(x, y: float, u, xpsi, lg_u, lg_y):
    """q and the sum of its terms' absolute values; x, u and the terms floats or arrays."""
    quad = x * x / (2.0 * (y + 1.0) * u)
    return (xpsi - lg_u + lg_y - quad,
            abs(xpsi) + abs(lg_u) + abs(lg_y) + abs(quad))


def q_surface_with_scale(x: float, y: float) -> tuple[float, float]:
    """(value, magnitude_scale) of q_surface(x, y); the scale sums q's |terms|."""
    x, y = require_real(x, "x"), require_real(y, "y")
    u = _shifted_argument(x, y)
    q, scale = _q_with_scale(x, y, u, *_slope_terms(x, u, y))
    # CapabilityError unless the scale, and so q, is finite
    return q, require_finite(scale, "q_surface", x, y)


def q_surface_table(y: float, xs) -> tuple[np.ndarray, np.ndarray]:
    """(values, scales) of q_surface_with_scale at every x in xs, as arrays.

    One gamma_table pass gives psi(u) and lnGamma(u) for all points, and
    lnGamma(y+1) is evaluated once.
    """
    y = require_real(y, "y")
    lg_y = lngamma(y + 1.0)
    x, u = _shifted_arguments(xs, y)
    lg_u, psi = gamma_table(1, u)
    with np.errstate(all="ignore"):  # the scales are checked below
        q, scale = _q_with_scale(x, y, u, x * psi[0], lg_u, lg_y)
    bad = ~np.isfinite(scale)
    if bad.any():
        require_finite(float(scale[bad][0]), "q_surface", float(x[bad][0]), y)
    return q, scale


def q_surface(x: float, y: float) -> float:
    """Auxiliary surface q(x, y) = x psi(u) - lnGamma(u) + lnGamma(y+1) - x^2/(2(y+1)u).

    With alpha* = 1/(2(y+1)): (ln h_{alpha*})'(x) = q(x, y)/x^2, so negativity
    of q on an interval certifies strict decrease of ln h_{alpha*} there.
    """
    return q_surface_with_scale(x, y)[0]
