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
hence the evaluation exclusion zone |x| < X_EPSILON.  ``logh_deriv_table``
is the one evaluation of this closed form.

The threshold surface and the auxiliary surface of Theorem 3 are first-order
rows at a fixed alpha:

    B(x, y) = u * (ln h_{alpha=0})'(x)
            = (u/x^2) * (x psi(u) - lnGamma(u) + lnGamma(y+1)),
    q(x, y) = x^2 * (ln h_{alpha=1/(2(y+1))})'(x),

so (ln h)'(x) = (B(x, y) - alpha)/u; B has limits 1/(y+1) as x -> -(y+1)+
and 1 as x -> +inf.  Both share the table's domain checks, its exclusion
zone and its overflow handling.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate

import numpy as np

from .errors import (
    CapabilityError, DomainError, ParameterError, PrecisionError, as_grid, broadcast_points,
    first_bad_point, is_finite, real_points, require_all, require_finite, require_real,
    require_type, require_y)
from .gammakit import (  # noqa: F401  (polygamma unused; perfbench/test_perfbench.py reads it)
    MAX_DERIV_ORDER, check_order, digamma, gamma_table, libm, lngamma, polygamma)
from .records import HParams

__all__ = [
    "DerivTable",
    "ENDPOINT_CLEARANCE",
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
    "reciprocal_threshold",
]

#: Half-width of the x = 0 exclusion zone for closed-form log-derivatives.
X_EPSILON = 1e-3
#: Minimum distance of u = x+y+1 from the left endpoint of the domain.
ENDPOINT_CLEARANCE = 1e-9

#: k! and (-1)^k for k = 1..MAX_DERIV_ORDER, columns against a table's points.
_FACTORIAL_COLUMN = np.array([[math.factorial(k)] for k in range(1, MAX_DERIV_ORDER + 1)],
                             dtype=float)
_SIGN_COLUMN = np.array([[(-1.0) ** k] for k in range(1, MAX_DERIV_ORDER + 1)])


#: The domain rule, x+y+1 >= ENDPOINT_CLEARANCE and finite, as require_all
#: states it for the first point (x, y) that breaks it.
_DOMAIN_MESSAGE = (f"x+y+1 must be >= {ENDPOINT_CLEARANCE:g} (domain x > -(y+1)), "
                   "got x={!r}, y={!r}")


def _y_points(y, require=require_y) -> float | np.ndarray:
    """y as one float, or for a grid the 1-D array of one value per x;
    require rules each value."""
    if as_grid(y) is None and not isinstance(y, np.ndarray):
        return require(y, "y")
    return real_points(y, "y", require)


def _shifted_arguments(xs, y) -> tuple[np.ndarray, np.ndarray]:
    """(x, u = x+y+1) as arrays, y one float or an array of one per x.  An x
    that is not real raises DomainError, then the first x with |x| <
    X_EPSILON PrecisionError (nan is in no zone), then the first outside
    the domain DomainError.  The callers are first_bad_point builders, so a
    grid raises its first bad point's own error."""
    x = real_points(xs, "x")
    if isinstance(y, np.ndarray) and y.size != x.size:
        raise ParameterError(f"x, y must be grids of one length, got lengths {x.size}, "
                             f"{y.size}")
    u = x + y + 1.0
    require_all(~(np.abs(x) < X_EPSILON), PrecisionError,
                "|x| = {:.3e} is inside the cancellation exclusion zone "
                f"(< {X_EPSILON:g}) for closed-form log-derivatives", np.abs(x))
    require_all(np.isfinite(u) & (u >= ENDPOINT_CLEARANCE), DomainError, _DOMAIN_MESSAGE,
                x, np.broadcast_to(y, x.shape))
    return x, u


def _log_h(params, x):
    """log_h's value, inf (or nan) where it leaves the binary64 range, as
    float arithmetic gives."""
    grid = as_grid(params)
    pairs = [require_type(p, HParams, "params") for p in ([params] if grid is None else grid)]
    xs, alpha, y = broadcast_points("params, x", real_points(x, "x"),
                                    np.array([p.alpha for p in pairs], float),
                                    np.array([p.y for p in pairs], float))
    zero = xs == 0.0
    u = xs + y + 1.0
    require_all(zero | (np.isfinite(u) & (u >= ENDPOINT_CLEARANCE)), DomainError,
                _DOMAIN_MESSAGE, xs, y)
    c, at = y + 1.0, ~zero
    values = np.empty(xs.size)
    if at.any():
        lg_u, lg_c = np.split(lngamma(np.concatenate([u[at], c[at]])), 2)
        with np.errstate(all="ignore"):  # inf, as Python float arithmetic gives
            values[at] = (lg_u - lg_c) / xs[at] - alpha[at] * libm(math.log, u[at])
    if zero.any():
        psi = digamma(c[zero])
        with np.errstate(all="ignore"):
            values[zero] = psi - alpha[zero] * libm(math.log, c[zero])
    return float(values[0]) if grid is None and np.ndim(x) == 0 else values


@first_bad_point
def log_h(params, x):
    """ln h(x) for the parameter pair; continuous through x = 0.

    params is one HParams or a grid of them, and x one point (a float is
    returned) or a 1-D grid (an array), one pair per x.  A grid takes every
    lnGamma from one lngamma call (psi(y+1) at x = 0 from one digamma
    call), each value has the bits of its own one-point call, and a grid
    raises what its first bad point raises alone.  A value that leaves the
    binary64 range (alpha * ln(x+y+1) overflows, say) raises
    CapabilityError.
    """
    value = _log_h(params, x)
    if isinstance(value, float):
        return require_finite(value, "log_h", params, x)
    if not np.isfinite(value).all():  # first_bad_point raises the first such point's error
        raise CapabilityError("log_h: a value is outside the double-precision range")
    return value


def h_eval(params: HParams, x: float) -> float:
    """h(x) itself (always positive on the domain).

    A result that overflows binary64 or falls below its smallest normal
    number raises CapabilityError.
    """
    log_value = _log_h(require_type(params, HParams, "params"), require_real(x, "x"))
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise CapabilityError(f"h_eval({params!r}, {x!r}) = exp({log_value!r}) is "
                              "outside the normal double-precision range")
    return value


def bigH_eval(alpha: float, y: float, x: float) -> float:
    """Companion normalization [Gamma(x+y)/Gamma(y)]^(1/x) (x+y)^(-alpha), y > 0."""
    if not (is_finite(y) and y > 0.0):
        raise DomainError(f"bigH_eval requires y > 0, got {y!r}")
    return h_eval(HParams(alpha=alpha, y=y - 1.0), x)


def stacked(values, sizes) -> float | np.ndarray:
    """values[i] at each of sizes[i] points, as a table takes a y or an
    alpha: the one value itself, or one per point."""
    return values[0] if len(values) == 1 else np.repeat(values, sizes)


class DerivTable:
    """(ln h)^(k), k = 1..k_max, at abscissae xs and their ys, as a function of alpha.

    alpha enters the closed form only through its last term, so the rest is
    held once: table(alpha) = core + alpha_coef * alpha / u_pow, with
    alpha_coef = (-1)^k (k-1)! and u_pow = u^k, row k - 1 for order k.
    core_scale sums the absolute values of the alpha-free terms.  y is one
    value, or an array of one per column for a table stacked over several
    ys.  (A plain class with slots, not a named tuple: its fields are
    arrays, so tuple equality and hashing would mean nothing for it.)
    """

    __slots__ = ("y", "core", "core_scale", "u_pow", "alpha_coef")

    def __init__(self, y, core: np.ndarray, core_scale: np.ndarray,
                 u_pow: np.ndarray, alpha_coef: np.ndarray) -> None:
        self.y, self.core, self.core_scale = y, core, core_scale
        self.u_pow, self.alpha_coef = u_pow, alpha_coef

    def __call__(self, alpha) -> tuple[np.ndarray, np.ndarray]:
        """(values, scales) at alpha, each of shape (k_max, len(xs)); alpha
        is one value, or a 1-D array of one per column.  A scale adds
        |alpha term| to core_scale: it bounds the rounding noise and feeds
        certificate noise floors.  An alpha whose term, value or scale
        leaves the binary64 range raises CapabilityError naming it.
        """
        alpha = (real_points(alpha, "alpha") if isinstance(alpha, np.ndarray)
                 else require_real(alpha, "alpha"))
        try:
            with np.errstate(over="raise"):
                term = alpha * self.alpha_coef / self.u_pow
                values = self.core + term
                scales = np.abs(term, out=term)  # the term's buffer becomes the scales
                scales += self.core_scale
        except FloatingPointError:
            raise CapabilityError(
                f"(ln h)^(k) for k <= {len(self.core)} at alpha={alpha!r}, "
                f"y={self.y!r} needs a value outside the double-precision range"
            ) from None
        return values, scales

    def blocks(self, sizes) -> list[DerivTable]:
        """The table's columns in consecutive blocks of these sizes, each a
        table over views of this one's arrays, at its first column's y (a
        one-y table's one block is the table itself)."""
        if len(sizes) == 1 and isinstance(self.y, float):
            return [self]
        stops = list(accumulate(sizes))
        return [DerivTable(self.y if isinstance(self.y, float) else float(self.y[start]),
                           *(a[:, start:stop] for a in (self.core, self.core_scale,
                                                        self.u_pow)), self.alpha_coef)
                for start, stop in zip([0, *stops], stops)]


@first_bad_point
def logh_deriv_table(k_max: int, y, xs) -> DerivTable:
    """(ln h)^(k) for k = 1..k_max at every x in xs: the one evaluation of
    the closed form.  Its alpha-free parts are computed here; the returned
    DerivTable adds the alpha term.  A part outside the binary64 range
    raises CapabilityError naming y.  xs is one point or a 1-D grid, and y
    one value or a grid of one per x: a table stacked over several ys takes
    lnGamma(y+1) for all of them from one lngamma call and every column
    from one gamma_table call, and each column has the bits of its own
    y's table.  A grid raises what its first bad point raises alone.  All
    orders are built together: each power of x is taken once, and the
    brackets and the scales' sums are prefix sums along the orders."""
    k_max, y = check_order(k_max), _y_points(y)
    if isinstance(y, float):
        lg_y = lngamma(y + 1.0)
    else:  # one lngamma point per distinct y + 1
        c, at = np.unique(y + 1.0, return_inverse=True)
        lg_y = lngamma(c)[at]
    x, u = _shifted_arguments(xs, y)
    lg_u, psi = gamma_table(k_max, u)  # psi^(j)(u), j = 0..k_max-1 (order k uses up to k-1)
    ks = range(1, k_max + 1)
    facts, signs = _FACTORIAL_COLUMN[:k_max], _SIGN_COLUMN[:k_max]
    try:
        with np.errstate(over="raise"):  # as a float ** would
            x_pow = np.array([x ** i for i in range(1, k_max + 2)])  # x^1..x^(k_max+1)
            terms = x_pow[:k_max] * psi / facts  # x^i psi^(i-1)(u) / i!
            lead = facts / x_pow[1:]  # k!/x^(k+1)
            # bracket_k = (-1)^k [D - t_1 + t_2 - ... + (-1)^k t_k], D = lnGamma(u) -
            # lnGamma(y+1), summed in that order: negation commutes with rounding,
            # so one prefix sum gives every bracket; + 0.0 turns an exact
            # cancellation's -0.0 into the +0.0 that the sum in signed terms gives
            brackets = np.cumsum(np.concatenate([(lg_u - lg_y)[None], signs * terms]),
                                 axis=0)[1:]
            core = lead * (signs * brackets + 0.0)
            abs_sums = np.cumsum(np.concatenate([(abs(lg_u) + abs(lg_y))[None],
                                                 abs(terms)]), axis=0)[1:]
            core_scale = abs(lead) * abs_sums
            u_pow = np.array([u ** k for k in ks])
    except FloatingPointError:
        raise CapabilityError(
            f"(ln h)^(k) for k <= {k_max} at y={y!r} needs a value outside the "
            "double-precision range") from None
    alpha_coef = np.array([[(-1.0) ** k * math.factorial(k - 1)] for k in ks])
    return DerivTable(y, core, core_scale, u_pow, alpha_coef)


def logh_derivs_with_scale(k_max: int, params: HParams,
                           x: float) -> list[tuple[float, float]]:
    """(value, magnitude_scale) of (ln h)^(k)(x), k = 1..k_max: logh_deriv_table at x."""
    require_type(params, HParams, "params")
    values, scales = logh_deriv_table(k_max, params.y, [x])(params.alpha)
    return list(zip(values[:, 0].tolist(), scales[:, 0].tolist()))


def logh_deriv(k: int, params: HParams, x: float) -> float:
    """(ln h)^(k)(x) via the closed form; |x| >= X_EPSILON required."""
    return logh_derivs_with_scale(k, params, x)[k - 1][0]


def lcm_threshold(y: float) -> float:
    """Smallest alpha for which h is LCM (Theorem 1): max{1, 1/(y+1)}."""
    return max(1.0, 1.0 / (require_y(y) + 1.0))


def reciprocal_threshold(y: float) -> float:
    """Largest alpha for which 1/h is LCM (Theorem 1): min{1, 1/(2(y+1))}."""
    return min(1.0, 0.5 / (require_y(y) + 1.0))


@first_bad_point
def alpha_necessary_bound(x, y: float):
    """Threshold surface B(x, y) = u (ln h_0)'(x), u = x+y+1, alpha = 0.

    (ln h)'(x) = (B(x, y) - alpha)/u, so h decreases at x exactly when
    alpha > B(x, y).  Limits: B -> 1/(y+1) as x -> -(y+1)+ and B -> 1 as
    x -> +inf.  x = 0 (a removable singularity) raises DomainError; the rest
    of |x| < X_EPSILON, where the closed form has no correct digits, raises
    PrecisionError, and a value outside the binary64 range CapabilityError.
    x is one point (a float is returned) or a 1-D grid (an array, from one
    order-1 table at alpha = 0: u times its row), and y one value or one
    per x; a grid raises what its first bad point raises alone.
    """
    xs, y = real_points(x, "x"), _y_points(y, require_real)
    require_all(xs != 0.0, DomainError,
                "alpha_necessary_bound is undefined at x = 0 (removable singularity)")
    values, _ = logh_deriv_table(1, y, xs)(0.0)
    bounds = (xs + y + 1.0) * values[0]
    return float(bounds[0]) if np.ndim(x) == 0 else bounds


@first_bad_point
def q_surface_table(y: float, xs) -> tuple[np.ndarray, np.ndarray]:
    """(values, scales) of q_surface at every x in xs, one point or a 1-D
    grid, y one value or one per x: x^2 times the first row of
    logh_deriv_table at alpha = 1/(2(y+1)), and that row's scale."""
    y, x = _y_points(y), real_points(xs, "x")
    values, scales = logh_deriv_table(1, y, x)(0.5 / (y + 1.0))
    x2 = x * x
    return x2 * values[0], x2 * scales[0]


def q_surface(x: float, y: float) -> float:
    """Auxiliary surface q(x, y) = x psi(u) - lnGamma(u) + lnGamma(y+1) - x^2/(2(y+1)u).

    With alpha* = 1/(2(y+1)): q(x, y) = x^2 (ln h_{alpha*})'(x), so negativity
    of q on an interval certifies strict decrease of ln h_{alpha*} there.
    """
    return float(q_surface_table(require_y(y), [x])[0][0])
