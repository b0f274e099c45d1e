"""Double-precision kernel for the gamma function family on (0, inf).

Evaluation strategy for ``lngamma``, ``digamma`` and ``polygamma``: shift the
argument upward with the recurrence Gamma(z+1) = z Gamma(z) (and its
logarithmic derivatives) until it clears ``SHIFT_THRESHOLD``, then apply the
Stirling-type asymptotic expansion with exact-rational Bernoulli-number
coefficients (DLMF 5.11.1, 5.11.2, 5.15.1).  The series therefore never sees
an argument below 16, where its ``ASYM_TERMS`` = 12 terms leave a truncation
error far below double-precision resolution for every supported derivative
order (tests/test_gammakit.py checks this at z = 16).

Two entry points share those steps.  The scalar functions take one float each;
``gamma_table(n_psi, u)`` returns lnGamma and psi^(j), j < n_psi, at every
element of an array in one numpy pass, for the grid-shaped callers (derivative
tables, the q surface).  Both call the same series bodies, written with
operators only, and the array version repeats the shift step by step and sums
it in the same order.  Its values agree with the scalar ones to a few ulps,
because numpy's ``log`` and ``power`` may round differently from ``math.log``
and ``**``.  The scalar entry points stay scalar: one numpy call costs more
than a whole scalar evaluation, and the inequality suites make thousands of
single-point calls.

Bernoulli numbers are generated once from the defining recurrence with
``fractions.Fraction`` arithmetic, so every series coefficient is the
correctly rounded double of an exact rational.

A result, or an intermediate, outside the binary64 range raises
``CapabilityError``; every returned value is finite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, DomainError, require_finite, require_positive

__all__ = [
    "ASYM_TERMS",
    "BERNOULLI_EVEN",
    "EXP_NEG_EULER_GAMMA",
    "MAX_DERIV_ORDER",
    "SHIFT_THRESHOLD",
    "check_order",
    "digamma",
    "gamma_table",
    "lngamma",
    "polygamma",
]

#: Highest polygamma order the kernel evaluates (psi^(k) for k = 1..12).
MAX_DERIV_ORDER = 12

#: Arguments below this are raised by the recurrence before the series is summed.
SHIFT_THRESHOLD = 16.0

#: Number of Bernoulli terms summed in the asymptotic series.
ASYM_TERMS = 12

def _bernoulli_even(count: int) -> tuple[Fraction, ...]:
    """Return (B_2, B_4, ..., B_{2*count}) as exact rationals.

    Uses the defining recurrence B_m = -1/(m+1) * sum_{j<m} C(m+1, j) B_j
    with B_0 = 1, B_1 = -1/2 and B_j = 0 for odd j >= 3, so only the even
    terms are summed.
    """
    even: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...
    for m in range(2, 2 * count + 1, 2):
        acc = Fraction(1 - m, 2)  # the j = 0 and j = 1 terms
        for j in range(2, m, 2):
            acc += math.comb(m + 1, j) * even[j // 2]
        even.append(-acc / (m + 1))
    return tuple(even[1:])


BERNOULLI_EVEN_RATIONAL: tuple[Fraction, ...] = _bernoulli_even(30)
#: float(B_{2n}) for n = 1..30; BERNOULLI_EVEN[0] is B_2 = 1/6.
BERNOULLI_EVEN: tuple[float, ...] = tuple(float(b) for b in BERNOULLI_EVEN_RATIONAL)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

#: Euler-Mascheroni constant, correctly rounded double.
EULER_GAMMA = 0.5772156649015329

#: e^{-euler_gamma}; shift in the sharp logarithmic digamma upper bound.
EXP_NEG_EULER_GAMMA = 0.5614594835668852


def check_order(k: int) -> None:
    """DomainError unless k is an integer >= 1; CapabilityError above MAX_DERIV_ORDER."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"derivative order k must be an integer >= 1, got {k!r}")
    if k > MAX_DERIV_ORDER:
        raise CapabilityError(
            f"derivative order k={k} exceeds implemented maximum {MAX_DERIV_ORDER}")


def _lngamma_series(z, log_z):
    """lnGamma(z) for z >= SHIFT_THRESHOLD, given log_z = ln z; z a float or an array.

    Stirling series: (z - 1/2) ln z - z + ln(2 pi)/2 + sum B_2n / (2n(2n-1) z^{2n-1}).
    """
    series = 0.0
    zsq = z * z
    zpow = z  # z^{2n-1}
    for n in range(1, ASYM_TERMS + 1):
        series = series + BERNOULLI_EVEN[n - 1] / ((2 * n) * (2 * n - 1) * zpow)
        zpow = zpow * zsq
    return (z - 0.5) * log_z - z + _HALF_LOG_TWO_PI + series


def _digamma_series(z, log_z):
    """psi(z) for z >= SHIFT_THRESHOLD, given log_z = ln z; z a float or an array.

    psi(z) ~ ln z - 1/(2z) - sum B_2n / (2n z^{2n}).
    """
    series = 0.0
    zsq = z * z
    zpow = zsq  # z^{2n}
    for n in range(1, ASYM_TERMS + 1):
        series = series + BERNOULLI_EVEN[n - 1] / ((2 * n) * zpow)
        zpow = zpow * zsq
    return log_z - 0.5 / z - series


@lru_cache(maxsize=None)
def _poly_coefs(k: int) -> tuple[float, ...]:
    """Series coefficients B_{2n} (2n+k-1)!/(2n)! for n = 1..ASYM_TERMS, exact-rational."""
    out = []
    for n in range(1, ASYM_TERMS + 1):
        coef = BERNOULLI_EVEN_RATIONAL[n - 1] * Fraction(
            math.factorial(2 * n + k - 1), math.factorial(2 * n))
        out.append(float(coef))
    return tuple(out)


def _polygamma_series(z, k, coefs, k_fac):
    """(-1)^{k+1} psi^(k)(z) for z >= SHIFT_THRESHOLD, given coefs = _poly_coefs(k)
    and k_fac = (k-1)!; so k! = k * k_fac.

    (k-1)!/z^k + k!/(2 z^{k+1}) + sum_n B_{2n} (2n+k-1)!/(2n)! z^{-(2n+k)}.
    z is a float or a row of points; k, each coefficient and k_fac are
    scalars or columns, one entry per order.  A float z whose powers leave
    the binary64 range raises OverflowError, where an array holds inf.
    """
    series = 0.0
    zsq = z * z
    zpow = z ** (2 + k)  # z^{2n+k}
    for c in coefs:
        series = series + c / zpow
        zpow = zpow * zsq
    return k_fac / z ** k + k * k_fac / (2.0 * z ** (k + 1)) + series


def lngamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    z = require_positive(x, "x")
    shift = 0.0
    while z < SHIFT_THRESHOLD:
        shift += math.log(z)
        z += 1.0
    return require_finite(_lngamma_series(z, math.log(z)) - shift, "lngamma", x)


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0."""
    z = require_positive(x, "x")
    shift = 0.0
    while z < SHIFT_THRESHOLD:
        shift += 1.0 / z
        z += 1.0
    return require_finite(_digamma_series(z, math.log(z)) - shift, "digamma", x)


def polygamma(k: int, x: float) -> float:
    """k-th derivative of digamma, psi^(k)(x), for k = 1..MAX_DERIV_ORDER, x > 0.

    The sign of psi^(k) on (0, inf) is (-1)^(k+1); the magnitude is evaluated
    as a positive series and the sign attached at the end.
    """
    check_order(k)
    z = require_positive(x, "x")
    kfac = float(math.factorial(k))
    shift = 0.0  # accumulates k! sum z_i^{-(k+1)} in magnitude form
    try:
        while z < SHIFT_THRESHOLD:
            shift += z ** -(k + 1)
            z += 1.0
        magnitude = _polygamma_series(z, k, _poly_coefs(k), math.factorial(k - 1))
    except OverflowError:
        raise CapabilityError(
            f"polygamma({k}, {x!r}) needs a power of x outside the double-precision range"
        ) from None
    magnitude = require_finite(magnitude + kfac * shift, "polygamma", k, x)
    return magnitude if k % 2 == 1 else -magnitude


def gamma_table(n_psi: int, u) -> tuple[np.ndarray, np.ndarray]:
    """(lnGamma(u), psi^(j)(u) for j = 0..n_psi-1) at every point of the 1-D array u.

    The array version of lngamma, digamma and polygamma: psi has shape
    (n_psi, len(u)), psi[0] is digamma.  Each point goes through the scalar
    functions' steps: z += 1.0 until z >= SHIFT_THRESHOLD, the shift terms
    summed in that order, then the shared series bodies.  It raises
    CapabilityError exactly where one of the scalar calls lngamma(u_i),
    digamma(u_i), polygamma(j, u_i) would, and returns only finite values.
    """
    if not (isinstance(n_psi, int) and not isinstance(n_psi, bool) and n_psi >= 1):
        raise DomainError(f"n_psi must be an integer >= 1, got {n_psi!r}")
    if n_psi > 1:
        check_order(n_psi - 1)
    try:
        u = np.asarray(u, dtype=float)
        ok = u.ndim == 1 and bool(np.all(np.isfinite(u) & (u > 0.0)))
    except (TypeError, ValueError, OverflowError):  # not an array of reals
        ok = False
    if not ok:
        raise DomainError(f"u must be a 1-D array of finite positive reals, got {u!r}")
    # row s of zs is z after s steps of z += 1.0: cumsum adds in order, as the
    # scalar loop does, and the smallest point needs the most steps
    steps, z = 0, float(u.min(initial=SHIFT_THRESHOLD))
    while z < SHIFT_THRESHOLD:
        steps, z = steps + 1, z + 1.0
    zs = np.cumsum(np.concatenate([u[None], np.ones((steps, u.size))]), axis=0)
    low = zs < SHIFT_THRESHOLD
    z = zs[low.sum(axis=0), np.arange(u.size)]

    def shift(term: np.ndarray) -> np.ndarray:
        """term summed over each point's low steps, in step order."""
        return np.cumsum(np.where(low, term, 0.0), axis=0)[-1]

    orders = range(1, n_psi)
    k = np.array(orders)[:, None]  # polygamma orders as a column against the points
    k_fac = np.array([math.factorial(j - 1) for j in orders], dtype=float)[:, None]
    coefs = np.array([_poly_coefs(j) for j in orders]).reshape(-1, ASYM_TERMS).T[..., None]
    with np.errstate(all="ignore"):  # non-finite values are checked below
        log_z = np.log(z)
        lg = _lngamma_series(z, log_z) - shift(np.log(zs))
        psi_0 = _digamma_series(z, log_z) - shift(1.0 / zs)
        shifts = np.array([shift(zs ** -(j + 1)) for j in orders]).reshape(len(orders), u.size)
        magnitude = _polygamma_series(z, k, coefs, k_fac) + k * k_fac * shifts
        psi = np.concatenate([psi_0[None], (-1.0) ** (k + 1) * magnitude])
        # a point fails where a scalar result would not be finite, or where
        # the scalar polygamma's largest power z^{k+2} overflows
        bad = ~(np.isfinite(lg) & np.isfinite(psi).all(axis=0)
                & np.isfinite(z ** (2 + k)).all(axis=0))
    if bad.any():
        raise CapabilityError(
            f"gamma_table({n_psi}, u) at u = {float(u[bad][0])!r} is outside the "
            "double-precision range")
    return lg, psi
