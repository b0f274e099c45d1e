"""Double-precision kernel for the gamma function family on (0, inf).

Evaluation strategy for ``lngamma``, ``digamma`` and ``polygamma``: shift the
argument upward with the recurrence Gamma(z+1) = z Gamma(z) (and its
logarithmic derivatives) until it clears ``SHIFT_THRESHOLD``, then apply the
Stirling-type asymptotic expansion with exact-rational Bernoulli-number
coefficients (DLMF 5.11.1, 5.11.2, 5.15.1).  The series therefore never sees
an argument below 16, where its ``ASYM_TERMS`` = 12 terms leave a truncation
error far below double-precision resolution for every supported derivative
order (tests/test_gammakit.py checks this at z = 16).

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

from .errors import CapabilityError, DomainError, require_finite, require_positive

__all__ = [
    "ASYM_TERMS",
    "BERNOULLI_EVEN",
    "EXP_NEG_EULER_GAMMA",
    "MAX_DERIV_ORDER",
    "SHIFT_THRESHOLD",
    "check_order",
    "digamma",
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
    with B_0 = 1 (so B_1 = -1/2).
    """
    bern: list[Fraction] = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    return tuple(bern[2 * n] for n in range(1, count + 1))


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


def lngamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    z = require_positive(x, "x")
    shift = 0.0
    while z < SHIFT_THRESHOLD:
        shift += math.log(z)
        z += 1.0
    # Stirling series: (z - 1/2) ln z - z + ln(2 pi)/2 + sum B_2n / (2n(2n-1) z^{2n-1})
    series = 0.0
    zsq = z * z
    zpow = z  # z^{2n-1}
    for n in range(1, ASYM_TERMS + 1):
        series += BERNOULLI_EVEN[n - 1] / ((2 * n) * (2 * n - 1) * zpow)
        zpow *= zsq
    main = (z - 0.5) * math.log(z) - z + _HALF_LOG_TWO_PI
    return require_finite(main + series - shift, "lngamma", x)


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0."""
    z = require_positive(x, "x")
    shift = 0.0
    while z < SHIFT_THRESHOLD:
        shift += 1.0 / z
        z += 1.0
    # psi(z) ~ ln z - 1/(2z) - sum B_2n / (2n z^{2n})
    series = 0.0
    zsq = z * z
    zpow = zsq  # z^{2n}
    for n in range(1, ASYM_TERMS + 1):
        series += BERNOULLI_EVEN[n - 1] / ((2 * n) * zpow)
        zpow *= zsq
    main = math.log(z) - 0.5 / z
    return require_finite(main - series - shift, "digamma", x)


@lru_cache(maxsize=None)
def _poly_coefs(k: int) -> tuple[float, ...]:
    """Series coefficients B_{2n} (2n+k-1)!/(2n)! for n = 1..ASYM_TERMS, exact-rational."""
    out = []
    for n in range(1, ASYM_TERMS + 1):
        coef = BERNOULLI_EVEN_RATIONAL[n - 1] * Fraction(
            math.factorial(2 * n + k - 1), math.factorial(2 * n))
        out.append(float(coef))
    return tuple(out)


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
        # (-1)^{k+1} psi^(k)(z) ~ (k-1)!/z^k + k!/(2 z^{k+1})
        #                          + sum_n B_{2n} (2n+k-1)!/(2n)! z^{-(2n+k)}
        series = 0.0
        zsq = z * z
        zpow = z ** (2 + k)  # z^{2n+k}
        for c in _poly_coefs(k):
            series += c / zpow
            zpow *= zsq
        magnitude = math.factorial(k - 1) / z ** k + kfac / (2.0 * z ** (k + 1)) + series
    except OverflowError:
        raise CapabilityError(
            f"polygamma({k}, {x!r}) needs a power of x outside the double-precision range"
        ) from None
    magnitude = require_finite(magnitude + kfac * shift, "polygamma", k, x)
    return magnitude if k % 2 == 1 else -magnitude
