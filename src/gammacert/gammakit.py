"""Double-precision kernel for the gamma function family on (0, inf).

Evaluation strategy for ``lngamma``, ``digamma`` and ``polygamma``: shift the
argument upward with the recurrence Gamma(z+1) = z Gamma(z) (and its
logarithmic derivatives) until it clears ``shift_threshold``, then apply the
Stirling-type asymptotic expansion with exact-rational Bernoulli-number
coefficients (DLMF 5.11.1, 5.11.2, 5.15.1).  With the default threshold 16 and
12 series terms the truncation error is far below double-precision resolution
for every supported derivative order.

Bernoulli numbers are generated once from the defining recurrence with
``fractions.Fraction`` arithmetic, so every series coefficient is the
correctly rounded double of an exact rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (CapabilityError, DomainError, ParameterError, PrecisionError,
                     require_positive)

__all__ = [
    "BERNOULLI_EVEN",
    "CONSTANTS",
    "Constants",
    "DEFAULT_OPTIONS",
    "EvalOptions",
    "MAX_DERIV_ORDER",
    "digamma",
    "lngamma",
    "polygamma",
]

#: Highest polygamma order the kernel evaluates (psi^(k) for k = 1..12).
MAX_DERIV_ORDER = 12

#: Largest number of asymptotic series terms supported (Bernoulli table size).
_MAX_ASYM_TERMS = 30


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


BERNOULLI_EVEN_RATIONAL: tuple[Fraction, ...] = _bernoulli_even(_MAX_ASYM_TERMS)
#: float(B_{2n}) for n = 1..30; BERNOULLI_EVEN[0] is B_2 = 1/6.
BERNOULLI_EVEN: tuple[float, ...] = tuple(float(b) for b in BERNOULLI_EVEN_RATIONAL)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

#: Euler-Mascheroni constant, correctly rounded double.
EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class Constants:
    """Frozen numeric constants used across the inequality checks."""

    euler_gamma: float = EULER_GAMMA
    #: e^{-euler_gamma}; shift in the sharp logarithmic digamma upper bound.
    exp_neg_euler_gamma: float = 0.5614594835668852
    #: pi^2/6 = psi'(1).
    pi_sq_over_6 : float = 1.6449340668482264
    log_two_pi: float = 2.0 * _HALF_LOG_TWO_PI


CONSTANTS = Constants()


@dataclass(frozen=True)
class EvalOptions:
    """Tuning knobs for the asymptotic kernel.

    shift_threshold: arguments below this are raised by the recurrence first.
    asym_terms: number of Bernoulli terms in the asymptotic series.
    rel_tol: accuracy guard; the last summed series term must be below
        rel_tol times the series value, else PrecisionError is raised.
    """

    shift_threshold: float = 16.0
    asym_terms: int = 12
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (isinstance(self.shift_threshold, (int, float))
                and math.isfinite(self.shift_threshold)
                and self.shift_threshold >= 8.0):
            raise ParameterError(
                f"shift_threshold must be a finite number >= 8, got {self.shift_threshold!r}")
        if not (isinstance(self.asym_terms, int)
                and 4 <= self.asym_terms <= _MAX_ASYM_TERMS):
            raise ParameterError(
                f"asym_terms must be an int in [4, {_MAX_ASYM_TERMS}], got {self.asym_terms!r}")
        if not (isinstance(self.rel_tol, float) and 0.0 < self.rel_tol <= 1e-8):
            raise ParameterError(
                f"rel_tol must be a float in (0, 1e-8], got {self.rel_tol!r}")


DEFAULT_OPTIONS = EvalOptions()


def _guard(last_term: float, total: float, options: EvalOptions, what: str) -> None:
    """Raise PrecisionError when the truncated tail is not negligible."""
    if abs(last_term) > options.rel_tol * max(abs(total), 1e-300):
        raise PrecisionError(
            f"{what}: asymptotic series not converged "
            f"(last term {last_term:.3e} vs total {total:.3e}); "
            "raise shift_threshold or asym_terms")


def lngamma(x: float, options: EvalOptions | None = None) -> float:
    """Natural log of the gamma function for x > 0."""
    opts = options or DEFAULT_OPTIONS
    z = require_positive(x, "x")
    shift = 0.0
    while z < opts.shift_threshold:
        shift += math.log(z)
        z += 1.0
    # Stirling series: (z - 1/2) ln z - z + ln(2 pi)/2 + sum B_2n / (2n(2n-1) z^{2n-1})
    series = 0.0
    term = 0.0
    zsq = z * z
    zpow = z  # z^{2n-1}
    for n in range(1, opts.asym_terms + 1):
        term = BERNOULLI_EVEN[n - 1] / ((2 * n) * (2 * n - 1) * zpow)
        series += term
        zpow *= zsq
    main = (z - 0.5) * math.log(z) - z + _HALF_LOG_TWO_PI
    _guard(term, main + series, opts, f"lngamma({x!r})")
    return main + series - shift


def digamma(x: float, options: EvalOptions | None = None) -> float:
    """Logarithmic derivative of the gamma function for x > 0."""
    opts = options or DEFAULT_OPTIONS
    z = require_positive(x, "x")
    shift = 0.0
    while z < opts.shift_threshold:
        shift += 1.0 / z
        z += 1.0
    # psi(z) ~ ln z - 1/(2z) - sum B_2n / (2n z^{2n})
    series = 0.0
    term = 0.0
    zsq = z * z
    zpow = zsq  # z^{2n}
    for n in range(1, opts.asym_terms + 1):
        term = BERNOULLI_EVEN[n - 1] / ((2 * n) * zpow)
        series += term
        zpow *= zsq
    main = math.log(z) - 0.5 / z
    _guard(term, main - series, opts, f"digamma({x!r})")
    return main - series - shift


@lru_cache(maxsize=None)
def _poly_coefs(k: int, terms: int) -> tuple[float, ...]:
    """Series coefficients B_{2n} (2n+k-1)!/(2n)! for n = 1..terms, exact-rational."""
    out = []
    for n in range(1, terms + 1):
        coef = BERNOULLI_EVEN_RATIONAL[n - 1] * Fraction(
            math.factorial(2 * n + k - 1), math.factorial(2 * n))
        out.append(float(coef))
    return tuple(out)


def polygamma(k: int, x: float, options: EvalOptions | None = None) -> float:
    """k-th derivative of digamma, psi^(k)(x), for k = 1..MAX_DERIV_ORDER, x > 0.

    The sign of psi^(k) on (0, inf) is (-1)^(k+1); the magnitude is evaluated
    as a positive series and the sign attached at the end.
    """
    opts = options or DEFAULT_OPTIONS
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"derivative order k must be an integer >= 1, got {k!r}")
    if k > MAX_DERIV_ORDER:
        raise CapabilityError(
            f"derivative order k={k} exceeds implemented maximum {MAX_DERIV_ORDER}")
    z = require_positive(x, "x")
    kfac = float(math.factorial(k))
    shift = 0.0  # accumulates k! sum z_i^{-(k+1)} in magnitude form
    while z < opts.shift_threshold:
        shift += z ** -(k + 1)
        z += 1.0
    # (-1)^{k+1} psi^(k)(z) ~ (k-1)!/z^k + k!/(2 z^{k+1})
    #                          + sum_n B_{2n} (2n+k-1)!/(2n)! z^{-(2n+k)}
    coefs = _poly_coefs(k, opts.asym_terms)
    series = 0.0
    term = 0.0
    zsq = z * z
    zpow = z ** (2 + k)  # z^{2n+k}
    for c in coefs:
        term = c / zpow
        series += term
        zpow *= zsq
    magnitude = math.factorial(k - 1) / z ** k + kfac / (2.0 * z ** (k + 1)) + series
    _guard(term, magnitude, opts, f"polygamma({k}, {x!r})")
    magnitude += kfac * shift
    return magnitude if k % 2 == 1 else -magnitude
