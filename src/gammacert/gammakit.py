"""Double-precision kernel for the gamma function family on (0, inf).

Evaluation strategy for ``lngamma``, ``digamma`` and ``polygamma``: shift the
argument upward with the recurrence Gamma(z+1) = z Gamma(z) (and its
logarithmic derivatives) until it clears ``SHIFT_THRESHOLD``, then apply the
Stirling-type asymptotic expansion with exact-rational Bernoulli-number
coefficients (DLMF 5.11.1, 5.11.2, 5.15.1).  The series therefore never sees
an argument below 16, where its ``ASYM_TERMS`` = 12 terms leave a truncation
error far below double-precision resolution for every supported derivative
order (tests/test_gammakit.py checks this at z = 16).

Each scalar function also takes a grid: for a 1-D numpy array x it returns
the array of the per-point results, bit for bit.  The grid form shifts only
the points below ``SHIFT_THRESHOLD``, one row of z += 1.0 per step for all
of them at once, takes each shift term at those steps and sums it by one
accumulation along the steps, read at each point's last low step
(``_shift``).  It does + - * / in numpy, which rounds as Python floats
do, and takes each log and power from libm, the C functions behind the
scalar path's ``math.log`` and ``**``.  Powers come from ``power``, numpy's
``np.float_power``: its float64 loop calls libm's ``pow`` once per element,
in C, so each element is ``math.pow``'s bits (tests/test_gammakit.py pins
this).  ``np.power`` is no substitute: on 200,000 log-spaced points in
[1e-2, 1e3] it differs from ``math.pow`` in about 10,600 for the exponents
3, -2 and 6.  Logs stay ``libm``'s per-element map over ``math.log``, as the
check catalog's ``log1p``, ``exp`` and ``expm1`` do, because numpy has no
loop for these that gives libm's bits: on the same points ``np.log``
differs from ``math.log`` in 150 and ``np.log1p`` from ``math.log1p`` in
9,356.  If a point would make the scalar call raise, the grid is re-run
point by point, so the first such point raises the scalar call's own error.
The check catalog's grid builders call this form once per quantity.

``gamma_table(n_psi, u)`` returns lnGamma and psi^(j), j < n_psi, at every
element of an array in order-major numpy passes, for the grid-shaped
callers (derivative tables, the q surface): one term array of every shift
quantity, one accumulation of it, and one 12-term loop over the stacked
lnGamma, psi and psi^(j) series.  It shares the shift and the series terms'
operation order but takes ``np.log`` and ``np.power``, whose SIMD loops may round
differently from libm: on 100,000 log-spaced points in [1e-2, 2000]
``np.log`` differs from ``math.log`` in 82 and ``xs**3`` from ``**`` in
5,327, and on the lemma suite's grids ``gamma_table(7, xs)`` differs from
``digamma`` / ``polygamma`` in 773 of 22,400 values (a few ulps each).  It
stays apart because certificate and scan bytes rest on its values.  The
single-point h-family derivatives (``hfamily.logh_deriv``,
``alpha_necessary_bound``, ``q_surface`` and their callers) build one- to
three-point tables through ``gamma_table``, which costs about 48 to 62
scalar calls each (a one-point order-1 table about 180 us, a one-point
order-8 table about 210 us, a three-point order-4 table about 230 us,
against about 3.7 us for one ``lngamma``; one core of a 2-CPU Xeon VM).

Accuracy is absolute, not relative, near the zeros of lnGamma (x = 1, 2)
and of psi (x0 = 1.4616321449683622), where the result is a difference of
terms of order one: against mpmath, lngamma(2 + 1e-9) is off by 6.3e-15
(relative 1.5e-5) and digamma(x0) by 5.4e-16 (relative 5.8).

Bernoulli numbers are generated once from the defining recurrence as exact
integer rationals (numerator, denominator), and every series coefficient is
one int true division of an exact numerator by an exact denominator, which
CPython rounds correctly (as ``fractions.Fraction.__float__`` does).

A result, or an intermediate, outside the binary64 range raises
``CapabilityError``; every returned value is finite.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import (
    CapabilityError, DomainError, as_integer, real_points, require_finite, require_positive)

__all__ = [
    "ASYM_TERMS",
    "BERNOULLI_EVEN",
    "EULER_GAMMA",
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


def _bernoulli_even(count: int) -> tuple[tuple[int, int], ...]:
    """Return (B_2, B_4, ..., B_{2*count}) as exact rationals (numerator,
    denominator) in lowest terms, the denominator positive.

    Uses the defining recurrence B_m = -1/(m+1) * sum_{j<m} C(m+1, j) B_j
    with B_0 = 1, B_1 = -1/2 and B_j = 0 for odd j >= 3, so only the even
    terms are summed.
    """
    even = [(1, 1)]  # B_0, B_2, B_4, ...
    for m in range(2, 2 * count + 1, 2):
        num, den = 1 - m, 2  # the j = 0 and j = 1 terms
        for j in range(2, m, 2):
            b_num, b_den = even[j // 2]
            num, den = num * b_den + math.comb(m + 1, j) * b_num * den, den * b_den
        num, den = -num, den * (m + 1)
        g = math.gcd(num, den)
        even.append((num // g, den // g))
    return tuple(even[1:])


BERNOULLI_EVEN_RATIONAL: tuple[tuple[int, int], ...] = _bernoulli_even(ASYM_TERMS)
#: float(B_{2n}) for n = 1..ASYM_TERMS; BERNOULLI_EVEN[0] is B_2 = 1/6.
BERNOULLI_EVEN: tuple[float, ...] = tuple(n / d for n, d in BERNOULLI_EVEN_RATIONAL)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

#: n! as an exact integer for n = 0..MAX_DERIV_ORDER.
_FACTORIALS = tuple(math.factorial(n) for n in range(MAX_DERIV_ORDER + 1))

#: Euler-Mascheroni constant, correctly rounded double.
EULER_GAMMA = 0.5772156649015329

#: e^{-euler_gamma}; shift in the sharp logarithmic digamma upper bound.
EXP_NEG_EULER_GAMMA = 0.5614594835668852


def check_order(k: int) -> int:
    """k as a Python int; DomainError unless it is an integer >= 1,
    CapabilityError above MAX_DERIV_ORDER."""
    n = as_integer(k)
    if n is None or n < 1:
        raise DomainError(f"derivative order k must be an integer >= 1, got {k!r}")
    if n > MAX_DERIV_ORDER:
        raise CapabilityError(
            f"derivative order k={n} exceeds implemented maximum {MAX_DERIV_ORDER}")
    return n


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
    """Series coefficients B_{2n} (2n+k-1)!/(2n)! for n = 1..ASYM_TERMS,
    each the correctly rounded double of the exact rational."""
    return tuple(num * math.perm(2 * n + k - 1, k - 1) / den
                 for n, (num, den) in enumerate(BERNOULLI_EVEN_RATIONAL, start=1))


@lru_cache(maxsize=None)
def _stacked_coefs(n_psi: int) -> tuple[np.ndarray, np.ndarray]:
    """(numerators, multipliers) of gamma_table's stacked series, read-only,
    each of shape (ASYM_TERMS, n_psi + 1, 1): for term n a column with one
    row each for lnGamma, psi and psi^(j), j < n_psi, holding B_2n over
    2n(2n-1) and B_2n over 2n, then _poly_coefs(j)'s n-th coefficient over 1.0."""
    poly = [_poly_coefs(j) for j in range(1, n_psi)]
    nums = np.array([[b, b, *(c[n - 1] for c in poly)]
                     for n, b in enumerate(BERNOULLI_EVEN, start=1)])
    muls = np.array([[(2 * n) * (2 * n - 1), 2 * n, *(1 for _ in poly)]
                     for n in range(1, ASYM_TERMS + 1)], dtype=float)
    for a in (nums, muls):
        a.setflags(write=False)
    return nums[..., None], muls[..., None]


def _polygamma_series(z, k, coefs, k_fac, z_k, z_k1, z_k2):
    """(-1)^{k+1} psi^(k)(z) for z >= SHIFT_THRESHOLD.

    (k-1)!/z^k + k!/(2 z^{k+1}) + sum_n B_{2n} (2n+k-1)!/(2n)! z^{-(2n+k)},
    given coefs = _poly_coefs(k), k_fac = (k-1)! (so k! = k * k_fac) and the
    powers z_k, z_k1, z_k2 = z^k, z^{k+1}, z^{k+2}, which each caller takes
    with its own pow.  z is a float or a 1-D array of points.
    """
    series = 0.0
    zsq = z * z
    zpow = z_k2  # z^{2n+k}
    for c in coefs:
        series = series + c / zpow
        zpow = zpow * zsq
    return k_fac / z_k + k * k_fac / (2.0 * z_k1) + series


def _accumulate(a: np.ndarray) -> np.ndarray:
    """a summed in place along its leading axis: row s becomes the sum of
    rows 0..s, added in order, as np.cumsum adds.  np.cumsum along that
    axis runs one short column at a time (about 60 ns each), so a wide a
    is added row by row instead (about 1 us a row).  Each path alone loses
    on the other's side (one core, BENCH_25.json ``accumulate_paths``): rows
    alone make one- to three-point tables (1 to 15 columns) 8-15% slower,
    np.cumsum alone a 200-point gamma_table(8) or a 1,000-point grid (641
    to 1,422 columns) 9-13% slower."""
    if a[0].size <= 200:
        return np.cumsum(a, axis=0, out=a)
    for s in range(1, len(a)):
        a[s] += a[s - 1]
    return a


def _shift(u: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """(zs, z, step_sums): the recurrence shift of the 1-D array u.

    zs holds only the points below SHIFT_THRESHOLD, the ones the scalar
    loops step: its row s is each of them after s steps of z += 1.0, added
    in order as the scalar loops add (the smallest point needs the most
    steps), and a point's rows from its first z >= SHIFT_THRESHOLD on are
    never read.  z is where every point's loop stops.  step_sums(terms)
    takes terms with zs's steps on its leading axis and its points on its
    last (at most one axis of quantities between) and returns each point's
    terms summed over its low steps in step order, 0.0 at the points that do
    not step, over all of u: one accumulation along the steps (in place),
    read at each point's last low step.
    """
    stepped = np.flatnonzero(u < SHIFT_THRESHOLD)
    rows, z = 0, float(u.min(initial=SHIFT_THRESHOLD))
    while z < SHIFT_THRESHOLD:
        rows, z = rows + 1, z + 1.0
    zs = np.ones((rows + 1, stepped.size))
    zs[0] = u[stepped]
    zs = _accumulate(zs)
    steps, points = (zs < SHIFT_THRESHOLD).sum(axis=0), np.arange(stepped.size)
    z = u.copy()
    z[stepped] = zs[steps, points]

    def step_sums(terms: np.ndarray) -> np.ndarray:
        sums = np.zeros((*terms.shape[1:-1], u.size))
        if stepped.size:  # the read puts the point axis first; .T puts it back last
            sums[..., stepped] = _accumulate(terms)[steps - 1, ..., points].T
        return sums

    return zs[:-1], z, step_sums


def libm(fn, a: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) at every element v of the 1-D array a, one Python call
    each, so element i is bit for bit the scalar call fn(a[i], *args).

    For log, log1p, exp and expm1, whose numpy loops round differently from
    libm; powers go through power.
    """
    return np.fromiter(map(fn, a.tolist(), *map(repeat, args)), float, a.size)


def power(a: np.ndarray, e: float) -> np.ndarray:
    """math.pow(v, e) at every element v of the 1-D float array a, bit for bit.

    np.float_power's float64 loop calls libm's pow per element in C (np.power
    may dispatch to SIMD code that rounds differently).  The elements whose
    result is not finite go through math.pow, so the first finite one among
    them raises math.pow's own OverflowError or ValueError.
    """
    with np.errstate(all="ignore"):
        out = np.float_power(a, e)
    for v in a[~np.isfinite(out)].tolist():
        math.pow(v, e)
    return out


def _lngamma_grid(u: np.ndarray) -> np.ndarray:
    zs, z, step_sums = _shift(u)
    low = zs < SHIFT_THRESHOLD
    logs = np.zeros_like(zs)
    logs[low] = libm(math.log, zs[low])  # one Python call per step the scalar loops take
    return _lngamma_series(z, libm(math.log, z)) - step_sums(logs)


def _digamma_grid(u: np.ndarray) -> np.ndarray:
    zs, z, step_sums = _shift(u)
    return _digamma_series(z, libm(math.log, z)) - step_sums(1.0 / zs)


def _polygamma_grid(k: int, u: np.ndarray) -> np.ndarray:
    zs, z, step_sums = _shift(u)
    shift = step_sums(power(zs.ravel(), -(k + 1)).reshape(zs.shape))
    magnitude = (_polygamma_series(z, k, _poly_coefs(k), _FACTORIALS[k - 1],
                                   *(power(z, e) for e in (k, k + 1, k + 2)))
                 + float(_FACTORIALS[k]) * shift)
    return magnitude if k % 2 == 1 else -magnitude


def _on_grid(x: np.ndarray, scalar, grid, *args) -> np.ndarray:
    """scalar(*args, v) at every point v of the 1-D array x, bit for bit.

    The points go through real_points, so the first one that is not a
    finite real > 0 raises the scalar call's DomainError, and grid(*args, x)
    evaluates them in one pass.  Where that meets math.pow's OverflowError or
    a value that is not finite, the scalar calls run point by point instead,
    so the first bad point raises.
    """
    x = real_points(x, "x", require_positive)
    try:
        with np.errstate(all="ignore"):  # inf and nan are caught below
            out = grid(*args, x)
        if np.all(np.isfinite(out)):
            return out
    except OverflowError:  # from math.pow
        pass
    return np.array([scalar(*args, v) for v in x.tolist()], dtype=float)


def lngamma(x: float | np.ndarray) -> float | np.ndarray:
    """Natural log of the gamma function for x > 0.

    Near its zeros x = 1 and x = 2 the error is absolute (below 1e-14), not
    relative.  A 1-D array x gives the array of the per-point values.
    """
    # a float skips the isinstance call, which would cost it about 2%
    if x.__class__ is not float and isinstance(x, np.ndarray) and x.ndim == 1:
        return _on_grid(x, lngamma, _lngamma_grid)
    z = require_positive(x, "x")
    shift = 0.0
    while z < SHIFT_THRESHOLD:
        shift += math.log(z)
        z += 1.0
    return require_finite(_lngamma_series(z, math.log(z)) - shift, "lngamma", x)


def digamma(x: float | np.ndarray) -> float | np.ndarray:
    """Logarithmic derivative of the gamma function for x > 0.

    Near its zero x0 = 1.4616321449683622 the error is absolute (below 1e-14),
    not relative.  A 1-D array x gives the array of the per-point values.
    """
    if x.__class__ is not float and isinstance(x, np.ndarray) and x.ndim == 1:
        return _on_grid(x, digamma, _digamma_grid)
    z = require_positive(x, "x")
    shift = 0.0
    while z < SHIFT_THRESHOLD:
        shift += 1.0 / z
        z += 1.0
    return require_finite(_digamma_series(z, math.log(z)) - shift, "digamma", x)


def polygamma(k: int, x: float | np.ndarray) -> float | np.ndarray:
    """k-th derivative of digamma, psi^(k)(x), for k = 1..MAX_DERIV_ORDER, x > 0.

    The sign of psi^(k) on (0, inf) is (-1)^(k+1); the magnitude is evaluated
    as a positive series and the sign attached at the end.  A 1-D array x
    gives the array of the per-point values.
    """
    k = check_order(k)
    if x.__class__ is not float and isinstance(x, np.ndarray) and x.ndim == 1:
        return _on_grid(x, polygamma, _polygamma_grid, k)
    z = require_positive(x, "x")
    kfac = float(_FACTORIALS[k])
    shift = 0.0  # accumulates k! sum z_i^{-(k+1)} in magnitude form
    try:
        while z < SHIFT_THRESHOLD:
            shift += z ** -(k + 1)
            z += 1.0
        # a float power outside the binary64 range raises OverflowError
        magnitude = _polygamma_series(z, k, _poly_coefs(k), _FACTORIALS[k - 1],
                                      z ** k, z ** (k + 1), z ** (k + 2))
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
    summed in that order, then the series, each term with the scalar
    bodies' operations in their order.  The work runs order-major: the
    powers z^-(j+1), one scalar exponent per order, go with ln z and 1/z
    into one term array whose leading axis is the step, summed by one
    accumulation; the lnGamma, psi and psi^(j) series are the rows of one
    stacked 12-term loop.  It raises
    CapabilityError exactly where one of the scalar calls lngamma(u_i),
    digamma(u_i), polygamma(j, u_i) would, and returns only finite values.
    Its logs and powers are numpy's, not libm's, so its values may differ
    from the scalar ones by a few ulps; the certificate and scan bytes rest
    on them.
    """
    n = as_integer(n_psi)
    if n is None or n < 1:
        raise DomainError(f"n_psi must be an integer >= 1, got {n_psi!r}")
    if n > 1:
        check_order(n - 1)
    points = real_points(u, "u", require_positive)
    if np.ndim(u) != 1:  # one point is not a 1-D array
        raise DomainError(f"u must be a 1-D array of finite positive reals, got {u!r}")
    n_psi, u = n, points
    zs, z, step_sums = _shift(u)
    orders = range(1, n_psi)
    k = np.array(orders)[:, None]  # polygamma orders as a column against the points
    k_fac = np.array(_FACTORIALS[:n_psi - 1], dtype=float)[:, None]
    with np.errstate(all="ignore"):  # non-finite values are checked below
        # the shift terms ln z, 1/z and z^-(j+1), the steps leading
        terms = np.empty((len(zs), n_psi + 1, zs.shape[1]))
        terms[:, 0] = np.log(zs)
        terms[:, 1] = 1.0 / zs
        for j in orders:
            terms[:, j + 1] = zs ** -(j + 1)
        shifts = step_sums(terms)
        log_z, zsq = np.log(z), z * z
        z_k2 = z ** (k + 2)
        # the lnGamma, psi and psi^(j) series as the rows of one stack, each
        # term B / (m z^p) for the first two and c / (1.0 z^p) = c / z^p for
        # the rest; z^p starts at z, z^2 and z^(j+2)
        zpow = np.concatenate([z[None], zsq[None], z_k2])
        series, term = np.zeros_like(zpow), np.empty_like(zpow)
        for num, mul in zip(*_stacked_coefs(n_psi)):
            series += np.divide(num, np.multiply(mul, zpow, out=term), out=term)
            zpow *= zsq
        lg = (z - 0.5) * log_z - z + _HALF_LOG_TWO_PI + series[0] - shifts[0]
        psi_0 = log_z - 0.5 / z - series[1] - shifts[1]
        magnitude = (k_fac / z ** k + k * k_fac / (2.0 * z ** (k + 1)) + series[2:]
                     + k * k_fac * shifts[2:])
        psi = np.concatenate([psi_0[None], (-1.0) ** (k + 1) * magnitude])
        # a point fails where a scalar result would not be finite, or where
        # the scalar polygamma's largest power z^{k+2} overflows
        bad = ~(np.isfinite(lg) & np.isfinite(psi).all(axis=0)
                & np.isfinite(z_k2).all(axis=0))
    if bad.any():
        raise CapabilityError(
            f"gamma_table({n_psi}, u) at u = {float(u[bad][0])!r} is outside the "
            "double-precision range")
    return lg, psi
