"""Double-precision kernel for the gamma function family on (0, inf).

Evaluation strategy: shift the argument upward with the recurrence
Gamma(z+1) = z Gamma(z) (and its logarithmic derivatives) until it clears
``SHIFT_THRESHOLD``, then apply the Stirling-type asymptotic expansion with
exact-rational Bernoulli-number coefficients (DLMF 5.11.1, 5.11.2, 5.15.1).
The series therefore never sees an argument below 16, where its
``ASYM_TERMS`` = 12 terms leave a truncation error far below
double-precision resolution for every supported derivative order
(tests/test_gammakit.py checks this at z = 16).

One body does this for every function (``_evaluate``), order-major over an
array of points and only for the rows asked for (lnGamma, psi, psi^(j)):
the points below 16 step together, one row of z += 1.0 per step, the
shift terms ln z, 1/z and z^-(j+1) of every row go into one term array
summed by one accumulation along the steps, and the rows' series are one
12-term pass (one stack up to 400 values, term by term above).  + - * /
run in numpy, which rounds as Python floats do.  The logs and powers come
in two flavours:

- libm's, for ``lngamma``, ``digamma``, ``polygamma`` and ``gamma_rows``
  (any of their orders at once): ``math.log`` per element (``libm``) and
  ``np.float_power``, whose float64 loop calls libm's ``pow`` per element
  in C, so each value has the bits of the scalar recurrence in Python
  floats (tests/_referee.py).  The check catalog rests on these bits.  A
  float is a one-point array: it returns a float and costs about 20 to 30
  us warm and several times that right after other work (BENCH_28.json,
  one core of a 2-CPU Xeon VM), against 4 to 7 us for the scalar loop that
  it replaced; a 1-D array returns the array of the per-point values.
  The one-point calls left are a one-y derivative table's lnGamma(y+1) and
  log_h's psi(y+1) at x = 0.
- numpy's, for ``gamma_table``: ``np.log`` and ``np.power``, whose SIMD
  loops may round differently (on 100,000 log-spaced points in
  [1e-2, 2000] ``np.log`` differs from ``math.log`` in 82 and ``xs**3``
  from ``**`` in 5,327), and cost about a third of libm's per table.  The
  certificate and scan bytes rest on these values.

Errors come from the body's finiteness masks, without a rerun: a grid
raises what its first bad point raises alone.  A result, or a power,
outside the binary64 range raises ``CapabilityError``; every returned value
is finite.

Accuracy is absolute, not relative, near the zeros of lnGamma (x = 1, 2)
and of psi (x0 = 1.4616321449683622), where the result is a difference of
terms of order one: against mpmath, lngamma(2 + 1e-9) is off by 6.3e-15
(relative 1.5e-5) and digamma(x0) by 5.4e-16 (relative 5.8).

Bernoulli numbers are generated once from the defining recurrence as exact
integer rationals (numerator, denominator), and every series coefficient is
one int true division of an exact numerator by an exact denominator, which
CPython rounds correctly (as ``fractions.Fraction.__float__`` does).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache, partial
from itertools import repeat

import numpy as np

from .errors import (
    CapabilityError, DomainError, as_grid, as_integer, real_points, require_finite,
    require_positive)

__all__ = [
    "ASYM_TERMS",
    "BERNOULLI_EVEN",
    "EULER_GAMMA",
    "EXP_NEG_EULER_GAMMA",
    "MAX_DERIV_ORDER",
    "SHIFT_THRESHOLD",
    "check_order",
    "digamma",
    "gamma_rows",
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


@lru_cache(maxsize=None)
def _poly_coefs(k: int) -> tuple[float, ...]:
    """Series coefficients B_{2n} (2n+k-1)!/(2n)! for n = 1..ASYM_TERMS,
    each the correctly rounded double of the exact rational."""
    return tuple(num * math.perm(2 * n + k - 1, k - 1) / den
                 for n, (num, den) in enumerate(BERNOULLI_EVEN_RATIONAL, start=1))


@lru_cache(maxsize=None)
def _stack(orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """(numerators, multipliers, k, k_fac, signs) of the rows psi^(j), j in
    orders (ascending; -1 is lnGamma, 0 psi), read-only.

    The first two have shape (ASYM_TERMS, rows, 1): term n of a row is B_2n
    over 2n(2n-1) for lnGamma, B_2n over 2n for psi and _poly_coefs(j)'s
    n-th coefficient over 1.0 for psi^(j).  k holds the orders j >= 1 as an
    int column, k_fac their (j-1)! and signs their (-1)^(j+1) as float
    columns.
    """
    ks = [j for j in orders if j > 0]
    nums = np.array([[b if j < 1 else _poly_coefs(j)[n - 1] for j in orders]
                     for n, b in enumerate(BERNOULLI_EVEN, start=1)])
    muls = np.array([[(2 * n) * (2 * n - 1) if j < 0 else 2 * n if j == 0 else 1
                      for j in orders] for n in range(1, ASYM_TERMS + 1)], dtype=float)
    stack = (nums[..., None], muls[..., None], np.array(ks, dtype=int)[:, None],
             np.array([_FACTORIALS[j - 1] for j in ks], dtype=float)[:, None],
             np.array([(-1.0) ** (j + 1) for j in ks])[:, None])
    for a in stack:
        a.setflags(write=False)
    return stack


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
        return np.add.accumulate(a, axis=0, out=a)  # np.cumsum without its Python wrapper
    for s in range(1, len(a)):
        a[s] += a[s - 1]
    return a


def _shift(u: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """(zs, z, step_sums): the recurrence shift of the 1-D array u.

    zs holds only the points below SHIFT_THRESHOLD, the ones that step: its
    row s is each of them after s steps of z += 1.0, added in order, for as
    many steps as the smallest point takes (16 take any point > 0 there),
    and a point's rows from its first z >= SHIFT_THRESHOLD on are never
    read.  z is where every point stops.  step_sums(terms) takes terms with zs's steps on its leading
    axis, quantities on its middle and points on its last, and returns each
    point's terms summed over its low steps in step order, quantities
    leading, 0.0 at the points that do not step, over all of u: one
    accumulation along the steps (in place), read at each point's last low
    step.
    """
    stepped = (u < SHIFT_THRESHOLD).nonzero()[0]
    zs = np.empty((17, stepped.size))
    zs[0], zs[1:] = u[stepped], 1.0
    zs = _accumulate(zs)
    steps, points = (zs < SHIFT_THRESHOLD).sum(axis=0), np.arange(stepped.size)
    z = u.copy()
    z[stepped] = zs[steps, points]

    def step_sums(terms: np.ndarray) -> np.ndarray:
        sums = np.zeros((terms.shape[1], u.size))
        if stepped.size:  # the read puts the point axis first; .T puts it back last
            sums[:, stepped] = _accumulate(terms)[steps - 1, :, points].T
        return sums

    return zs[:steps.max(initial=0)], z, step_sums


def _series(nums: np.ndarray, muls: np.ndarray, zpow: np.ndarray,
            zsq: np.ndarray) -> np.ndarray:
    """Each row's asymptotic sum: the terms num_n / (mul_n z_n), n = 1 to
    ASYM_TERMS, added in order, where z_1 = zpow and z_{n+1} = z_n zsq
    (a wide zpow is overwritten).

    A zpow of at most 400 values takes all terms as one stack, in six numpy
    calls; a wider one goes term by term, so that no stack of twelve copies
    of it is allocated: at 200 points and ten rows that stack is 192 kB,
    which malloc may return to the system and fault in again on every call
    (62 minor page faults per gamma_table(9) call on the default grid,
    counted with getrusage in a process that interleaved it with other
    kernel calls).  Each path alone loses on the other's side (one core,
    BENCH_27.json ``series_paths``): term by term alone makes a float call
    about twice as slow and the 200-point lemma calls about 20% slower, the
    stack alone a 1,000-point grid or a gamma_table(9) on the default grid
    (1,800 values) about 30% slower; from 400 to 500 values they tie."""
    if zpow.size <= 400:
        a = np.empty((ASYM_TERMS, *zpow.shape))
        a[0], a[1:] = zpow, zsq
        np.multiply.accumulate(a, axis=0, out=a)
        np.divide(nums, np.multiply(muls, a, out=a), out=a)
        return np.add.accumulate(a, axis=0, out=a)[-1]
    series, term = np.zeros_like(zpow), np.empty_like(zpow)
    for num, mul in zip(nums, muls):
        series += np.divide(num, np.multiply(mul, zpow, out=term), out=term)
        zpow *= zsq
    return series


def _evaluate(u: np.ndarray, orders: tuple[int, ...], log, pow
              ) -> tuple[np.ndarray, np.ndarray]:
    """(rows, powers_ok): psi^(j)(u) for j in orders at the positive points
    of the 1-D array u, and, row by row, where every power of a point is
    finite (True on the rows that take no powers).

    orders ascend; -1 is lnGamma and 0 psi.  A row j >= 1 is summed as the
    magnitude (-1)^(j+1) psi^(j) and signed at the end (exact).  The shift
    terms ln z, 1/z and z^-(j+1) of every row are summed by one
    accumulation along the steps, and the rows' series by one (_series).
    log and pow are the flavour: libm's (libm over math.log,
    np.float_power) or numpy's (np.log, np.power).  A value may be inf or
    nan (under np.errstate(all="ignore")).  A power overflows where the
    scalar recurrence's z ** -(j+1) or z ** (j+2) does: the first step's
    term u^-(j+1) is a point's largest (the later ones are below 1, so a
    sum of finite terms stays finite), and z^(j+2) its largest series power.
    """
    nums, muls, k, k_fac, signs = _stack(orders)
    lg, psi = int(orders[0] == -1), int(0 in orders)  # ints: a bool index is a mask
    p = lg + psi  # the first polygamma row
    zs, z, step_sums = _shift(u)
    terms = np.empty((len(zs), len(orders), zs.shape[1]))  # the shift terms, steps leading
    if lg:
        low = zs < SHIFT_THRESHOLD
        terms[:, 0] = 0.0
        terms[:, 0][low] = log(zs[low])
    if psi:
        np.divide(1.0, zs, out=terms[:, lg])  # exact in any loop, so written in place
    for i, j in enumerate(k[:, 0].tolist(), start=p):
        terms[:, i] = pow(zs, -(j + 1))
    shifts = step_sums(terms)
    zsq = z * z
    zpow = np.empty((len(orders), u.size))  # z^p of each row's first term
    powers_ok = np.ones(zpow.shape, dtype=bool)
    if lg:
        zpow[0] = z
    if psi:
        zpow[lg] = zsq
    if p < len(orders):  # z^(j+2) is read before _series overwrites a wide zpow
        powers_ok[p:] = np.isfinite(pow(z, k + 2, out=zpow[p:]))
    series = _series(nums, muls, zpow, zsq)
    rows = np.empty_like(series)
    if p:
        log_z = log(z)
    if lg:
        rows[0] = (z - 0.5) * log_z - z + _HALF_LOG_TWO_PI + series[0] - shifts[0]
    if psi:
        rows[lg] = log_z - 0.5 / z - series[lg] - shifts[lg]
    if p < len(orders):
        rows[p:] = (k_fac / pow(z, k) + k * k_fac / (2.0 * pow(z, k + 1)) + series[p:]
                    + k * k_fac * shifts[p:])
        rows[p:] *= signs
        powers_ok[p:] &= np.isfinite(shifts[p:])
    return rows, powers_ok


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


_libm_log = partial(libm, math.log)


#: The function of each order, named in its errors: (name, *leading arguments).
_CALLS = {-1: ("lngamma",), 0: ("digamma",),
          **{j: ("polygamma", j) for j in range(1, MAX_DERIV_ORDER + 1)}}


def _rows(orders: tuple[int, ...], x) -> tuple[np.ndarray, bool]:
    """(rows, grid): gamma_rows(orders, x) as a (rows, points) array, and
    whether x is a 1-D array (else one point)."""
    # a float skips the isinstance call
    grid = x.__class__ is not float and isinstance(x, np.ndarray) and x.ndim == 1
    u = real_points(x, "x", require_positive) if grid else np.array([require_positive(x, "x")])
    with np.errstate(all="ignore"):  # inf and nan are caught below
        rows, powers_ok = _evaluate(u, orders, _libm_log, np.float_power)
        ok = powers_ok & np.isfinite(rows)
    if not ok.all():
        i = int(ok.all(axis=0).argmin())
        point = u[i].item() if grid else x
        for j, value, power_ok in zip(orders, rows[:, i].tolist(), powers_ok[:, i].tolist()):
            if not power_ok:
                raise CapabilityError(f"polygamma({j}, {point!r}) needs a power of x "
                                      "outside the double-precision range")
            require_finite(value, *_CALLS[j], point)
    return rows, grid


def gamma_rows(orders, x) -> np.ndarray:
    """psi^(j)(x) for every j in orders, in one pass of the kernel body:
    lnGamma for j = -1, digamma for 0 and polygamma(j, .) for j >= 1.

    orders ascend, each in -1..MAX_DERIV_ORDER.  x is one point (one value
    per order) or a 1-D array (one row per order, one column per point).
    Row j is bit for bit the value of j's own function, and at the first
    point where a row is not finite the first such order raises that
    function's error there.
    """
    js = as_grid(orders)
    if not js or any(as_integer(j) is None or j < -1 for j in js) or js != sorted(set(js)):
        raise DomainError(f"orders must be integers >= -1 in ascending order, got {orders!r}")
    if js[-1] > 0:
        check_order(js[-1])
    rows, grid = _rows(tuple(int(j) for j in js), x)
    return rows if grid else rows[:, 0]


def _row(order: int, x) -> float | np.ndarray:
    """gamma_rows' one row: a float for one point, the array for a 1-D array."""
    (value,), grid = _rows((order,), x)
    return value if grid else value[0].item()


def lngamma(x: float | np.ndarray) -> float | np.ndarray:
    """Natural log of the gamma function for x > 0.

    Near its zeros x = 1 and x = 2 the error is absolute (below 1e-14), not
    relative.  A 1-D array x gives the array of the per-point values.
    """
    return _row(-1, x)


def digamma(x: float | np.ndarray) -> float | np.ndarray:
    """Logarithmic derivative of the gamma function for x > 0.

    Near its zero x0 = 1.4616321449683622 the error is absolute (below 1e-14),
    not relative.  A 1-D array x gives the array of the per-point values.
    """
    return _row(0, x)


def polygamma(k: int, x: float | np.ndarray) -> float | np.ndarray:
    """k-th derivative of digamma, psi^(k)(x), for k = 1..MAX_DERIV_ORDER, x > 0.

    The sign of psi^(k) on (0, inf) is (-1)^(k+1); the magnitude is evaluated
    as a positive series and the sign attached at the end.  A 1-D array x
    gives the array of the per-point values.
    """
    return _row(check_order(k), x)


def gamma_table(n_psi: int, u) -> tuple[np.ndarray, np.ndarray]:
    """(lnGamma(u), psi^(j)(u) for j = 0..n_psi-1) at every point of the 1-D array u.

    The array version of lngamma, digamma and polygamma: psi has shape
    (n_psi, len(u)), psi[0] is digamma.  It is the same evaluation in
    numpy's flavour: its logs and powers are np.log and np.power, not
    libm's, so its values may differ from the scalar ones by a few ulps;
    the certificate and scan bytes rest on them.  It raises CapabilityError
    exactly where one of the calls lngamma(u_i), digamma(u_i),
    polygamma(j, u_i) would, and returns only finite values.
    """
    n = as_integer(n_psi)
    if n is None or n < 1:
        raise DomainError(f"n_psi must be an integer >= 1, got {n_psi!r}")
    if n > 1:
        check_order(n - 1)
    points = real_points(u, "u", require_positive)
    if np.ndim(u) != 1:  # one point is not a 1-D array
        raise DomainError(f"u must be a 1-D array of finite positive reals, got {u!r}")
    orders = tuple(range(-1, n))
    with np.errstate(all="ignore"):  # non-finite values are checked below
        rows, powers_ok = _evaluate(points, orders, np.log, np.power)
        bad = ~(np.isfinite(rows) & powers_ok).all(axis=0)
    if bad.any():
        raise CapabilityError(
            f"gamma_table({n}, u) at u = {float(points[bad][0])!r} is outside the "
            "double-precision range")
    return rows[0], rows[1:]
