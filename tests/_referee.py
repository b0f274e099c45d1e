"""Referees: the bodies that the package's grid builders and alpha cuts replaced.

Each check function below evaluates one point with Python floats and scalar
kernel calls, exactly as the package did before its check builders took
grids.  The tests hold every grid row, and every point call, to these
bodies bit for bit, and every bad point to the error that its body raises.
The one deliberate difference is documented where it is tested: the package
refuses a non-finite auxiliary value (``aux_eval``) with CapabilityError
where the old body returned it.

``lngamma``, ``digamma`` and ``polygamma`` are the kernel as the package
computed it one point at a time, before its four functions shared one
order-major body: a loop of ``z += 1.0`` below ``SHIFT_THRESHOLD`` with each
shift term summed as it is taken, then one Stirling series per quantity
(``_lngamma_series``, ``_digamma_series``, ``_polygamma_series``), in Python
floats with ``math.log`` and ``**``.  Every referee body below takes its
kernel values from these.

``gamma_table`` and ``logh_deriv_table`` are the derivative-table layer as
the package computed it before its tables ran in order-major passes: the
shift as a steps by points matrix over every point, each shift sum masked
and summed on its own, three Stirling loops, and each bracket of the closed
form summed term by term.  The package's tables return these arrays bit for
bit and raise these errors.

``lemma_suite`` is the lemma suite as the package composed it before its
windows were built in one pass: the eight window builders' tables joined,
then each x's rows in turn.

``search_certifier`` is the lcm-sign certificate as the package computed it
before its verdicts became comparisons with per-point alpha cuts: it
evaluates the derivative table at alpha and searches it for the first
conclusive violation.  Away from every point's cut and raw root the two
agree in verdict, witness bits and undecided count.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from gammacert import (
    CapabilityError, Certificate, CheckTable, DerivSample, Direction, DomainError, HParams,
    ParameterError, PrecisionError, Verdict, grid_points, hfamily, polygamma_bounds,
    psi_log_bounds, psi_upper_refinement)
from gammacert.certify import NOISE_FLOOR_REL
from gammacert.errors import (
    as_integer, first_bad_point, is_finite, real_points, require_finite, require_positive,
    require_real, require_y)
from gammacert.gammakit import (
    _FACTORIALS, _HALF_LOG_TWO_PI, ASYM_TERMS, BERNOULLI_EVEN, SHIFT_THRESHOLD,
    _poly_coefs, check_order)
from gammacert.hfamily import (
    DerivTable, _shifted_arguments, lcm_threshold, reciprocal_threshold)
from gammacert.auxchain import CHAIN_SUP, AuxFn
from gammacert.checks import CheckResult
from gammacert.ineq import one_sided, two_sided
from gammacert.means import BRANCH_TOL, DIAGONAL_REL_TOL

# ---------------------------------------------------------------------------
# means
# ---------------------------------------------------------------------------


def _gap(lo: float, hi: float) -> tuple[float, float]:
    r = (hi - lo) / lo
    return r, math.log1p(r) if r < math.inf else math.log(hi) - math.log(lo)


def log_mean(a: float, b: float) -> float:
    a, b = require_positive(a, "a"), require_positive(b, "b")
    lo, hi = min(a, b), max(a, b)
    if hi - lo <= DIAGONAL_REL_TOL * hi:
        return a
    return (hi - lo) / _gap(lo, hi)[1]


def gen_log_mean(p: float, a: float, b: float) -> float:
    p = require_real(p, "p")
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p!r}")
    a, b = require_positive(a, "a"), require_positive(b, "b")
    lo, hi = min(a, b), max(a, b)
    if hi - lo <= DIAGONAL_REL_TOL * hi:
        return a
    if abs(p + 1.0) <= BRANCH_TOL:
        return log_mean(a, b)
    # L_p is homogeneous of degree 1: a pair below 2**-968 is scaled by the
    # exact 2**600, where hi - lo is no subnormal that q * (hi - lo) rounds
    scale = 2.0 ** 600 if hi < 2.0 ** -968 else 1.0
    lo, hi = lo * scale, hi * scale
    r, log_gap = _gap(lo, hi)
    if abs(p) <= BRANCH_TOL:
        return hi * math.exp(log_gap / r - 1.0) / scale
    base = hi if p > -1.0 else lo
    q = abs(p + 1.0)
    head = -math.expm1(-q * log_gap)
    ratio = head / (q * (hi - lo) / base)
    if ratio >= sys.float_info.min:
        return base * ratio ** (1.0 / p) / scale
    return math.exp(math.log(base) + (math.log(head) - math.log(q) - math.log(hi - lo)
                                      + math.log(base)) / p) / scale


# ---------------------------------------------------------------------------
# derivative tables
# ---------------------------------------------------------------------------


def _shift(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(zs, low, z): row s of zs is u after s steps of z += 1.0, low marks
    the steps the scalar loops take, z is where each point's loop stops."""
    steps, z = 0, float(u.min(initial=SHIFT_THRESHOLD))
    while z < SHIFT_THRESHOLD:
        steps, z = steps + 1, z + 1.0
    zs = np.cumsum(np.concatenate([u[None], np.ones((steps, u.size))]), axis=0)
    low = zs < SHIFT_THRESHOLD
    return zs, low, zs[low.sum(axis=0), np.arange(u.size)]


def _summed(low: np.ndarray, term: np.ndarray) -> np.ndarray:
    return np.cumsum(np.where(low, term, 0.0), axis=0)[-1]


def _lngamma_series(z, log_z):
    """lnGamma(z) for z >= SHIFT_THRESHOLD, given log_z = ln z; z a float or an array."""
    series = 0.0
    zsq = z * z
    zpow = z  # z^{2n-1}
    for n in range(1, ASYM_TERMS + 1):
        series = series + BERNOULLI_EVEN[n - 1] / ((2 * n) * (2 * n - 1) * zpow)
        zpow = zpow * zsq
    return (z - 0.5) * log_z - z + _HALF_LOG_TWO_PI + series


def _digamma_series(z, log_z):
    """psi(z) for z >= SHIFT_THRESHOLD, given log_z = ln z; z a float or an array."""
    series = 0.0
    zsq = z * z
    zpow = zsq  # z^{2n}
    for n in range(1, ASYM_TERMS + 1):
        series = series + BERNOULLI_EVEN[n - 1] / ((2 * n) * zpow)
        zpow = zpow * zsq
    return log_z - 0.5 / z - series


def _polygamma_series(z, k, coefs, k_fac, z_k, z_k1, z_k2):
    """(-1)^{k+1} psi^(k)(z) for z >= SHIFT_THRESHOLD, given the powers
    z^k, z^{k+1}, z^{k+2}; z a float or an array."""
    series = 0.0
    zsq = z * z
    zpow = z_k2  # z^{2n+k}
    for c in coefs:
        series = series + c / zpow
        zpow = zpow * zsq
    return k_fac / z_k + k * k_fac / (2.0 * z_k1) + series


def lngamma(x: float) -> float:
    z = require_positive(x, "x")
    shift = 0.0
    while z < SHIFT_THRESHOLD:
        shift += math.log(z)
        z += 1.0
    return require_finite(_lngamma_series(z, math.log(z)) - shift, "lngamma", x)


def digamma(x: float) -> float:
    z = require_positive(x, "x")
    shift = 0.0
    while z < SHIFT_THRESHOLD:
        shift += 1.0 / z
        z += 1.0
    return require_finite(_digamma_series(z, math.log(z)) - shift, "digamma", x)


def polygamma(k: int, x: float) -> float:
    k = check_order(k)
    z = require_positive(x, "x")
    kfac = float(_FACTORIALS[k])
    shift = 0.0
    try:
        while z < SHIFT_THRESHOLD:
            shift += z ** -(k + 1)
            z += 1.0
        magnitude = _polygamma_series(z, k, _poly_coefs(k), _FACTORIALS[k - 1],
                                      z ** k, z ** (k + 1), z ** (k + 2))
    except OverflowError:
        raise CapabilityError(
            f"polygamma({k}, {x!r}) needs a power of x outside the double-precision range"
        ) from None
    magnitude = require_finite(magnitude + kfac * shift, "polygamma", k, x)
    return magnitude if k % 2 == 1 else -magnitude


def on_grid(fn, x: np.ndarray) -> np.ndarray:
    """fn at every point of the 1-D array x, one call each: the first bad
    point raises."""
    return np.array([fn(v) for v in real_points(x, "x", require_positive).tolist()],
                    dtype=float)


def gamma_table(n_psi: int, u) -> tuple[np.ndarray, np.ndarray]:
    n = as_integer(n_psi)
    if n is None or n < 1:
        raise DomainError(f"n_psi must be an integer >= 1, got {n_psi!r}")
    if n > 1:
        check_order(n - 1)
    points = real_points(u, "u", require_positive)
    if np.ndim(u) != 1:
        raise DomainError(f"u must be a 1-D array of finite positive reals, got {u!r}")
    n_psi, u = n, points
    zs, low, z = _shift(u)
    orders = range(1, n_psi)
    k = np.array(orders)[:, None]
    k_fac = np.array(_FACTORIALS[:n_psi - 1], dtype=float)[:, None]
    coefs = np.array([_poly_coefs(j) for j in orders]).reshape(-1, 12).T[..., None]
    with np.errstate(all="ignore"):
        log_z = np.log(z)
        lg = _lngamma_series(z, log_z) - _summed(low, np.log(zs))
        psi_0 = _digamma_series(z, log_z) - _summed(low, 1.0 / zs)
        shifts = np.array([_summed(low, zs ** -(j + 1))
                           for j in orders]).reshape(len(orders), u.size)
        z_k2 = z ** (k + 2)
        magnitude = (_polygamma_series(z, k, coefs, k_fac, z ** k, z ** (k + 1), z_k2)
                     + k * k_fac * shifts)
        psi = np.concatenate([psi_0[None], (-1.0) ** (k + 1) * magnitude])
        bad = ~(np.isfinite(lg) & np.isfinite(psi).all(axis=0)
                & np.isfinite(z_k2).all(axis=0))
    if bad.any():
        raise CapabilityError(
            f"gamma_table({n_psi}, u) at u = {float(u[bad][0])!r} is outside the "
            "double-precision range")
    return lg, psi


@first_bad_point
def logh_deriv_table(k_max: int, y: float, xs) -> DerivTable:
    k_max, y = check_order(k_max), require_y(y)
    lg_y = lngamma(y + 1.0)
    x, u = _shifted_arguments(xs, y)
    lg_u, psi = gamma_table(k_max, u)
    ks = range(1, k_max + 1)
    core, core_scale, u_pow = np.empty((3, k_max, x.size))
    try:
        with np.errstate(over="raise"):
            terms = [x ** i * psi[i - 1] / math.factorial(i) for i in ks]
            abs_sum = abs(lg_u) + abs(lg_y)
            for k in ks:
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
    return DerivTable(y, core, core_scale, u_pow, alpha_coef)


# ---------------------------------------------------------------------------
# ineq
# ---------------------------------------------------------------------------


def gamma_ratio_ineq(x: float, y: float, t: float,
                     a: float | None = None, b: float | None = None) -> CheckResult:
    x, y, t = require_real(x, "x"), require_real(y, "y"), require_real(t, "t")
    if not (math.isfinite(y) and y > -1.0):
        raise DomainError(f"y must be > -1, got {y!r}")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be a positive real, got {t!r}")
    u1 = x + y + 1.0
    if not (math.isfinite(u1) and u1 > 0.0):
        raise DomainError(f"x must exceed -(y+1), got x={x!r}, y={y!r}")
    if x == 0.0 or x + t == 0.0:
        raise DomainError("x and x+t must be nonzero (1/x and 1/(x+t) exponents)")
    if a is None:
        a = lcm_threshold(y)
    if b is None:
        b = reciprocal_threshold(y)
    u2 = u1 + t
    lgy = lngamma(y + 1.0)
    mid = (lngamma(u1) - lgy) / x - (lngamma(u2) - lgy) / (x + t)
    log_ratio = math.log(u1) - math.log(u2)
    return two_sided(
        "gamma_ratio_power_window",
        (("x", x), ("y", y), ("t", t), ("a", a), ("b", b),
         ("log_ratio", log_ratio), ("log_scale", 1.0)),
        a * log_ratio, mid, b * log_ratio)


def psi_integral_mean_ineq(i: int, s: float, t: float,
                           p: float, q: float) -> CheckResult:
    if i not in (0, 1):
        raise ParameterError(
            f"i must be 0 or 1 (closed-form antiderivative needed), got {i!r}")
    s = require_positive(s, "s")
    t = require_positive(t, "t")
    if abs(s - t) <= DIAGONAL_REL_TOL * max(s, t):
        raise DomainError(f"s and t must be distinct, got s={s!r}, t={t!r}")
    p, q = require_real(p, "p"), require_real(q, "q")
    if not p <= -i - 1:
        raise ParameterError(f"order p must satisfy p <= -(i+1) = {-i - 1}, got {p!r}")
    if not q >= -i:
        raise ParameterError(f"order q must satisfy q >= -i = {-i}, got {q!r}")
    sign = (-1.0) ** i
    anti = lngamma if i == 0 else digamma
    deriv = digamma if i == 0 else (lambda z: polygamma(1, z))
    mean = sign * (anti(t) - anti(s)) / (t - s)
    lower = sign * deriv(gen_log_mean(p, s, t))
    upper = sign * deriv(gen_log_mean(q, s, t))
    return two_sided("psi_derivative_mean_value_window",
                     (("i", i), ("s", s), ("t", t), ("p", p), ("q", q)),
                     lower, mean, upper, strict=False)


def batir_ineq(a: float, b: float) -> CheckResult:
    a = require_positive(a, "a")
    b = require_positive(b, "b")
    if abs(a - b) <= DIAGONAL_REL_TOL * max(a, b):
        raise DomainError(f"a and b must be distinct, got a={a!r}, b={b!r}")
    lm = log_mean(a, b)
    dg = lngamma(a) - lngamma(b)
    return one_sided(
        "psi_logmean_vs_gamma_ratio_power",
        (("a", a), ("b", b), ("log_mean", lm), ("lngamma_diff", dg),
         ("rhs_exponent_quotient_form", dg / (a - b)), ("log_scale", 1.0)),
        digamma(lm), (a - b) * dg)


def log_upper_bound_ineq(t: float) -> CheckResult:
    t = require_positive(t, "t")
    rhs = t * ((t + 12.0) * t + 12.0) / (6.0 * (t + 1.0) * (t + 2.0))
    return one_sided("log1p_rational_bound", (("t", t),), math.log1p(t), rhs)


def aux_eval(fn: AuxFn, t: float) -> float:
    """The old body, which returned inf and nan where the value leaves binary64."""
    t = require_real(t, "t")
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if fn is AuxFn.QLOG:
        if t <= -0.5:
            raise DomainError(f"QLOG requires t > -1/2, got {t!r}")
        return 4.0 * t - 3.0 * math.log1p(2.0 * t) - 1.0
    if fn is AuxFn.QCUB:
        return ((3.0 * t + 11.0) * t + 3.0) * t - 3.0
    if fn is AuxFn.HPOLY:
        return ((((((9.0 * t + 54.0) * t + 55.0) * t - 60.0) * t - 93.0) * t
                 - 18.0) * t + 9.0)
    raise ParameterError(f"unknown auxiliary function tag {fn!r}")


def finite_aux_eval(fn: AuxFn, t: float) -> float:
    """aux_eval with the package's rule for a value outside binary64."""
    value = aux_eval(fn, t)
    if not math.isfinite(value):
        raise CapabilityError(f"{fn.name}({float(t)!r}) = {value!r} is outside the "
                              "double-precision range")
    return value


def suffice_chain(t: float) -> list[CheckResult]:
    t = require_positive(t, "t")
    if t >= CHAIN_SUP:
        raise DomainError(f"t must lie in (0, 8/7), got {t!r}")
    w = (2.0 * t + 1.0) * math.log1p(2.0 * t)
    inner = 2.0 * t * t / w
    sqrt_pt = math.sqrt(2.0 * t ** 3 / w)
    excess = w - 2.0 * t
    if not excess > 0.0:
        raise PrecisionError(f"t = {t!r} is too small: (2t+1)ln(2t+1) - 2t "
                             "cancels to zero")
    rational = w / (t * excess)
    return [
        one_sided("psi_diff_vs_one", (("t", t), ("inner_point", inner)),
                  digamma(t) - digamma(inner), 1.0),
        one_sided("trigamma_vs_rational", (("t", t), ("sqrt_point", sqrt_pt)),
                  polygamma(1, sqrt_pt), rational, strict=False),
        one_sided("algebraic_rational_window", (("t", t), ("sqrt_point", sqrt_pt)),
                  w / (2.0 * t ** 3) + 1.0 / (sqrt_pt + 0.5), rational,
                  strict=False),
    ]


def point_major(table: CheckTable, ways: int) -> CheckTable:
    """table read as ways windows of equal length: row i of each in turn."""
    return table.take(np.arange(len(table)).reshape(ways, -1).T.ravel())


def lemma_suite(xs: np.ndarray) -> CheckTable:
    windows = CheckTable.concat([psi_log_bounds(xs), psi_upper_refinement(xs),
                                 *(polygamma_bounds(k, xs) for k in range(1, 7))])
    # the windows give their rows window by window; list each x's rows in turn
    return point_major(windows, len(windows) // len(xs))


# ---------------------------------------------------------------------------
# ballvol
# ---------------------------------------------------------------------------

_HALF_LOG_PI = 0.5 * math.log(math.pi)
_LOG_2 = math.log(2.0)


def _check_dim(n: int, minimum: int) -> int:
    """The old check plus the package's rule for an int beyond binary64."""
    if not isinstance(n, int) or isinstance(n, bool) or n < minimum:
        raise DomainError(f"dimension n must be an integer >= {minimum}, got {n!r}")
    if not is_finite(n):
        raise CapabilityError(f"dimension n = {n} is outside the double-precision range")
    return n


def log_omega(n: int) -> float:
    n = _check_dim(n, 0)
    return n * _HALF_LOG_PI - lngamma(1.0 + 0.5 * n)


def ball_ratio_checks(n: int) -> list[CheckResult]:
    n = _check_dim(n, 1)
    lo_n = log_omega(n)
    lo_n1 = log_omega(n + 1)
    lo_n2 = log_omega(n + 2)
    inputs = (("n", n),)
    ratio_skip = lo_n2 / (n + 2) - lo_n / n
    log_skip = math.log((n + 2.0) / (n + 4.0))
    ratio_adj = lo_n1 / (n + 1) - lo_n / n
    log_adj = math.log((n + 2.0) / (n + 3.0))
    sandwich_mid = (n / (n + 1.0)) * lo_n1
    results = [
        two_sided("ball_ratio_skip2_window", inputs + (("log_scale", 1.0),),
                  0.5 * log_skip, ratio_skip, 0.25 * log_skip),
        two_sided("ball_ratio_adjacent_window", inputs + (("log_scale", 1.0),),
                  0.5 * log_adj, ratio_adj, 0.25 * log_adj),
        two_sided("ball_sandwich_consecutive", inputs + (("log_scale", 1.0),),
                  _LOG_2 - _HALF_LOG_PI + sandwich_mid, lo_n,
                  0.5 + sandwich_mid, strict_lower=False),
    ]
    if n > 2:
        slack_lo = (n / 4.0) * (-log_adj) - (_LOG_2 - _HALF_LOG_PI)
        slack_up = 0.5 - (n / 2.0) * (-log_adj)
        results.append(one_sided(
            "ball_adjacent_refines_sandwich",
            inputs + (("slack_lower", slack_lo), ("slack_upper", slack_up),
                      ("log_scale", 1.0)),
            0.0, min(slack_lo, slack_up)))
    return results


def recurrence_check(n: int) -> CheckResult:
    n = _check_dim(n, 2)
    residual = log_omega(n) - (log_omega(n - 2) + math.log(2.0 * math.pi / n))
    return two_sided("ball_volume_recurrence",
                     (("n", n), ("log_scale", 1.0)),
                     -1e-12, residual, 1e-12, strict=False)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def first_violation(margin: np.ndarray, scale: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Row by row along the leading axis: the first flat index (C order) in
    the row where margin > 0 fails conclusively (-1 if none), and the count
    of failures before it that sit below the noise floor
    NOISE_FLOOR_REL * scale (a NaN margin or scale is conclusive)."""
    rows = len(margin)
    failing = ~(margin > 0.0).reshape(rows, -1)
    sub_floor = (np.abs(margin) < NOISE_FLOOR_REL * scale).reshape(rows, -1)
    conclusive = failing & ~sub_floor
    found = conclusive.any(axis=1)
    first = np.where(found, conclusive.argmax(axis=1), -1)
    # count each row's sub-floor failures in [row start, first) of the flat
    # order, or in the whole row when it has no violation
    size = failing.shape[1]
    starts = np.arange(rows) * size
    ends = starts + np.where(found, first, size)
    sub_floor_failures = np.flatnonzero(failing & sub_floor)
    return first, (np.searchsorted(sub_floor_failures, ends)
                   - np.searchsorted(sub_floor_failures, starts))


def search_certifier(y: float, k_max: int, grid):
    """certify(alpha, direction) of lcm_certifier(y, k_max, grid), found by
    searching table(alpha) with first_violation."""
    xs = grid_points(grid, y)
    table = hfamily.logh_deriv_table(k_max, y, xs)
    odd_sign = (-1.0) ** np.arange(1, k_max + 1)[:, None]  # (-1)^k

    def certify(alpha: float, direction) -> Certificate:
        direction = Direction(direction)
        params = HParams(alpha=alpha, y=y)
        signed, scales = table(params.alpha)
        signed *= odd_sign
        margin = signed if direction is Direction.LCM else -signed
        (first,), (undecided,) = first_violation(margin[None], scales[None])
        witness = None if first < 0 else DerivSample(
            k=int(first) // xs.size + 1, x=float(xs[first % xs.size]),
            value=float(signed.flat[first]))
        return Certificate(params=params, direction=direction, k_max=k_max, grid=grid,
                           verdict=Verdict.PASS if witness is None else Verdict.FAIL,
                           witness=witness, undecided_points=int(undecided))

    return certify
