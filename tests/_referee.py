"""Referees: the bodies that the package's grid builders and alpha cuts replaced.

Each check function below evaluates one point with Python floats and scalar
kernel calls, exactly as the package did before its check builders took
grids.  The tests hold every grid row, and every point call, to these
bodies bit for bit, and every bad point to the error that its body raises.
The one deliberate difference is documented where it is tested: the package
refuses a non-finite auxiliary value (``aux_eval``) with CapabilityError
where the old body returned it.

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
    CapabilityError, Certificate, DerivSample, Direction, DomainError, HParams,
    ParameterError, PrecisionError, Verdict, digamma, grid_points, lngamma,
    logh_deriv_table, polygamma)
from gammacert.certify import NOISE_FLOOR_REL
from gammacert.errors import is_finite, require_positive, require_real
from gammacert.hfamily import lcm_threshold, reciprocal_threshold
from gammacert.ineq import CHAIN_SUP, AuxFn, CheckResult, one_sided, two_sided
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
    r, log_gap = _gap(lo, hi)
    if abs(p) <= BRANCH_TOL:
        return hi * math.exp(log_gap / r - 1.0)
    base = hi if p > -1.0 else lo
    q = abs(p + 1.0)
    head = -math.expm1(-q * log_gap)
    ratio = head / (q * (hi - lo) / base)
    if ratio >= sys.float_info.min:
        return base * ratio ** (1.0 / p)
    return math.exp(math.log(base) + (math.log(head) - math.log(q) - math.log(hi - lo)
                                      + math.log(base)) / p)


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
    table = logh_deriv_table(k_max, y, xs)
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
