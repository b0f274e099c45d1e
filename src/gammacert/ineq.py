"""Machine-checkable catalog of gamma-family inequalities.

Every operation evaluates one stated inequality at concrete inputs and returns
a structured CheckResult carrying both sides, the margin, and the verdict.
Conventions:

- For a one-sided claim ``lhs < rhs``, margin = rhs - lhs.
- For a two-sided claim ``lower < mid < upper``, lhs/rhs store lower/upper,
  the middle quantity is recorded in inputs under "mid", and margin is the
  minimum of the two one-sided margins.
- Strict claims hold only when the margin clears a relative noise band
  (NOISE_REL times the largest compared magnitude).  A margin inside the band
  is reported as holds=False plus a ("margin_within_noise", 1.0) marker in
  inputs, so downstream reporting can distinguish "refuted" from "too close
  to call in binary64".  Non-strict claims tolerate the noise band.
- Ratio/power comparisons run in log space (the gamma function overflows
  binary64 near x = 171); a ("log_scale", 1.0) marker records that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DomainError, ParameterError, PrecisionError, require_positive, require_real)
from .gammakit import EXP_NEG_EULER_GAMMA, digamma, lngamma, polygamma
from .hfamily import lcm_threshold, reciprocal_threshold
from .means import DIAGONAL_REL_TOL, gen_log_mean, log_mean

__all__ = [
    "AuxFn",
    "CHAIN_SUP",
    "CheckResult",
    "NOISE_REL",
    "aux_eval",
    "batir_ineq",
    "gamma_ratio_ineq",
    "log_upper_bound_ineq",
    "one_sided",
    "polygamma_bounds",
    "psi_integral_mean_ineq",
    "psi_log_bounds",
    "psi_upper_refinement",
    "qcub_root",
    "suffice_chain",
    "thm2_ineq",
    "two_sided",
]

#: Relative width of the floating-noise band around zero margin.
NOISE_REL = 1e-14


@dataclass(frozen=True)
class CheckResult:
    """One evaluated inequality instance.

    For strict checks, holds means margin > noise band; margins inside the
    band carry a "margin_within_noise" marker in inputs instead of a verdict.
    Non-strict checks (strict=False) accept margins down to the band's floor.
    """

    name: str
    inputs: tuple[tuple[str, float], ...]
    lhs: float
    rhs: float
    margin: float
    holds: bool
    strict: bool = True

    def __post_init__(self) -> None:
        for label, v in (("lhs", self.lhs), ("rhs", self.rhs), ("margin", self.margin)):
            if not math.isfinite(v):
                raise PrecisionError(f"check {self.name!r}: non-finite {label} = {v!r}")


def _coerce_inputs(inputs) -> tuple[tuple[str, float], ...]:
    return tuple((str(n), float(v)) for n, v in inputs)


def one_sided(name, inputs, lhs, rhs, strict=True) -> CheckResult:
    """Check lhs < rhs (lhs <= rhs if not strict) against the noise band."""
    lhs, rhs = float(lhs), float(rhs)
    margin = rhs - lhs
    noise = NOISE_REL * max(abs(lhs), abs(rhs))
    holds = margin > noise if strict else margin >= -noise
    inputs = _coerce_inputs(inputs)
    if abs(margin) <= noise:
        inputs += (("margin_within_noise", 1.0),)
    return CheckResult(name=name, inputs=inputs, lhs=lhs, rhs=rhs,
                       margin=margin, holds=holds, strict=strict)


def two_sided(name, inputs, lower, mid, upper, strict=True,
              strict_lower=None) -> CheckResult:
    """Check lower < mid < upper; strict_lower (default: strict) sets the lower side."""
    lower, mid, upper = float(lower), float(mid), float(upper)
    if strict_lower is None:
        strict_lower = strict
    m_lo = mid - lower
    m_up = upper - mid
    margin = min(m_lo, m_up)
    noise = NOISE_REL * max(abs(lower), abs(mid), abs(upper))
    lo_ok = m_lo > noise if strict_lower else m_lo >= -noise
    up_ok = m_up > noise if strict else m_up >= -noise
    inputs = _coerce_inputs(inputs) + (("mid", mid),)
    if abs(margin) <= noise:
        inputs += (("margin_within_noise", 1.0),)
    return CheckResult(name=name, inputs=inputs, lhs=lower, rhs=upper,
                       margin=margin, holds=lo_ok and up_ok,
                       strict=strict and strict_lower)


# ---------------------------------------------------------------------------
# digamma / polygamma windows
# ---------------------------------------------------------------------------

def psi_log_bounds(x: float) -> list[CheckResult]:
    """Four two-sided logarithmic windows around psi(x), x > 0.

    1. ln x - 1/x            < psi(x) < ln x - 1/(2x)
    2. ln(x+1/2) - 1/x       < psi(x) < ln(x+1) - 1/x
    3. ln(x+1/2) - 1/x       < psi(x) < ln(x+e^{-gamma}) - 1/x   (sharp shifts)
    4. ln x - 1/(2x) - 1/(12x^2) < psi(x) < ln x - 1/(2x)
    """
    x = require_positive(x, "x")
    psi = digamma(x)
    lx = math.log(x)
    inv = 1.0 / x
    sharp = EXP_NEG_EULER_GAMMA
    inputs = (("x", x),)
    return [
        two_sided("psi_between_log_offsets", inputs,
                  lx - inv, psi, lx - 0.5 * inv),
        two_sided("psi_between_shifted_logs", inputs,
                  math.log(x + 0.5) - inv, psi, math.log(x + 1.0) - inv),
        two_sided("psi_between_shifted_logs_sharp", inputs,
                  math.log(x + 0.5) - inv, psi, math.log(x + sharp) - inv),
        two_sided("psi_second_order_window", inputs,
                  lx - 0.5 * inv - 1.0 / (12.0 * x * x), psi, lx - 0.5 * inv),
    ]


def psi_upper_refinement(x: float) -> CheckResult:
    """The sharp-shift upper bound is tighter: ln(x+e^{-gamma}) < ln(x+1)."""
    x = require_positive(x, "x")
    inv = 1.0 / x
    return one_sided("psi_sharp_upper_refines_shifted_log", (("x", x),),
                     math.log(x + EXP_NEG_EULER_GAMMA) - inv,
                     math.log(x + 1.0) - inv)


def polygamma_bounds(k: int, x: float) -> list[CheckResult]:
    """Two power windows around v = (-1)^{k+1} psi^(k)(x) > 0 for k >= 1, x > 0.

    1. (k-1)!/x^k + k!/(2x^{k+1})     < v < (k-1)!/x^k + k!/x^{k+1}
    2. (k-1)!/(x+1)^k + k!/x^{k+1}    < v < (k-1)!/(x+1/2)^k + k!/x^{k+1}
    """
    x = require_positive(x, "x")
    v = (-1.0) ** (k + 1) * polygamma(k, x)
    km1f = float(math.factorial(k - 1))
    kf = float(math.factorial(k))
    tail = kf / x ** (k + 1)
    inputs = (("k", k), ("x", x))
    return [
        two_sided("polygamma_power_window", inputs,
                  km1f / x ** k + 0.5 * tail, v, km1f / x ** k + tail),
        two_sided("polygamma_shifted_power_window", inputs,
                  km1f / (x + 1.0) ** k + tail, v,
                  km1f / (x + 0.5) ** k + tail),
    ]


# ---------------------------------------------------------------------------
# gamma-ratio window derived from the monotonicity thresholds
# ---------------------------------------------------------------------------

def gamma_ratio_ineq(x: float, y: float, t: float,
                     a: float | None = None, b: float | None = None) -> CheckResult:
    """Two-sided power bound on the shifted gamma-ratio quotient, in log space.

    ((x+y+1)/(x+y+t+1))^a < [G(x+y+1)/G(y+1)]^{1/x} / [G(x+y+t+1)/G(y+1)]^{1/(x+t)}
                          < ((x+y+1)/(x+y+t+1))^b

    valid for y > -1, x > -(y+1), t > 0 whenever a >= max{1, 1/(y+1)} and
    b <= min{1, 1/(2(y+1))}; those thresholds are the defaults.
    """
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
    log_ratio = math.log(u1) - math.log(u2)  # < 0 since t > 0
    return two_sided(
        "gamma_ratio_power_window",
        (("x", x), ("y", y), ("t", t), ("a", a), ("b", b),
         ("log_ratio", log_ratio), ("log_scale", 1.0)),
        a * log_ratio, mid, b * log_ratio)


# ---------------------------------------------------------------------------
# the gamma-difference quotient bound and its proof chain
# ---------------------------------------------------------------------------

def thm2_ineq(t: float) -> CheckResult:
    """(1+2t)/(2t^2) * [lnG(t/(1+2t)) - lnG(t)] < 1 - psi(t) for t > 0."""
    t = require_positive(t, "t")
    w = 1.0 + 2.0 * t
    if t / w == t:
        raise PrecisionError(f"t = {t!r} is too small: t/(1+2t) rounds to t, "
                             "so the lnGamma difference is lost")
    lhs = w / (2.0 * t * t) * (lngamma(t / w) - lngamma(t))
    rhs = 1.0 - digamma(t)
    return one_sided("gamma_diff_quotient_vs_one_minus_psi", (("t", t),),
                     lhs, rhs)


def batir_ineq(a: float, b: float) -> CheckResult:
    """psi(L(a,b)) < (a-b) * (lnG(a) - lnG(b)) for a, b > 0, a != b.

    This is the log form of exp(psi(L(a,b))) < [G(a)/G(b)]^(a-b) with the
    exponent exactly as printed; the quotient reading (lnG(a)-lnG(b))/(a-b)
    is exposed in inputs under "rhs_exponent_quotient_form".
    """
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


def psi_integral_mean_ineq(i: int, s: float, t: float,
                           p: float, q: float) -> CheckResult:
    """Mean-value window for the integral mean of psi^(i), i in {0, 1}.

    (-1)^i psi^(i)(L_p(s,t)) <= (-1)^i [Psi_i(t) - Psi_i(s)]/(t-s)
                             <= (-1)^i psi^(i)(L_q(s,t))

    with antiderivatives Psi_0 = lnGamma, Psi_1 = psi, valid for p <= -i-1
    and q >= -i.  Non-strict per the source statement.
    """
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
    """ln(1+t) < t(t^2 + 12t + 12) / (6(t+1)(t+2)) for t > 0.

    The two sides agree through fourth Taylor order, so for tiny t the true
    O(t^5) margin sits below binary64 resolution and the check reports the
    in-noise marker instead of a resolved verdict.
    """
    t = require_positive(t, "t")
    rhs = t * ((t + 12.0) * t + 12.0) / (6.0 * (t + 1.0) * (t + 2.0))
    return one_sided("log1p_rational_bound", (("t", t),), math.log1p(t), rhs)


# ---------------------------------------------------------------------------
# auxiliary scalar functions from the chained sufficiency argument
# ---------------------------------------------------------------------------

class AuxFn(Enum):
    """Tags for the scalar helper functions of the chained proof argument."""

    QLOG = "qlog"    # 4t - 3 ln(2t+1) - 1           on t > -1/2
    QCUB = "qcub"    # 3t^3 + 11t^2 + 3t - 3
    HPOLY = "hpoly"  # 9t^6 + 54t^5 + 55t^4 - 60t^3 - 93t^2 - 18t + 9


def aux_eval(fn: AuxFn, t: float) -> float:
    """Evaluate one of the auxiliary scalar functions at t."""
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


def qcub_root(tol: float = 1e-10) -> float:
    """Unique zero of QCUB in (1/3, 1), located by bisection to width tol."""
    if not (isinstance(tol, float) and 0.0 < tol <= 1e-2):
        raise ParameterError(f"tol must be a float in (0, 1e-2], got {tol!r}")
    lo, hi = 1.0 / 3.0, 1.0
    flo = aux_eval(AuxFn.QCUB, lo)
    if not (flo < 0.0 < aux_eval(AuxFn.QCUB, hi)):
        raise PrecisionError("QCUB bracket [1/3, 1] lost its sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if aux_eval(AuxFn.QCUB, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: Right end of the interval (0, 8/7) on which the sufficiency chain holds.
CHAIN_SUP = 8.0 / 7.0


def suffice_chain(t: float) -> list[CheckResult]:
    """The three chained sufficiency inequalities, valid on 0 < t < 8/7.

    1. psi(t) - psi(2t^2 / ((1+2t) ln(1+2t))) < 1                    (strict)
    2. psi'(sqrt(2t^3 / ((2t+1) ln(2t+1)))) <= R(t)                  (non-strict)
    3. (2t+1)ln(2t+1)/(2t^3) + 1/(sqrt(2t^3/((2t+1)ln(2t+1))) + 1/2)
                                           <= R(t)                   (non-strict)

    where R(t) = (2t+1)ln(2t+1) / (t [(2t+1)ln(2t+1) - 2t]).
    """
    t = require_positive(t, "t")
    if t >= CHAIN_SUP:
        raise DomainError(f"t must lie in (0, 8/7), got {t!r}")
    w = (2.0 * t + 1.0) * math.log1p(2.0 * t)
    inner = 2.0 * t * t / w
    sqrt_pt = math.sqrt(2.0 * t ** 3 / w)
    excess = w - 2.0 * t  # about 2t^2: it cancels to zero for tiny t
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
