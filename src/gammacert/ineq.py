"""Machine-checkable catalog of gamma-family inequalities.

Every operation evaluates one stated inequality at concrete inputs and returns
a CheckResult carrying both sides, the margin, and the verdict; a grid of
inputs gives a CheckTable, the same rows held as columns (both records live
in ``gammacert.checks``).  Conventions:

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
from enum import Enum
from functools import partial

import numpy as np

from .checks import CheckResult, CheckTable, input_pairs, number
from .errors import (
    PACKAGE_ERRORS, CapabilityError, DomainError, ParameterError, PrecisionError, as_integer,
    broadcast_points, first_bad_point, is_real, real_points, require_all, require_positive,
    require_real, require_type)
from .gammakit import (
    EXP_NEG_EULER_GAMMA, check_order, digamma, gamma_rows, libm, lngamma, polygamma, power)
from .means import DIAGONAL_REL_TOL, gen_log_mean, log_mean

__all__ = [
    "AuxFn",
    "CHAIN_SUP",
    "NOISE_REL",
    "THM2_T_MIN",
    "aux_eval",
    "batir_ineq",
    "gamma_ratio_ineq",
    "lemma_windows",
    "log_upper_bound_ineq",
    "one_sided",
    "one_sided_rows",
    "polygamma_bounds",
    "psi_integral_mean_ineq",
    "psi_log_bounds",
    "psi_upper_refinement",
    "qcub_root",
    "suffice_chain",
    "thm2_ineq",
    "two_sided",
    "two_sided_rows",
]

#: Relative width of the floating-noise band around zero margin.
NOISE_REL = 1e-14

#: Smallest t that thm2_ineq evaluates.  The margin is about (2/3)t^2 of
#: sides about 1/t, and lnG(t/(1+2t)) - lnG(t) carries an absolute error of
#: about eps*ln(1/t): against mpmath the margin's relative error is 3e-3 at
#: t = 1e-4 and 0.7 at 1e-5, and below 1e-6 the verdict itself goes wrong.
THM2_T_MIN = 1e-4


def one_sided(name, inputs, lhs, rhs, strict=True) -> CheckResult:
    """Check lhs < rhs (lhs <= rhs if not strict) against the noise band."""
    lhs, rhs = require_real(lhs, "lhs"), require_real(rhs, "rhs")
    require_type(strict, bool, "strict")
    margin = rhs - lhs
    noise = NOISE_REL * max(abs(lhs), abs(rhs))
    holds = margin > noise if strict else margin >= -noise
    inputs = input_pairs(name, inputs)
    if abs(margin) <= noise:
        inputs += (CheckTable.MARKER,)
    return CheckResult(name=name, inputs=inputs, lhs=lhs, rhs=rhs,
                       margin=margin, holds=holds, strict=strict)


def two_sided(name, inputs, lower, mid, upper, strict=True,
              strict_lower=None) -> CheckResult:
    """Check lower < mid < upper; strict_lower (default: strict) sets the lower side."""
    lower, mid, upper = (require_real(lower, "lower"), require_real(mid, "mid"),
                         require_real(upper, "upper"))
    require_type(strict, bool, "strict")
    strict_lower = strict if strict_lower is None else require_type(strict_lower, bool,
                                                                    "strict_lower")
    m_lo = mid - lower
    m_up = upper - mid
    margin = min(m_lo, m_up)
    noise = NOISE_REL * max(abs(lower), abs(mid), abs(upper))
    lo_ok = m_lo > noise if strict_lower else m_lo >= -noise
    up_ok = m_up > noise if strict else m_up >= -noise
    inputs = input_pairs(name, inputs) + (("mid", mid),)
    if abs(margin) <= noise:
        inputs += (CheckTable.MARKER,)
    return CheckResult(name=name, inputs=inputs, lhs=lower, rhs=upper,
                       margin=margin, holds=lo_ok and up_ok,
                       strict=strict and strict_lower)


# The column forms apply the rule of one_sided / two_sided to whole columns
# and return a one-key CheckTable.  numpy rounds +, -, *, / and abs as Python
# floats do, so row i is the scalar check at row i, field for field.  The
# scalar forms stay: a one-element numpy call costs more than a whole scalar
# check.  They are the one-window case of the stacked forms below, which
# apply the same rule to a (window, point) stack of sides at once; _table
# lays any number of stacks out as one table.

def one_sided_rows(name, inputs, lhs, rhs, strict=True) -> CheckTable:
    """one_sided over columns: row i checks lhs[i] < rhs[i].

    inputs holds (name, value) pairs.  Each value, lhs and rhs is one point
    or a 1-D column; a point repeats on every row.
    """
    labels, columns, (lhs, rhs) = _columns(name, inputs, lhs=lhs, rhs=rhs)
    require_type(strict, bool, "strict")
    return _table([(name, tuple(labels), strict)], [_one_sided(0, columns, lhs, rhs, strict)])


def two_sided_rows(name, inputs, lower, mid, upper, strict=True,
                   strict_lower=None) -> CheckTable:
    """two_sided over columns: row i checks lower[i] < mid[i] < upper[i].

    inputs, points and columns as in one_sided_rows.
    """
    labels, columns, (lower, mid, upper) = _columns(name, inputs, lower=lower, mid=mid,
                                                    upper=upper)
    require_type(strict, bool, "strict")
    strict_lower = strict if strict_lower is None else require_type(strict_lower, bool,
                                                                    "strict_lower")
    return _table([(name, (*labels, "mid"), strict and strict_lower)],
                  [_two_sided(0, columns, lower, mid, upper, strict, strict_lower)])


def _columns(name, inputs, **sides) -> tuple[list[str], list[np.ndarray], list[np.ndarray]]:
    """(labels, input columns, side columns), every column of one length.

    Each input value and side goes through real_points, one point or a 1-D
    column: an input value by CheckResult's input rule (a numeric numpy
    column as a whole, so a non-finite one raises through CheckTable, in
    row order), a side by require_real.  Columns whose lengths do not
    broadcast raise ParameterError.
    """
    pairs = input_pairs(name, inputs)
    labels = [label for label, _ in pairs]
    columns = broadcast_points(
        f"check {name!r}: {', '.join([*labels, *sides])}",
        *(real_points(v, label, partial(number, name)) for label, v in pairs),
        *(real_points(v, side) for side, v in sides.items()))
    return labels, columns[:len(pairs)], columns[len(pairs):]


def _one_sided(key, columns, lhs, rhs, strict=True) -> tuple:
    """The stack of windows lhs < rhs (lhs <= rhs if not strict) by
    one_sided's rule: (key, columns, lhs, rhs, margin, holds, within).

    key is each window's index into the table's keys and columns its input
    values; each array is a (window, point) stack or broadcasts to the
    sides' shape.
    """
    with np.errstate(all="ignore"):  # inf and nan, as Python float arithmetic gives
        margin = rhs - lhs
        noise = NOISE_REL * np.maximum(abs(lhs), abs(rhs))
        return (key, columns, lhs, rhs, margin, _clears(margin, noise, strict),
                abs(margin) <= noise)


def _two_sided(key, columns, lower, mid, upper, strict=True, strict_lower=True) -> tuple:
    """The stack of windows lower < mid < upper by two_sided's rule, as in
    _one_sided; mid joins the input columns last."""
    with np.errstate(all="ignore"):
        m_lo = mid - lower
        m_up = upper - mid
        margin = np.where(m_up < m_lo, m_up, m_lo)  # min(m_lo, m_up): m_lo on a tie
        noise = NOISE_REL * np.maximum(np.maximum(abs(lower), abs(mid)), abs(upper))
        holds = _clears(m_lo, noise, strict_lower) & _clears(m_up, noise, strict)
        return key, [*columns, mid], lower, upper, margin, holds, abs(margin) <= noise


def _clears(margin, noise, strict: bool) -> np.ndarray:
    return margin > noise if strict else margin >= -noise


def _table(keys, stacks, point_major=False) -> CheckTable:
    """One table of the stacks of _one_sided and _two_sided, a row per
    window and point.

    keys holds the (name, input labels, strict) key of each window index.
    The rows come window by window, stack after stack, or with point_major
    each point's windows in turn; a window with fewer input columns than
    the widest pads its values with 0.0.  Each column is written once, in
    place, and the table holds it as it is.
    """
    width = max(len(stack[1]) for stack in stacks)
    shapes = [np.broadcast_shapes((1, 1), np.shape(lhs), np.shape(rhs))
              for _, _, lhs, rhs, *_ in stacks]
    windows, points = sum(shape[0] for shape in shapes), shapes[0][1]

    def column(dtype, *inner) -> np.ndarray:  # (window, point, *inner) zeros
        if point_major:  # laid out point by point in memory
            return np.zeros((points, windows, *inner), dtype).swapaxes(0, 1)
        return np.zeros((windows, points, *inner), dtype)

    out = [column(dtype) for dtype in (np.intp, float, float, float, bool, bool)]
    values = column(float, width)
    start = 0
    for (key, columns, *fields), shape in zip(stacks, shapes):
        rows = slice(start, start + shape[0])
        for column_out, field in zip(out, (key, *fields)):
            column_out[rows] = field
        for j, value in enumerate(columns):
            values[rows, :, j] = value
        start += shape[0]
    # ravel in memory order: a view, the rows in their layout's order
    key, lhs, rhs, margin, holds, within = (np.ravel(c, "K") for c in out)
    return CheckTable.holding(keys, key, np.ravel(values, "K").reshape(key.size, width),
                              lhs, rhs, margin, holds, within)


# ---------------------------------------------------------------------------
# digamma / polygamma windows
# ---------------------------------------------------------------------------
#
# Every check builder below takes one point or a 1-D grid for each of its
# point arguments and evaluates the whole grid at once.  The kernel takes
# the whole grid; + - * / and sqrt run in numpy, which rounds as Python
# floats and math.sqrt do.  Each power is libm's pow through
# gammakit.power (np.float_power, one C call per element); each log and
# log1p is libm's through gammakit.libm, one Python call per element, since
# np.log and np.log1p round differently in the last ulp.  So every row is
# bit for bit the row of its own one-point call.  A grid with a
# bad point raises the error that point raises alone (first_bad_point).
# psi_log_bounds and polygamma_bounds give their rows window by window, one
# row per point in grid order; lemma_windows lays the same windows out
# point by point, and the other builders give each point's rows in turn.

_PSI_KEYS = tuple((name, ("x", "mid"), True) for name in (
    "psi_between_log_offsets", "psi_between_shifted_logs", "psi_between_shifted_logs_sharp",
    "psi_second_order_window"))
_REFINEMENT_KEY = ("psi_sharp_upper_refines_shifted_log", ("x",), True)
_POWER_KEYS = tuple((name, ("k", "x", "mid"), True)
                    for name in ("polygamma_power_window", "polygamma_shifted_power_window"))
_LEMMA_ORDERS = range(1, 7)  # the orders of polygamma_bounds in lemma_windows
_LEMMA_SIGNS = np.array([[(-1.0) ** (k + 1)] for k in _LEMMA_ORDERS])


def _row_or_rows(rows: CheckTable, *args) -> CheckResult | CheckTable:
    """The one row of a one-point call, else the table."""
    return rows[0] if all(np.ndim(v) == 0 for v in args) else rows


def _shifted_uppers(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1/x, ln(x+1) - 1/x, ln(x+e^{-gamma}) - 1/x) at xs."""
    with np.errstate(all="ignore"):  # inf and nan, as Python float arithmetic gives
        inv = 1.0 / xs
        return inv, libm(math.log, xs + 1.0) - inv, libm(math.log, xs + EXP_NEG_EULER_GAMMA) - inv


def _psi_sides(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): the sides of psi_log_bounds' four windows at xs, one
    row per window."""
    inv, one, sharp = _shifted_uppers(xs)
    lx = libm(math.log, xs)
    log_half = libm(math.log, xs + 0.5)
    with np.errstate(all="ignore"):
        upper = lx - 0.5 * inv
        return (np.array([lx - inv, log_half - inv, log_half - inv,
                          upper - 1.0 / (12.0 * xs * xs)]), np.array([upper, one, sharp, upper]))


def _power_sides(ks, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): the sides of polygamma_bounds' two windows for each
    order in ks at xs, one row per window, each k's two in turn.  The orders
    share their powers of x."""
    x_pow = {e: power(xs, float(e)) for e in sorted({*ks, *(k + 1 for k in ks)})}
    one, half = xs + 1.0, xs + 0.5
    lower, upper = [], []
    with np.errstate(all="ignore"):
        for k in ks:
            km1f, kf = float(math.factorial(k - 1)), float(math.factorial(k))
            head, tail = km1f / x_pow[k], kf / x_pow[k + 1]
            lower += [head + 0.5 * tail, km1f / power(one, float(k)) + tail]
            upper += [head + tail, km1f / power(half, float(k)) + tail]
    return np.array(lower), np.array(upper)


@first_bad_point
def psi_log_bounds(x) -> CheckTable:
    """Four two-sided logarithmic windows around psi(x), x > 0.

    1. ln x - 1/x            < psi(x) < ln x - 1/(2x)
    2. ln(x+1/2) - 1/x       < psi(x) < ln(x+1) - 1/x
    3. ln(x+1/2) - 1/x       < psi(x) < ln(x+e^{-gamma}) - 1/x   (sharp shifts)
    4. ln x - 1/(2x) - 1/(12x^2) < psi(x) < ln x - 1/(2x)
    """
    xs = real_points(x, "x", require_positive)
    psi = digamma(xs)
    lower, upper = _psi_sides(xs)
    return _table(_PSI_KEYS, [_two_sided(np.arange(4)[:, None], [xs], lower, psi, upper)])


@first_bad_point
def psi_upper_refinement(x) -> CheckResult | CheckTable:
    """The sharp-shift upper bound is tighter: ln(x+e^{-gamma}) < ln(x+1).

    One point gives its CheckResult, a grid the table of rows.
    """
    xs = real_points(x, "x", require_positive)
    _, one, sharp = _shifted_uppers(xs)
    return _row_or_rows(_table([_REFINEMENT_KEY], [_one_sided(0, [xs], sharp, one)]), x)


@first_bad_point
def polygamma_bounds(k: int, x) -> CheckTable:
    """Two power windows around v = (-1)^{k+1} psi^(k)(x) > 0 for k >= 1, x > 0.

    1. (k-1)!/x^k + k!/(2x^{k+1})     < v < (k-1)!/x^k + k!/x^{k+1}
    2. (k-1)!/(x+1)^k + k!/x^{k+1}    < v < (k-1)!/(x+1/2)^k + k!/x^{k+1}
    """
    xs = real_points(x, "x", require_positive)
    k = check_order(k)
    v = (-1.0) ** (k + 1) * polygamma(k, xs)
    lower, upper = _power_sides([k], xs)
    return _table(_POWER_KEYS, [_two_sided(np.arange(2)[:, None], [float(k), xs], lower, v,
                                           upper)])


def lemma_windows(x) -> CheckTable:
    """The lemma suite at x > 0: psi_log_bounds, psi_upper_refinement and
    polygamma_bounds for k = 1..6, 17 rows per point.

    Each point's rows come in turn, in that order and each builder's windows
    in its order, and every row is the row of the builder's own call.  A
    grid with a bad point raises the error of the first of those builders
    that fails, at its first bad point: the builders run again, in order,
    when the one pass raises.
    """
    try:
        xs = real_points(x, "x", require_positive)
        rows = gamma_rows(range(_LEMMA_ORDERS[-1] + 1), xs)  # psi, then psi^(k) for k = 1..6
        psi, v = rows[0], rows[1:] * _LEMMA_SIGNS  # the magnitudes (-1)^(k+1) psi^(k)
        lower, upper = _psi_sides(xs)
        p_lower, p_upper = _power_sides(_LEMMA_ORDERS, xs)
        ks = np.repeat([float(k) for k in _LEMMA_ORDERS], 2)[:, None]
        return _table((*_PSI_KEYS, _REFINEMENT_KEY, *_POWER_KEYS), [
            _two_sided(np.arange(4)[:, None], [xs], lower, psi, upper),
            _one_sided(4, [xs], upper[2], upper[1]),
            _two_sided(np.tile([5, 6], len(_LEMMA_ORDERS))[:, None], [ks, xs], p_lower,
                       np.repeat(v, 2, axis=0), p_upper),
        ], point_major=True)
    except PACKAGE_ERRORS:
        psi_log_bounds(x)
        psi_upper_refinement(x)
        for k in _LEMMA_ORDERS:
            polygamma_bounds(k, x)
        raise


# ---------------------------------------------------------------------------
# gamma-ratio window derived from the monotonicity thresholds
# ---------------------------------------------------------------------------

@first_bad_point
def gamma_ratio_ineq(x, y, t, a=None, b=None) -> CheckResult | CheckTable:
    """Two-sided power bound on the shifted gamma-ratio quotient, in log space.

    ((x+y+1)/(x+y+t+1))^a < [G(x+y+1)/G(y+1)]^{1/x} / [G(x+y+t+1)/G(y+1)]^{1/(x+t)}
                          < ((x+y+1)/(x+y+t+1))^b

    valid for y > -1, x > -(y+1), t > 0 whenever a >= max{1, 1/(y+1)} and
    b <= min{1, 1/(2(y+1))}; those thresholds (lcm_threshold(y) and
    reciprocal_threshold(y)) are the defaults.  Each argument is one point
    or a 1-D grid: all points give one CheckResult, else a table, one row per point.
    """
    xs, ys, ts = real_points(x, "x"), real_points(y, "y"), real_points(t, "t")
    require_all(np.isfinite(ys) & (ys > -1.0), DomainError, "y must be > -1, got {!r}", ys)
    require_all(np.isfinite(ts) & (ts > 0.0), DomainError,
                "t must be a positive real, got {!r}", ts)
    xs, ys, ts = broadcast_points("x, y, t", xs, ys, ts)
    with np.errstate(all="ignore"):  # inf and nan, as Python float arithmetic gives
        u1 = xs + ys + 1.0
        require_all(np.isfinite(u1) & (u1 > 0.0), DomainError,
                    "x must exceed -(y+1), got x={!r}, y={!r}", xs, ys)
        require_all((xs != 0.0) & (xs + ts != 0.0), DomainError,
                    "x and x+t must be nonzero (1/x and 1/(x+t) exponents)")
        _, a_exp, b_exp = broadcast_points(
            "x, a, b", xs,
            np.maximum(1.0, 1.0 / (ys + 1.0)) if a is None else real_points(a, "a"),
            np.minimum(1.0, 0.5 / (ys + 1.0)) if b is None else real_points(b, "b"))
        u2 = u1 + ts
        lgy, lg1, lg2 = lngamma(np.concatenate([ys + 1.0, u1, u2])).reshape(3, -1)
        mid = (lg1 - lgy) / xs - (lg2 - lgy) / (xs + ts)
        log_ratio = libm(math.log, u1) - libm(math.log, u2)  # < 0 since t > 0
        rows = two_sided_rows(
            "gamma_ratio_power_window",
            (("x", xs), ("y", ys), ("t", ts), ("a", a_exp), ("b", b_exp),
             ("log_ratio", log_ratio), ("log_scale", 1.0)),
            a_exp * log_ratio, mid, b_exp * log_ratio)
    return _row_or_rows(rows, x, y, t, a, b)


# ---------------------------------------------------------------------------
# the gamma-difference quotient bound and its proof chain
# ---------------------------------------------------------------------------

@first_bad_point
def thm2_ineq(t) -> CheckResult | CheckTable:
    """(1+2t)/(2t^2) * [lnG(t/(1+2t)) - lnG(t)] < 1 - psi(t) for t > 0.

    One point gives its CheckResult, a 1-D grid the table of rows in grid
    order.  t below THM2_T_MIN raises PrecisionError, and t whose 2t^2
    overflows binary64 (above about 9.48e153) CapabilityError.
    """
    ts = real_points(t, "t", require_positive)
    require_all(ts >= THM2_T_MIN, PrecisionError, f"t = {{!r}} is below {THM2_T_MIN:g}: "
                "the lnGamma difference no longer resolves the margin", ts)
    with np.errstate(all="ignore"):
        two_t2 = 2.0 * ts * ts
        require_all(np.isfinite(two_t2), CapabilityError, "t = {!r} is too large: 2t^2 "
                    "is outside the double-precision range", ts)
        w = 1.0 + 2.0 * ts
        (lg_inner, lg_t), (_, psi) = gamma_rows((-1, 0), np.concatenate([ts / w, ts])
                                                ).reshape(2, 2, -1)
        rows = one_sided_rows("gamma_diff_quotient_vs_one_minus_psi", (("t", ts),),
                              w / two_t2 * (lg_inner - lg_t), 1.0 - psi)
    return _row_or_rows(rows, t)


@first_bad_point
def batir_ineq(a, b) -> CheckResult | CheckTable:
    """psi(L(a,b)) < (a-b) * (lnG(a) - lnG(b)) for a, b > 0, a != b.

    This is the log form of exp(psi(L(a,b))) < [G(a)/G(b)]^(a-b) with the
    exponent exactly as printed; the quotient reading (lnG(a)-lnG(b))/(a-b)
    is exposed in inputs under "rhs_exponent_quotient_form".  a and b are
    each one point or a 1-D grid: two points give one CheckResult, else a
    table, one row per pair.
    """
    aa, bb = broadcast_points("a, b", real_points(a, "a", require_positive),
                              real_points(b, "b", require_positive))
    require_all(abs(aa - bb) > DIAGONAL_REL_TOL * np.maximum(aa, bb), DomainError,
                "a and b must be distinct, got a={!r}, b={!r}", aa, bb)
    with np.errstate(all="ignore"):  # inf and nan, as Python float arithmetic gives
        lm = log_mean(aa, bb)
        lg_a, lg_b = lngamma(np.concatenate([aa, bb])).reshape(2, -1)
        dg = lg_a - lg_b
        rows = one_sided_rows(
            "psi_logmean_vs_gamma_ratio_power",
            (("a", aa), ("b", bb), ("log_mean", lm), ("lngamma_diff", dg),
             ("rhs_exponent_quotient_form", dg / (aa - bb)), ("log_scale", 1.0)),
            digamma(lm), (aa - bb) * dg)
    return _row_or_rows(rows, a, b)


@first_bad_point
def psi_integral_mean_ineq(i: int, s, t, p: float,
                           q: float) -> CheckResult | CheckTable:
    """Mean-value window for the integral mean of psi^(i), i in {0, 1}.

    (-1)^i psi^(i)(L_p(s,t)) <= (-1)^i [Psi_i(t) - Psi_i(s)]/(t-s)
                             <= (-1)^i psi^(i)(L_q(s,t))

    with antiderivatives Psi_0 = lnGamma, Psi_1 = psi, valid for p <= -i-1
    and q >= -i.  Non-strict per the source statement.  s and t are each one
    point or a 1-D grid: two points give one CheckResult, else a table, one
    row per pair.
    """
    if as_integer(i) not in (0, 1):
        raise ParameterError(
            f"i must be 0 or 1 (closed-form antiderivative needed), got {i!r}")
    i = int(i)
    ss, ts = broadcast_points("s, t", real_points(s, "s", require_positive),
                              real_points(t, "t", require_positive))
    require_all(abs(ss - ts) > DIAGONAL_REL_TOL * np.maximum(ss, ts), DomainError,
                "s and t must be distinct, got s={!r}, t={!r}", ss, ts)
    p, q = require_real(p, "p"), require_real(q, "q")
    if not p <= -i - 1:
        raise ParameterError(f"order p must satisfy p <= -(i+1) = {-i - 1}, got {p!r}")
    if not q >= -i:
        raise ParameterError(f"order q must satisfy q >= -i = {-i}, got {q!r}")
    sign = (-1.0) ** i
    anti = lngamma if i == 0 else digamma
    deriv = digamma if i == 0 else (lambda z: polygamma(1, z))
    with np.errstate(all="ignore"):
        anti_t, anti_s = anti(np.concatenate([ts, ss])).reshape(2, -1)
        mean = sign * (anti_t - anti_s) / (ts - ss)
        lower, upper = sign * deriv(np.concatenate([gen_log_mean(p, ss, ts),
                                                    gen_log_mean(q, ss, ts)])).reshape(2, -1)
        rows = two_sided_rows("psi_derivative_mean_value_window",
                              (("i", i), ("s", ss), ("t", ts), ("p", p), ("q", q)),
                              lower, mean, upper, strict=False)
    return _row_or_rows(rows, s, t)


@first_bad_point
def log_upper_bound_ineq(t) -> CheckResult | CheckTable:
    """ln(1+t) < t(t^2 + 12t + 12) / (6(t+1)(t+2)) for t > 0.

    The two sides agree through fourth Taylor order, so for tiny t the true
    O(t^5) margin sits below binary64 resolution and the check reports the
    in-noise marker instead of a resolved verdict.  One point gives its
    CheckResult, a 1-D grid the table of rows.
    """
    ts = real_points(t, "t", require_positive)
    with np.errstate(all="ignore"):
        rhs = ts * ((ts + 12.0) * ts + 12.0) / (6.0 * (ts + 1.0) * (ts + 2.0))
        rows = one_sided_rows("log1p_rational_bound", (("t", ts),),
                              libm(math.log1p, ts), rhs)
    return _row_or_rows(rows, t)


# ---------------------------------------------------------------------------
# auxiliary functions from the chained sufficiency argument
# ---------------------------------------------------------------------------

class AuxFn(Enum):
    """Tags for the auxiliary functions of the chained proof argument."""

    QLOG = "qlog"    # 4t - 3 ln(2t+1) - 1           on t > -1/2
    QCUB = "qcub"    # 3t^3 + 11t^2 + 3t - 3
    HPOLY = "hpoly"  # 9t^6 + 54t^5 + 55t^4 - 60t^3 - 93t^2 - 18t + 9


# The Horner bodies take a float or an array alike.

def _qcub(t):
    return ((3.0 * t + 11.0) * t + 3.0) * t - 3.0


def _hpoly(t):
    return ((((((9.0 * t + 54.0) * t + 55.0) * t - 60.0) * t - 93.0) * t
             - 18.0) * t + 9.0)


@first_bad_point
def aux_eval(fn: AuxFn, t) -> float | np.ndarray:
    """One of the auxiliary functions at t, one point (a float) or a 1-D grid
    (the array of the per-point values).  A value outside the binary64 range
    raises CapabilityError naming the function and t."""
    ts = real_points(t, "t")
    require_all(np.isfinite(ts), DomainError, "t must be finite, got {!r}", ts)
    with np.errstate(all="ignore"):
        if fn is AuxFn.QLOG:
            require_all(ts > -0.5, DomainError, "QLOG requires t > -1/2, got {!r}", ts)
            values = 4.0 * ts - 3.0 * libm(math.log1p, 2.0 * ts) - 1.0
        elif fn is AuxFn.QCUB:
            values = _qcub(ts)
        elif fn is AuxFn.HPOLY:
            values = _hpoly(ts)
        else:
            raise ParameterError(f"unknown auxiliary function tag {fn!r}")
    require_all(np.isfinite(values), CapabilityError,
                f"{fn.name}({{!r}}) = {{!r}} is outside the double-precision range",
                ts, values)
    return values[0].item() if np.ndim(t) == 0 else values


def qcub_root(tol: float = 1e-10) -> float:
    """Unique zero of QCUB in (1/3, 1), located by bisection to width tol."""
    if not (is_real(tol) and 0.0 < tol <= 1e-2):
        raise ParameterError(f"tol must be a float in (0, 1e-2], got {tol!r}")
    lo, hi = 1.0 / 3.0, 1.0
    if not (_qcub(lo) < 0.0 < _qcub(hi)):
        raise PrecisionError("QCUB bracket [1/3, 1] lost its sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent doubles: no tol below their gap is met
            break
        if _qcub(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: Right end of the interval (0, 8/7) on which the sufficiency chain holds.
CHAIN_SUP = 8.0 / 7.0


_CHAIN_KEYS = (("psi_diff_vs_one", ("t", "inner_point"), True),
               ("trigamma_vs_rational", ("t", "sqrt_point"), False),
               ("algebraic_rational_window", ("t", "sqrt_point"), False))


@first_bad_point
def suffice_chain(t) -> CheckTable:
    """The three chained sufficiency inequalities, valid on 0 < t < 8/7.

    1. psi(t) - psi(2t^2 / ((1+2t) ln(1+2t))) < 1                    (strict)
    2. psi'(sqrt(2t^3 / ((2t+1) ln(2t+1)))) <= R(t)                  (non-strict)
    3. (2t+1)ln(2t+1)/(2t^3) + 1/(sqrt(2t^3/((2t+1)ln(2t+1))) + 1/2)
                                           <= R(t)                   (non-strict)

    where R(t) = (2t+1)ln(2t+1) / (t [(2t+1)ln(2t+1) - 2t]).  t is one point
    or a 1-D grid; the rows come point by point, three per point.
    """
    ts = real_points(t, "t", require_positive)
    require_all(ts < CHAIN_SUP, DomainError, "t must lie in (0, 8/7), got {!r}", ts)
    with np.errstate(all="ignore"):
        w = (2.0 * ts + 1.0) * libm(math.log1p, 2.0 * ts)
        inner = 2.0 * ts * ts / w
        t_cubed = power(ts, 3.0)
        sqrt_pt = np.sqrt(2.0 * t_cubed / w)
        excess = w - 2.0 * ts  # about 2t^2: it cancels to zero for tiny t
        require_all(excess > 0.0, PrecisionError, "t = {!r} is too small: "
                    "(2t+1)ln(2t+1) - 2t cancels to zero", ts)
        rational = w / (ts * excess)
        (psi_t, psi_inner, _), (_, _, trigamma) = gamma_rows(
            (0, 1), np.concatenate([ts, inner, sqrt_pt])).reshape(2, 3, -1)
        algebraic = w / (2.0 * t_cubed) + 1.0 / (sqrt_pt + 0.5)
        return _table(_CHAIN_KEYS, [
            _one_sided(0, [ts, inner], psi_t - psi_inner, 1.0),
            _one_sided(1, [ts, sqrt_pt], trigamma, rational, strict=False),
            _one_sided(2, [ts, sqrt_pt], algebraic, rational, strict=False),
        ], point_major=True)
