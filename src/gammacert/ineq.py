"""Machine-checkable catalog of gamma-family inequalities: the row rules,
the gamma-ratio window and the gamma-difference bound with its proof chain.

Every operation evaluates one stated inequality at concrete inputs and returns
a CheckResult carrying both sides, the margin, and the verdict; a grid of
inputs gives a CheckTable, the same rows held as columns (both records live
in ``gammacert.checks``).  The digamma / polygamma windows of the lemma suite
live in ``gammacert.psiwindows`` and the auxiliary functions of the chained
sufficiency argument in ``gammacert.auxchain``.  Conventions:

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
from functools import partial

import numpy as np

from .checks import CheckResult, CheckTable, input_pairs, number
from .errors import (
    CapabilityError, DomainError, ParameterError, PrecisionError, as_integer, broadcast_points,
    first_bad_point, real_points, require_all, require_positive, require_real, require_type)
from .gammakit import digamma, gamma_rows, libm, lngamma, polygamma
from .means import DIAGONAL_REL_TOL, gen_log_mean, log_mean

__all__ = [
    "NOISE_REL",
    "THM2_T_MIN",
    "batir_ineq",
    "gamma_ratio_ineq",
    "log_upper_bound_ineq",
    "one_sided",
    "one_sided_rows",
    "psi_integral_mean_ineq",
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
# apply the same rule to a (window, point) stack of sides at once;
# stack_table lays any number of stacks out as one table.  The stacked forms
# and row_or_rows are package-internal: psiwindows and auxchain build their
# tables with them.

def one_sided_rows(name, inputs, lhs, rhs, strict=True) -> CheckTable:
    """one_sided over columns: row i checks lhs[i] < rhs[i].

    inputs holds (name, value) pairs.  Each value, lhs and rhs is one point
    or a 1-D column; a point repeats on every row.
    """
    labels, columns, (lhs, rhs) = _columns(name, inputs, lhs=lhs, rhs=rhs)
    require_type(strict, bool, "strict")
    return stack_table([(name, tuple(labels), strict)],
                       [one_sided_stack(0, columns, lhs, rhs, strict)])


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
    return stack_table([(name, (*labels, "mid"), strict and strict_lower)],
                       [two_sided_stack(0, columns, lower, mid, upper, strict, strict_lower)])


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


def one_sided_stack(key, columns, lhs, rhs, strict=True) -> tuple:
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


def two_sided_stack(key, columns, lower, mid, upper, strict=True, strict_lower=True) -> tuple:
    """The stack of windows lower < mid < upper by two_sided's rule, as in
    one_sided_stack; mid joins the input columns last."""
    with np.errstate(all="ignore"):
        m_lo = mid - lower
        m_up = upper - mid
        margin = np.where(m_up < m_lo, m_up, m_lo)  # min(m_lo, m_up): m_lo on a tie
        noise = NOISE_REL * np.maximum(np.maximum(abs(lower), abs(mid)), abs(upper))
        holds = _clears(m_lo, noise, strict_lower) & _clears(m_up, noise, strict)
        return key, [*columns, mid], lower, upper, margin, holds, abs(margin) <= noise


def row_or_rows(rows: CheckTable, *args) -> CheckResult | CheckTable:
    """The one row of a one-point call, else the table."""
    return rows[0] if all(np.ndim(v) == 0 for v in args) else rows


def _clears(margin, noise, strict: bool) -> np.ndarray:
    return margin > noise if strict else margin >= -noise


def stack_table(keys, stacks, point_major=False) -> CheckTable:
    """One table of the stacks of one_sided_stack and two_sided_stack, a
    row per window and point.

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
# gamma-ratio window derived from the monotonicity thresholds
# ---------------------------------------------------------------------------
#
# Every check builder of the catalogue (here, in psiwindows and in auxchain)
# takes one point or a 1-D grid for each of its point arguments and
# evaluates the whole grid at once.  The kernel takes the whole grid;
# + - * / and sqrt run in numpy, which rounds as Python floats and
# math.sqrt do.  Each power is libm's pow through gammakit.power
# (np.float_power, one C call per element); each log and log1p is libm's
# through gammakit.libm, one Python call per element, since np.log and
# np.log1p round differently in the last ulp.  So every row is bit for bit
# the row of its own one-point call.  A grid with a bad point raises the
# error that point raises alone (first_bad_point).

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
    return row_or_rows(rows, x, y, t, a, b)


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
    return row_or_rows(rows, t)


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
    return row_or_rows(rows, a, b)


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
    return row_or_rows(rows, s, t)


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
    return row_or_rows(rows, t)
