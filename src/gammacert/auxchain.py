"""The auxiliary chain behind Theorem 2's sufficiency proof, and the aux suite.

The auxiliary functions of the chained argument (AuxFn, aux_eval,
qcub_root), the three chained inequalities on 0 < t < CHAIN_SUP
(suffice_chain), the finite-difference cross-check of the closed-form
log-derivatives of ``gammacert.hfamily``, and worked_checks, the checks of
the aux suite, which also runs ``gammacert.ineq``'s Batir, integral-mean
and ln(1+t) builders on their worked cases.  The builders follow the
catalogue's conventions, stated in ``ineq``.  Only the aux suite loads this
module.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate

import numpy as np

from .checks import CheckTable
from .errors import (
    PACKAGE_ERRORS, CapabilityError, DomainError, ParameterError, PrecisionError, as_grid,
    first_bad_point, integer_in, is_real, real_points, require_all, require_positive,
    require_real, require_type)
from .gammakit import gamma_rows, libm, power
from .hfamily import log_h, logh_deriv_table, stacked
from .ineq import (
    batir_ineq, log_upper_bound_ineq, one_sided, one_sided_rows, one_sided_stack,
    psi_integral_mean_ineq, stack_table, two_sided)
from .records import HParams

__all__ = [
    "AuxFn",
    "CHAIN_SUP",
    "aux_eval",
    "finite_diff_crosscheck",
    "finite_diff_crosschecks",
    "qcub_root",
    "suffice_chain",
]


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
        return stack_table(_CHAIN_KEYS, [
            one_sided_stack(0, [ts, inner], psi_t - psi_inner, 1.0),
            one_sided_stack(1, [ts, sqrt_pt], trigamma, rational, strict=False),
            one_sided_stack(2, [ts, sqrt_pt], algebraic, rational, strict=False),
        ], point_major=True)


# ---------------------------------------------------------------------------
# closed-form log-derivatives against finite differences
# ---------------------------------------------------------------------------

def finite_diff_crosscheck(k: int, params: HParams, x: float,
                           step: float = 1e-5) -> float:
    """Relative residual between the closed-form derivative and a central
    finite difference of the next-lower order (ln h itself for k = 1)."""
    return finite_diff_crosschecks([(k, params, x, step)])[0]


def finite_diff_crosschecks(cells) -> list[float]:
    """finite_diff_crosscheck(k, params, x, step) for each cell (k, params,
    x, step) of the sequence cells, from one derivative table stacked over
    the cells: order k at x, and for k >= 2 order k - 1 at x - step and
    x + step (for k = 1, ln h itself, every such cell's from one log_h
    call).  A batch that raises is checked again one cell at a time, so it
    raises what its first failing cell raises alone."""
    cells = as_grid(cells)
    if cells is None:
        raise ParameterError("cells must be a sequence of (k, params, x, step) cells")
    try:
        checked = []
        for cell in cells:
            if not (isinstance(cell, (tuple, list)) and len(cell) == 4):
                raise ParameterError(f"a cell must be (k, params, x, step), got {cell!r}")
            k, params, x, step = cell
            k = integer_in(k, "k", 1, 4)
            require_type(params, HParams, "params")
            step = require_real(step, "step")
            if not (math.isfinite(step) and step > 0.0):
                raise ParameterError(f"step must be a positive real, got {step!r}")
            checked.append((k, params, require_real(x, "x"), step))
        if not checked:
            return []
        xss = [[x] if k == 1 else [x - step, x, x + step] for k, _, x, step in checked]
        sizes = [len(xs) for xs in xss]
        table = logh_deriv_table(max(k for k, *_ in checked),
                                 stacked([p.y for _, p, _, _ in checked], sizes),
                                 np.concatenate(xss))
        values, _ = table(stacked([p.alpha for _, p, _, _ in checked], sizes))
        firsts = [(params, x, step) for k, params, x, step in checked if k == 1]
        # order 0 is ln h itself: every k = 1 cell's ln h at x - step and x + step
        ends = iter(log_h([p for p, _, _ in firsts for _ in (0, 1)],
                          [v for _, x, step in firsts for v in (x - step, x + step)]).tolist())
        residuals = []
        for (k, params, x, step), stop in zip(checked, accumulate(sizes)):
            if k == 1:
                value = float(values[0, stop - 1])
                lo, hi = next(ends), next(ends)
            else:
                value, lo, hi = (float(v) for v in (values[k - 1, stop - 2],
                                                    values[k - 2, stop - 3],
                                                    values[k - 2, stop - 1]))
            fd = (hi - lo) / (2.0 * step)
            residuals.append(abs(value - fd) / max(1.0, abs(value)))
        return residuals
    except PACKAGE_ERRORS:
        if len(cells) == 1:
            raise
        return [r for cell in cells for r in finite_diff_crosschecks([cell])]


# ---------------------------------------------------------------------------
# the aux suite
# ---------------------------------------------------------------------------

def worked_checks() -> CheckTable:
    """The aux suite: the auxiliary functions' spot values, signs and root,
    the chain, and the worked cases of the chain's companion inequalities
    and of the finite-difference cross-check."""
    out: list = []  # tables and single rows, joined at the end
    third = 1.0 / 3.0

    # exact spot values of the auxiliary polynomials (abs tol for the cubic,
    # rel tol for the sextic whose values are O(1)..O(10))
    spots = (
        ("aux_cubic_spot_value", AuxFn.QCUB, (0.0, 1.0, third),
         (-3.0, 14.0, -2.0 / 3.0), (1e-12,) * 3),
        ("aux_polynomial_spot_value", AuxFn.HPOLY, (third, CHAIN_SUP),
         (-700.0 / 81.0, -404759.0 / 117649.0),
         (1e-12 * (700.0 / 81.0), 1e-12 * (404759.0 / 117649.0))))
    for name, fn, ts, expected, tol in spots:
        values = aux_eval(fn, np.array(ts))
        out.append(one_sided_rows(name, (("t", ts), ("expected", expected),
                                         ("value", values), ("tolerance", tol)),
                                  abs(values - expected), tol, strict=False))

    # the logarithmic helper is barely positive at t = 8/7 ...
    out.append(two_sided("aux_qlog_band", (("t", CHAIN_SUP),),
                         0.002, aux_eval(AuxFn.QLOG, CHAIN_SUP), 0.003))
    # ... positive from there on, and increasing beyond t = 1/4
    ts = np.geomspace(CHAIN_SUP, 1e3, 100)
    out.append(one_sided_rows("aux_qlog_positive_from_chain_sup", (("t", ts),),
                              0.0, aux_eval(AuxFn.QLOG, ts)))
    ts = np.geomspace(0.26, 1e3, 100)
    values = aux_eval(AuxFn.QLOG, ts)
    out.append(one_sided_rows("aux_qlog_increasing_beyond_quarter",
                              (("t_lo", ts[:-1]), ("t_hi", ts[1:])), values[:-1],
                              values[1:]))

    # cubic root bracket and residual
    root = qcub_root(1e-10)
    out.append(two_sided("aux_cubic_root_bracket",
                         (("root", root),), third, root, 1.0))
    out.append(one_sided("aux_cubic_root_residual",
                         (("root", root),),
                         abs(aux_eval(AuxFn.QCUB, root)), 1e-8, strict=False))

    # the sextic stays negative across the open chain interval
    ts = np.linspace(third, CHAIN_SUP, 102)[1:-1]
    out.append(one_sided_rows("aux_polynomial_negative_interior", (("t", ts),),
                              aux_eval(AuxFn.HPOLY, ts), 0.0))

    # chained sufficiency inequalities across (0, 8/7)
    out.append(suffice_chain(np.geomspace(1e-3, CHAIN_SUP * (1.0 - 1e-9), 100)))

    # digamma-at-log-mean bound, printed product form, on its worked pairs
    # (the product form does not hold for arbitrary pairs; see the quotient
    # reading exposed in the result inputs)
    out.append(batir_ineq(np.array([2.0, 1.0, 1.0]), np.array([1.0, 2.0, third])))

    # mean-value windows for integral means of psi and psi' on worked pairs
    # (p = -i-1, q = -i) ...
    s = np.array([0.5, 1.0, 2.0, 0.25])
    t = np.array([2.5, 3.0, 7.0, 0.75])
    out.append(psi_integral_mean_ineq(0, s, t, p=-1.0, q=0.0))
    # ... and along the chain's own pairs s = 2t^2/((2t+1)ln(2t+1)) < t,
    # whose p = -2 lower point is exactly the chain's sqrt evaluation point
    ts = np.geomspace(1e-2, 1e2, 100)
    w = (2.0 * ts + 1.0) * libm(math.log1p, 2.0 * ts)
    out.append(psi_integral_mean_ineq(1, np.concatenate([s, 2.0 * ts * ts / w]),
                                      np.concatenate([t, ts]), p=-2.0, q=-1.0))

    # rational upper bound for ln(1+t)
    out.append(log_upper_bound_ineq(np.geomspace(1e-2, 1e3, 200)))

    # closed-form derivatives against central finite differences
    fd_cases = (
        (1, 1.0, 0.0, 1.0, 1e-5),
        (2, 2.0, 1.0, 3.0, 1e-4),
        (3, 0.5, -0.5, 2.0, 1e-4),
        (4, 1.5, 0.0, 5.0, 1e-3),
        (1, 0.0, 0.0, 10.0, 1e-5),
        (2, 1.0, 4.0, 0.5, 1e-4),
    )
    residuals = finite_diff_crosschecks([(k, HParams(alpha, y), x, step)
                                         for k, alpha, y, x, step in fd_cases])
    for (k, alpha, y, x, step), residual in zip(fd_cases, residuals):
        out.append(one_sided(
            "logh_derivative_matches_finite_difference",
            (("k", k), ("alpha", alpha), ("y", y), ("x", x),
             ("step", step), ("residual", residual)),
            residual, 1e-6, strict=False))
    return CheckTable.concat(out)
