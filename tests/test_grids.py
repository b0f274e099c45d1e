"""Grid builders against their scalar referees (``tests/_referee.py``).

Every check builder that takes a grid must give, on a grid, the rows of its
one-point calls in turn, bit for bit, and, on a grid with a bad point, the
error type and message that the first bad point raises alone.  Fields are
compared by float.hex with their Python types, so a numpy float, a lost
sign of zero or a last-ulp difference shows.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import _referee as referee
from gammacert import (
    AuxFn,
    CapabilityError,
    CheckResult,
    CheckTable,
    DomainError,
    GridSpec,
    HParams,
    ParameterError,
    PrecisionError,
    aux_eval,
    ball_ratio_checks,
    batir_ineq,
    gamma_ratio_ineq,
    gen_log_mean,
    log_mean,
    log_omega,
    log_upper_bound_ineq,
    omega,
    polygamma_bounds,
    psi_integral_mean_ineq,
    psi_log_bounds,
    recurrence_check,
    suffice_chain,
    thm2_ineq,
)
from gammacert.certify import necessity_limits, scan_values
from gammacert.hfamily import (
    alpha_necessary_bound, log_h, logh_deriv_table, q_surface_table)
from gammacert.suites import ratio_samples

ERRORS = (CapabilityError, DomainError, ParameterError, PrecisionError)


def _hex(v) -> tuple[str, str]:
    return type(v).__name__, float(v).hex()


def _flat(result):
    """result with every float spelled by its type and float.hex."""
    if isinstance(result, CheckResult):
        return (result.name, tuple((n, _hex(v)) for n, v in result.inputs),
                _hex(result.lhs), _hex(result.rhs), _hex(result.margin),
                result.holds, result.strict)
    if isinstance(result, np.ndarray):
        return [_hex(v) for v in result.tolist()]
    if isinstance(result, (list, CheckTable)):
        return [_flat(r) for r in result]
    return _hex(result)


def _outcome(build):
    """_flat(build()), or the type and message of the package error it raises."""
    try:
        return _flat(build())
    except ERRORS as exc:
        return type(exc).__name__, str(exc)


def _each(scalar, points):
    """scalar(*point) for each point in turn, rows concatenated, values listed;
    the first point that raises ends it."""
    out = []
    for point in points:
        value = scalar(*point)
        out += value if isinstance(value, (list, CheckTable)) else [value]
    return out


def _check(grid, scalar, points, arity=1):
    """grid(*columns) against the per-point referee calls, and each point call."""
    columns = [list(c) for c in zip(*points)] if points else [[]] * arity
    assert _outcome(lambda: grid(*columns)) == _outcome(lambda: _each(scalar, points))
    for point in points:
        assert _outcome(lambda: grid(*point)) == _outcome(lambda: scalar(*point))


# A point is good or bad; the examples put a bad point first, in the middle
# and last, and give the empty grid.
_TEXT = st.sampled_from(("abc", None))


# ---------------------------------------------------------------------------
# gamma-ratio window
# ---------------------------------------------------------------------------

@st.composite
def _ratio_point(draw):
    y = draw(st.floats(-0.9, 5.0))
    t = 10.0 ** draw(st.floats(-2.0, 2.0))
    x = 10.0 ** draw(st.floats(-2.0, 3.0)) - (y + 1.0)
    kind = draw(st.sampled_from(("good",) * 6 + (
        "y", "t", "u1", "x0", "xt0", "text", "huge")))
    if kind == "y":
        y = draw(st.sampled_from((-1.0, -3.0, math.nan, math.inf)))
    elif kind == "t":
        t = draw(st.sampled_from((0.0, -1.0, math.nan, math.inf)))
    elif kind == "u1":
        x = -(y + 1.0) - draw(st.sampled_from((0.0, 0.5)))
    elif kind == "x0":
        x = 0.0
    elif kind == "xt0":
        x = -t if -t > -(y + 1.0) else 0.0
    elif kind == "text":
        x = draw(_TEXT)
    elif kind == "huge":  # lnGamma of x + y + 1 leaves binary64
        x = 1e306
    return x, y, t


_RATIO_GOOD, _RATIO_BAD = (2.0, 0.5, 3.0), (1.0, -1.0, 3.0)


@given(st.lists(_ratio_point(), max_size=6))
@example([])
@example([_RATIO_BAD, _RATIO_GOOD])
@example([_RATIO_GOOD, (0.0, 0.5, 3.0), (1e306, 0.5, 3.0)])
@example([_RATIO_GOOD, (-2.0, 0.5, 2.0)])  # x + t = 0
@example([_RATIO_GOOD, _RATIO_GOOD, ("abc", 0.5, 1.0)])
def test_gamma_ratio_grid_is_the_referee_point_by_point(points):
    _check(gamma_ratio_ineq, referee.gamma_ratio_ineq, points, arity=3)


@given(st.lists(_ratio_point(), max_size=4), st.floats(0.5, 4.0), st.floats(0.0, 1.5))
def test_gamma_ratio_grid_with_given_exponents(points, a, b):
    _check(lambda x, y, t: gamma_ratio_ineq(x, y, t, a=a, b=b),
           lambda x, y, t: referee.gamma_ratio_ineq(x, y, t, a=a, b=b), points, 3)


def test_gamma_ratio_broadcasts_a_point_against_a_grid():
    xs = [0.5, 2.0, 30.0]
    got = gamma_ratio_ineq(xs, 0.25, 1.5)
    assert _flat(got) == _flat([referee.gamma_ratio_ineq(x, 0.25, 1.5) for x in xs])
    assert isinstance(gamma_ratio_ineq(0.5, 0.25, 1.5), CheckResult)
    assert gamma_ratio_ineq([], [], []) == []


# ---------------------------------------------------------------------------
# the chain, the log1p bound and the auxiliary functions
# ---------------------------------------------------------------------------

_CHAIN_T = (st.floats(1e-3, 1.14)
            | st.sampled_from((0.0, -1.0, 8.0 / 7.0, 2.0, math.nan, math.inf, 1e-300,
                               "abc")))


@given(st.lists(_CHAIN_T, max_size=6))
@example([])
@example([0.0, 0.5])
@example([0.5, 1e-300, 0.7])
@example([0.5, 0.7, 8.0 / 7.0])
@example([1e-3, 0.3, 1.0, 8.0 / 7.0 * (1.0 - 1e-9)])  # the aux suite's t^3 range
def test_suffice_chain_grid_is_the_referee_point_by_point(ts):
    _check(suffice_chain, referee.suffice_chain, [(t,) for t in ts])


_LOG1P_T = (st.floats(1e-3, 1e6)
            | st.sampled_from((0.0, -1.0, math.nan, math.inf, 1e300, 1e-200, "abc")))


@given(st.lists(_LOG1P_T, max_size=6))
@example([])
@example([0.0, 1.0])
@example([1.0, 1e300, 2.0])
@example([1.0, 2.0, -1.0])
def test_log_upper_bound_grid_is_the_referee_point_by_point(ts):
    _check(log_upper_bound_ineq, referee.log_upper_bound_ineq, [(t,) for t in ts])


_AUX_T = (st.floats(-0.49, 100.0)
          | st.sampled_from((math.nan, math.inf, -0.5, -3.0, 1e52, 1e200, 1e308, "abc")))


@given(st.sampled_from(list(AuxFn)), st.lists(_AUX_T, max_size=6))
@example(AuxFn.QLOG, [])
@example(AuxFn.QLOG, [-0.5, 1.0])
@example(AuxFn.HPOLY, [1.0, 1e52, 2.0])
@example(AuxFn.QCUB, [1.0, 2.0, 1e200])
@example(AuxFn.QLOG, [1.0, math.nan, 1e308])
def test_aux_eval_grid_is_the_referee_point_by_point(fn, ts):
    _check(lambda t: aux_eval(fn, t), lambda t: referee.finite_aux_eval(fn, t),
           [(t,) for t in ts])


def test_aux_eval_checks_t_before_the_tag_at_each_point():
    with pytest.raises(ParameterError, match="unknown auxiliary function tag"):
        aux_eval("qcub", [1.0, math.nan])  # its first point has a finite t
    with pytest.raises(DomainError, match="t must be finite"):
        aux_eval("qcub", [math.nan, 1.0])


# ---------------------------------------------------------------------------
# mean-value windows and the means
# ---------------------------------------------------------------------------

_MEAN_ARG = (st.floats(1e-2, 1e2)
             | st.sampled_from((0.0, -1.0, math.nan, math.inf, "abc")))


@st.composite
def _mean_pair(draw):
    s, t = draw(_MEAN_ARG), draw(_MEAN_ARG)
    return (s, s) if draw(st.integers(0, 7)) == 0 else (s, t)


@given(st.sampled_from((0, 1)), st.lists(_mean_pair(), max_size=6),
       st.sampled_from((0.0, 1.0, 2.5)), st.sampled_from((0.0, 0.5, 3.0)))
@example(0, [], 0.0, 0.0)
@example(1, [(2.0, 2.0), (0.5, 2.5)], 0.0, 0.0)
@example(1, [(0.5, 2.5), (0.0, 1.0), (1.0, 3.0)], 1.0, 0.0)
@example(0, [(0.5, 2.5), (1.0, 3.0), (1.0, "abc")], 0.0, 3.0)
def test_psi_integral_mean_grid_is_the_referee_point_by_point(i, pairs, dp, dq):
    p, q = -i - 1 - dp, -i + dq
    _check(lambda s, t: psi_integral_mean_ineq(i, s, t, p, q),
           lambda s, t: referee.psi_integral_mean_ineq(i, s, t, p, q), pairs, 2)


def test_psi_integral_mean_grid_checks_its_orders_and_i():
    with pytest.raises(ParameterError, match=r"^order p must satisfy p <= -\(i\+1\) = -2"):
        psi_integral_mean_ineq(1, [1.0, 2.0], [3.0, 4.0], p=-1.5, q=-1.0)
    with pytest.raises(ParameterError, match="^i must be 0 or 1"):
        psi_integral_mean_ineq(2, [1.0], [3.0], p=-3.0, q=-2.0)


@given(st.lists(_mean_pair(), max_size=6))
@example([])
@example([(2.0, 1.0), (1.0, 1.0), (1.0, "abc")])  # a diagonal pair first
@example([(0.5, 2.0), (1.0, math.inf), (2.0, 2.0)])
def test_batir_grid_is_the_referee_point_by_point(pairs):
    _check(batir_ineq, referee.batir_ineq, pairs, 2)


def test_batir_grid_is_its_one_point_calls():
    # the aux suite's worked pairs in one call, field for field
    a, b = [2.0, 1.0, 1.0], [1.0, 2.0, 1.0 / 3.0]
    assert _flat(batir_ineq(a, b)) == [_flat(batir_ineq(*pair)) for pair in zip(a, b)]
    assert _flat(batir_ineq(np.array(a), 1.0 / 3.0)) == [
        _flat(batir_ineq(v, 1.0 / 3.0)) for v in a]
    # the first bad pair, a diagonal one, raises its own one-point error
    with pytest.raises(DomainError) as point:
        batir_ineq(1.5, 1.5)
    with pytest.raises(DomainError) as grid:
        batir_ineq([2.0, 1.5, 1.0], [1.0, 1.5, 0.0])
    assert str(grid.value) == str(point.value) == "a and b must be distinct, got a=1.5, b=1.5"


_EXPONENTS = (-7.0, -3.0, -2.0, -1.0 - 5e-10, -1.0, 0.0, 1e-10, 0.5, 1.0, 2.0, 7.0)
_WIDE = (st.floats(1e-300, 1e300) | st.sampled_from((5e-324, 1.7976931348623157e308)))


@st.composite
def _wide_pair(draw):
    a = draw(_WIDE | st.sampled_from((0.0, -1.0, math.nan, math.inf, "abc")))
    kind = draw(st.sampled_from(("free", "near", "same")))
    if kind == "near" and isinstance(a, float) and math.isfinite(a) and a > 0:
        return a, a * (1.0 + draw(st.floats(1e-15, 1e-3)))
    return (a, a) if kind == "same" else (a, draw(_WIDE))


@given(st.sampled_from(_EXPONENTS), st.lists(_wide_pair(), max_size=6))
@example(-2.0, [])
@example(-2.0, [(0.0, 1.0), (1.0, 2.0)])
@example(0.0, [(1.0, 2.0), (1.0, math.nan), (2.0, 3.0)])
@example(-7.0, [(1.0, 2.0), (5e-324, 1e300), (2.0, -1.0)])  # the ratio underflows
# a pair below 2**-968, scaled by 2**600: unscaled, the mean is an ulp low
@example(-1.0 - 2e-9, [(1e-300, 5.983321728796368e-300)])
def test_means_grid_is_the_referee_point_by_point(p, pairs):
    _check(lambda a, b: gen_log_mean(p, a, b),
           lambda a, b: referee.gen_log_mean(p, a, b), pairs, 2)
    _check(log_mean, referee.log_mean, pairs, 2)


def test_gen_log_mean_checks_its_exponent_before_its_points():
    for bad, shown in ((math.nan, "nan"), (math.inf, "inf")):
        with pytest.raises(DomainError, match=f"^p must be finite, got {shown}$"):
            gen_log_mean(bad, [1.0, -1.0], [2.0, 2.0])
    assert gen_log_mean(2.0, [], []).size == 0


# ---------------------------------------------------------------------------
# unit-ball volumes
# ---------------------------------------------------------------------------

_DIM = (st.integers(0, 400)
        | st.sampled_from((-1, True, 1.5, "2", None, 10 ** 400, 2 ** 53 + 1)))


@given(st.lists(_DIM, max_size=6))
@example([])
@example([0, 5])
@example([5, 1, 7])
@example([3, 4, 10 ** 400])
@example([2 ** 53 + 1, 2 ** 60 + 3])  # n + 1, n + 2 as exact ints
def test_ball_grids_are_the_referee_point_by_point(dims):
    points = [(n,) for n in dims]
    _check(log_omega, referee.log_omega, points)
    _check(ball_ratio_checks, referee.ball_ratio_checks, points)
    _check(recurrence_check, referee.recurrence_check, points)


def test_ball_grids_take_ranges_and_integer_arrays():
    assert _flat(ball_ratio_checks(range(1, 9))) == _flat(
        [r for n in range(1, 9) for r in referee.ball_ratio_checks(n)])
    assert _flat(recurrence_check(np.arange(2, 9))) == _flat(
        [referee.recurrence_check(n) for n in range(2, 9)])
    assert _flat(omega(np.arange(4))) == _flat([math.exp(referee.log_omega(n))
                                                for n in range(4)])
    with pytest.raises(DomainError, match="got 1.0$"):
        log_omega(np.array([1.0, 2.0]))


# x^k underflows, x^-(k+1) or z^(k+2) overflows, or x is no point at all
_POLY_X = (st.floats(1e-3, 1e6)
           | st.sampled_from((1e-320, 1e-110, 1e-60, 1e40, 1e62, 1e300, 0.0, -1.0, math.nan,
                              "abc")))


@given(st.integers(1, 6), st.lists(_POLY_X, max_size=6))
@example(1, [])
@example(1, [2.0, 1e-320])       # the kernel's shift power overflows
@example(3, [1.0, 2.0, 1e62])    # the kernel's z ** 5 overflows
@example(6, [1e-60, 0.5, 1e40])  # x ** 6 underflows; x ** 8 overflows
def test_polygamma_bounds_grid_is_its_one_point_calls(k, xs):
    # the grid gives its rows window by window; list each x's rows in turn
    _check(lambda x: referee.point_major(polygamma_bounds(k, x), 2),
           lambda x: polygamma_bounds(k, x), [(x,) for x in xs])


def test_polygamma_bounds_where_the_kernel_power_overflows():
    message = "polygamma(1, 1e-320) needs a power of x outside the double-precision range"
    for x in (1e-320, [1e-320], [1.0, 1e-320]):
        with pytest.raises(CapabilityError) as info:
            polygamma_bounds(1, x)
        assert str(info.value) == message


def test_gen_log_mean_power_stays_finite_at_its_widest_ratio():
    # ratio^(1/p) overflows nowhere: for p < -1 the ratio lies in
    # [float_info.min, 1] and |1/p| < 1, so the power is below 1/float_info.min;
    # for p > -1 the ratio and the exponent leave it at most 1.  The widest
    # case: p just below the log-mean branch, pairs spanning up to 310
    # decades, where the ratio nears float_info.min and the power 1.4e307.
    lo = np.full(400, 1e-300)
    hi = 10.0 ** np.linspace(-300.0, 10.0, 400)
    for p in (-1.0 - 2e-9, -2.0, -1.0 + 2e-9, 2e-9, 7.0):
        means = gen_log_mean(p, lo, hi)
        assert np.isfinite(means).all()
        assert _flat(means) == _flat(
            [gen_log_mean(p, a, b) for a, b in zip(lo.tolist(), hi.tolist())])


def test_window_grids_raise_what_their_first_bad_point_raises():
    # 1e-200 alone raises PrecisionError (12x^2 underflows): it comes before
    # the 0.0 that the argument check meets first
    with pytest.raises(PrecisionError, match="non-finite lhs"):
        psi_log_bounds([1.0, 1e-200, 0.0])
    with pytest.raises(CapabilityError, match=r"^polygamma\(3, 1e-110\)"):
        polygamma_bounds(3, [1.0, 1e-110, -1.0])


def test_keyword_grids_are_split_as_positional_ones():
    # x = 0 at point 1 is the first bad point, before a's "bad" there
    for call in (lambda: gamma_ratio_ineq([1.0, 0.0], 0.0, 1.0, [1.0, "bad"]),
                 lambda: gamma_ratio_ineq([1.0, 0.0], 0.0, 1.0, a=[1.0, "bad"]),
                 lambda: gamma_ratio_ineq(x=[1.0, 0.0], y=0.0, t=1.0, a=[1.0, "bad"])):
        with pytest.raises(DomainError, match=r"^x and x\+t must be nonzero"):
            call()


def test_a_record_is_one_argument_not_a_grid():
    with pytest.raises(DomainError, match=r"^a must be a finite positive real, got GridSpec\("):
        log_mean(GridSpec(1e-3, 5.0, 3), 2.0)
    with pytest.raises(DomainError, match=r"^x must be a real number, got HParams\("):
        alpha_necessary_bound(HParams(2.0, 1.0), 0.0)


# ---------------------------------------------------------------------------
# suite-level batching
# ---------------------------------------------------------------------------

def _per_draw_ratio_samples(count: int, seed: int) -> list[CheckResult]:
    """The samples drawn one scalar uniform at a time, checked one at a time."""
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []
    while len(out) < count:
        y = float(rng.uniform(-0.9, 5.0))
        t = float(10.0 ** rng.uniform(-2.0, 2.0))
        u1 = float(10.0 ** rng.uniform(-2.0, 3.0))
        x = u1 - (y + 1.0)
        if abs(x) < 1e-2 or abs(x + t) < 1e-2:
            continue
        out.append(referee.gamma_ratio_ineq(x, y, t))
    return out


@pytest.mark.parametrize("seed", [20260815, 1])
def test_ratio_samples_are_the_per_draw_samples(seed):
    assert _flat(ratio_samples(1000, seed)) == _flat(_per_draw_ratio_samples(1000, seed))


def test_ratio_samples_of_none_is_empty():
    assert ratio_samples(0) == []


@pytest.mark.parametrize("y", [-0.5, 0.0, 1.0, 5.0, -0.9, 3.3, 1e6])
def test_necessity_limits_are_the_one_point_probes(y):
    inner = -(y + 1.0) + 1e-6 * (y + 1.0)
    assert _flat(list(necessity_limits(y))) == _flat(
        [alpha_necessary_bound(inner, y), alpha_necessary_bound(1e6, y)])


# ---------------------------------------------------------------------------
# h-family tables, the threshold surface and the scanner
# ---------------------------------------------------------------------------

# a grid point may lie outside the domain, inside the exclusion zone, on the
# removable singularity x = 0 of B, beyond binary64 in the closed form, or
# not be a real number
_H_X = (st.floats(-1.5, 1e3)
        | st.sampled_from((0.0, 1e-4, -5e-4, -3.0, 1e200, math.nan, math.inf, "abc",
                           None)))


@given(st.integers(1, 4), st.floats(-0.9, 5.0), st.floats(-3.0, 3.0),
       st.lists(_H_X, max_size=6))
@example(1, 0.0, 0.0, [1.0])
@example(1, -0.7, 0.0, [1.0])
@example(2, 0.0, 1.0, [])
@example(2, 0.0, 1.0, [2.0, 1e-4, 0.0])  # the zone before the singularity
@example(2, 0.0, 1.0, [2.0, 0.0, 1e-4])
@example(3, 1.0, 0.5, [0.5, -3.0, "abc"])
@example(1, -0.9, 0.0, [2.0, 1e200, -3.0])
def test_h_tables_are_their_one_point_calls(k_max, y, alpha, xs):
    # the one-point call (a float x) is each builder's referee
    def table(x):
        values, scales = logh_deriv_table(k_max, y, x)(alpha)
        return list(np.concatenate([values, scales]).T)

    def q(x):
        return list(np.stack(q_surface_table(y, x)).T)

    def bound(x):
        return alpha_necessary_bound(x, y)

    points = [(x,) for x in xs]
    for build in (table, q, bound):
        _check(build, build, points)


_PAIR = st.builds(HParams, st.floats(-3.0, 3.0), st.floats(-0.999, 1e3))


@given(st.lists(st.tuples(_PAIR, _H_X), max_size=6))
@example([])
@example([(HParams(0.7, 0.3), 0.0), (HParams(1.0, 2.0), 3.0), (HParams(0.7, 0.3), -0.0)])
@example([(HParams(0.5, 0.0), 1.0), (HParams(0.5, 0.0), -2.0), (HParams(1.0, 0.0), "abc")])
@example([(HParams(0.5, 1.0), math.inf), (HParams(0.5, 0.0), math.nan)])
def test_log_h_grids_are_their_one_point_calls(points):
    # a grid of pairs against a grid of xs, then one pair against the xs
    _check(log_h, log_h, points, arity=2)
    params = points[0][0] if points else HParams(1.0, 0.0)
    _check(lambda x: log_h(params, x), lambda x: log_h(params, x), [(x,) for _, x in points])


def test_alpha_necessary_bound_checks_x_zero_before_y():
    with pytest.raises(DomainError, match="^alpha_necessary_bound is undefined at x = 0"):
        alpha_necessary_bound([0.0, 1.0], -2.0)
    with pytest.raises(DomainError, match="^y must be a finite real > -1, got -2.0$"):
        alpha_necessary_bound([1.0, 0.0], -2.0)


def _cells(alphas, ys):
    """scan_values' cells with every float spelled by float.hex, or the type
    and message of the package error it raises."""
    try:
        return [(c.alpha.hex(), c.y.hex(), c.classification, c.conjecture_zone,
                 c.reciprocal_violation) for c in scan_values(alphas, ys, 2, 20)]
    except ERRORS as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("alpha,y", [
    (1.0, 0.0), (0.3, -0.7), (2, 1), (math.inf, 0.0), (0.5, -2.0), ("a", 0.0),
    (0.5, "b")])
def test_scan_values_takes_one_alpha_or_one_y(alpha, y):
    assert _cells(alpha, [y]) == _cells([alpha], y) == _cells(alpha, y) == _cells(
        [alpha], [y])


# ---------------------------------------------------------------------------
# values outside binary64 are refused, not returned
# ---------------------------------------------------------------------------

def test_thm2_refuses_t_whose_two_t_squared_overflows():
    # at 1e154 2t^2 overflows: lhs was -0.0 against rhs -353.598, a false FAIL
    for t in (1e154, 1e200, 1.7976931348623157e308):
        with pytest.raises(CapabilityError,
                           match=f"^t = {re.escape(repr(t))} is too large"):
            thm2_ineq(t)
    with pytest.raises(CapabilityError, match=r"^t = 1e\+154 is too large"):
        thm2_ineq(np.array([1.0, 1e154, 1e-5]))
    # where 2t^2 is finite the sides agree to every digit: undecided, not failed
    assert thm2_ineq(1e153).inputs[-1] == ("margin_within_noise", 1.0)


@pytest.mark.parametrize("fn,t,value", [
    (AuxFn.HPOLY, 1e52, "inf"), (AuxFn.QCUB, 1e200, "inf"), (AuxFn.QLOG, 1e308, "nan"),
    (AuxFn.QCUB, -1e200, "-inf")])
def test_aux_eval_refuses_values_outside_binary64(fn, t, value):
    message = "^" + re.escape(f"{fn.name}({t!r}) = {value} is outside the "
                              "double-precision range") + "$"
    with pytest.raises(CapabilityError, match=message):
        aux_eval(fn, t)
    with pytest.raises(CapabilityError, match=message):
        aux_eval(fn, [1.0, t, 2.0 * t])


def test_ballvol_refuses_dimensions_beyond_binary64():
    big = 10 ** 400
    for call in (lambda: log_omega(big), lambda: omega(big),
                 lambda: ball_ratio_checks(big), lambda: recurrence_check(big),
                 lambda: ball_ratio_checks([3, big])):
        with pytest.raises(CapabilityError, match="^dimension n = 1000"):
            call()
