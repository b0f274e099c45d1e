"""The kernel, the derivative-table layer and the lemma suite against their
referee bodies, bit for bit.

``lngamma``, ``digamma``, ``polygamma`` and ``gamma_table`` share one
order-major body, ``logh_deriv_table`` runs in order-major passes, and
``lemma_windows`` builds the lemma suite in one pass; ``tests/_referee.py``
keeps the bodies they replaced.  Every returned array must have the
referee's bits (compared as int64 views, so a signed zero or a NaN payload
counts too), a float its type and bits, a check table its keys too, and
every error its type and message.

A table stacked over several ys (one y per x) is held to the one-y tables
of its blocks, and the certificate entries on a grid of ys to their one-y
calls, in the same way; a batch that fails raises what its first failing y
raises alone.  thm1 builds one table, whose last columns are its limit
probes, and its limit rows are necessity_limits' own.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _referee as referee
from gammacert import (
    CapabilityError, CheckTable, Direction, DomainError, GridSpec, HParams, ParameterError,
    PrecisionError, X_EPSILON, certify, certify_lcm, finite_diff_crosscheck,
    finite_diff_crosschecks, hfamily, lcm_certifier, lemma_windows, necessity_limits, verify_thm3)
from gammacert.certify import default_grid, grid_points
from gammacert.checks import DEFAULT_POINTS
from gammacert.cli import build_suite
from gammacert.errors import log_grid
from gammacert.gammakit import (
    MAX_DERIV_ORDER, digamma, gamma_rows, gamma_table, lngamma, polygamma)
from gammacert.ineq import one_sided
from gammacert.suites import LIMIT_YS

ERRORS = (CapabilityError, DomainError, ParameterError, PrecisionError)


def _bits(value):
    """value's arrays as (shape, int64 view) pairs; a DerivTable by its fields."""
    if isinstance(value, hfamily.DerivTable):
        return value.y, _bits((value.core, value.core_scale, value.u_pow, value.alpha_coef))
    if isinstance(value, CheckTable):
        columns = [getattr(value, name) for name in CheckTable.__slots__[1:]]
        return value.keys, [_bits(c) if c.dtype == np.float64 else (c.dtype, c.tolist())
                            for c in columns]
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):  # np.float64 too, told apart by its type name
        return type(value).__name__, value.hex()
    assert value.dtype == np.float64
    return value.shape, value.view(np.int64).tolist()


def _outcome(build, errors=ERRORS):
    try:
        return _bits(build())
    except errors as exc:
        return type(exc).__name__, str(exc)


def _same(build, refer, errors=ERRORS):
    with np.errstate(all="ignore"):
        assert _outcome(build, errors) == _outcome(refer, errors)


# positive points on both sides of the shift threshold, the points that
# overflow a power or a shift sum, and a few that no table takes
_POINT = (st.floats(1e-300, 1e6)
          | st.sampled_from((15.999999999999998, 16.0, 16.000000000000004, 1e-300,
                             5e-324, 1e-320, 1e22, 1e200, 1.7976931348623157e308)))
_U = st.lists(_POINT, max_size=12)


@given(st.integers(1, MAX_DERIV_ORDER + 1), _U)
@example(8, [3.0, 0.5, 20.0, 1e-3, 15.0])  # unsorted
@example(13, [15.999999999999998, 16.0])  # straddles the threshold
@example(5, [16.0, 17.5, 1e5])  # no point steps
@example(1, [0.25])
@example(13, [])
@example(3, [2.0, 1e-300, 5.0])  # a shift sum overflows
@example(12, [1e30, 1.0])  # a series power overflows
@example(2, [1.0, 0.0, -1.0])  # no table takes these
def test_gamma_table_is_the_referee(n_psi, u):
    _same(lambda: gamma_table(n_psi, u), lambda: referee.gamma_table(n_psi, u))
    _same(lambda: gamma_table(n_psi, np.array(u)),
          lambda: referee.gamma_table(n_psi, np.array(u)))


def _kernel(k: int):
    """(package function, referee scalar body) pairs: lnGamma, psi and psi^(k)."""
    return ((lngamma, referee.lngamma), (digamma, referee.digamma),
            (lambda x: polygamma(k, x), lambda x: referee.polygamma(k, x)))


@given(st.integers(1, MAX_DERIV_ORDER), _U)
@example(3, [15.999999999999998, 16.0, 0.5])
@example(12, [16.0, 1e5])
@example(7, [1e-300])  # a shift power overflows
@example(3, [1.0, 1e61, 1e62])  # the last series power overflows at 1e62
@example(1, [2.0, 5e-324])  # psi's shift term 1/z is inf
@example(1, [1e200, 1.7976931348623157e308])  # lnGamma is inf
@example(2, [3, np.float64(1e307), np.float64(1e-320)])  # a message shows the argument's repr
def test_kernel_is_the_referee(k, u):
    # a float call and a grid call, each against the scalar body
    for fn, refer in _kernel(k):
        for v in u:
            _same(lambda: fn(v), lambda: refer(v))
        _same(lambda: fn(np.array(u)), lambda: referee.on_grid(refer, np.array(u)))


_X = (st.floats(-1.0, 60.0)
      | st.sampled_from((-5e-4, 1e-3, -1e-3, 1e22, 1e200, math.nan, "x")))


@given(st.integers(1, MAX_DERIV_ORDER), st.floats(-0.999999, 40.0), st.lists(_X, max_size=10))
@example(8, 0.0, [-0.9999, 1.0, 50.0])
@example(12, 1.0, [1e22, 2.0])  # a power of x overflows
@example(4, -0.9, [2.0, 1e200])
@example(1, 0.5, [])
def test_logh_deriv_table_is_the_referee(k_max, y, xs):
    _same(lambda: hfamily.logh_deriv_table(k_max, y, xs),
          lambda: referee.logh_deriv_table(k_max, y, xs))


def _same_on_grid(u):
    """Every gamma_table and kernel function on u against the referee."""
    for n_psi in range(1, MAX_DERIV_ORDER + 2):
        _same(lambda: gamma_table(n_psi, u), lambda: referee.gamma_table(n_psi, u))
    for fn, refer in (*_kernel(1)[:2], *(_kernel(k)[2] for k in range(1, MAX_DERIV_ORDER + 1))):
        _same(lambda: fn(u), lambda: referee.on_grid(refer, u))


def test_dense_grids_are_the_referee():
    # a rounding that differs in a high order's series shows at a few points
    # in a thousand: hypothesis's short lists seldom meet one
    _same_on_grid(np.random.default_rng(25).permutation(np.geomspace(1e-4, 2e3, 2001)))


def test_wide_grids_with_large_points_are_the_referee():
    # more than 400 values take the series term by term; up to 1e15 the
    # series power z^(k+2) is finite while its last term's z^(k+2) z^22 is not
    _same_on_grid(np.random.default_rng(27).permutation(np.geomspace(1e-4, 1e15, 401)))


@pytest.mark.parametrize("y", [-0.99, -0.5, 0.0, 1.3, 5.0])
def test_default_scan_grid_tables_are_the_referee(y):
    xs = grid_points(default_grid(y), y)
    for k_max in range(1, MAX_DERIV_ORDER + 1):
        _same(lambda: hfamily.logh_deriv_table(k_max, y, xs),
              lambda: referee.logh_deriv_table(k_max, y, xs))


def test_an_exact_cancellation_leaves_a_positive_zero(monkeypatch):
    # psi(u) = lnGamma(u) - lnGamma(y+1) at x = 1 makes the order-1 bracket
    # -D + x psi(u) cancel exactly: the sum in signed terms gives +0.0
    y, lg_y = 1.0, hfamily.lngamma(2.0)

    def cancelling(n_psi, u):
        lg = np.full(len(u), 0.75)
        return lg, np.full((n_psi, len(u)), lg - lg_y)

    monkeypatch.setattr(hfamily, "gamma_table", cancelling)
    monkeypatch.setattr(referee, "gamma_table", cancelling)
    table = hfamily.logh_deriv_table(1, y, [1.0])
    assert table.core[0, 0] == 0.0 and math.copysign(1.0, table.core[0, 0]) == 1.0
    _same(lambda: hfamily.logh_deriv_table(3, y, [1.0, 2.0]),
          lambda: referee.logh_deriv_table(3, y, [1.0, 2.0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 1200), st.floats(math.log10(0.011), 300.0))
@example(800, math.log10(500.0))  # the benchmark's smallest and largest lemma grids
@example(1200, math.log10(2000.0))
@example(800, math.log10(2000.0))
@example(1200, math.log10(500.0))
@example(DEFAULT_POINTS, 50.0)  # polygamma(6, .) fails first in x, (5, .) in order
@example(DEFAULT_POINTS, 120.0)  # polygamma(1, .) fails
@example(2, math.log10(0.011))
def test_lemma_windows_is_the_referee(points, log_x_max):
    xs = log_grid(1e-2, 10.0 ** log_x_max, points)
    _same(lambda: lemma_windows(xs), lambda: referee.lemma_suite(xs))


@given(st.lists(_POINT, min_size=1, max_size=6))
@example([2.0, 1e-200])  # psi_log_bounds fails at 1e-200 before polygamma(1, .) does
@example([1e200, 1e-300])
def test_lemma_windows_at_any_points_is_the_referee(u):
    _same(lambda: lemma_windows(np.array(u)), lambda: referee.lemma_suite(np.array(u)))


def _referee_rows(orders, x):
    """gamma_rows by the scalar bodies: each point in turn, each order in
    turn at it, so the first bad point's first failing order raises."""
    bodies = {-1: referee.lngamma, 0: referee.digamma}
    rows = [[bodies[j](v) if j < 1 else referee.polygamma(j, v) for j in orders]
            for v in (x.tolist() if isinstance(x, np.ndarray) else [x])]
    return np.array(rows, dtype=float).reshape(-1, len(orders)).T[
        (...,) if isinstance(x, np.ndarray) else (slice(None), 0)]


@given(st.lists(st.integers(-1, MAX_DERIV_ORDER), min_size=1, max_size=6, unique=True),
       _U)
@example([-1, 0], [1e-310, 2.0])  # digamma's 1/z overflows where lnGamma is finite
@example([0, 1, 2, 3, 4, 5, 6], [0.01, 16.0, 1e-200])  # the lemma suite's rows
@example([-1, 12], [1.0, 1e62, 1e307])  # a power fails before lnGamma does
@example([3], [])
def test_gamma_rows_is_the_referee(orders, u):
    orders = sorted(orders)
    for v in u:
        _same(lambda: gamma_rows(orders, v), lambda: _referee_rows(orders, v))
    _same(lambda: gamma_rows(orders, np.array(u)),
          lambda: _referee_rows(orders, np.array(u)))


def test_gamma_rows_refuses_orders_out_of_turn():
    for orders in ([], [0, -1], [1, 1], [-2, 0], [0.0], "01", None):
        with pytest.raises(DomainError):
            gamma_rows(orders, 1.0)
    with pytest.raises(CapabilityError):
        gamma_rows([0, MAX_DERIV_ORDER + 1], 1.0)


@st.composite
def _stacks(draw):
    """1-6 ys in (-1, 10], each with a log-u grid of 1-400 points from just
    above x = -(y+1) (so negative x included) up to x_max in [1e-2, 1e4]."""
    ys, grids = [], []
    for _ in range(draw(st.integers(1, 6))):
        y = draw(st.floats(-1.0, 10.0, exclude_min=True).filter(lambda y: y + 1.0 > 1e-6))
        c = y + 1.0
        xs = log_grid(draw(st.floats(1e-6, 1.0)) * c, draw(st.floats(1e-2, 1e4)) + c,
                      draw(st.integers(1, 400))) - c
        xs = xs[(np.abs(xs) >= X_EPSILON) & (xs + c >= hfamily.ENDPOINT_CLEARANCE)]
        if xs.size:
            ys.append(y)
            grids.append(xs)
    return ys, grids


def _blocks(k_max, ys, grids):
    table = hfamily.logh_deriv_table(k_max, np.repeat(ys, [xs.size for xs in grids]),
                                     np.concatenate(grids))
    return tuple(table.blocks([xs.size for xs in grids]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, MAX_DERIV_ORDER), _stacks())
@example(8, ([-0.9, -0.5, 0.0, 1.0, 5.0],
             [grid_points(default_grid(y), y) for y in (-0.9, -0.5, 0.0, 1.0, 5.0)]))
@example(1, ([0.5, 0.5, -0.25], [np.array([-1.25, 2.0]), np.array([3.0]),
                                 np.array([-0.5, 40.0])]))  # a y twice, not in turn
def test_a_stacked_table_is_its_ys_own_tables(k_max, stack):
    ys, grids = stack
    if ys:
        _same(lambda: _blocks(k_max, ys, grids),
              lambda: tuple(hfamily.logh_deriv_table(k_max, y, xs)
                            for y, xs in zip(ys, grids)))


def test_a_stack_raises_its_first_failing_ys_own_error():
    # only the later y's grid overflows: its own first bad point's error
    # (gamma_table(8, u) at 1e60, the order-1 table's x^2 at 1e200)
    grids = [np.array([1.0, 2.0]), np.array([3.0, 1e60, 1e200])]
    for k_max in (1, 8):
        _same(lambda: _blocks(k_max, [0.0, 1.0], grids),
              lambda: hfamily.logh_deriv_table(k_max, 1.0, grids[1]))
    # a y whose lnGamma(y + 1) overflows, after one whose table is fine
    _same(lambda: _blocks(3, [0.0, 1e307], [np.array([1.0]), np.array([2.0])]),
          lambda: hfamily.logh_deriv_table(3, 1e307, [2.0]))
    # a power of x overflows at the later y only: the error names that y
    _same(lambda: _blocks(12, [0.5, 2.0], [np.array([3.0]), np.array([1e30])]),
          lambda: hfamily.logh_deriv_table(12, 2.0, [1e30]))


def _certificates(certify):
    return [repr(certify(alpha, direction)) for alpha in (-0.5, 0.25, 0.5, 0.9, 1.0, 1.7, 3.0)
            for direction in Direction]


@pytest.mark.parametrize("k_max,ys,grids", [
    (8, (-0.9, -0.5, 0.0, 1.0, 5.0), None),
    (3, [2.0, -0.3], [GridSpec(1e-3, 30.0, 57), None]),
    (12, np.array([0.7]), [GridSpec(1e-2, 5.0, 2)]),
    (4, np.array([0.5, -0.8, 3.0]), GridSpec(1e-3, 20.0, 40)),  # one grid for every y
    (2, [1.0, 1.0], (GridSpec(1e-2, 8.0, 9), GridSpec(1e-3, 60.0, 31))),
    # one y for every grid of a grid of grids
    (6, 1.0, [GridSpec(1e-3, 5.0, 4), GridSpec(1e-3, 9.0, 4)]),
    (6, -0.5, (None, GridSpec(1e-2, 30.0, 57), None)),
    (6, np.float64(3.0), [GridSpec(1e-3, 20.0, 2)]),
])
def test_batched_certifiers_are_the_one_y_certifiers(k_max, ys, grids):
    # a GridSpec is a tuple too, but one grid for every y
    per_grid = type(grids) in (list, tuple)
    n = len(grids) if per_grid else len(ys)
    expected = [_certificates(lcm_certifier(y, k_max, grid)) for y, grid in zip(
        [ys] * n if np.ndim(ys) == 0 else ys, grids if per_grid else [grids] * n, strict=True)]
    for batch in (lcm_certifier(ys, k_max, grids), lcm_certifier(y=ys, k_max=k_max, grid=grids)):
        assert [_certificates(certify) for certify in batch] == expected


def test_batched_surfaces_and_limits_are_the_one_y_calls():
    ys = [-0.9, -0.75, -0.6, -0.51]
    for points, x_max in ((200, 1e3), (2, 30.0), (77, 1e5)):
        assert repr(verify_thm3(ys, points, x_max)) == repr(
            [verify_thm3(y, points, x_max) for y in ys])
    ys = [-0.5, 0.0, 1.0, 5.0, -0.99, 1e3]
    assert repr(necessity_limits(ys)) == repr([necessity_limits(y) for y in ys])
    assert verify_thm3([]) == necessity_limits(np.array([])) == lcm_certifier([]) == []
    assert lcm_certifier((), 8, GridSpec(1e-3, 5.0, 4)) == lcm_certifier(np.array([])) == []


def _row_bits(row):
    return (row.name, [(label, float(v).hex()) for label, v in row.inputs], row.lhs.hex(),
            row.rhs.hex(), row.margin.hex(), row.holds, row.strict)


@pytest.mark.parametrize("k_max,points,x_max", [(8, 200, 1e3), (12, 200, 1e3),
                                                 (1, 2, 1e3), (3, 57, 80.0)])
def test_thm1_takes_its_limit_probes_from_the_certifiers_table(monkeypatch, k_max, points,
                                                                x_max):
    calls = []
    table = hfamily.logh_deriv_table

    def counted(*args):
        calls.append(args[0])
        return table(*args)

    for module in (hfamily, certify):  # the surfaces' calls and the certifiers'
        monkeypatch.setattr(module, "logh_deriv_table", counted)
    rows = [row for row in build_suite("thm1", k_max, points, x_max)
            if getattr(row, "name", "").startswith("alpha_threshold_")]
    assert calls == [k_max]  # one table: the certifiers' stack holds the probes
    monkeypatch.undo()
    expected = [one_sided(name, (("y", y), ("estimate", estimate), ("target", target),
                                 ("tolerance", tol)), abs(estimate - target), tol, strict=False)
                for y, (inner, tail) in zip(LIMIT_YS, necessity_limits(LIMIT_YS), strict=True)
                for name, estimate, target, tol in (
                    ("alpha_threshold_left_endpoint_limit", inner, 1.0 / (y + 1.0), 1e-2),
                    ("alpha_threshold_tail_limit", tail, 1.0, 1e-3))]
    assert [_row_bits(row) for row in rows] == [_row_bits(row) for row in expected]


_FD_CELLS = [(1, HParams(1.0, 0.0), 1.0, 1e-5), (2, HParams(2.0, 1.0), 3.0, 1e-4),
             (3, HParams(0.5, -0.5), 2.0, 1e-4), (4, HParams(1.5, 0.0), 5.0, 1e-3),
             (1, HParams(0.0, 0.0), 10.0, 1e-5), (2, HParams(1.0, 4.0), 0.5, 1e-4)]


def test_batched_crosschecks_are_the_one_cell_calls():
    one_by_one = [finite_diff_crosscheck(*cell) for cell in _FD_CELLS]
    assert [r.hex() for r in finite_diff_crosschecks(_FD_CELLS)] == [
        r.hex() for r in one_by_one]
    # x = 1e80 takes a power of x beyond binary64 only in an order-4 table:
    # the stack fails, each cell alone does not, and each gives its own value
    cells = [(1, HParams(1.0, 0.0), 1e80, 1.0), _FD_CELLS[3]]
    assert finite_diff_crosschecks(cells) == [finite_diff_crosscheck(*c) for c in cells]


def _error(call):
    with pytest.raises((CapabilityError, DomainError, ParameterError, PrecisionError)) as info:
        call()
    return type(info.value).__name__, str(info.value)


def test_a_batch_raises_its_first_failing_ys_own_error():
    far = GridSpec(1e-4, 1e60, 200)  # gamma_table(8, u) overflows on it
    assert _error(lambda: lcm_certifier([0.0, 1.0], 8, [None, far])) == _error(
        lambda: lcm_certifier(1.0, 8, far))
    assert _error(lambda: lcm_certifier([0.0, 1.0], grid=[None, far])) == _error(
        lambda: lcm_certifier(1.0, grid=far))
    # a grid shared by every y is passed whole to each y's own call
    assert _error(lambda: lcm_certifier([0.0, 1.0], 8, far)) == _error(
        lambda: lcm_certifier(0.0, 8, far))
    # an earlier y's table error comes before a later y's bad input
    assert _error(lambda: lcm_certifier([1e300, "y"])) == _error(
        lambda: lcm_certifier(1e300))
    assert _error(lambda: lcm_certifier([0.0, "y"])) == _error(lambda: lcm_certifier("y"))
    assert _error(lambda: necessity_limits([0.0, 1e300])) == _error(
        lambda: necessity_limits(1e300))
    assert _error(lambda: verify_thm3([-0.75, -0.99, -0.3])) == _error(
        lambda: verify_thm3(-0.99))
    assert _error(lambda: verify_thm3([-0.75, -0.6], 200, 1e300)) == _error(
        lambda: verify_thm3(-0.75, 200, 1e300))
    cells = [_FD_CELLS[1], (3, HParams(1.0, 1e307), 2.0, 1e-4), (9, HParams(1.0, 0.0), 1.0)]
    assert _error(lambda: finite_diff_crosschecks(cells)) == _error(
        lambda: finite_diff_crosscheck(*cells[1]))
    # certify_lcm gives one certificate: its grid is one GridSpec, never a grid of them
    assert _error(lambda: certify_lcm(HParams(0.5, 1.0), Direction.LCM, 6, [None])) == (
        "ParameterError", "grid must be a GridSpec, got [None]")
