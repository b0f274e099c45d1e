"""The kernel, the derivative-table layer and the lemma suite against their
referee bodies, bit for bit.

``lngamma``, ``digamma``, ``polygamma`` and ``gamma_table`` share one
order-major body, ``logh_deriv_table`` runs in order-major passes, and
``lemma_windows`` builds the lemma suite in one pass; ``tests/_referee.py``
keeps the bodies they replaced.  Every returned array must have the
referee's bits (compared as int64 views, so a signed zero or a NaN payload
counts too), a float its type and bits, a check table its keys too, and
every error its type and message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _referee as referee
from gammacert import (
    CapabilityError, CheckTable, DomainError, ParameterError, PrecisionError, hfamily,
    lemma_windows)
from gammacert.certify import DEFAULT_POINTS, default_grid, grid_points
from gammacert.errors import log_grid
from gammacert.gammakit import MAX_DERIV_ORDER, digamma, gamma_table, lngamma, polygamma

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
