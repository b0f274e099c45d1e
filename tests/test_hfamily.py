"""Tests for the gamma-ratio family h: values, log-derivatives, surfaces."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

import _oracle as oracle
from gammacert import (
    CapabilityError,
    DomainError,
    HParams,
    PrecisionError,
    alpha_necessary_bound,
    bigH_eval,
    h_eval,
    log_h,
    logh_deriv,
    logh_deriv_table,
    logh_derivs_with_scale,
    q_surface,
    q_surface_table,
)
from gammacert import hfamily
from gammacert.hfamily import (
    ENDPOINT_CLEARANCE, X_EPSILON, DerivSample, lcm_threshold, reciprocal_threshold)

PARAM_SETS = [
    (1.0, 0.0),
    (0.5, 1.0),
    (2.0, -0.5),
    (0.25, 4.0),
    (-1.0, 0.5),
]
X_SAMPLES = [-0.5, 0.01, 0.5, 1.0, 3.0, 25.0]


# ---------------------------------------------------------------------------
# values of log h and h
# ---------------------------------------------------------------------------

def test_log_h_matches_oracle():
    for alpha, y in PARAM_SETS:
        params = HParams(alpha=alpha, y=y)
        for x in X_SAMPLES:
            if x + y + 1.0 <= ENDPOINT_CLEARANCE:
                continue
            # the x-division cancels ~ |x|^-1 digits near zero
            tol = 1e-13 if abs(x) >= 0.1 else 5e-12
            ref = float(oracle.log_h(alpha, y, x))
            assert abs(log_h(params, x) - ref) <= tol * max(1.0, abs(ref))


def test_log_h_is_continuous_through_zero():
    params = HParams(alpha=0.7, y=0.3)
    at_zero = log_h(params, 0.0)
    assert math.isclose(at_zero, float(oracle.log_h(0.7, 0.3, 0)),
                        rel_tol=1e-14)
    for x in (1e-7, -1e-7):
        assert abs(log_h(params, x) - at_zero) <= 1e-6


def test_h_eval_closed_form_spot():
    # alpha = 0.5, y = 1, x = 2: h = [Gamma(4)/Gamma(2)]^(1/2) * 4^(-1/2)
    got = h_eval(HParams(alpha=0.5, y=1.0), 2.0)
    assert math.isclose(got, math.sqrt(6.0) / 2.0, rel_tol=1e-14)
    assert got > 0.0


def test_h_eval_raises_capability_error_outside_binary64():
    # ln h = lnGamma(1e6 + 1)/1e6 + 1000 ln(1e6 + 1), about 1.4e4: exp overflows
    with pytest.raises(CapabilityError):
        h_eval(HParams(alpha=-1000.0, y=0.0), 1e6)
    # with alpha = +1000, ln h is about -1.38e4: h > 0 underflows to 0.0
    with pytest.raises(CapabilityError):
        h_eval(HParams(alpha=1000.0, y=0.0), 1e6)
    with pytest.raises(CapabilityError):
        bigH_eval(1000.0, 1.0, 1e6)


def test_log_h_raises_capability_error_outside_binary64():
    # alpha * ln(x + y + 1) overflows, so ln h would be -inf or +inf
    for alpha, value in ((1e308, "-inf"), (-1e308, "inf")):
        params = HParams(alpha=alpha, y=5.0)
        with pytest.raises(CapabilityError, match=re.escape(
                f"log_h({params!r}, 100.0) = {value} is outside the double-precision")):
            log_h(params, 100.0)
    # h_eval keeps its own message
    with pytest.raises(CapabilityError, match=re.escape("= exp(-inf) is outside the normal")):
        h_eval(HParams(alpha=1e308, y=5.0), 100.0)


def test_a_log_h_grid_raises_what_its_first_overflowing_point_raises():
    good, high, low = HParams(1.0, 5.0), HParams(1e308, 5.0), HParams(-1e308, 5.0)
    with pytest.raises(CapabilityError) as alone:
        log_h(high, 100.0)
    # 1e308 * ln 6 is still finite at x = 0; every x beyond overflows
    assert math.isfinite(log_h(high, 0.0))
    for params, xs in (([good, high, low], np.full(3, 100.0)),
                       (high, [0.0, 100.0, 1e3]),
                       ([good, high, good], [1.0, 100.0, -10.0])):  # before a DomainError
        with pytest.raises(CapabilityError) as grid:
            log_h(params, xs)
        assert str(grid.value) == str(alone.value)
    with pytest.raises(CapabilityError):  # was an array of -inf
        log_h(high, np.geomspace(1.0, 1e3, 5))


def test_thresholds_reject_y_at_or_below_minus_one():
    for bad in (-1.0, -3.0, math.nan):
        with pytest.raises(DomainError):
            lcm_threshold(bad)
        with pytest.raises(DomainError):
            reciprocal_threshold(bad)
    assert lcm_threshold(-0.5) == 2.0 and reciprocal_threshold(-0.5) == 1.0


def test_bigH_is_the_shifted_family():
    assert bigH_eval(1.0, 1.0, 1.0) == h_eval(HParams(alpha=1.0, y=0.0), 1.0)
    # alpha = 1, y = 1, x = 1: [Gamma(2)/Gamma(1)]^1 * 2^(-1) = 1/2
    assert math.isclose(bigH_eval(1.0, 1.0, 1.0), 0.5, rel_tol=1e-15)
    for bad in (0.0, -0.5, math.nan, 10**400):
        with pytest.raises(DomainError):
            bigH_eval(1.0, bad, 1.0)


def test_hparams_validation():
    with pytest.raises(DomainError):
        HParams(alpha=math.nan, y=0.0)
    with pytest.raises(DomainError):
        HParams(alpha=math.inf, y=0.0)
    with pytest.raises(DomainError):
        HParams(alpha=1.0, y=-1.0)
    with pytest.raises(DomainError):
        HParams(alpha=1.0, y=math.nan)
    for bad in ("1", None):
        with pytest.raises(DomainError):
            HParams(alpha=bad, y=0.0)
        with pytest.raises(DomainError):
            HParams(alpha=1.0, y=bad)
    HParams(alpha=-3.0, y=-0.999)  # boundary-adjacent but valid


def test_domain_error_past_left_endpoint():
    params = HParams(alpha=1.0, y=0.0)
    with pytest.raises(DomainError):
        log_h(params, -1.0)
    with pytest.raises(DomainError):
        logh_deriv(1, params, -1.5)
    with pytest.raises(DomainError):
        alpha_necessary_bound(-2.0, 0.0)
    with pytest.raises(DomainError):
        q_surface(-2.0, 0.0)


# ---------------------------------------------------------------------------
# closed-form log-derivatives
# ---------------------------------------------------------------------------

def test_low_order_derivatives_match_numerical_differentiation():
    worst = 0.0
    for alpha, y in PARAM_SETS:
        params = HParams(alpha=alpha, y=y)
        for x in X_SAMPLES:
            # |x| >= 0.5: the closed form's k!/x^(k+1) prefactor amplifies
            # kernel rounding below that (the certificate noise floor covers it)
            if x + y + 1.0 <= 0.2 or abs(x) < 0.5:
                continue
            for k in range(1, 5):
                got = logh_deriv(k, params, x)
                ref = float(oracle.derivative(
                    lambda t, _a=alpha, _y=y: oracle.log_h(_a, _y, t),
                    x, order=k))
                worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-9


def test_high_order_derivatives_match_oracle_closed_form():
    # independent high-precision evaluation of the same closed form
    def oracle_row(alpha, y, x, k):
        u = oracle.mp.mpf(x) + oracle.mp.mpf(y) + 1
        bracket = (-1) ** k * (oracle.lngamma(u) - oracle.lngamma(y + 1))
        for i in range(1, k + 1):
            psi_i = (oracle.digamma(u) if i == 1
                     else oracle.polygamma(i - 1, u))
            bracket += (-1) ** (k - i) * oracle.mp.mpf(x) ** i * psi_i / math.factorial(i)
        lead = math.factorial(k) / oracle.mp.mpf(x) ** (k + 1)
        return lead * bracket + (-1) ** k * math.factorial(k - 1) * alpha / u ** k

    for alpha, y in PARAM_SETS[:3]:
        params = HParams(alpha=alpha, y=y)
        rows = logh_derivs_with_scale(12, params, 2.0)
        assert len(rows) == 12
        for k, (value, scale) in enumerate(rows, start=1):
            ref = float(oracle_row(alpha, y, 2.0, k))
            assert scale >= abs(value)
            assert abs(value - ref) <= 1e-12 * max(scale, 1e-30)


def test_second_derivative_oracle_anchor():
    got = logh_deriv(2, HParams(alpha=1.0, y=0.0), 2.0)
    assert math.isclose(got, 0.020472772125978399, rel_tol=1e-10)


def test_consistency_between_single_and_batched_derivatives():
    params = HParams(alpha=0.5, y=1.0)
    rows = logh_derivs_with_scale(6, params, 1.7)
    for k in range(1, 7):
        assert logh_deriv(k, params, 1.7) == rows[k - 1][0]


def test_table_columns_are_the_one_point_rows():
    xs = [-0.5, 0.3, 2.0, 40.0]
    at = logh_deriv_table(7, 1.5, xs)
    for alpha in (-1.0, 0.0, 0.7, 3.0):
        values, scales = at(alpha)
        assert values.shape == scales.shape == (7, len(xs))
        for n, x in enumerate(xs):
            rows = logh_derivs_with_scale(7, HParams(alpha, 1.5), x)
            assert [(v.hex(), s.hex()) for v, s in rows] == [
                (float(v).hex(), float(s).hex())
                for v, s in zip(values[:, n], scales[:, n])]
    with pytest.raises(PrecisionError):
        logh_deriv_table(3, 0.0, [1.0, 5e-4])


def test_table_parts_rebuild_its_values():
    xs = [-0.5, 0.3, 2.0, 40.0]
    table = logh_deriv_table(5, 1.5, xs)
    assert table.y == 1.5
    assert table.core.shape == table.core_scale.shape == table.u_pow.shape == (5, 4)
    assert table.alpha_coef.ravel().tolist() == [-1.0, 1.0, -2.0, 6.0, -24.0]
    for alpha in (-1.0, 0.0, 0.7, 3.0):
        values, scales = table(alpha)
        term = table.alpha_coef * alpha / table.u_pow
        assert np.array_equal(values, table.core + term)
        assert np.array_equal(scales, table.core_scale + np.abs(term))


@pytest.mark.parametrize("alphas,bad", [(1e308, 1e308), (-1e308, -1e308)])
def test_table_names_an_alpha_whose_term_leaves_binary64(alphas, bad):
    table = logh_deriv_table(8, 0.0, [-0.9999, 1.0, 50.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
        with pytest.raises(CapabilityError) as info:
            table(alphas)
        table(-1e250), table(1e250)  # large but in range
    assert str(info.value) == (
        f"(ln h)^(k) for k <= 8 at alpha={bad!r}, y=0.0 needs a value outside "
        "the double-precision range")


def test_table_evaluates_lngamma_of_y_once(monkeypatch):
    # lnGamma(y+1) by one scalar call, every point's lnGamma(u) by one array pass
    calls = []

    def counting(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    monkeypatch.setattr(hfamily, "lngamma", counting(hfamily.lngamma))
    monkeypatch.setattr(hfamily, "gamma_table", counting(hfamily.gamma_table))
    xs = [-0.5, 0.3, 2.0, 40.0, 300.0]
    for table in (lambda: logh_deriv_table(4, 1.5, xs), lambda: q_surface_table(1.5, xs)):
        calls.clear()
        table()
        assert sorted(calls) == ["gamma_table", "lngamma"]


def test_table_raises_capability_error_outside_binary64():
    # x^2 overflows in the closed form although the kernel values are finite
    with pytest.raises(CapabilityError):
        logh_deriv_table(1, -0.9, [2.0, 1e200])


def test_exclusion_zone_rejects_small_x():
    params = HParams(alpha=1.0, y=0.0)
    for x in (0.0, 5e-4, -5e-4, 0.99e-3):
        with pytest.raises(PrecisionError):
            logh_deriv(1, params, x)
    # the two surfaces are rows of the same table
    for x in (1e-4, -1e-4, 1e-8, -1e-8):
        with pytest.raises(PrecisionError):
            alpha_necessary_bound(x, 1.0)
        with pytest.raises(PrecisionError):
            q_surface(x, -0.75)
        with pytest.raises(PrecisionError):
            q_surface_table(-0.75, [1.0, x])
    # the boundary itself is allowed
    assert math.isfinite(logh_deriv(1, params, X_EPSILON))
    assert math.isfinite(logh_deriv(1, params, -X_EPSILON))


def test_derivative_order_validation():
    params = HParams(alpha=1.0, y=0.0)
    for bad in (0, -2, 1.5, True, "3"):
        with pytest.raises(DomainError):
            logh_deriv(bad, params, 1.0)
    with pytest.raises(CapabilityError):
        logh_deriv(13, params, 1.0)


def test_deriv_sample_is_a_plain_record():
    s = DerivSample(k=2, x=1.5, value=-0.25)
    assert (s.k, s.x, s.value) == (2, 1.5, -0.25)


# ---------------------------------------------------------------------------
# threshold and auxiliary surfaces
# ---------------------------------------------------------------------------

# oracle points (x, y) of B and of q
B_POINTS = [(x, y) for y in (-0.5, 0.0, 1.0, 5.0)
            for x in (-0.4 * (y + 1.0), 0.1, 1.0, 10.0, 200.0)]
Q_POINTS = [(x, y) for y in (-0.9, -0.75, -0.6) for x in (-0.05, 0.5, 3.0, 40.0)]


def test_alpha_necessary_bound_matches_oracle():
    for x, y in B_POINTS:
        got = alpha_necessary_bound(x, y)
        ref = float(oracle.alpha_necessary_bound(x, y))
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_alpha_necessary_bound_rejects_zero():
    with pytest.raises(DomainError):
        alpha_necessary_bound(0.0, 0.0)


def test_alpha_necessary_bound_near_zero_value():
    # B(x, y) -> (y+1) psi'(y+1) / ... : at x ~ 0 the surface passes through
    # (y+1) * trigamma(y+1) / 2 + ... ; check against the oracle instead of
    # a closed form, at the inner edge of reliable evaluation.
    for y in (0.0, 1.0):
        got = alpha_necessary_bound(1e-3, y)
        ref = float(oracle.alpha_necessary_bound(1e-3, y))
        assert abs(got - ref) <= 1e-7 * max(1.0, abs(ref))


def test_alpha_necessary_bound_limits():
    # left endpoint limit 1/(y+1); far-right limit 1
    for y in (-0.5, 0.0, 1.0):
        left = alpha_necessary_bound(-(y + 1.0) * (1.0 - 1e-7), y)
        assert abs(left - 1.0 / (y + 1.0)) <= 1e-4 * max(1.0, 1.0 / (y + 1.0))
        far = alpha_necessary_bound(1e6, y)
        assert abs(far - 1.0) <= 1e-4


def test_q_surface_matches_oracle():
    xs = (-0.05, 0.5, 3.0, 40.0)
    for y in (-0.9, -0.75, -0.6):
        values, scales = q_surface_table(y, xs)
        for x, tabled, tabled_scale in zip(xs, values, scales):
            (got,), (scale,) = q_surface_table(y, [x])
            assert got == q_surface(x, y)
            assert math.isfinite(scale) and scale >= abs(got)
            assert abs(tabled - got) <= 1e-15 * scale and tabled_scale == scale
            ref = float(oracle.q_surface(x, y))
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


@pytest.mark.parametrize("x,y", B_POINTS)
def test_alpha_necessary_bound_is_u_times_the_first_row_at_alpha_zero(x, y):
    row = (x + y + 1.0) * logh_deriv(1, HParams(0.0, y), x)
    assert abs(alpha_necessary_bound(x, y) - row) <= math.ulp(row)


@pytest.mark.parametrize("x,y", Q_POINTS)
def test_q_surface_is_x_squared_times_the_first_row_at_alpha_star(x, y):
    row = x * x * logh_deriv(1, HParams(0.5 / (y + 1.0), y), x)
    assert abs(q_surface(x, y) - row) <= math.ulp(row)


def test_surfaces_raise_capability_error_outside_binary64():
    # x^2 overflows in the closed form that both surfaces read
    with pytest.raises(CapabilityError):
        q_surface_table(-0.75, [1e200])
    with pytest.raises(CapabilityError):
        q_surface(1e200, -0.75)
    with pytest.raises(CapabilityError):
        q_surface_table(-0.75, [3.0, 1e200])
    with pytest.raises(CapabilityError):
        alpha_necessary_bound(1e300, 0.0)


def test_q_surface_rejects_bad_y():
    with pytest.raises(DomainError):
        q_surface(1.0, -1.0)
    with pytest.raises(DomainError):
        q_surface(-3.0, -0.75)
