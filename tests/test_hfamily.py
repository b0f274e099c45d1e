"""Tests for the gamma-ratio family h: values, log-derivatives, surfaces."""

from __future__ import annotations

import math

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
    q_surface_with_scale,
)
from gammacert import hfamily
from gammacert.gammakit import lngamma
from gammacert.hfamily import ENDPOINT_CLEARANCE, X_EPSILON, DerivSample

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


def test_bigH_is_the_shifted_family():
    assert bigH_eval(1.0, 1.0, 1.0) == h_eval(HParams(alpha=1.0, y=0.0), 1.0)
    # alpha = 1, y = 1, x = 1: [Gamma(2)/Gamma(1)]^1 * 2^(-1) = 1/2
    assert math.isclose(bigH_eval(1.0, 1.0, 1.0), 0.5, rel_tol=1e-15)
    for bad in (0.0, -0.5, math.nan):
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


def test_table_evaluates_lngamma_of_y_once(monkeypatch):
    calls = []

    def counting_lngamma(x):
        calls.append(x)
        return lngamma(x)

    monkeypatch.setattr(hfamily, "lngamma", counting_lngamma)
    xs = [-0.5, 0.3, 2.0, 40.0, 300.0]
    logh_deriv_table(4, 1.5, xs)
    assert len(calls) == len(xs) + 1


def test_exclusion_zone_rejects_small_x():
    params = HParams(alpha=1.0, y=0.0)
    for x in (0.0, 5e-4, -5e-4, 0.99e-3):
        with pytest.raises(PrecisionError):
            logh_deriv(1, params, x)
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

def test_alpha_necessary_bound_matches_oracle():
    for y in (-0.5, 0.0, 1.0, 5.0):
        for x in (-0.4 * (y + 1.0), 0.1, 1.0, 10.0, 200.0):
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
    for y in (-0.9, -0.75, -0.6):
        for x in (-0.05, 0.5, 3.0, 40.0):
            got, scale = q_surface_with_scale(x, y)
            assert got == q_surface(x, y)
            assert math.isfinite(scale) and scale >= abs(got)
            ref = float(oracle.q_surface(x, y))
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


def test_surfaces_raise_capability_error_outside_binary64():
    # x^2 overflows in q; B's u/x^2 factor becomes inf/inf
    with pytest.raises(CapabilityError):
        q_surface_with_scale(1e200, -0.75)
    with pytest.raises(CapabilityError):
        q_surface(1e200, -0.75)
    with pytest.raises(CapabilityError):
        alpha_necessary_bound(1e300, 0.0)


def test_q_surface_rejects_bad_y():
    with pytest.raises(DomainError):
        q_surface(1.0, -1.0)
    with pytest.raises(DomainError):
        q_surface(-3.0, -0.75)
