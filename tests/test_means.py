"""Tests for the logarithmic and generalized logarithmic means."""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from gammacert import DomainError, gen_log_mean, log_mean
from gammacert.means import BRANCH_TOL

POSITIVE = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
BINARY64_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


def reference_mean(p: float, a: float, b: float) -> float:
    """L_p(a, b) in 60-digit mpmath arithmetic from its defining formulas."""
    with mpmath.workdps(60):
        p, a, b = mpmath.mpf(p), mpmath.mpf(a), mpmath.mpf(b)
        if p == -1:
            value = (b - a) / (mpmath.log(b) - mpmath.log(a))
        elif p == 0:
            value = mpmath.exp((b * mpmath.log(b) - a * mpmath.log(a)) / (b - a) - 1)
        else:
            value = ((b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))) ** (1 / p)
        return float(value)


def test_log_mean_spot_value():
    # L(2, 8) = 6 / ln 4
    assert math.isclose(log_mean(2.0, 8.0), 6.0 / math.log(4.0), rel_tol=1e-15)


def test_diagonal_returns_the_common_value():
    assert log_mean(3.5, 3.5) == 3.5
    assert gen_log_mean(2.0, 3.5, 3.5) == 3.5
    assert gen_log_mean(-7.0, 0.25, 0.25) == 0.25


@given(POSITIVE, POSITIVE)
@example(2.0, 2.00001)  # ln b - ln a cancels: the plain quotient drops below sqrt(ab)
@example(375.0, 0.001)  # log1p((b - a)/a) alone is not symmetric here
def test_log_mean_symmetry_and_ordering(a, b):
    lm = log_mean(a, b)
    assert math.isclose(lm, log_mean(b, a), rel_tol=1e-12)
    geo = math.sqrt(a * b)
    ari = 0.5 * (a + b)
    assert geo * (1.0 - 1e-12) <= lm <= ari * (1.0 + 1e-12)


def test_named_exponents_reduce_to_classical_means():
    a, b = 1.0, 2.0
    assert math.isclose(gen_log_mean(-1.0, a, b), log_mean(a, b), rel_tol=1e-15)
    assert math.isclose(gen_log_mean(0.0, a, b), 4.0 / math.e, rel_tol=1e-14)
    assert math.isclose(gen_log_mean(1.0, a, b), 1.5, rel_tol=1e-15)
    assert math.isclose(gen_log_mean(-2.0, a, b), math.sqrt(2.0), rel_tol=1e-14)


@given(POSITIVE, POSITIVE)
@example(462.140625, 462.14083231404567)  # b^2 - a^2 cancels in the plain form
def test_geometric_and_arithmetic_endpoints(a, b):
    assert math.isclose(gen_log_mean(-2.0, a, b), math.sqrt(a * b),
                        rel_tol=1e-10)
    assert math.isclose(gen_log_mean(1.0, a, b), 0.5 * (a + b), rel_tol=1e-12)


@given(st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0]), POSITIVE, POSITIVE)
@example(0.0, 2.0, 2.0 * (1.0 + 1e-9))  # identric mean near the diagonal
@example(0.0, 1e4, 1e4 * (1.0 + 1e-9))
@example(0.0, 2.0, 7.0)
@example(-1.0, 1e-150, 1e160)  # (b - a)/a overflows binary64
@example(-2.0, 1e-150, 1e160)
@example(0.0, 1e-300, 1e300)
@example(-3.0, 1e-300, 1e300)
@example(1.0, 1e-300, 1e300)
def test_means_match_mpmath(p, a, b):
    got = log_mean(a, b) if p == -1.0 else gen_log_mean(p, a, b)
    if a == b:
        assert got == a
    else:
        assert math.isclose(got, reference_mean(p, a, b), rel_tol=1e-13)


@given(st.floats(min_value=-50.0, max_value=50.0), BINARY64_POSITIVE, BINARY64_POSITIVE)
@example(0.0, 5e-324, 1.7976931348623157e308)
@example(-1.5, 5e-324, 1.7976931348623157e308)
@example(-1e6, 1.0, 1e300)
def test_mean_is_finite_and_between_its_arguments(p, a, b):
    got = gen_log_mean(p, a, b)
    assert math.isfinite(got)
    assert min(a, b) * (1.0 - 1e-12) <= got <= max(a, b) * (1.0 + 1e-12)


def test_branches_are_continuous_at_exceptional_exponents():
    a, b = 0.7, 5.3
    eps = 10.0 * BRANCH_TOL
    for p0 in (-1.0, 0.0):
        inside = gen_log_mean(p0, a, b)
        assert math.isclose(gen_log_mean(p0 + eps, a, b), inside, rel_tol=1e-7)
        assert math.isclose(gen_log_mean(p0 - eps, a, b), inside, rel_tol=1e-7)


def test_mean_is_increasing_in_the_exponent():
    a, b = 1.3, 9.0
    ps = [-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0]
    vals = [gen_log_mean(p, a, b) for p in ps]
    assert all(lo < hi for lo, hi in zip(vals, vals[1:]))


def test_argument_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            log_mean(bad, 1.0)
        with pytest.raises(DomainError):
            log_mean(1.0, bad)
        with pytest.raises(DomainError):
            gen_log_mean(1.0, bad, 2.0)
    with pytest.raises(DomainError):
        gen_log_mean(math.nan, 1.0, 2.0)
    with pytest.raises(DomainError):
        gen_log_mean(math.inf, 1.0, 2.0)
