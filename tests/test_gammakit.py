"""Kernel tests: lngamma / digamma / polygamma against the series oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import _oracle as oracle
from gammacert import (
    EULER_GAMMA,
    EXP_NEG_EULER_GAMMA,
    AuxFn,
    CapabilityError,
    DomainError,
    HParams,
    ParameterError,
    PrecisionError,
    alpha_necessary_bound,
    aux_eval,
    bigH_eval,
    digamma,
    finite_diff_crosscheck,
    gamma_ratio_ineq,
    gamma_table,
    gen_log_mean,
    lngamma,
    log_h,
    logh_deriv,
    logh_deriv_table,
    polygamma,
    psi_integral_mean_ineq,
    q_surface,
    q_surface_with_scale,
    scan_values,
    verify_thm3,
)
from gammacert.gammakit import (ASYM_TERMS, BERNOULLI_EVEN_RATIONAL, MAX_DERIV_ORDER,
                                SHIFT_THRESHOLD)

GRID = [float(x) for x in np.geomspace(1e-2, 1e3, 40)]


def rel_err(got: float, ref) -> float:
    ref = float(ref)
    return abs(got - ref) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# accuracy against the independent oracle
# ---------------------------------------------------------------------------

def test_lngamma_matches_oracle_across_scales():
    worst = max(rel_err(lngamma(x), oracle.lngamma(x)) for x in GRID)
    assert worst <= 1e-12


def test_digamma_matches_oracle_across_scales():
    # digamma crosses zero near 1.46: compare absolutely near the root
    for x in GRID:
        ref = float(oracle.digamma(x))
        assert abs(digamma(x) - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 9, 12])
def test_polygamma_matches_oracle_across_scales(k):
    worst = max(rel_err(polygamma(k, x), oracle.polygamma(k, x)) for x in GRID)
    assert worst <= 1e-12


def test_small_argument_spots():
    assert rel_err(lngamma(1e-2), oracle.lngamma(1e-2)) <= 1e-13
    assert rel_err(digamma(1e-2), oracle.digamma(1e-2)) <= 1e-13
    assert rel_err(polygamma(6, 1e-2), oracle.polygamma(6, 1e-2)) <= 1e-13


def test_known_closed_form_values():
    assert abs(lngamma(1.0)) <= 1e-14
    assert abs(lngamma(2.0)) <= 1e-14
    assert rel_err(lngamma(0.5), 0.5 * math.log(math.pi)) <= 1e-13
    assert rel_err(lngamma(5.0), math.log(24.0)) <= 1e-14
    assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-14
    assert abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0)) <= 1e-13
    assert rel_err(polygamma(1, 1.0), math.pi ** 2 / 6.0) <= 1e-14
    assert rel_err(polygamma(1, 0.5), math.pi ** 2 / 2.0) <= 1e-13


def test_constants_are_consistent():
    assert abs(float(oracle.euler_gamma()) - EULER_GAMMA) <= 1e-15
    assert rel_err(EXP_NEG_EULER_GAMMA, math.exp(-EULER_GAMMA)) <= 1e-15


def test_bernoulli_table_spot_values():
    assert BERNOULLI_EVEN_RATIONAL[0] == Fraction(1, 6)
    assert BERNOULLI_EVEN_RATIONAL[1] == Fraction(-1, 30)
    assert BERNOULLI_EVEN_RATIONAL[5] == Fraction(-691, 2730)
    assert BERNOULLI_EVEN_RATIONAL == oracle.bernoulli_even(30)


def test_series_truncation_is_negligible_at_the_shift_threshold():
    # The series only ever sees z >= SHIFT_THRESHOLD.  Its last summed term
    # goes like z^-(2n+k) while the value goes like z^-k (z ln z and ln z for
    # lngamma and digamma), so |last term| / |value| is largest at
    # z = SHIFT_THRESHOLD and this one point bounds the truncation everywhere.
    n, z = ASYM_TERMS, Fraction(SHIFT_THRESHOLD)
    bern = BERNOULLI_EVEN_RATIONAL[n - 1]
    ratios = {
        "lngamma": bern / ((2 * n) * (2 * n - 1) * z ** (2 * n - 1))
        / Fraction(lngamma(SHIFT_THRESHOLD)),
        "digamma": bern / ((2 * n) * z ** (2 * n)) / Fraction(digamma(SHIFT_THRESHOLD)),
    }
    for k in range(1, MAX_DERIV_ORDER + 1):
        coef = bern * Fraction(math.factorial(2 * n + k - 1), math.factorial(2 * n))
        ratios[f"polygamma({k})"] = coef / z ** (2 * n + k) / Fraction(
            polygamma(k, SHIFT_THRESHOLD))
    assert {name: float(r) for name, r in ratios.items() if abs(r) > 1e-12} == {}


# ---------------------------------------------------------------------------
# functional equations
# ---------------------------------------------------------------------------

@given(st.floats(min_value=0.05, max_value=100.0, allow_nan=False))
def test_lngamma_recurrence(x):
    lhs = lngamma(x + 1.0) - lngamma(x)
    assert abs(lhs - math.log(x)) <= 1e-12 * max(1.0, abs(math.log(x)))


@given(st.floats(min_value=0.05, max_value=100.0, allow_nan=False))
def test_digamma_recurrence(x):
    lhs = digamma(x + 1.0) - digamma(x)
    assert abs(lhs - 1.0 / x) <= 1e-12 * max(1.0, 1.0 / x)


@given(st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.1, max_value=50.0, allow_nan=False))
def test_polygamma_recurrence(k, x):
    jump = (-1.0) ** k * math.factorial(k) / x ** (k + 1)
    lhs = polygamma(k, x + 1.0) - polygamma(k, x)
    assert abs(lhs - jump) <= 1e-11 * abs(jump)


@pytest.mark.parametrize("k", range(1, 13))
def test_polygamma_sign_alternation(k):
    for x in (0.05, 1.0, 7.0, 300.0):
        assert (-1.0) ** (k + 1) * polygamma(k, x) > 0.0


def test_digamma_is_increasing_and_crosses_zero():
    xs = [0.5, 1.0, 1.4, 1.5, 2.0, 10.0]
    vals = [digamma(x) for x in xs]
    assert vals == sorted(vals)
    assert digamma(1.4) < 0.0 < digamma(1.5)


def test_evaluations_are_deterministic():
    assert lngamma(3.7) == lngamma(3.7)
    assert digamma(0.3) == digamma(0.3)
    assert polygamma(5, 2.2) == polygamma(5, 2.2)


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            lngamma(bad)
        with pytest.raises(DomainError):
            digamma(bad)
        with pytest.raises(DomainError):
            polygamma(1, bad)


@pytest.mark.parametrize("fn,args,message", [
    (lngamma, ("abc",), "x must be a finite positive real, got 'abc'"),
    (lngamma, (None,), "x must be a finite positive real, got None"),
    (digamma, ([2.0],), "x must be a finite positive real, got [2.0]"),
    (polygamma, (1, "x"), "x must be a finite positive real, got 'x'"),
    (lngamma, (10 ** 400,), "x must be a finite positive real"),
    (bigH_eval, (1.0, "1", 1.0), "bigH_eval requires y > 0, got '1'"),
    (log_h, (HParams(1.0, 0.0), "abc"), "x must be a real number, got 'abc'"),
    (logh_deriv, (1, HParams(1.0, 0.0), "x"), "x must be a real number, got 'x'"),
    (logh_deriv_table, (3, 0.0, ["a"]), "x must be a real number, got 'a'"),
    (logh_deriv_table, (3, "abc", [1.0]), "y must be a real number, got 'abc'"),
    (q_surface, ("abc", -0.75), "x must be a real number, got 'abc'"),
    (q_surface_with_scale, (0.5, None), "y must be a real number, got None"),
    (alpha_necessary_bound, (None, 0.0), "x must be a real number, got None"),
    (alpha_necessary_bound, (0.5, [1.0]), "y must be a real number, got [1.0]"),
    (verify_thm3, ("x",), "y must be a real number, got 'x'"),
    (finite_diff_crosscheck, (1, HParams(1.0, 0.0), "abc"),
     "x must be a real number, got 'abc'"),
    (gamma_ratio_ineq, ("a", 0.0, 1.0), "x must be a real number, got 'a'"),
    (gen_log_mean, ("p", 1.0, 2.0), "p must be a real number, got 'p'"),
    (psi_integral_mean_ineq, (0, 1.0, 2.0, "p", 0.0), "p must be a real number, got 'p'"),
    (aux_eval, (AuxFn.QLOG, "t"), "t must be a real number, got 't'"),
    (scan_values, ([0.5], ["y"]), "y must be a real number, got 'y'"),
])
def test_non_numeric_input_raises_domain_error(fn, args, message):
    with pytest.raises(DomainError) as info:
        fn(*args)
    assert str(info.value).startswith(message)


def test_polygamma_order_validation():
    assert MAX_DERIV_ORDER == 12
    for bad in (0, -1, 1.0, "2", True):
        with pytest.raises(DomainError):
            polygamma(bad, 1.0)
    with pytest.raises(CapabilityError):
        polygamma(13, 1.0)


def _finite_or_package_error(fn, *args) -> None:
    try:
        value = fn(*args)
    except (CapabilityError, DomainError, ParameterError, PrecisionError):
        return
    assert isinstance(value, float) and math.isfinite(value), (fn.__name__, args, value)


@given(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
       st.integers(min_value=1, max_value=MAX_DERIV_ORDER))
@example(1e308, 1)
@example(5e-324, 1)
@example(1e-310, 1)
@example(1e200, 1)
@example(1e100, 3)
@example(1e-300, 12)
def test_kernel_returns_finite_or_raises_package_error(x, k):
    _finite_or_package_error(lngamma, x)
    _finite_or_package_error(digamma, x)
    _finite_or_package_error(polygamma, k, x)


# ---------------------------------------------------------------------------
# the array kernel
# ---------------------------------------------------------------------------

def _scalar_table(n_psi: int, u: float) -> list[float]:
    return [lngamma(u), digamma(u)] + [polygamma(j, u) for j in range(1, n_psi)]


def test_gamma_table_matches_the_scalar_kernel_within_8_ulps():
    rng = np.random.default_rng(20261018)
    u = np.concatenate([10.0 ** rng.uniform(-9.0, 6.0, 400),
                        rng.uniform(1e-9, 20.0, 200)])
    lg, psi = gamma_table(MAX_DERIV_ORDER, u)
    assert psi.shape == (MAX_DERIV_ORDER, u.size)
    got = np.vstack([lg, psi])
    want = np.array([_scalar_table(MAX_DERIV_ORDER, v) for v in u.tolist()]).T
    assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))


def _scalar_raises(n_psi: int, u: float) -> bool:
    try:
        _scalar_table(n_psi, u)
    except CapabilityError:
        return True
    return False


@given(st.lists(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
                min_size=1, max_size=4),
       st.integers(min_value=1, max_value=MAX_DERIV_ORDER + 1))
@example([1e100], 4)              # polygamma(3, .): z ** 5 overflows
@example([2.0, 1e-30], 12)        # polygamma(11, .): a shift term z ** -12 overflows
@example([5e-324], 1)             # digamma: the shift term 1/z overflows
@example([1e308], 1)              # lngamma itself overflows
@example([1e30], 2)               # polygamma(1, .): only the harmless zpow *= zsq overflows
@example([1e200, 3.0], 1)         # lngamma and digamma: z * z overflows, harmlessly
def test_gamma_table_raises_exactly_where_a_scalar_call_does(u, n_psi):
    if any(_scalar_raises(n_psi, v) for v in u):
        with pytest.raises(CapabilityError):
            gamma_table(n_psi, u)
    else:
        lg, psi = gamma_table(n_psi, u)
        assert np.isfinite(lg).all() and np.isfinite(psi).all()


def test_gamma_table_validation():
    for bad in ([0.0], [1.0, -1.0], [math.nan], [math.inf], ["abc"], [[1.0]], 2.0):
        with pytest.raises(DomainError):
            gamma_table(2, bad)
    for bad in (0, 1.0, True, "2"):
        with pytest.raises(DomainError):
            gamma_table(bad, [1.0])
    with pytest.raises(CapabilityError):
        gamma_table(MAX_DERIV_ORDER + 2, [1.0])
    lg, psi = gamma_table(3, [])
    assert lg.shape == (0,) and psi.shape == (3, 0)
