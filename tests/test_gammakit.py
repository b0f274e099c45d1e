"""Kernel tests: lngamma / digamma / polygamma against the series oracle."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import _oracle as oracle
import _referee as referee
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
    q_surface_table,
    scan_values,
    verify_thm3,
)
from gammacert.gammakit import (ASYM_TERMS, BERNOULLI_EVEN, BERNOULLI_EVEN_RATIONAL,
                                MAX_DERIV_ORDER, SHIFT_THRESHOLD, _poly_coefs, power)

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


#: The positive zero of psi, correctly rounded.
PSI_ZERO = 1.4616321449683622


@pytest.mark.parametrize("fn,x", [
    (lngamma, 1.0 - 1e-9), (lngamma, 1.0 + 1e-9),
    (lngamma, 2.0 - 1e-9), (lngamma, 2.0 + 1e-9),
    (digamma, PSI_ZERO),
])
def test_accuracy_is_absolute_at_the_zeros(fn, x):
    # relative accuracy is lost here (lngamma(2+1e-9) is off by 1.5e-5
    # relative); the absolute error stays near one ulp of the summed terms
    ref = (oracle.lngamma if fn is lngamma else oracle.digamma)(x)
    assert abs(fn(x) - float(ref)) <= 1e-14


def test_constants_are_consistent():
    assert abs(float(oracle.euler_gamma()) - EULER_GAMMA) <= 1e-15
    assert rel_err(EXP_NEG_EULER_GAMMA, math.exp(-EULER_GAMMA)) <= 1e-15


def test_bernoulli_table_spot_values():
    # (numerator, denominator) pairs in lowest terms, denominator positive
    assert BERNOULLI_EVEN_RATIONAL[0] == (1, 6)
    assert BERNOULLI_EVEN_RATIONAL[1] == (-1, 30)
    assert BERNOULLI_EVEN_RATIONAL[5] == (-691, 2730)
    assert tuple(Fraction(num, den) for num, den in BERNOULLI_EVEN_RATIONAL) == (
        oracle.bernoulli_even(ASYM_TERMS))


def test_series_coefficients_are_the_fraction_computation_bit_for_bit():
    # the kernel divides exact integers; Fraction.__float__ is the reference
    bern = oracle.bernoulli_even(ASYM_TERMS)
    assert BERNOULLI_EVEN == tuple(float(b) for b in bern)
    for k in range(1, MAX_DERIV_ORDER + 1):
        assert _poly_coefs(k) == tuple(
            float(b * Fraction(math.factorial(2 * n + k - 1), math.factorial(2 * n)))
            for n, b in enumerate(bern, start=1)), k


def test_series_truncation_is_negligible_at_the_shift_threshold():
    # The series only ever sees z >= SHIFT_THRESHOLD.  Its last summed term
    # goes like z^-(2n+k) while the value goes like z^-k (z ln z and ln z for
    # lngamma and digamma), so |last term| / |value| is largest at
    # z = SHIFT_THRESHOLD and this one point bounds the truncation everywhere.
    n, z = ASYM_TERMS, Fraction(SHIFT_THRESHOLD)
    bern = Fraction(*BERNOULLI_EVEN_RATIONAL[n - 1])
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
    (q_surface_table, (None, [0.5]), "y must be a real number, got None"),
    (alpha_necessary_bound, (None, 0.0), "x must be a real number, got None"),
    (alpha_necessary_bound, (0.5, ["1.0"]), "y must be a real number, got '1.0'"),
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


@pytest.mark.parametrize("fn,args,message", [
    (logh_deriv_table, (8, -2.0, [5.0]), "y must be a finite real > -1, got -2.0"),
    (alpha_necessary_bound, (1.0, -1.5), "y must be a finite real > -1, got -1.5"),
    (q_surface, (1.0, -2.0), "y must be a finite real > -1, got -2.0"),
    (q_surface_table, (math.nan, [1.0]), "y must be a finite real > -1, got nan"),
    (logh_deriv_table, (2, math.inf, [1.0]), "y must be a finite real > -1, got inf"),
])
def test_y_outside_the_domain_is_named_in_the_error(fn, args, message):
    with pytest.raises(DomainError) as info:
        fn(*args)
    assert str(info.value) == message


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
# grid calls of the kernel
# ---------------------------------------------------------------------------

#: (package function, referee scalar body) pairs; a float call and a grid
#: call go through one body, so both are held to the referee's loops
_KERNEL = ((lngamma, referee.lngamma), (digamma, referee.digamma),
           *((partial(polygamma, k), partial(referee.polygamma, k))
             for k in range(1, MAX_DERIV_ORDER + 1)))
_AROUND_16 = [math.nextafter(16.0, 0.0), 16.0, math.nextafter(16.0, math.inf)]


def _kernel_outcome(evaluate) -> list[str] | str:
    """float.hex of every value evaluate() returns, or the error it raises;
    a warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return [float(v).hex() for v in evaluate()]
        except (CapabilityError, DomainError) as exc:
            return f"{type(exc).__name__}: {exc}"


@given(st.lists(st.floats(min_value=5e-324, max_value=1e300), max_size=8),
       st.sampled_from(_KERNEL))
@example(_AROUND_16 + [1e-300, 1e300], _KERNEL[0])     # lngamma
@example(_AROUND_16 + [1e-300, 1e300], _KERNEL[1])     # digamma
@example(_AROUND_16 + [1e-300, 1.0], _KERNEL[2])       # polygamma(1, .)
@example(_AROUND_16 + [1e-300, 1.0], _KERNEL[-1])      # polygamma(12, .)
@example([3.0, 1e300, 1e200], _KERNEL[2])              # z ** 2 overflows at 1e300 first
@example([2.0, 1e-30, 1e300], _KERNEL[11])             # polygamma(10, .): z ** -11 overflows
@example([1.0, 5e-324], _KERNEL[1])                    # the shift term 1/z is inf
@example([1.0, 0.0, -1.0], _KERNEL[0])                 # not in the domain
@example([2.0, math.nan], _KERNEL[5])
@example([], _KERNEL[1])
def test_grid_calls_are_the_scalar_calls_bit_for_bit(xs, pair):
    fn, refer = pair
    grid = np.array(xs, dtype=float)
    assert _kernel_outcome(lambda: fn(grid)) == _kernel_outcome(lambda: [refer(v) for v in xs])


def test_grid_calls_match_the_scalar_calls_on_a_dense_grid():
    # dense enough, below and above the shift threshold, that np.log and
    # np.power in place of libm would move some values
    grid = np.concatenate([np.geomspace(1e-2, 16.0, 10000), np.geomspace(16.0, 2000.0, 10000)])
    for fn, refer in _KERNEL:
        assert fn(grid).tolist() == [refer(v) for v in grid.tolist()], fn


def test_grid_calls_return_float_arrays():
    grid = np.geomspace(1e-2, 1e3, 7)
    for fn, _ in _KERNEL:
        out = fn(grid)
        assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == (7,)
    assert lngamma(np.array([1, 3])).tolist() == [lngamma(1.0), lngamma(3.0)]


@pytest.mark.parametrize("k", [1, 6, 12])
def test_a_grid_whose_shift_power_overflows_raises_the_scalar_error(k):
    # 1e-320 ** -(k+1) overflows in the first shift step
    message = f"polygamma({k}, 1e-320) needs a power of x outside the double-precision range"
    for x in (1e-320, np.array([1e-320]), np.array([1.0, 1e-320, 2.0])):
        with pytest.raises(CapabilityError) as info:
            polygamma(k, x)
        assert str(info.value) == message


def test_a_grid_whose_last_series_power_overflows_raises_the_scalar_error():
    # polygamma(3, .) takes z ** 5: finite at 1e61, beyond binary64 at 1e62
    assert np.isfinite(polygamma(3, np.array([1.0, 1e61]))).all()
    with pytest.raises(CapabilityError) as info:
        polygamma(3, np.array([1.0, 2.0, 1e62]))
    assert str(info.value) == (
        "polygamma(3, 1e+62) needs a power of x outside the double-precision range")


# ---------------------------------------------------------------------------
# power: libm's pow in numpy's C loop
# ---------------------------------------------------------------------------

#: Every exponent the package passes to power: the kernel's shift terms
#: -(k+1) and series powers k..k+2, polygamma_bounds' float(k) for k = 1..7,
#: suffice_chain's 3.0, and gen_log_mean's 1/p for the suites' p = -2 and
#: the orders tests/test_grids.py draws.
POWER_EXPONENTS = (
    *(e for k in range(1, MAX_DERIV_ORDER + 1) for e in (-(k + 1), k, k + 1, k + 2)),
    *(float(k) for k in range(1, 8)), 3.0,
    *(1.0 / p for p in (-2.0, -7.0, -3.0, 0.5, 1.0, 2.0, 7.0)))


def _random_finite(count: int, seed: int) -> np.ndarray:
    """count random finite binary64 bit patterns, both signs, subnormals included."""
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, count * 2, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)][:count]


def _assert_power_is_math_pow(a: np.ndarray, e) -> None:
    """power(a, e) is math.pow at every element by float.hex, and where
    math.pow raises, power raises its first error, type and message."""
    want, first_error = [], None
    for v in a.tolist():
        try:
            want.append(math.pow(v, e).hex())
        except (OverflowError, ValueError) as exc:
            want.append(None)
            first_error = first_error or exc
    ok = np.array([w is not None for w in want])
    assert [v.hex() for v in power(a[ok], e).tolist()] == [w for w in want if w], e
    if first_error is not None:
        with pytest.raises(type(first_error)) as info:
            power(a, e)
        assert str(info.value) == str(first_error)


@pytest.mark.parametrize("points", ["log_grid", "random_bits"])
def test_power_is_math_pow_bit_for_bit(points):
    # np.power, which may dispatch to SIMD code, moves hundreds of these
    a = (np.geomspace(5e-324, 1e300, 12000) if points == "log_grid"
         else _random_finite(8000, 20261019))
    for e in POWER_EXPONENTS:
        _assert_power_is_math_pow(a, e)


@pytest.mark.parametrize("a,e,error", [
    ([2.0, 1e200, 3.0], 2.0, OverflowError),
    ([3.0, 1e-30, 1e-300], -12, OverflowError),
    ([2.0, 1e300], 14, OverflowError),
    ([1.0, 0.0], -2.0, ValueError),
    ([4.0, -2.0], 0.5, ValueError),
])
def test_power_raises_what_math_pow_raises(a, e, error):
    with pytest.raises(error):
        math.pow(a[1], e)
    _assert_power_is_math_pow(np.array(a), e)


def test_power_underflow_is_math_pow():
    # a subnormal or a zero result is no error, in math.pow or in power, also
    # beside points whose power overflows
    a = np.array([1e-160, 1e-200, 5e-324, 2.0 ** -537, 1e-320, 1e300, 2.0 ** 1000])
    for e in (2.0, 3, 0.5, 1.5, -0.5, -2, -13, 14):
        _assert_power_is_math_pow(a, e)
    assert power(np.array([1e-160]), 2.0)[0] == 1e-320 and power(np.array([1e-200]), 2.0)[0] == 0.0


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
