"""Tests for the machine-checkable inequality catalog."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

import _oracle as oracle
from gammacert import (
    AuxFn,
    CheckResult,
    DomainError,
    ParameterError,
    PrecisionError,
    aux_eval,
    batir_ineq,
    digamma,
    gamma_ratio_ineq,
    log_upper_bound_ineq,
    polygamma_bounds,
    psi_integral_mean_ineq,
    psi_log_bounds,
    psi_upper_refinement,
    qcub_root,
    suffice_chain,
    thm2_ineq,
)
from gammacert.ineq import NOISE_REL


def flag(result: CheckResult, name: str) -> bool:
    return any(n == name for n, _ in result.inputs)


def inputs_dict(result: CheckResult) -> dict[str, float]:
    return dict(result.inputs)


# ---------------------------------------------------------------------------
# CheckResult semantics
# ---------------------------------------------------------------------------

def test_check_result_rejects_non_finite_fields():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(PrecisionError):
            CheckResult(name="x", inputs=(), lhs=bad, rhs=0.0,
                        margin=0.0, holds=False)
        with pytest.raises(PrecisionError):
            CheckResult(name="x", inputs=(), lhs=0.0, rhs=0.0,
                        margin=bad, holds=False)


def test_strict_check_does_not_hold_inside_noise_band():
    # margin exactly zero on a strict claim: flagged, not asserted
    r = log_upper_bound_ineq(1e-6)
    assert r.strict
    assert not r.holds
    assert flag(r, "margin_within_noise")
    assert abs(r.margin) <= NOISE_REL * max(abs(r.lhs), abs(r.rhs))


# ---------------------------------------------------------------------------
# digamma / polygamma windows
# ---------------------------------------------------------------------------

def test_psi_log_bounds_names_and_structure():
    rows = psi_log_bounds(1.0)
    assert [r.name for r in rows] == [
        "psi_between_log_offsets",
        "psi_between_shifted_logs",
        "psi_between_shifted_logs_sharp",
        "psi_second_order_window",
    ]
    for r in rows:
        assert r.holds
        assert r.margin > 0.0
        assert inputs_dict(r)["x"] == 1.0
        assert r.lhs < inputs_dict(r)["mid"] < r.rhs


def test_psi_log_bounds_margins_match_oracle():
    for x in (0.05, 0.5, 2.0, 37.0):
        psi_ref = float(oracle.digamma(x))
        r = psi_log_bounds(x)[0]
        lo_ref = math.log(x) - 1.0 / x
        up_ref = math.log(x) - 0.5 / x
        ref_margin = min(psi_ref - lo_ref, up_ref - psi_ref)
        assert abs(r.margin - ref_margin) <= 1e-12 * max(1.0, abs(ref_margin))


def test_second_order_window_saturates_at_large_x():
    # true lower margin is ~ 1/(120 x^4): below the noise band near x = 700
    r = psi_log_bounds(700.0)[3]
    assert not r.holds
    assert flag(r, "margin_within_noise")
    assert r.margin > 0.0  # still positive, just unresolvable as strict


def test_psi_upper_refinement_holds():
    for x in (0.01, 1.0, 100.0):
        r = psi_upper_refinement(x)
        assert r.name == "psi_sharp_upper_refines_shifted_log"
        assert r.holds and r.margin > 0.0


def test_polygamma_bounds_hold_and_match_oracle():
    for k in (1, 2, 5):
        for x in (0.3, 1.0, 12.0):
            rows = polygamma_bounds(k, x)
            assert [r.name for r in rows] == [
                "polygamma_power_window",
                "polygamma_shifted_power_window",
            ]
            v_ref = (-1.0) ** (k + 1) * float(oracle.polygamma(k, x))
            for r in rows:
                assert r.holds
                mid = inputs_dict(r)["mid"]
                assert abs(mid - v_ref) <= 1e-12 * max(1.0, abs(v_ref))


def test_window_functions_reject_bad_arguments():
    for bad in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            psi_log_bounds(bad)
        with pytest.raises(DomainError):
            psi_upper_refinement(bad)
        with pytest.raises(DomainError):
            polygamma_bounds(1, bad)


# ---------------------------------------------------------------------------
# gamma-ratio power window
# ---------------------------------------------------------------------------

def test_gamma_ratio_default_thresholds_hold():
    for x, y, t in [(1.0, 0.0, 1.0), (-0.5, 0.3, 2.0), (10.0, -0.8, 0.1),
                    (0.2, 4.0, 30.0)]:
        r = gamma_ratio_ineq(x, y, t)
        assert r.name == "gamma_ratio_power_window"
        assert r.holds
        d = inputs_dict(r)
        assert d["log_scale"] == 1.0
        assert d["log_ratio"] < 0.0
        assert d["a"] == max(1.0, 1.0 / (y + 1.0))
        assert d["b"] == min(1.0, 0.5 / (y + 1.0))


def test_gamma_ratio_custom_exponents():
    # wider window (larger a, smaller b) still holds
    assert gamma_ratio_ineq(1.0, 0.0, 1.0, a=3.0, b=0.1).holds
    # inverted exponents produce a refuted check, not an error
    r = gamma_ratio_ineq(1.0, 0.0, 1.0, a=0.2, b=0.9)
    assert not r.holds and r.margin < 0.0


def test_gamma_ratio_validation():
    with pytest.raises(DomainError):
        gamma_ratio_ineq(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        gamma_ratio_ineq(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        gamma_ratio_ineq(1.0, 0.0, -2.0)
    with pytest.raises(DomainError):
        gamma_ratio_ineq(-1.5, 0.0, 1.0)  # x <= -(y+1)
    with pytest.raises(DomainError):
        gamma_ratio_ineq(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        gamma_ratio_ineq(-1.0, 0.5, 1.0)  # x + t == 0


@given(st.floats(min_value=-0.89, max_value=4.0),
       st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.05, max_value=20.0))
def test_gamma_ratio_holds_on_random_admissible_inputs(y, xoff, t):
    x = xoff - (y + 1.0) + 0.05  # keeps u1 >= 0.05
    if abs(x) < 1e-2 or abs(x + t) < 1e-2:
        return
    assert gamma_ratio_ineq(x, y, t).holds


# ---------------------------------------------------------------------------
# difference-quotient bound and its proof chain
# ---------------------------------------------------------------------------

def test_thm2_holds_and_matches_oracle_margin_at_one():
    r = thm2_ineq(1.0)
    assert r.name == "gamma_diff_quotient_vs_one_minus_psi"
    assert r.holds
    ref = float(oracle.thm2_margin(1))
    assert abs(r.margin - ref) <= 1e-12
    assert abs(r.margin - 0.09908469450988225) <= 1e-12


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_thm2_holds_on_log_uniform_grid(e):
    assert thm2_ineq(10.0 ** e).holds


def test_thm2_rejects_nonpositive_t():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            thm2_ineq(bad)


def test_thm2_raises_precision_error_where_t_over_1_plus_2t_rounds_to_t():
    # the lnGamma difference is then exactly zero (and 2t^2 underflows at 1e-300)
    for tiny in (1e-17, 1e-300, 5e-324):
        with pytest.raises(PrecisionError):
            thm2_ineq(tiny)


def test_batir_worked_pairs_hold():
    for a, b in [(2.0, 1.0), (1.0, 2.0), (1.0, 1.0 / 3.0)]:
        r = batir_ineq(a, b)
        assert r.name == "psi_logmean_vs_gamma_ratio_power"
        assert r.holds and r.margin > 0.0


def test_batir_printed_form_fails_where_quotient_form_holds():
    # the (a-b)-power reading is not universally valid; the quotient
    # reading recorded in inputs still holds at the same pair
    r = batir_ineq(0.5, 2.0)
    assert not r.holds and r.margin < 0.0
    d = inputs_dict(r)
    assert digamma(d["log_mean"]) < d["rhs_exponent_quotient_form"]


def test_batir_validation():
    with pytest.raises(DomainError):
        batir_ineq(2.0, 2.0)
    with pytest.raises(DomainError):
        batir_ineq(0.0, 1.0)
    with pytest.raises(DomainError):
        batir_ineq(1.0, -3.0)


def test_psi_integral_mean_window_spot():
    r = psi_integral_mean_ineq(0, 1.0, 2.0, p=-1.0, q=0.0)
    assert r.name == "psi_derivative_mean_value_window"
    assert not r.strict
    assert r.holds
    # the mean is lnGamma(2) - lnGamma(1) = 0
    assert abs(inputs_dict(r)["mid"]) <= 1e-15


def test_psi_integral_mean_geometric_lower_point_is_chain_sqrt_point():
    t = 0.8
    w = (2.0 * t + 1.0) * math.log1p(2.0 * t)
    s = 2.0 * t * t / w
    r = psi_integral_mean_ineq(1, s, t, p=-2.0, q=-1.0)
    assert r.holds
    chain = suffice_chain(t)
    sqrt_pt = inputs_dict(chain[1])["sqrt_point"]
    assert math.isclose(math.sqrt(s * t), sqrt_pt, rel_tol=1e-14)


def test_psi_integral_mean_validation():
    with pytest.raises(ParameterError):
        psi_integral_mean_ineq(2, 1.0, 2.0, p=-3.0, q=-2.0)
    with pytest.raises(ParameterError):
        psi_integral_mean_ineq(1, 1.0, 2.0, p=-1.5, q=-1.0)  # p > -(i+1)
    with pytest.raises(ParameterError):
        psi_integral_mean_ineq(1, 1.0, 2.0, p=-2.0, q=-1.5)  # q < -i
    with pytest.raises(DomainError):
        psi_integral_mean_ineq(1, 2.0, 2.0, p=-2.0, q=-1.0)
    with pytest.raises(DomainError):
        psi_integral_mean_ineq(0, -1.0, 2.0, p=-1.0, q=0.0)


def test_log_upper_bound_holds_at_moderate_t():
    for t in (0.1, 1.0, 10.0):
        r = log_upper_bound_ineq(t)
        assert r.name == "log1p_rational_bound"
        assert r.holds and r.margin > 0.0
    with pytest.raises(DomainError):
        log_upper_bound_ineq(0.0)


# ---------------------------------------------------------------------------
# auxiliary scalar functions
# ---------------------------------------------------------------------------

def test_aux_exact_spots():
    assert aux_eval(AuxFn.QCUB, 0.0) == -3.0
    assert aux_eval(AuxFn.QCUB, 1.0) == 14.0
    assert abs(aux_eval(AuxFn.QCUB, 1.0 / 3.0) + 2.0 / 3.0) <= 1e-15
    assert abs(aux_eval(AuxFn.HPOLY, 1.0 / 3.0) + 700.0 / 81.0) <= 1e-14
    ref = -404759.0 / 117649.0
    assert abs(aux_eval(AuxFn.HPOLY, 8.0 / 7.0) - ref) <= 1e-13 * abs(ref)
    assert 0.002 < aux_eval(AuxFn.QLOG, 8.0 / 7.0) < 0.003


def test_aux_validation():
    with pytest.raises(DomainError):
        aux_eval(AuxFn.QLOG, -0.5)
    with pytest.raises(DomainError):
        aux_eval(AuxFn.QLOG, -1.0)
    with pytest.raises(DomainError):
        aux_eval(AuxFn.QCUB, math.nan)
    with pytest.raises(ParameterError):
        aux_eval("qcub", 1.0)


def test_qcub_root_bracket_and_residual():
    root = qcub_root()
    assert 1.0 / 3.0 < root < 1.0
    assert abs(aux_eval(AuxFn.QCUB, root)) <= 2e-9
    tighter = qcub_root(tol=1e-12)
    assert abs(aux_eval(AuxFn.QCUB, tighter)) <= 2e-11
    assert abs(tighter - root) <= 1e-9


def test_qcub_root_tol_validation():
    for bad in (0.0, -1e-3, 0.5, 1, True):
        with pytest.raises(ParameterError):
            qcub_root(tol=bad)


# ---------------------------------------------------------------------------
# chained sufficiency inequalities
# ---------------------------------------------------------------------------

def test_suffice_chain_names_and_verdicts():
    for t in (0.01, 0.25, 0.5, 1.0, 1.14):
        rows = suffice_chain(t)
        assert [r.name for r in rows] == [
            "psi_diff_vs_one",
            "trigamma_vs_rational",
            "algebraic_rational_window",
        ]
        assert rows[0].strict
        assert not rows[1].strict and not rows[2].strict
        assert all(r.holds for r in rows)


def test_suffice_chain_domain():
    with pytest.raises(DomainError):
        suffice_chain(0.0)
    with pytest.raises(DomainError):
        suffice_chain(8.0 / 7.0)
    with pytest.raises(DomainError):
        suffice_chain(2.0)


def test_suffice_chain_raises_precision_error_where_its_denominator_cancels():
    for tiny in (1e-300, 5e-324):  # (2t+1)ln(2t+1) - 2t rounds to 0
        with pytest.raises(PrecisionError):
            suffice_chain(tiny)
