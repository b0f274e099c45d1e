"""The input contract of the whole public API.

Every public function returns finite values or raises one of the four
package errors, whatever one of its arguments is.  TABLE holds every name of
``gammacert.__all__``: a callable gets a strategy of good values per
parameter, and any other name is marked as what it is (a constant, an enum,
an exception type or a plain container, which validates nothing).  The test
draws good arguments, calls the function with them, and then again with
each argument in turn replaced by each hostile value.  A name missing from
the table, or a parameter missing from its entry, fails the test.  FORMS
holds the cases that call a public function in one of its forms only.
"""

from __future__ import annotations

import inspect
import math
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gammacert
from gammacert import (
    AuxFn,
    CheckTable,
    DerivSample,
    DerivTable,
    Direction,
    GridSpec,
    HParams,
    Results,
    ScanCell,
    Verdict,
    build_report,
    certify_lcm,
    one_sided,
    one_sided_rows,
    scan_values,
    to_jsonable,
)
from gammacert.errors import PACKAGE_ERRORS

#: One argument at a time takes each of these.
HOSTILE = (None, "a", "2.5", True, math.nan, math.inf, 10 ** 400, -0.0, 1e-320,
           np.array([]), np.ones((2, 2)), [1.0, None], [1.0, [2.0]], 1 + 1j, np.float32(0.5),
           np.float16(2.5))

CONSTANT, ENUM, ERROR, CONTAINER = "constant", "enum", "error", "container"


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _points(lo, hi):
    """One point, or a short 1-D grid as a list or an array."""
    return _floats(lo, hi) | st.lists(_floats(lo, hi), max_size=3) | st.lists(
        _floats(lo, hi), max_size=3).map(np.array)


ALPHA = _floats(-3.0, 3.0)
Y = _floats(-0.95, 5.0)
X = _floats(-0.5, 20.0)
POSITIVE = _floats(1e-3, 50.0)
ORDER = st.integers(1, 12)
PARAMS = st.builds(HParams, ALPHA, Y)
GRID = st.builds(GridSpec, _floats(1e-4, 0.5), _floats(2.0, 50.0), st.integers(2, 12))
NAME = st.sampled_from(["w", "check"])
INPUTS = st.lists(st.tuples(st.sampled_from(["x", "t"]), _floats(-5.0, 5.0)),
                  max_size=2).map(tuple)
FLAG = st.booleans()

_SMALL = GridSpec(1e-3, 10.0, 12)
_PASS = certify_lcm(HParams(2.0, 0.0), Direction.LCM, 2, _SMALL)
_FAIL = certify_lcm(HParams(0.5, 0.0), Direction.LCM, 2, _SMALL)
_ITEMS = (one_sided("w", (("x", 1.0),), 1.0, 2.0), _PASS, _FAIL,
          one_sided_rows("v", (("t", [1.0, 2.0]),), [0.0, 3.0], 2.0),
          *scan_values([0.5, 1.5], 0.0, k_max=2, points=12, x_max=10.0))
ITEM = st.sampled_from([item for item in _ITEMS if not isinstance(item, CheckTable)])
REPORT = st.builds(build_report, NAME, st.lists(st.sampled_from(_ITEMS), max_size=3),
                   st.just("0.1.0"), st.just("2026-01-01T00:00:00Z"))

TABLE = {
    "__version__": CONSTANT,
    # ballvol
    "ball_ratio_checks": {"n": st.integers(1, 30)},
    "log_omega": {"n": st.integers(0, 200) | st.lists(st.integers(0, 50), max_size=3)},
    "omega": {"n": st.integers(0, 200)},
    "recurrence_check": {"n": st.integers(2, 100)},
    # certify
    "Certificate": {"params": PARAMS, "direction": st.sampled_from([*Direction, None]),
                    "k_max": ORDER, "grid": GRID, "verdict": st.just(Verdict.PASS),
                    "witness": st.none(), "undecided_points": st.integers(0, 50),
                    "check": st.sampled_from(["lcm-sign", "surface-negativity"]),
                    "semantics": st.just("grid-verified")},
    "Classification": ENUM,
    "DEFAULT_K_MAX": CONSTANT,
    "DEFAULT_POINTS": CONSTANT,
    "DEFAULT_X_MAX": CONSTANT,
    "Direction": ENUM,
    "GridSpec": {"x_min_offset": _floats(1e-6, 1.0), "x_max": _floats(-5.0, 1e3),
                 "points": st.integers(2, 500)},
    "NOISE_FLOOR_REL": CONSTANT,
    "ScanCell": CONTAINER,
    "Verdict": ENUM,
    "certify_lcm": {"params": PARAMS, "direction": st.sampled_from([*Direction, "LCM"]),
                    "k_max": st.integers(1, 4), "grid": GRID},
    "classify": {"lcm_cert": st.sampled_from([_PASS, _FAIL]),
                 "recip_cert": st.sampled_from([_PASS, _FAIL]), "conjecture_zone": FLAG},
    "default_grid": {"y": Y, "points": st.integers(2, 50), "x_max": _floats(0.01, 1e3)},
    "finite_diff_crosscheck": {"k": st.integers(1, 4), "params": PARAMS, "x": X,
                               "step": _floats(1e-6, 1e-2)},
    "grid_cuts": {"y": Y, "k_max": st.integers(1, 4), "grid": GRID},
    "grid_points": {"spec": GRID, "y": Y},
    "in_conjecture_zone": {"alpha": _points(-3.0, 3.0), "y": Y},
    "finite_diff_crosschecks": {"cells": st.lists(st.tuples(
        st.integers(1, 4), PARAMS, X, _floats(1e-6, 1e-2)), max_size=3)},
    "lcm_certifier": {"y": _points(-0.95, 5.0), "k_max": st.integers(1, 4),
                      "grid": st.none() | GRID | st.lists(st.none() | GRID, max_size=3)},
    "necessity_limits": {"y": _points(-0.95, 5.0)},
    "scan_values": {"alphas": _points(0.0, 2.0), "ys": _points(-0.9, 3.0),
                    "k_max": st.integers(1, 3), "points": st.integers(2, 12),
                    "x_max": _floats(0.01, 50.0)},
    "verify_thm3": {"y": _points(-0.97, -0.51), "points": st.integers(2, 30),
                    "x_max": _floats(1.0, 1e3)},
    # errors
    "CapabilityError": ERROR,
    "DomainError": ERROR,
    "ParameterError": ERROR,
    "PrecisionError": ERROR,
    # gammakit
    "ASYM_TERMS": CONSTANT,
    "BERNOULLI_EVEN": CONSTANT,
    "EULER_GAMMA": CONSTANT,
    "EXP_NEG_EULER_GAMMA": CONSTANT,
    "MAX_DERIV_ORDER": CONSTANT,
    "SHIFT_THRESHOLD": CONSTANT,
    "check_order": {"k": ORDER},
    "digamma": {"x": _points(1e-3, 1e3)},
    "gamma_rows": {"orders": st.lists(st.integers(-1, 12), min_size=1, max_size=4,
                                      unique=True).map(sorted),
                   "x": _points(1e-2, 1e3)},
    "gamma_table": {"n_psi": st.integers(1, 13),
                    "u": st.lists(POSITIVE, max_size=3) | st.lists(POSITIVE).map(np.array)},
    "lngamma": {"x": _points(1e-3, 1e3)},
    "polygamma": {"k": ORDER, "x": _points(1e-2, 1e3)},
    # hfamily
    "DerivSample": CONTAINER,
    "DerivTable": CONTAINER,
    "ENDPOINT_CLEARANCE": CONSTANT,
    "HParams": {"alpha": ALPHA, "y": Y},
    "X_EPSILON": CONSTANT,
    "alpha_necessary_bound": {"x": _points(-0.5, 20.0), "y": _points(-0.95, 5.0)},
    "bigH_eval": {"alpha": ALPHA, "y": _floats(0.05, 5.0), "x": X},
    "h_eval": {"params": PARAMS, "x": X},
    "lcm_threshold": {"y": Y},
    "log_h": {"params": PARAMS, "x": X},
    "logh_deriv": {"k": ORDER, "params": PARAMS, "x": X},
    "logh_deriv_table": {"k_max": ORDER, "y": _points(-0.95, 5.0), "xs": _points(-0.5, 20.0)},
    "logh_derivs_with_scale": {"k_max": ORDER, "params": PARAMS, "x": X},
    "q_surface": {"x": X, "y": Y},
    "q_surface_table": {"y": _points(-0.95, 5.0), "xs": _points(-0.5, 20.0)},
    "reciprocal_threshold": {"y": Y},
    # ineq
    "AuxFn": ENUM,
    "CHAIN_SUP": CONSTANT,
    "CheckResult": {"name": NAME, "inputs": INPUTS, "lhs": _floats(-5.0, 5.0),
                    "rhs": _floats(-5.0, 5.0), "margin": _floats(-5.0, 5.0),
                    "holds": FLAG, "strict": FLAG},
    "CheckTable": CONTAINER,
    "NOISE_REL": CONSTANT,
    "THM2_T_MIN": CONSTANT,
    "aux_eval": {"fn": st.sampled_from(AuxFn), "t": _points(-0.4, 10.0)},
    "batir_ineq": {"a": POSITIVE, "b": POSITIVE},
    "gamma_ratio_ineq": {"x": _points(-0.5, 20.0), "y": Y, "t": POSITIVE,
                         "a": st.none() | ALPHA, "b": st.none() | ALPHA},
    "lemma_windows": {"x": _points(1e-3, 1e3)},
    "log_upper_bound_ineq": {"t": _points(1e-3, 1e3)},
    "one_sided": {"name": NAME, "inputs": INPUTS, "lhs": _floats(-5.0, 5.0),
                  "rhs": _floats(-5.0, 5.0), "strict": FLAG},
    "one_sided_rows": {"name": NAME, "inputs": INPUTS, "lhs": _points(-5.0, 5.0),
                       "rhs": _floats(-5.0, 5.0), "strict": FLAG},
    "polygamma_bounds": {"k": ORDER, "x": _points(1e-2, 1e3)},
    "psi_integral_mean_ineq": {"i": st.sampled_from([0, 1]), "s": POSITIVE,
                               "t": _points(1e-3, 50.0), "p": _floats(-4.0, -2.0),
                               "q": _floats(0.0, 2.0)},
    "psi_log_bounds": {"x": _points(1e-3, 1e3)},
    "psi_upper_refinement": {"x": _points(1e-3, 1e3)},
    "qcub_root": {"tol": _floats(1e-15, 1e-2)},
    "suffice_chain": {"t": _points(1e-3, 1.1)},
    "thm2_ineq": {"t": _points(1e-4, 1e3)},
    "two_sided": {"name": NAME, "inputs": INPUTS, "lower": _floats(-5.0, 5.0),
                  "mid": _floats(-5.0, 5.0), "upper": _floats(-5.0, 5.0), "strict": FLAG,
                  "strict_lower": st.none() | FLAG},
    "two_sided_rows": {"name": NAME, "inputs": INPUTS, "lower": _floats(-5.0, 5.0),
                       "mid": _points(-5.0, 5.0), "upper": _floats(-5.0, 5.0),
                       "strict": FLAG, "strict_lower": st.none() | FLAG},
    # means
    "gen_log_mean": {"p": _floats(-3.0, 3.0), "a": _points(1e-3, 1e3), "b": POSITIVE},
    "log_mean": {"a": _points(1e-3, 1e3), "b": POSITIVE},
    # report
    "Report": CONTAINER,
    "Results": CONTAINER,
    "build_report": {"suite": NAME, "results": st.lists(st.sampled_from(_ITEMS), max_size=3),
                     "tool_version": st.just("0.1.0"),
                     "timestamp": st.none() | st.just("2026-01-01T00:00:00Z")},
    "dumps": {"report": REPORT},
    "from_jsonable": {"data": REPORT.map(to_jsonable)},
    "make_timestamp": {},
    "result_status": {"item": ITEM},
    "to_jsonable": {"obj": ITEM | REPORT},
}

#: Forms of a public function that keep a contract case of their own:
#: case id -> (public name, entry).  ``lcm_certifiers`` is lcm_certifier on
#: a grid of ys, with one grid for all of them or one per y.
FORMS = {
    "lcm_certifiers": ("lcm_certifier", {
        "y": st.lists(Y, max_size=3) | st.lists(Y, max_size=3).map(np.array),
        "k_max": st.integers(1, 4),
        "grid": st.none() | GRID | st.lists(st.none() | GRID, max_size=3)}),
}

#: What each marker admits.
_KINDS = {
    CONSTANT: lambda obj: isinstance(obj, (int, float, str, tuple)),
    ENUM: lambda obj: isinstance(obj, type) and issubclass(obj, Enum),
    ERROR: lambda obj: obj in PACKAGE_ERRORS,
    CONTAINER: lambda obj: obj in (ScanCell, DerivSample, gammacert.Report, DerivTable,
                                   CheckTable, Results),
}


def _assert_finite(value, path: str) -> None:
    """Every number that value holds is finite as a binary64: floats, ints,
    numeric arrays, and the fields of records, tables and containers."""
    if value is None or isinstance(value, (str, bool, np.bool_, Enum)):
        return
    if isinstance(value, (int, float, np.integer, np.floating)):
        try:
            assert math.isfinite(value), f"{path} = {value!r}"
        except OverflowError:
            raise AssertionError(f"{path} = {value!r} is beyond binary64") from None
    elif isinstance(value, np.ndarray):
        assert value.dtype.kind in "biuf", f"{path} has dtype {value.dtype}"
        assert np.isfinite(value).all(), f"{path} = {value!r}"
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            _assert_finite(v, f"{path}[{i}]")
    elif isinstance(value, dict):
        for k, v in value.items():
            _assert_finite(v, f"{path}[{k!r}]")
    elif isinstance(value, (CheckTable, DerivTable, Results)):
        for slot in type(value).__slots__:
            _assert_finite(getattr(value, slot), f"{path}.{slot}")
    elif not callable(value):  # lcm_certifier's certify holds no number of its own
        raise AssertionError(f"{path} is an unexpected {type(value).__name__}")


def _call(fn, kwargs: dict, what: str) -> None:
    try:
        result = fn(**kwargs)
    except PACKAGE_ERRORS:
        return
    except Exception as exc:  # the contract: nothing else escapes
        raise AssertionError(f"{what} raised {type(exc).__name__}: {exc}") from exc
    _assert_finite(result, what)


@pytest.mark.parametrize("name", [*gammacert.__all__, *FORMS])
@settings(max_examples=10)
@given(data=st.data())
def test_public_names_return_finite_values_or_raise_package_errors(name, data):
    public, entry = FORMS.get(name, (name, TABLE.get(name)))
    assert entry is not None, f"{name} is public but missing from the contract table"
    obj = getattr(gammacert, public)
    if not isinstance(entry, dict):
        assert _KINDS[entry](obj), f"{name} is no {entry}"
        return
    params = list(inspect.signature(obj).parameters)
    assert sorted(entry) == sorted(params), f"{name} takes {params}"
    good = {p: data.draw(entry[p], label=p) for p in params}
    _call(obj, good, f"{name}(good)")
    for p in params:
        for bad in HOSTILE:
            _call(obj, {**good, p: bad}, f"{name}({p}={bad!r})")


@pytest.mark.parametrize("call", [
    lambda: gammacert.lngamma("2.5"),
    lambda: gammacert.lngamma(True),
    lambda: gammacert.lcm_threshold("0.5"),
    lambda: gammacert.logh_deriv_table(2, "0.5", [1.0]),
    lambda: gammacert.default_grid("0.5"),
    lambda: gammacert.thm2_ineq("0.5"),
    lambda: gammacert.scan_values(["1.0"], ["0.0"]),
    lambda: gammacert.scan_values([True], [0.0]),
    lambda: gammacert.gamma_table(2, ["1.0"]),
    lambda: gammacert.gamma_table(2, [True]),
    lambda: gammacert.gamma_table(2, np.array([True])),
    lambda: HParams(True, False),
    lambda: HParams(1.0, "0.5"),
    lambda: gammacert.psi_log_bounds(np.array([True, False])),
    lambda: gammacert.polygamma(np.float64(2.0), 1.0),
    lambda: gammacert.lngamma(np.array(2.5)),
    lambda: gammacert.psi_log_bounds(np.array(2.5)),
], ids=["lngamma-str", "lngamma-bool", "lcm_threshold", "logh_deriv_table",
        "default_grid", "thm2_ineq", "scan_values-str", "scan_values-bool",
        "gamma_table-str", "gamma_table-bool", "gamma_table-bool-array", "HParams-bools",
        "HParams-str", "bool-array", "float-order", "lngamma-0d-array",
        "psi_log_bounds-0d-array"])
def test_strings_bools_float_orders_and_0d_arrays_are_refused(call):
    with pytest.raises(gammacert.DomainError):
        call()


def test_numpy_numbers_pass_as_reals_integers_and_ys():
    assert gammacert.polygamma(np.int64(2), 1.0) == gammacert.polygamma(2, 1.0)
    assert gammacert.check_order(np.int8(3)).__class__ is int
    assert gammacert.log_omega(np.int64(3)) == gammacert.log_omega(3)
    assert gammacert.gamma_table(np.uint8(2), [1.5])[1].shape == (2, 1)
    grid = GridSpec(np.float32(0.5), np.int64(10), np.int32(5))
    assert grid == (0.5, 10.0, 5) and grid.points.__class__ is int
    params = HParams(np.float64(1), np.int16(0))
    assert params == (1.0, 0.0) and {type(v) for v in params} == {float}
    assert gammacert.lngamma(np.float16(2.5)) == gammacert.lngamma(2.5)
