"""The package's records are immutable named tuples.

HParams, GridSpec and Certificate validate on every path that builds one:
the constructor, ``_make`` and ``_replace``.  DerivSample, ScanCell and
Report are plain named tuples.
"""

from __future__ import annotations

import math
import pickle
import re

import pytest

from gammacert import (
    Certificate,
    Classification,
    Direction,
    DomainError,
    GridSpec,
    HParams,
    ParameterError,
    Report,
    ScanCell,
    Verdict,
    build_report,
    certify_lcm,
    finite_diff_crosscheck,
    from_jsonable,
    grid_points,
    h_eval,
    lcm_certifier,
    log_h,
    logh_deriv,
    logh_derivs_with_scale,
    to_jsonable,
)
from gammacert.certify import in_conjecture_zone
from gammacert.records import DerivSample

PARAMS = HParams(alpha=0.5, y=1.0)
GRID = GridSpec(x_min_offset=1e-4, x_max=10.0, points=5)
WITNESS = DerivSample(k=2, x=-0.5, value=-3.25)
PASS_CERT = Certificate(params=PARAMS, direction=Direction.LCM, k_max=8, grid=GRID,
                        verdict=Verdict.PASS, witness=None, undecided_points=3)
FAIL_CERT = Certificate(params=HParams(2.0, 0.0), direction=None, k_max=1, grid=GRID,
                        verdict=Verdict.FAIL, witness=WITNESS,
                        check="surface-negativity")
CELL = ScanCell(alpha=0.75, y=0.0, classification=Classification.UNDECIDED,
                conjecture_zone=True, reciprocal_violation=True)
REPORT = build_report("records", [PASS_CERT, FAIL_CERT, CELL], tool_version="0.1.0",
                      timestamp="2026-01-01T00:00:00Z")

_FAIL_IFF_WITNESS = "certificate invariant violated: FAIL iff witness present"
_HUGE = 10**400  # an int beyond the float range

#: (valid record, field, bad value, error, message)
INVALID = [
    (PARAMS, "alpha", math.nan, DomainError, "alpha must be finite, got nan"),
    (PARAMS, "alpha", "1", DomainError, "alpha must be finite, got '1'"),
    (PARAMS, "y", -1.0, DomainError, "y must be a finite real > -1, got -1.0"),
    (PARAMS, "y", math.inf, DomainError, "y must be a finite real > -1, got inf"),
    (PARAMS, "alpha", _HUGE, DomainError, f"alpha must be finite, got {_HUGE!r}"),
    (PARAMS, "y", _HUGE, DomainError, f"y must be a finite real > -1, got {_HUGE!r}"),
    (GRID, "x_min_offset", 0.0, ParameterError,
     "x_min_offset must be a finite positive real, got 0.0"),
    (GRID, "x_max", math.inf, ParameterError, "x_max must be finite, got inf"),
    (GRID, "x_max", "10", ParameterError, "x_max must be finite, got '10'"),
    (GRID, "x_min_offset", _HUGE, ParameterError,
     f"x_min_offset must be a finite positive real, got {_HUGE!r}"),
    (GRID, "x_max", _HUGE, ParameterError, f"x_max must be finite, got {_HUGE!r}"),
    (GRID, "points", 1, ParameterError, "points must be an integer >= 2, got 1"),
    (GRID, "points", 5.0, ParameterError, "points must be an integer >= 2, got 5.0"),
    (GRID, "x_min_offset", True, ParameterError,
     "x_min_offset must be a finite positive real, got True"),
    (GRID, "x_max", True, ParameterError, "x_max must be finite, got True"),
    (GRID, "points", True, ParameterError, "points must be an integer >= 2, got True"),
    (PASS_CERT, "verdict", Verdict.FAIL, ParameterError, _FAIL_IFF_WITNESS),
    (PASS_CERT, "witness", WITNESS, ParameterError, _FAIL_IFF_WITNESS),
    (FAIL_CERT, "witness", None, ParameterError, _FAIL_IFF_WITNESS),
]


@pytest.mark.parametrize("record,field,bad,error,message", INVALID)
def test_validating_records_refuse_bad_fields_on_every_path(record, field, bad, error,
                                                            message):
    cls, pattern = type(record), f"^{re.escape(message)}$"
    with pytest.raises(error, match=pattern):
        cls(**{**record._asdict(), field: bad})
    with pytest.raises(error, match=pattern):
        cls._make(bad if name == field else v for name, v in zip(record._fields, record))
    with pytest.raises(error, match=pattern):
        record._replace(**{field: bad})


def test_grid_spec_accepts_ints_and_defaults_its_points():
    grid = GridSpec(1, 10)
    assert grid == (1, 10, 200) and grid.points == 200


def test_defaults_fill_the_trailing_fields_on_every_path():
    cert = Certificate(*PASS_CERT[:6])
    assert cert[6:] == (0, "lcm-sign", "grid-verified")
    assert Certificate._make(PASS_CERT[:6]) == cert
    assert GridSpec._make((1e-4, 10.0)) == GridSpec(1e-4, 10.0, 200)


@pytest.mark.parametrize("record", [PARAMS, GRID, WITNESS, PASS_CERT, FAIL_CERT, CELL,
                                    REPORT], ids=lambda r: type(r).__name__)
def test_records_are_immutable_named_tuples(record):
    cls = type(record)
    for field in (record._fields[0], "new_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
    twin = cls(*record)
    assert twin == record and twin is not record
    assert len(record) == len(record._fields)
    assert tuple(record) == tuple(getattr(record, name) for name in record._fields)
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record).startswith(f"{cls.__name__}({record._fields[0]}=")
    if cls is Report:  # its summary is a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert {record: 1}[twin] == 1


def test_replace_keeps_the_record_type_and_the_other_fields():
    moved = PASS_CERT._replace(undecided_points=0)
    assert type(moved) is Certificate and moved != PASS_CERT
    assert moved[:6] == PASS_CERT[:6] and moved.undecided_points == 0
    assert PARAMS._replace(y=2.0) == HParams(0.5, 2.0)


def test_report_round_trips_through_jsonable():
    assert from_jsonable(to_jsonable(REPORT)) == REPORT
    assert type(from_jsonable(to_jsonable(REPORT))) is Report


# ---------------------------------------------------------------------------
# record arguments are checked where they enter
# ---------------------------------------------------------------------------

_PAIR, _TRIPLE = (0.5, 1.0), (1e-4, 10.0, 5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: log_h(_PAIR, 1.0), ParameterError, "params must be a HParams"),
    (lambda: h_eval(_PAIR, 1.0), ParameterError, "params must be a HParams"),
    (lambda: logh_deriv(1, _PAIR, 1.0), ParameterError, "params must be a HParams"),
    (lambda: logh_derivs_with_scale(2, _PAIR, 1.0), ParameterError,
     "params must be a HParams"),
    (lambda: finite_diff_crosscheck(2, _PAIR, 1.0), ParameterError,
     "params must be a HParams"),
    (lambda: certify_lcm(_PAIR, Direction.LCM), ParameterError, "params must be a HParams"),
    (lambda: grid_points(_TRIPLE, 1.0), ParameterError, "spec must be a GridSpec"),
    (lambda: lcm_certifier(1.0, grid=_TRIPLE), ParameterError, "grid must be a GridSpec"),
    (lambda: certify_lcm(PARAMS, "a", grid=GRID), ParameterError,
     "direction must be one of LCM, RECIPROCAL, got 'a'"),
    (lambda: in_conjecture_zone("a", 0.0), DomainError,
     "alpha must be a real number, got 'a'"),
], ids=["log_h", "h_eval", "logh_deriv", "logh_derivs_with_scale",
        "finite_diff_crosscheck", "certify_lcm-params", "grid_points", "lcm_certifier",
        "certify_lcm-direction", "in_conjecture_zone"])
def test_record_arguments_raise_package_errors_naming_them(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        call()
