"""Tests for report assembly and round-trippable JSON serialization."""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from gammacert import (
    Certificate,
    CheckResult,
    Direction,
    GridSpec,
    HParams,
    Report,
    ScanCell,
    Verdict,
    build_report,
    dumps,
    from_jsonable,
    make_timestamp,
    result_status,
    thm2_ineq,
    to_jsonable,
)
from gammacert.certify import Classification
from gammacert.hfamily import DerivSample


def _passing_check() -> CheckResult:
    return thm2_ineq(1.0)


def _failing_check() -> CheckResult:
    return CheckResult(name="synthetic_failure", inputs=(("t", 1.0),),
                       lhs=1.0, rhs=0.0, margin=-1.0, holds=False)


def _undecided_check() -> CheckResult:
    return CheckResult(
        name="synthetic_noise", inputs=(("t", 1.0), ("margin_within_noise", 1.0)),
        lhs=1.0, rhs=1.0, margin=0.0, holds=False)


def _pass_cert() -> Certificate:
    return Certificate(
        params=HParams(alpha=1.0, y=0.0), direction=Direction.LCM, k_max=8,
        grid=GridSpec(x_min_offset=1e-4, x_max=1e3), verdict=Verdict.PASS,
        witness=None, undecided_points=2)


def _fail_cert() -> Certificate:
    return Certificate(
        params=HParams(alpha=0.9, y=0.0), direction=Direction.RECIPROCAL,
        k_max=6, grid=GridSpec(x_min_offset=1e-4, x_max=1e3, points=77),
        verdict=Verdict.FAIL,
        witness=DerivSample(k=1, x=-0.9999, value=-992.365))


def _cells() -> list[ScanCell]:
    return [
        ScanCell(alpha=2.0, y=0.0, classification=Classification.LCM),
        ScanCell(alpha=0.75, y=0.0, classification=Classification.UNDECIDED,
                 conjecture_zone=True, reciprocal_violation=True),
    ]


def _mixed_report() -> Report:
    items = [_passing_check(), _failing_check(), _undecided_check(),
             _pass_cert(), _fail_cert(), *_cells()]
    return build_report("mixed", items, tool_version="0.1.0",
                        timestamp="2026-08-15T00:00:00Z")


def test_result_status_mapping():
    assert result_status(_passing_check()) == "passed"
    assert result_status(_failing_check()) == "failed"
    assert result_status(_undecided_check()) == "undecided"
    assert result_status(_pass_cert()) == "passed"
    assert result_status(_fail_cert()) == "failed"
    cells = _cells()
    assert result_status(cells[0]) == "passed"
    assert result_status(cells[1]) == "undecided"
    with pytest.raises(TypeError):
        result_status("not a result")


def test_build_report_tallies():
    r = _mixed_report()
    assert r.summary == {"total": 7, "passed": 3, "failed": 2, "undecided": 2}
    assert r.suite == "mixed"
    assert r.timestamp == "2026-08-15T00:00:00Z"


def test_make_timestamp_format():
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z",
                        make_timestamp())


def test_jsonable_round_trip_is_exact():
    r = _mixed_report()
    assert from_jsonable(to_jsonable(r)) == r


def test_dumps_parses_and_round_trips():
    r = _mixed_report()
    text = dumps(r)
    data = json.loads(text)
    assert from_jsonable(data) == r
    # serialized floats reproduce their binary64 values exactly
    assert data["results"][0]["margin"] == _passing_check().margin


def test_dumps_types():
    text = dumps(_mixed_report())
    assert '"holds": true' in text
    assert '"holds": false' in text
    assert '"witness": null' in text
    assert '"conjecture_zone": true' in text
    # the certificate k_max must serialize as a bare integer
    assert '"k_max": 8' in text


def test_dumps_refuses_non_finite():
    bad = Report(tool_version="0.1.0", timestamp="t", suite="s",
                 results=(), summary={"total": 0})
    object.__setattr__(bad, "summary", {"total": math.inf})
    with pytest.raises(ValueError):
        dumps(bad)
    nan_input = CheckResult(name="nan_input", inputs=(("t", math.nan),),
                            lhs=0.0, rhs=1.0, margin=1.0, holds=True)
    with pytest.raises(ValueError):
        dumps(build_report("s", [nan_input], tool_version="0.1.0", timestamp="t"))


def test_status_field_present_for_all_result_kinds():
    data = to_jsonable(_mixed_report())
    statuses = [item["status"] for item in data["results"]]
    assert statuses == ["passed", "failed", "undecided", "passed", "failed",
                        "passed", "undecided"]
    kinds = [item["type"] for item in data["results"]]
    assert kinds == ["check", "check", "check", "certificate", "certificate",
                     "scan_cell", "scan_cell"]


FLOATS = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


@given(name=st.text(min_size=1, max_size=12), lhs=FLOATS, rhs=FLOATS,
       strict=st.booleans())
def test_random_check_round_trip(name, lhs, rhs, strict):
    margin = rhs - lhs
    if not math.isfinite(margin):
        return
    check = CheckResult(name=name, inputs=(("a", lhs),), lhs=lhs, rhs=rhs,
                        margin=margin, holds=margin > 0, strict=strict)
    r = build_report("prop", [check], tool_version="0.1.0",
                     timestamp="2026-08-15T00:00:00Z")
    assert from_jsonable(json.loads(dumps(r))) == r
