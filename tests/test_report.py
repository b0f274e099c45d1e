"""Tests for report assembly and round-trippable JSON serialization."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammacert import (
    Certificate,
    CheckResult,
    CheckTable,
    Direction,
    GridSpec,
    HParams,
    Report,
    Results,
    ScanCell,
    Verdict,
    build_report,
    dumps,
    from_jsonable,
    make_timestamp,
    one_sided,
    one_sided_rows,
    result_status,
    thm2_ineq,
    to_jsonable,
    two_sided,
    two_sided_rows,
)
from gammacert import _numtext
from gammacert.certify import scan_values
from gammacert.cli import build_suite
from gammacert.errors import ParameterError, PrecisionError
from gammacert.records import Classification, DerivSample


def _reference(obj):
    """The dict tree that dumps(report) must spell exactly: the report schema
    as plain dicts, the referee of the one-pass renderer."""
    if isinstance(obj, Report):
        return {
            "tool_version": obj.tool_version,
            "timestamp": obj.timestamp,
            "suite": obj.suite,
            "results": [_reference(item) for item in obj.results],
            "summary": dict(obj.summary),
        }
    if isinstance(obj, CheckResult):
        return {
            "type": "check",
            "name": obj.name,
            "inputs": [[name, value] for name, value in obj.inputs],
            "lhs": obj.lhs,
            "rhs": obj.rhs,
            "margin": obj.margin,
            "holds": obj.holds,
            "strict": obj.strict,
            "status": result_status(obj),
        }
    if isinstance(obj, Certificate):
        witness = None
        if obj.witness is not None:
            witness = {"k": obj.witness.k, "x": obj.witness.x,
                       "value": obj.witness.value}
        return {
            "type": "certificate",
            "check": obj.check,
            "semantics": obj.semantics,
            "params": {"alpha": obj.params.alpha, "y": obj.params.y},
            "direction": None if obj.direction is None else obj.direction.value,
            "k_max": obj.k_max,
            "grid": {
                "x_min_offset": obj.grid.x_min_offset,
                "x_max": obj.grid.x_max,
                "points": obj.grid.points,
            },
            "verdict": obj.verdict.value,
            "witness": witness,
            "undecided_points": obj.undecided_points,
            "status": result_status(obj),
        }
    if isinstance(obj, ScanCell):
        return {
            "type": "scan_cell",
            "alpha": obj.alpha,
            "y": obj.y,
            "classification": obj.classification.value,
            "conjecture_zone": obj.conjecture_zone,
            "reciprocal_violation": obj.reciprocal_violation,
            "status": result_status(obj),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _assert_matches_reference(report: Report) -> None:
    assert dumps(report) == json.dumps(_reference(report), allow_nan=False)
    assert to_jsonable(report) == _reference(report)
    for item in report.results:
        assert to_jsonable(item) == _reference(item)


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


#: one factory per float slot of a result item: value -> item (a check
#: refuses a non-finite input when it is built: see
#: test_check_inputs_are_refused_when_built)
_FLOAT_SLOTS = {
    "certificate witness value": lambda v: _fail_cert()._replace(
        witness=DerivSample(k=1, x=-0.9999, value=v)),
    "scan-cell alpha": lambda v: ScanCell(
        alpha=v, y=0.0, classification=Classification.LCM),
}


def test_dumps_refuses_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        for make in _FLOAT_SLOTS.values():
            item = make(bad)
            report = build_report("s", [_passing_check(), item],
                                  tool_version="0.1.0", timestamp="t")
            for render in (dumps, to_jsonable):
                with pytest.raises(ValueError):
                    render(report)
            with pytest.raises(ValueError):
                to_jsonable(item)
        report = Report(tool_version="0.1.0", timestamp="t", suite="s",
                        results=(), summary={"total": bad})
        for render in (dumps, to_jsonable):
            with pytest.raises(ValueError):
                render(report)


def test_to_jsonable_refuses_non_result_objects():
    with pytest.raises(TypeError, match="cannot serialize str"):
        to_jsonable("not a result")
    with pytest.raises(TypeError, match="cannot serialize int"):
        dumps(_mixed_report()._replace(results=(1,)))


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


# ---------------------------------------------------------------------------
# the one-pass renderer against the reference dict tree
# ---------------------------------------------------------------------------

#: floats whose spelling or memoisation is easy to get wrong: both zeros
#: (equal and hashing alike), the smallest subnormal, the exponent switch
#: points of repr (1e16, 1e-5, with 9999999999999998.0 the largest float
#: below 1e16), integral floats, powers of two (the ulp below one is half the
#: ulp above it: the shortest spelling of 2**-45 lies above it), the ends of
#: the shortest-digit formatter's range and their neighbours, values whose
#: shortest spelling has exactly 15, 16 and 17 digits, and 17 digits in
#: exponent form
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e22, 1e-4, 1e15,
               2.0 ** 53, 1.0, -2.0, 3.0, 1.7976931348623157e308,
               9999999999999998.0, 2.0 ** -45, 2.0 ** -1074, 2.0 ** -1022, 0.5,
               4.0, 2.0 ** 1023, -(2.0 ** 60), 1e-250, 1e280,
               math.nextafter(1e-250, 0.0), math.nextafter(1e-250, 1.0),
               math.nextafter(1e280, 0.0), math.nextafter(1e280, math.inf),
               0.123456789012345, 0.1234567890123456, 0.12345678901234568,
               1.2345678901234568e17)
#: labels that need escaping: a quote, a backslash, control characters,
#: non-ASCII text inside and outside the basic multilingual plane
EDGE_LABELS = ('say "hi"', "back\\slash", "bell\x07", "tab\tnew\nline", "\x00",
               "gr\u00fc\u00dfe", "\u2028", "\U0001d4b3", "margin_within_noise")

ANY_FLOAT = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**60, 2**60).map(float))
LABELS = st.one_of(st.sampled_from(EDGE_LABELS + ("x", "k", "mid")),
                   st.text(max_size=8))


def _edge_items() -> list:
    """Items that carry every edge float and label, zeros in both orders."""
    zeros = (0.0, -0.0, -0.0, 0.0)
    check = CheckResult(
        name=EDGE_LABELS[0],
        inputs=tuple(zip(EDGE_LABELS, zeros + EDGE_FLOATS)),
        lhs=-0.0, rhs=0.0, margin=0.0, holds=False, strict=False)
    cert = Certificate(
        params=HParams(alpha=-0.0, y=0.0), direction=None, k_max=1,
        grid=GridSpec(x_min_offset=5e-324, x_max=1e22, points=2),
        verdict=Verdict.FAIL, witness=DerivSample(k=0, x=0.0, value=-0.0),
        check=EDGE_LABELS[1], semantics=EDGE_LABELS[5])
    cells = [ScanCell(alpha=a, y=y, classification=Classification.NEITHER)
             for a, y in ((0.0, -0.0), (-0.0, 0.0), (1e16, 1e-5))]
    return [check, cert, *cells]


@st.composite
def certificates(draw) -> Certificate:
    verdict = draw(st.sampled_from(Verdict))
    witness = None
    if verdict is Verdict.FAIL:
        witness = DerivSample(k=draw(st.integers(0, 12)), x=draw(ANY_FLOAT),
                              value=draw(ANY_FLOAT))
    y = draw(st.one_of(st.sampled_from((0.0, -0.0, -0.5, 1e16)),
                       st.floats(min_value=-1.0, exclude_min=True,
                                 allow_infinity=False)))
    offset = draw(st.one_of(st.sampled_from((5e-324, 1e-4, 1e-5)),
                            st.floats(min_value=5e-324, allow_infinity=False)))
    return Certificate(
        params=HParams(alpha=draw(ANY_FLOAT), y=y),
        direction=draw(st.sampled_from((None, *Direction))),
        k_max=draw(st.integers(1, 12)),
        grid=GridSpec(x_min_offset=offset, x_max=draw(ANY_FLOAT),
                      points=draw(st.integers(2, 10**6))),
        verdict=verdict, witness=witness,
        undecided_points=draw(st.integers(0, 10**6)),
        check=draw(LABELS), semantics=draw(LABELS))


CHECKS = st.builds(
    CheckResult, name=LABELS,
    inputs=st.lists(st.tuples(LABELS, ANY_FLOAT), max_size=4).map(tuple),
    lhs=ANY_FLOAT, rhs=ANY_FLOAT, margin=ANY_FLOAT, holds=st.booleans(),
    strict=st.booleans())
CELLS = st.builds(
    ScanCell, alpha=ANY_FLOAT, y=ANY_FLOAT,
    classification=st.sampled_from(Classification),
    conjecture_zone=st.booleans(),
    reciprocal_violation=st.sampled_from((None, True, False)))


def test_dumps_matches_the_reference_on_edge_values():
    report = build_report(EDGE_LABELS[2], _edge_items(), tool_version=EDGE_LABELS[6],
                          timestamp=EDGE_LABELS[3])
    _assert_matches_reference(report)
    text = dumps(report)
    assert '"lhs": -0.0, "rhs": 0.0, "margin": 0.0' in text
    assert '"alpha": 0.0, "y": -0.0' in text and '"alpha": -0.0, "y": 0.0' in text
    assert text.isascii()


@given(checks=st.lists(CHECKS, max_size=6),
       certs=st.lists(certificates(), max_size=3),
       cells=st.lists(CELLS, max_size=4),
       header=st.tuples(LABELS, LABELS, LABELS),
       order=st.randoms(use_true_random=False))
def test_dumps_is_byte_identical_to_json_dumps_of_the_reference(
        checks, certs, cells, header, order):
    items = [*_edge_items(), *checks, *certs, *cells]
    order.shuffle(items)
    tool_version, timestamp, suite = header
    report = build_report(suite, items, tool_version=tool_version,
                          timestamp=timestamp)
    _assert_matches_reference(report)


@pytest.mark.parametrize("suite, grid", [
    ("all", {}),
    ("all", {"points": 250, "x_max": 2000.0}),
    ("selftest-fault", {}),
])
def test_suite_reports_match_the_reference(suite, grid):
    report = build_report(suite, build_suite(suite, **grid), tool_version="0.1.0")
    _assert_matches_reference(report)


def test_scan_report_matches_the_reference():
    cells = scan_values([0.5 * i for i in range(-2, 6)], [-0.9, -0.5, 0.0, 1.0])
    _assert_matches_reference(build_report("scan", cells, tool_version="0.1.0"))


def test_an_int_in_a_float_slot_is_spelled_as_the_float_it_equals():
    # the int comes first, then the equal float, then the int again
    cells = [ScanCell(alpha=1, y=0, classification=Classification.LCM),
             ScanCell(alpha=1.0, y=0.0, classification=Classification.LCM),
             ScanCell(alpha=1, y=0, classification=Classification.LCM)]
    data = json.loads(dumps(build_report("s", cells, tool_version="0.1.0",
                                         timestamp="t")))
    assert [(c["alpha"], c["y"]) for c in data["results"]] == [(1.0, 0.0)] * 3
    assert all(type(c["alpha"]) is float for c in data["results"])


# ---------------------------------------------------------------------------
# check rows written a column at a time
# ---------------------------------------------------------------------------

def _json_numbers(values) -> list[str]:
    """The JSON number formatter's text of each value."""
    words = _numtext.json_number_words(np.asarray(values, dtype=float))
    return [row.tobytes().translate(None, _numtext.ABSENT).decode("ascii")
            for row in words]


def test_json_number_formatter_on_a_million_random_bit_patterns():
    rng = np.random.default_rng(20261020)
    checked = 0
    while checked < 1_000_000:
        values = rng.integers(0, 2 ** 64, 2 ** 16, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)].tolist()
        texts = _json_numbers(values)
        assert texts == [repr(v) for v in values]
        assert [float(t) for t in texts] == values
        checked += len(values)


def test_json_number_formatter_edges():
    powers = [2.0 ** k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    edges = list(EDGE_FLOATS) + powers
    edges += [math.nextafter(v, math.inf) for v in edges] + [
        math.nextafter(v, 0.0) for v in edges]
    # short decimals: repr keeps only their digits
    rng = np.random.default_rng(21)
    edges += [float(f"{m}e{k}") for m, k in zip(rng.integers(1, 10 ** 6, 2000).tolist(),
                                                  rng.integers(-320, 308, 2000).tolist())]
    edges += [-v for v in edges]
    texts = _json_numbers(edges)
    assert texts == [repr(v) for v in edges]
    assert [len(repr(v).partition("e")[0].replace(".", "").replace("-", "").lstrip("0"))
            for v in EDGE_FLOATS[-4:-1]] == [15, 16, 17]
    # the powers of two 1, 2 and 4 are written without repr, and so is 2**-45
    assert not _numtext.shortest_digits(np.array([1.0, 2.0, 4.0, 2.0 ** -45]))[2].any()


#: Four row kinds of the shared row writer: each fills its own number
#: slots, and every kind fills the last (a slot filled by every kind is
#: written whole); kind 1's text is not ASCII and holds a lone surrogate.
_ROW_KINDS = (
    (["a,", ";", "|", "/", "\n"], (True, True, True, True)),
    (["\xffψ\udcff:", "", "=", "", "!\n"], (False, True, False, True)),
    (["", "[", "]", "", "\n"], (True, False, True, True)),
    (["none", "", "", "", ".\n"], (False, False, False, True)),
)


@pytest.mark.parametrize("spell,spelled", [(_numtext.number_words, lambda v: "%.17g" % v),
                                           (_numtext.json_number_words, repr)],
                         ids=["csv", "json"])
def test_the_row_writer_joins_each_rows_text_and_filled_numbers(spell, spelled):
    rows = 2 * _numtext.BLOCK_ROWS + 5
    rng = np.random.default_rng(40)
    kind = rng.integers(0, len(_ROW_KINDS), rows)
    columns = 10.0 ** rng.uniform(-300, 300, (4, rows)) * rng.choice((-1.0, 1.0), (4, rows))
    # across the first block boundary: zeros, and a value exactly half way
    # between two 17-digit decimals (100000000000000.125)
    at = _numtext.BLOCK_ROWS - 2
    kind[at:at + 4] = [0, 1, 2, 3]
    columns[:, at:at + 4] = [[-0.0, 0.0, 800000000000001 / 8, 1.0]] * 4
    expected = []
    for i, k in enumerate(kind.tolist()):
        segments, filled = _ROW_KINDS[k]
        expected.append(segments[0] + "".join(
            (spelled(float(columns[j, i])) if filled[j] else "") + segments[j + 1]
            for j in range(4)))
    blocks = _numtext.row_blocks(kind, *zip(*_ROW_KINDS), list(columns), spell)
    assert blocks == ["".join(expected[start:start + _numtext.BLOCK_ROWS])
                      for start in range(0, rows, _numtext.BLOCK_ROWS)]
    assert spelled(800000000000001 / 8) == "100000000000000.12"  # a tie, to even
    assert _numtext.row_blocks(kind[:0], *zip(*_ROW_KINDS), list(columns[:, :0]), spell) == []


def test_check_rows_carry_every_edge_float():
    checks = [CheckResult(name="edge", inputs=(("v", v), ("w", -v)), lhs=v, rhs=v,
                          margin=0.0, holds=True) for v in EDGE_FLOATS]
    _assert_matches_reference(build_report("edges", checks, tool_version="0.1.0",
                                           timestamp="t"))


def test_an_int_beyond_binary64_raises_the_json_value_error():
    # a check refuses such an input when it is built
    cell = ScanCell(alpha=10 ** 400, y=0.0, classification=Classification.LCM)
    for item in (cell,):
        report = build_report("s", [_passing_check(), item], tool_version="0.1.0",
                              timestamp="t")
        for render in (dumps, to_jsonable):
            with pytest.raises(ValueError, match="not JSON compliant"):
                render(report)
        with pytest.raises(ValueError, match="not JSON compliant"):
            to_jsonable(item)


@pytest.mark.parametrize("value, error, message", [
    ("1.5", ParameterError, "input 'k' must be an int or float, got '1.5'"),
    (None, ParameterError, "input 'k' must be an int or float, got None"),
    (True, ParameterError, "input 'k' must be an int or float, got True"),
    (1j, ParameterError, "input 'k' must be an int or float, got 1j"),
    (math.nan, PrecisionError, "non-finite input 'k' = nan"),
    (-math.inf, PrecisionError, "non-finite input 'k' = -inf"),
    (10 ** 400, PrecisionError, "non-finite input 'k' = 1000"),
], ids=["str", "none", "bool", "complex", "nan", "-inf", "int-beyond-binary64"])
def test_check_inputs_are_refused_when_built(value, error, message):
    # a report that verify_csv would write must be one that dumps writes too
    prefix = re.escape("check 'a': " + message)
    builds = [
        lambda: CheckResult("a", (("x", 1.0), ("k", value)), 1.0, 2.0, 1.0, True),
        lambda: _passing_check()._replace(name="a", inputs=(("k", value),)),
        lambda: one_sided("a", (("k", value),), 1.0, 2.0),
        lambda: two_sided("a", (("k", value),), 1.0, 1.5, 2.0),
        lambda: one_sided_rows("a", (("x", [1.0, 2.0]), ("k", value)), [1.0, 1.0], 2.0),
        lambda: two_sided_rows("a", (("k", [1.0, value]),), 1.0, [1.5, 1.5], 2.0),
    ]
    for build in builds:
        with pytest.raises(error, match="^" + prefix):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: CheckResult("n", (), 1.0, 2.0, 1.0, "no"), "holds must be a bool, got 'no'"),
    (lambda: CheckResult("n", (), 1.0, 2.0, 1.0, True, 1), "strict must be a bool, got 1"),
    (lambda: one_sided("n", (), 1.0, 2.0, strict="yes"), "strict must be a bool, got 'yes'"),
    (lambda: two_sided("n", (), 1.0, 1.5, 2.0, strict_lower="yes"),
     "strict_lower must be a bool, got 'yes'"),
    (lambda: one_sided_rows("n", (), [1.0], 2.0, strict="yes"),
     "strict must be a bool, got 'yes'"),
    (lambda: two_sided_rows("n", (), 1.0, [1.5], 2.0, strict=None),
     "strict must be a bool, got None"),
    (lambda: two_sided_rows("n", (), 1.0, [1.5], 2.0, strict_lower=np.True_),
     f"strict_lower must be a bool, got {np.True_!r}"),
], ids=["holds", "strict", "one_sided", "two_sided", "one_sided_rows", "two_sided_rows",
        "numpy-bool"])
def test_check_flags_must_be_bools(build, message):
    with pytest.raises(ParameterError, match="^" + re.escape(message) + "$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: CheckResult(5, (), 1.0, 2.0, 1.0, True), "name must be a str, got 5"),
    (lambda: one_sided(5, (), 1.0, 2.0), "name must be a str, got 5"),
    (lambda: two_sided(None, (), 1.0, 1.5, 2.0), "name must be a str, got None"),
    (lambda: one_sided_rows(5, (), [1.0], 2.0), "name must be a str, got 5"),
    (lambda: build_report(5, [], "v"), "suite must be a str, got 5"),
    (lambda: build_report("s", [], 0.1), "tool_version must be a str, got 0.1"),
    (lambda: build_report("s", [], "v", timestamp=0), "timestamp must be a str, got 0"),
], ids=["CheckResult", "one_sided", "two_sided", "one_sided_rows", "suite",
        "tool_version", "timestamp"])
def test_names_and_report_strings_must_be_strs(build, message):
    with pytest.raises(ParameterError, match="^" + re.escape(message) + "$"):
        build()


def test_from_jsonable_refuses_a_header_that_is_no_str():
    data = to_jsonable(_mixed_report())
    data["suite"] = 5
    with pytest.raises(ParameterError, match="^suite must be a str, got 5$"):
        from_jsonable(data)


@pytest.mark.parametrize("results, message", [
    ([5], "results[0] must be a CheckResult, CheckTable, Certificate or ScanCell, got 5"),
    ([_passing_check(), "s"], "results[1] must be a CheckResult, CheckTable, Certificate "
                              "or ScanCell, got 's'"),
    (None, "results must be a sequence of result items, got None"),
])
def test_results_hold_only_result_items(results, message):
    for build in (lambda: Results.of(results), lambda: build_report("s", results, "v")):
        with pytest.raises(ParameterError, match="^" + re.escape(message) + "$"):
            build()


def _sequence_cases():
    table = two_sided_rows("w", (("x", [1.0, 2.0, 3.0]),), 0.0, [0.5, 1.5, -1.0], 2.0)
    certificate = Certificate(HParams(1.0, 0.0), Direction.LCM, 8, GridSpec(1e-3, 10.0, 5),
                              Verdict.PASS, None)
    return [(table, "check table index out of range"),
            (Results.of([table, certificate]), "results index out of range")]


@pytest.mark.parametrize("container, wording", _sequence_cases(),
                         ids=["CheckTable", "Results"])
def test_result_containers_behave_as_the_sequence_of_their_items(container, wording):
    items = tuple(iter(container))
    n = len(items)
    assert len(container) == n == 3 + isinstance(container, Results)
    for i in range(-n, n):
        assert container[i] == items[i]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError, match="^" + wording + "$"):
            container[bad]
    assert list(container[1:]) == list(items[1:])
    for other in (list(items), items):
        assert container == other and other == container
    changed = [*items[:-1], items[0]]
    assert container != changed and changed != container
    assert container != tuple(changed) and tuple(changed) != container
    with pytest.raises(TypeError):
        hash(container)
    assert repr(container) == repr(list(items))


def test_check_input_labels_and_pairs_are_refused_when_built():
    for inputs, message in (((("k", 1.0), (2, 1.0)), "input label 2 is not a str"),
                            ((("k",),), "an input must be a (label, value) pair")):
        for build in (lambda: CheckResult("a", inputs, 1.0, 2.0, 1.0, True),
                      lambda: one_sided("a", inputs, 1.0, 2.0),
                      lambda: one_sided_rows("a", inputs, [1.0], 2.0)):
            with pytest.raises(ParameterError, match="^" + re.escape(f"check 'a': {message}")):
                build()
    # ints and floats within binary64 are accepted, and digests keep their bytes
    assert CheckResult("a", (("k", 3), ("x", -0.0)), 1.0, 2.0, 1.0, True).inputs[0] == ("k", 3)


def test_from_jsonable_names_a_missing_key():
    with pytest.raises(ParameterError, match="'tool_version'"):
        from_jsonable({})
    data = to_jsonable(_mixed_report())
    del data["results"][3]["verdict"]
    with pytest.raises(ParameterError, match="'verdict'"):
        from_jsonable(data)


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["results"][1].update(lhs=None),
     "report data: 'lhs' must be a number, got None"),
    (lambda data: data["results"][0].update(inputs=[["t"]]),
     "report data: inputs[0] must be a [label, value] pair, got ['t']"),
    (lambda data: data["results"].__setitem__(4, 5),
     "report data: results[4] is malformed: a result must be an object, got 5"),
    (lambda data: data["results"][3]["grid"].update(points=None),
     "report data: results[3] is malformed: int() argument must be"),
    (lambda data: data["results"][0]["inputs"][0].__setitem__(1, "1.5"),
     "report data: inputs[0] must be a number, got '1.5'"),
], ids=["null-lhs", "short-input-pair", "non-object-result", "null-grid-points",
        "string-input"])
def test_from_jsonable_names_a_malformed_value(edit, message):
    data = to_jsonable(_mixed_report())
    edit(data)
    with pytest.raises(ParameterError, match="^" + re.escape(message)):
        from_jsonable(data)


def test_from_jsonable_names_an_unknown_result_type():
    data = to_jsonable(_mixed_report())
    data["results"][1]["type"] = "proof"
    with pytest.raises(ParameterError, match="unknown result type 'proof'"):
        from_jsonable(data)


def test_dumps_of_a_table_backed_report_is_the_per_row_text():
    from test_cli import table_backed_results

    report = build_report("tables", table_backed_results(), tool_version="0.1.0",
                          timestamp="t")
    assert any(isinstance(run, CheckTable) and len(run) > _numtext.BLOCK_ROWS
               for run in report.results.runs)
    assert dumps(report) == json.dumps(_reference(report), allow_nan=False)
    assert from_jsonable(to_jsonable(report)) == report


def _filler(count: int) -> list[CheckResult]:
    """count checks with 0 to 8 inputs, of every status, with values of
    every magnitude and zeros of both signs."""
    rng = np.random.default_rng(2021)
    values = 10.0 ** rng.uniform(-300, 300, (count, 11)) * rng.choice((-1.0, 1.0), (count, 11))
    values[rng.random((count, 11)) < 0.05] = 0.0
    values[rng.random((count, 11)) < 0.02] = -0.0
    rows = []
    for i, row in enumerate(values.tolist()):
        c = int(rng.integers(0, 9))
        names = [f"x{j}" for j in range(c)]
        if c and i % 11 == 0:
            names[-1] = "margin_within_noise"
        rows.append(CheckResult(name=f"row{i % 5}", inputs=tuple(zip(names, row[3:])),
                                lhs=row[0], rhs=row[1], margin=row[2],
                                holds=i % 3 != 0, strict=i % 4 != 0))
    return rows


_FILLER = _filler(2 * _numtext.BLOCK_ROWS + 4)


@settings(max_examples=20)
@given(checks=st.lists(CHECKS, min_size=1, max_size=6),
       certs=st.lists(certificates(), max_size=2),
       at=st.integers(_numtext.BLOCK_ROWS - 6, _numtext.BLOCK_ROWS),
       order=st.randoms(use_true_random=False))
def test_dumps_matches_the_reference_across_a_block_boundary(checks, certs, at, order):
    middle = [*checks, *certs]
    order.shuffle(middle)
    items = [*_FILLER[:at], *middle, *_FILLER[at:]]
    report = build_report("blocks", items, tool_version="0.1.0", timestamp="t")
    # only dumps writes by block; to_jsonable of one item uses the templates
    assert dumps(report) == json.dumps(_reference(report), allow_nan=False)
