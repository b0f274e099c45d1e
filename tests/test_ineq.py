"""Tests for the machine-checkable inequality catalog."""

from __future__ import annotations

import math
import pickle
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import _oracle as oracle
from gammacert import (
    AuxFn,
    CheckResult,
    CheckTable,
    DomainError,
    ParameterError,
    PrecisionError,
    aux_eval,
    batir_ineq,
    digamma,
    gamma_ratio_ineq,
    lngamma,
    log_upper_bound_ineq,
    polygamma,
    polygamma_bounds,
    psi_integral_mean_ineq,
    psi_log_bounds,
    psi_upper_refinement,
    qcub_root,
    result_status,
    suffice_chain,
    thm2_ineq,
)
from gammacert.cli import build_suite
from gammacert.gammakit import EXP_NEG_EULER_GAMMA
from gammacert.ineq import (
    NOISE_REL, THM2_T_MIN, one_sided, one_sided_rows, one_sided_stack, stack_table, two_sided,
    two_sided_rows)


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


def test_check_result_is_an_immutable_named_tuple():
    r = CheckResult(name="x", inputs=(("t", 1.0),), lhs=0.5, rhs=1.0,
                    margin=0.5, holds=True)
    for field in ("lhs", "holds", "new_field"):
        with pytest.raises(AttributeError):
            setattr(r, field, 0.0)
    with pytest.raises(PrecisionError, match="non-finite lhs = inf"):
        r._replace(lhs=math.inf)
    assert r._replace(holds=False).holds is False
    twin = CheckResult("x", (("t", 1.0),), 0.5, 1.0, 0.5, True, True)
    assert r == twin and hash(r) == hash(twin) and r is not twin
    assert r != r._replace(margin=0.25)
    assert pickle.loads(pickle.dumps(r)) == r
    assert len(r) == 7 and tuple(r) == ("x", (("t", 1.0),), 0.5, 1.0, 0.5, True, True)
    assert repr(r) == ("CheckResult(name='x', inputs=(('t', 1.0),), lhs=0.5, rhs=1.0, "
                       "margin=0.5, holds=True, strict=True)")


@pytest.mark.parametrize("build,name", [
    (lambda v: one_sided("c", (), v, 1.0), "lhs"),
    (lambda v: one_sided("c", (), 1.0, v), "rhs"),
    (lambda v: two_sided("c", (), v, 1.0, 2.0), "lower"),
    (lambda v: two_sided("c", (), 0.0, v, 1.0), "mid"),
    (lambda v: two_sided("c", (), 0.0, 1.0, v), "upper"),
], ids=["lhs", "rhs", "lower", "mid", "upper"])
def test_check_sides_beyond_binary64_are_named(build, name):
    # float(10**400) used to escape as a bare OverflowError
    with pytest.raises(DomainError) as info:
        build(10 ** 400)
    assert str(info.value) == f"{name} must be a real number, got 1{'0' * 400}"


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
    # 12x^2 underflows to zero: a non-finite side, not a ZeroDivisionError
    with pytest.raises(PrecisionError):
        psi_log_bounds(1e-200)


@pytest.mark.parametrize("bad,shown", [
    (0, "0.0"), (0.0, "0.0"), (-1, "-1.0"), (math.nan, "nan"), (-math.inf, "-inf"),
    ("abc", "'abc'")])
def test_window_grids_name_the_first_bad_point(bad, shown):
    message = f"x must be a finite positive real, got {shown}"
    for grid in (bad, [bad], [2.0, bad, -5.0], np.array([3.0, 1.0, bad], dtype=object)):
        for window in (psi_log_bounds, psi_upper_refinement,
                       lambda x: polygamma_bounds(2, x)):
            with pytest.raises(DomainError) as info:
                window(grid)
            assert str(info.value) == message
    if not isinstance(bad, str):
        with pytest.raises(DomainError, match=f"^{message}$"):
            psi_log_bounds(np.array([3.0, 1.0, bad]))


def test_window_functions_take_one_point_or_a_grid():
    xs = [0.05, 3.0, 80.0]
    for x in xs:
        assert repr(psi_log_bounds(x)) == repr(psi_log_bounds([x]))
        assert repr(psi_upper_refinement(x)) == repr(psi_upper_refinement([x])[0])
        assert repr(polygamma_bounds(4, x)) == repr(polygamma_bounds(4, [x]))
    rows = psi_log_bounds(np.array(xs))  # window by window, grid order in each
    assert repr(rows[1::3]) == repr(psi_log_bounds(3.0))
    with pytest.raises(DomainError):
        polygamma_bounds(2, [1.0, -1.0])
    with pytest.raises(DomainError):
        polygamma_bounds(0, [1.0])


def _scalar_lemma_rows(points: int, x_max: float) -> list[CheckResult]:
    """The lemma suite built one x at a time with one_sided / two_sided."""
    out = []
    for x in np.geomspace(1e-2, x_max, points).tolist():
        psi, lx, inv = digamma(x), math.log(x), 1.0 / x
        inputs = (("x", x),)
        out += [
            two_sided("psi_between_log_offsets", inputs, lx - inv, psi, lx - 0.5 * inv),
            two_sided("psi_between_shifted_logs", inputs,
                      math.log(x + 0.5) - inv, psi, math.log(x + 1.0) - inv),
            two_sided("psi_between_shifted_logs_sharp", inputs, math.log(x + 0.5) - inv,
                      psi, math.log(x + EXP_NEG_EULER_GAMMA) - inv),
            two_sided("psi_second_order_window", inputs,
                      lx - 0.5 * inv - 1.0 / (12.0 * x * x), psi, lx - 0.5 * inv),
            one_sided("psi_sharp_upper_refines_shifted_log", inputs,
                      math.log(x + EXP_NEG_EULER_GAMMA) - inv, math.log(x + 1.0) - inv),
        ]
        for k in range(1, 7):
            v = (-1.0) ** (k + 1) * polygamma(k, x)
            km1f, kf = float(math.factorial(k - 1)), float(math.factorial(k))
            tail = kf / x ** (k + 1)
            out += [
                two_sided("polygamma_power_window", (("k", k), ("x", x)),
                          km1f / x ** k + 0.5 * tail, v, km1f / x ** k + tail),
                two_sided("polygamma_shifted_power_window", (("k", k), ("x", x)),
                          km1f / (x + 1.0) ** k + tail, v,
                          km1f / (x + 0.5) ** k + tail),
            ]
    return out


@pytest.mark.parametrize("points,x_max", [
    (200, 1e3), (800, 500.0), (1000, 1999.5), (1200, 2000.0)])
def test_lemma_suite_rows_match_the_scalar_rule(points, x_max):
    got = build_suite("lemmas", points=points, x_max=x_max)
    want = _scalar_lemma_rows(points, x_max)
    assert len(got) == len(want) == 17 * points
    for g, w in zip(got, want):
        assert repr(g) == repr(w)  # repr tells -0.0 from 0.0, numpy from Python floats


# ---------------------------------------------------------------------------
# column forms of the check rule
# ---------------------------------------------------------------------------

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _sides(draw):
    """(lower, mid, upper): free, signed zeros, close (within a few noise
    bands, or equal), or one non-finite side."""
    kind = draw(st.sampled_from(("free", "zeros", "close", "non-finite")))
    if kind == "free":
        return tuple(draw(_FINITE) for _ in range(3))
    if kind == "zeros":
        return tuple(draw(st.sampled_from((0.0, -0.0))) for _ in range(3))
    base = draw(_FINITE.filter(lambda v: abs(v) < 1e300))
    rel = st.sampled_from((0.0,)) | st.floats(-4 * NOISE_REL, 4 * NOISE_REL)
    sides = [base + base * draw(rel) for _ in range(3)]
    if kind == "non-finite":
        sides[draw(st.integers(0, 2))] = draw(st.sampled_from((math.inf, -math.inf, math.nan)))
    return tuple(sides)


def _outcome(build) -> str:
    """repr of what build() returns, or the PrecisionError it raises."""
    try:
        return repr(build())
    except PrecisionError as exc:
        return f"PrecisionError: {exc}"


_ROWS = st.lists(_sides(), min_size=1, max_size=6)


@given(rows=_ROWS, strict=st.booleans(), strict_lower=st.sampled_from((None, True, False)))
@example(rows=[(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)], strict=True, strict_lower=None)
@example(rows=[(1.0, 1.0 + 2e-16, 1.0 + 4e-16)], strict=True, strict_lower=False)
@example(rows=[(1.0, 2.0, 3.0), (1.0, math.inf, 3.0)], strict=False, strict_lower=None)
# a non-finite lower, upper or margin (mid - lower overflows) after good rows
@example(rows=[(1.0, 2.0, 3.0)] * 2 + [(math.nan, 2.0, 3.0)], strict=True, strict_lower=None)
@example(rows=[(1.0, 2.0, 3.0), (1.0, 2.0, -math.inf)], strict=True, strict_lower=None)
@example(rows=[(1.0, 2.0, 3.0), (1e308, -1e308, 1e308)], strict=True, strict_lower=None)
@example(rows=[(-0.0, 0.0, 5e-324)], strict=False, strict_lower=True)  # scalar inputs
def test_two_sided_rows_is_two_sided_row_by_row(rows, strict, strict_lower):
    xs = [0.5 * i for i in range(len(rows))]
    columns = [xs, *(list(side) for side in zip(*rows))]
    if len(rows) == 1:  # one row passes scalars
        columns = [column[0] for column in columns]
    x, lower, mid, upper = columns
    assert _outcome(lambda: two_sided_rows(
        "w", (("k", 3), ("x", x)), lower, mid, upper, strict, strict_lower)) == _outcome(
        lambda: [two_sided("w", (("k", 3), ("x", x)), lo, m, up, strict, strict_lower)
                 for x, (lo, m, up) in zip(xs, rows)])


@given(rows=_ROWS, strict=st.booleans())
@example(rows=[(0.0, -0.0, 0.0), (-0.0, 0.0, 0.0)], strict=True)
@example(rows=[(1.0, 1.0 + 2e-16, 0.0)], strict=False)
@example(rows=[(1.0, 2.0, 0.0), (math.nan, 3.0, 0.0)], strict=True)
# a non-finite rhs or margin (rhs - lhs overflows) after good rows
@example(rows=[(1.0, 2.0, 0.0)] * 3 + [(1.0, math.inf, 0.0)], strict=True)
@example(rows=[(1.0, 2.0, 0.0), (-1e308, 1e308, 0.0)], strict=True)
@example(rows=[(1.0, 2.0, 0.0), (1e308, -1e308, 0.0)], strict=False)
def test_one_sided_rows_is_one_sided_row_by_row(rows, strict):
    xs = [0.5 * i for i in range(len(rows))]
    lhs, rhs, _ = (list(side) for side in zip(*rows))
    assert _outcome(lambda: one_sided_rows(
        "w", (("x", xs), ("t", 1.5)), lhs, rhs, strict)) == _outcome(
        lambda: [one_sided("w", (("x", x), ("t", 1.5)), lo, hi, strict)
                 for x, (lo, hi, _) in zip(xs, rows)])


def test_column_rule_edge_rows():
    # a tie of signed zeros keeps the first margin, as min() does
    assert [math.copysign(1.0, r.margin) for r in two_sided_rows(
        "w", (), [0.0, -0.0], [-0.0, 0.0], [0.0, -0.0])] == [-1.0, 1.0]
    inside = two_sided_rows("w", (), 1.0, 1.0 + 2e-16, 1.0 + 4e-16)[0]
    assert inside.inputs[-1] == ("margin_within_noise", 1.0) and not inside.holds
    with pytest.raises(PrecisionError, match="non-finite lhs"):
        one_sided_rows("w", (), [0.0, math.nan], 1.0)
    assert len(one_sided_rows("w", (), [0.0, 1.0], 2.0)) == 2


# ---------------------------------------------------------------------------
# the column-backed row sequence
# ---------------------------------------------------------------------------

_CLOSE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _window(draw, size: int) -> CheckTable:
    """A table of size rows: a column rule over random sides, near ties and
    failures included, or hand-made rows with a marker in any position."""
    kind = draw(st.sampled_from(("one", "two", "rows")))
    base = draw(st.lists(_CLOSE, min_size=size, max_size=size))
    jitter = st.sampled_from((0.0, 1e-16, -1e-16, 1.0, -1.0))
    if kind == "rows":
        return CheckTable.concat([CheckResult(
            draw(st.sampled_from(("r", "s"))),
            tuple(zip(draw(st.sampled_from(((), ("x",), ("margin_within_noise", "x"),
                                             ("x", "margin_within_noise")))),
                      (v, 1.0))),
            v, v + 1.0, 1.0, draw(st.booleans()), draw(st.booleans())) for v in base])
    lhs = [v + v * draw(jitter) for v in base]
    inputs = (("x", [0.5 * i for i in range(size)]), ("k", 3))
    if kind == "one":
        return one_sided_rows("w1", inputs, lhs, base, draw(st.booleans()))
    return two_sided_rows("w2", inputs[:draw(st.integers(0, 2))], lhs, base,
                          [v + abs(v) * draw(jitter) for v in base], draw(st.booleans()))


@st.composite
def _windows(draw) -> list[CheckTable]:
    size = draw(st.integers(0, 4))
    return [draw(_window(size)) for _ in range(draw(st.integers(1, 4)))]


@given(windows=_windows(), data=st.data())
def test_check_table_is_the_list_of_its_rows(windows, data):
    table = CheckTable.concat(windows)
    rows = [row for window in windows for row in window]
    assert table == rows and table == tuple(rows) and rows == list(table)
    assert repr(table) == repr(rows) and len(table) == len(rows)
    assert all(type(r) is CheckResult for r in table)
    assert [result_status(r) for r in rows] == [
        CheckTable.STATUSES[code] for code in table.statuses().tolist()]
    for i in range(-len(rows), len(rows)):
        assert repr(table[i]) == repr(rows[i])
    for bad in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            table[bad]
    cut = slice(data.draw(st.integers(-6, 6) | st.none()),
                data.draw(st.integers(-6, 6) | st.none()),
                data.draw(st.sampled_from((None, 1, 2, -1, -3))))
    assert repr(table[cut]) == repr(rows[cut]) and isinstance(table[cut], CheckTable)
    other = data.draw(_window(data.draw(st.integers(0, 3))))
    for joined in (table + other, table + list(other), list(table) + other):
        assert repr(joined) == repr(rows + list(other))
    # the lemma suite's reorder: row i of each window in turn
    interleaved = [row for group in zip(*windows) for row in group]
    order = np.arange(len(table)).reshape(len(windows), -1).T.ravel()
    assert repr(table.take(order)) == repr(interleaved)
    if rows:
        assert table != rows[:-1] and table != rows[:-1] + [rows[0]._replace(name="z")]
        assert table != [*rows[:-1], rows[-1]._replace(margin=rows[-1].margin + 1.0)]


def test_check_table_is_an_immutable_sequence():
    table = one_sided_rows("w", (("x", [1.0, 2.0]),), [0.0, 3.0], 2.0)
    assert isinstance(table, Sequence) and not isinstance(table, list)
    with pytest.raises(ValueError):
        table.lhs[0] = 5.0
    with pytest.raises(TypeError):
        hash(table)
    with pytest.raises(TypeError):
        table + (table[0],)
    assert table.count(table[0]) == 1 and table.index(table[1]) == 1 and table[1] in table
    assert CheckTable.concat([]) == [] and len(one_sided_rows("w", (), [], [])) == 0
    # a non-finite column raises at its first bad row, inputs included
    with pytest.raises(PrecisionError, match="^check 'w': non-finite input 'x' = inf$"):
        one_sided_rows("w", (("x", np.array([1.0, np.inf])),), [0.0, 3.0], [1.0, 4.0])
    with pytest.raises(PrecisionError, match="^check 'w': non-finite rhs = nan$"):
        one_sided_rows("w", (("x", np.array([1.0, 2.0, np.inf])),), 0.0, [1.0, np.nan, 2.0])


def test_check_table_raises_for_a_late_non_finite_input_value():
    # the one non-finite number is row 6's second input: the flat check
    # fails and the row scan names that row's key and label
    values = np.ones((8, 2))
    values[6, 1] = np.inf
    with pytest.raises(PrecisionError, match="^check 'w': non-finite input 'y' = inf$"):
        CheckTable([("w", ("x", "y"), True), ("v", ("t",), False)], [0, 1] * 4, values,
                   np.zeros(8), np.ones(8), np.ones(8), np.ones(8, bool), np.zeros(8, bool))
    # a padding slot no row's key reads does not hide a later bad row
    values[6, 1], values[1, 1], values[3, 0] = 1.0, np.nan, np.inf
    with pytest.raises(PrecisionError, match="^check 'v': non-finite input 't' = inf$"):
        CheckTable([("w", ("x", "y"), True), ("v", ("t",), False)], [0, 1] * 4, values,
                   np.zeros(8), np.ones(8), np.ones(8), np.ones(8, bool), np.zeros(8, bool))


def test_take_and_concat_run_no_second_finiteness_pass(monkeypatch):
    # their rows come from tables whose columns were checked when built
    table = one_sided_rows("w", (("x", np.arange(6.0)),), np.zeros(6), np.ones(6))
    scans = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *a, **k: scans.append(a) or isfinite(*a, **k))
    parts = [table.take([5, 0, 3]), table[1:4], CheckTable.concat([table, table[:2]]),
             table + table]
    assert scans == [] and [len(part) for part in parts] == [3, 3, 8, 12]
    monkeypatch.undo()
    assert repr(parts[2]) == repr(list(table) + list(table)[:2])


@pytest.mark.parametrize("point_major,message", [
    (False, "^check 'w': non-finite rhs = inf$"),  # window w's points come first
    (True, "^check 'v': non-finite lhs = nan$")])  # point 0's windows come first
def test_a_stacked_table_scans_its_columns_once_and_raises_its_first_bad_row(
        point_major, message):
    keys = [("w", ("x",), True), ("v", (), True)]
    stacks = [one_sided_stack(0, [np.array([[1.0, 2.0, 3.0]])], np.zeros((1, 3)),
                              np.array([[1.0, np.inf, 1.0]])),
              one_sided_stack(1, [], np.array([[np.nan, 0.0, 0.0]]), np.ones((1, 3)))]
    with pytest.raises(PrecisionError, match=message):
        stack_table(keys, stacks, point_major=point_major)


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


def test_thm2_raises_precision_error_below_its_accuracy_cutoff():
    # 1e-6 and 1e-10 gave false FAILs, 1e-16 a false PASS; from 1e-17 on
    # t/(1+2t) rounds to t (and 2t^2 underflows at 1e-300)
    for tiny in (9.99e-5, 1e-5, 1e-6, 1e-10, 1e-16, 1e-17, 1e-300, 5e-324):
        with pytest.raises(PrecisionError):
            thm2_ineq(tiny)
    assert thm2_ineq(THM2_T_MIN).holds


def test_thm2_grids_name_their_first_bad_point():
    with pytest.raises(PrecisionError, match=r"^t = 5e-05 is below 0\.0001: "):
        thm2_ineq(np.array([1.0, 5e-05, 1e-06]))
    with pytest.raises(DomainError, match=r"^t must be a finite positive real, got 0\.0$"):
        thm2_ineq(np.array([1.0, 0.0, 1e-06]))


def test_thm2_suite_rows_are_the_per_point_rows():
    ts = np.geomspace(1e-4, 1e3, 300).tolist()
    scalar = []  # the bound in Python floats, one scalar kernel call per value
    for t in ts:
        w = 1.0 + 2.0 * t
        scalar.append(one_sided("gamma_diff_quotient_vs_one_minus_psi", (("t", t),),
                                w / (2.0 * t * t) * (lngamma(t / w) - lngamma(t)),
                                1.0 - digamma(t)))
    got = build_suite("thm2")
    assert repr(got) == repr([thm2_ineq(t) for t in ts]) == repr(scalar)


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


@pytest.mark.parametrize("build, message", [
    (lambda: one_sided_rows("n", (), [[1.0, 2.0]], 3.0),
     "lhs must be one point or a 1-D grid, got [[1.0, 2.0]]"),
    (lambda: two_sided_rows("n", (), 1.0, [[2.0]], 3.0),
     "mid must be one point or a 1-D grid, got [[2.0]]"),
    (lambda: two_sided_rows("n", (), np.ones((1, 1)), 2.0, 3.0),
     "lower must be one point or a 1-D grid, got array([[1.]])"),
    (lambda: one_sided_rows("n", (("x", np.zeros((2, 1))),), 0.0, 1.0),
     "x must be one point or a 1-D grid, got array([[0.],\n       [0.]])"),
], ids=["lhs", "mid", "lower-array", "input-column"])
def test_sides_and_input_columns_are_one_point_or_a_1d_grid(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def test_columns_of_different_lengths_raise_parameter_error():
    with pytest.raises(ParameterError, match=r"^check 'n': x, lhs, rhs must be grids of "
                                             r"one length, got lengths 3, 2, 1$"):
        one_sided_rows("n", (("x", [1.0, 2.0, 3.0]),), [0.0, 1.0], 2.0)
    # a point repeats on every row, and an input column may set the row count
    rows = one_sided_rows("n", (("x", [1.0, 2.0, 3.0]),), 0.0, 1.0)
    assert [r.inputs for r in rows] == [(("x", 1.0),), (("x", 2.0),), (("x", 3.0),)]
