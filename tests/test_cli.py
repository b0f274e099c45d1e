"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gammacert import _numtext, cli, default_grid, from_jsonable
from gammacert.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    PUBLIC_SUITES,
    build_suite,
    main,
    parse_range,
    ratio_samples,
    verify_csv,
)
from gammacert.errors import ParameterError


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_verify_ball_suite_exits_zero(tmp_path):
    out = tmp_path / "ball.json"
    assert main(["verify", "--suite", "ball", "--out", str(out)]) == EXIT_OK


def test_fault_suite_exits_one(tmp_path):
    out = tmp_path / "fault.json"
    assert main(["verify", "--suite", "selftest-fault",
                 "--out", str(out)]) == EXIT_FAIL
    report = from_jsonable(json.loads(out.read_text()))
    assert report.summary["failed"] == 1
    assert report.summary["total"] == 2


def test_unknown_suite_exits_two(capsys):
    assert main(["verify", "--suite", "bogus"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error" in err


def test_missing_arguments_exit_two():
    assert main(["scan", "--alpha", "0:1:0.5"]) == EXIT_USAGE
    assert main(["scan"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


def test_malformed_range_exits_two(capsys):
    assert main(["scan", "--alpha", "0:1:-0.5", "--y", "0:1:0.5"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "thm1", "--x-max", "1e40"],    # kernel CapabilityError
    ["verify", "--suite", "thm3", "--x-max", "1e300"],   # surface CapabilityError
    ["verify", "--suite", "lemmas", "--grid-points", "-3"],
    ["verify", "--suite", "lemmas", "--grid-points", "0"],
    ["scan", "--alpha", "0:1:0.5", "--y", "0:1:1", "--grid-points", "1"],
    # the lemma grid [1e-2, x_max] needs x_max > 1e-2
    ["verify", "--suite", "lemmas", "--x-max", "0"],
    ["verify", "--suite", "all", "--x-max", "0"],
    ["verify", "--suite", "lemmas", "--x-max", "-1"],
    ["verify", "--suite", "lemmas", "--x-max", "0.001"],
    ["verify", "--suite", "lemmas", "--x-max", "inf"],
    # the certificate grid needs x_max > 1e-3, so that it reaches x > 0
    ["verify", "--suite", "thm1", "--x-max", "0"],
    ["verify", "--suite", "thm1", "--x-max", "1e-3"],
    ["scan", "--alpha=0:1:0.5", "--y=0:0:1", "--x-max", "-0.5"],
    # more grid points than numpy can hold: refused before anything is allocated
    ["verify", "--suite", "lemmas", "--grid-points", str(2 ** 62)],
    ["verify", "--suite", "thm1", "--grid-points", str(2 ** 62)],
    ["verify", "--suite", "thm3", "--grid-points", str(2 ** 62)],
    ["scan", "--alpha=0:1:0.5", "--y=0:0:1", "--grid-points", str(2 ** 62)],
])
def test_package_errors_and_short_grids_exit_two(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "gammacert: error:" in err and "Traceback" not in err


def test_lemma_grid_below_its_left_end_names_x_max(capsys):
    assert main(["verify", "--suite", "lemmas", "--x-max", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        "gammacert: error: x_max must be a finite real > 1e-2 for the lemma grid "
        "[1e-2, x_max], got -1.0\n")


def test_certificate_grid_without_positive_x_names_x_max(capsys):
    assert main(["scan", "--alpha=0:1:0.5", "--y=0:0:1", "--x-max", "-0.5"]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        "gammacert: error: x_max must be a finite real > 0.001 for a grid on both "
        "sides of x = 0, got -0.5\n")


@pytest.mark.parametrize("alpha,row", [("1e308", "1e+308,0,LCM"),
                                       ("-1e308", "-1e+308,0,RECIPROCAL")])
def test_scan_of_huge_alphas_classifies_without_warnings(alpha, row, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scan", f"--alpha={alpha}:{alpha}:1", "--y=0:0:1"]) == EXIT_OK
    assert capsys.readouterr().out == f"alpha,y,classification\n{row}\n"


def test_scan_y_below_the_domain_names_y(capsys):
    assert main(["scan", "--alpha=0.5:0.5:1", "--y=-1.5:-1.5:1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.endswith("gammacert: error: y must be a finite real > -1, got -1.5\n")


# ---------------------------------------------------------------------------
# verify output
# ---------------------------------------------------------------------------

def test_verify_json_output_round_trips(tmp_path):
    out = tmp_path / "thm2.json"
    code = main(["verify", "--suite", "thm2", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    report = from_jsonable(data)
    assert report.suite == "thm2"
    assert report.summary["total"] == 300
    assert report.summary["failed"] == 0
    assert report.summary["total"] == (report.summary["passed"]
                                       + report.summary["failed"]
                                       + report.summary["undecided"])
    assert len(report.results) == report.summary["total"]


def test_verify_csv_format(tmp_path):
    out = tmp_path / "thm2.csv"
    code = main(["verify", "--suite", "thm2", "--format", "csv",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,name,status,lhs,rhs,margin,alpha,y,verdict"
    assert len(lines) == 301
    assert lines[1].startswith("check,gamma_diff_quotient_vs_one_minus_psi,passed,")


def test_verify_csv_rows_carry_the_json_numbers(tmp_path):
    json_out, csv_out = tmp_path / "thm2.json", tmp_path / "thm2.csv"
    assert main(["verify", "--suite", "thm2", "--out", str(json_out)]) == EXIT_OK
    assert main(["verify", "--suite", "thm2", "--format", "csv",
                 "--out", str(csv_out)]) == EXIT_OK
    items = json.loads(json_out.read_text())["results"]
    rows = csv_out.read_text().splitlines()[1:]
    assert len(rows) == len(items) == 300
    for row, item in zip(rows, items):
        _, name, status, lhs, rhs, margin = row.split(",")[:6]
        assert (name, status) == (item["name"], item["status"])
        assert [float(lhs), float(rhs), float(margin)] == [
            item["lhs"], item["rhs"], item["margin"]]


def test_verify_stdout_default(capsys):
    code = main(["verify", "--suite", "thm2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    report = from_jsonable(json.loads(out))
    assert report.summary["total"] == 300


def test_verify_csv_covers_certificates(tmp_path):
    out = tmp_path / "thm3.csv"
    assert main(["verify", "--suite", "thm3", "--grid-points", "120",
                 "--format", "csv", "--out", str(out)]) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert all(r.startswith("certificate,surface-negativity,passed,")
               for r in rows)
    assert all(r.endswith("PASS") for r in rows)


def test_verify_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["verify", "--suite", "aux", "--format", "csv", "--out", str(a)])
    main(["verify", "--suite", "aux", "--format", "csv", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_suite_inventory(tmp_path):
    assert PUBLIC_SUITES == ("lemmas", "thm1", "thm2", "thm3", "ball",
                             "aux", "all")
    aux = build_suite("aux")
    names = {r.name for r in aux}
    assert "aux_qlog_band" in names
    assert "aux_cubic_root_bracket" in names
    assert "aux_polynomial_negative_interior" in names
    assert "psi_diff_vs_one" in names
    with pytest.raises(ParameterError):
        build_suite("nope")


def test_lemmas_suite_has_no_failures():
    from gammacert import build_report
    report = build_report("lemmas", build_suite("lemmas", points=60),
                          tool_version="0.1.0")
    assert report.summary["failed"] == 0


def test_ratio_samples_are_seeded_and_admissible():
    rows = ratio_samples(50)
    again = ratio_samples(50)
    assert [r.inputs for r in rows] == [r.inputs for r in again]
    assert all(r.holds for r in rows)
    other = ratio_samples(50, seed=1)
    assert [r.inputs for r in other] != [r.inputs for r in rows]


# ---------------------------------------------------------------------------
# scan output
# ---------------------------------------------------------------------------

def test_scan_grid_shape_and_classifications(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--alpha", "0:2:0.25", "--y", "0:1:0.5",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,y,classification"
    assert len(lines) == 28  # 9 alphas x 3 ys
    cells = [line.split(",") for line in lines[1:]]
    # y-major ordering
    assert [c[1] for c in cells[:9]] == ["0"] * 9
    by_key = {(c[0], c[1]): c[2] for c in cells}
    assert by_key[("2", "0")] == "LCM"
    assert by_key[("1", "0")] == "LCM"
    assert by_key[("0", "0")] == "RECIPROCAL"
    assert by_key[("0.75", "0")] == "UNDECIDED"
    # JSON summary goes to stdout when --out is given
    summary = json.loads(capsys.readouterr().out)
    assert summary["summary"]["total"] == 27


def test_scan_without_out_writes_csv_to_stdout(capsys):
    code = main(["scan", "--alpha", "0:2:1", "--y", "0:1:1",
                 "--grid-points", "40", "--kmax", "4"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "alpha,y,classification"
    json.loads(captured.err)  # JSON summary on stderr


def test_scan_accepts_ranges_with_a_leading_minus(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--alpha", "0:1:0.5", "--y", "-0.5:0:0.5",
                 "--grid-points", "40", "--kmax", "4", "--out", str(out)]) == EXIT_OK
    assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == [
        "-0.5"] * 3 + ["0"] * 3


def test_scan_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--alpha", "0:1:0.5", "--y", "0:1:0.5",
            "--grid-points", "40", "--kmax", "4"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# range parsing
# ---------------------------------------------------------------------------

def test_parse_range_units():
    assert parse_range("0:2:0.25", "alpha") == [
        0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    assert parse_range("1:1:1", "alpha") == [1.0]
    assert parse_range("-0.5:0.5:0.5", "y") == [-0.5, 0.0, 0.5]


def test_parse_range_errors():
    for bad in ("", "1:2", "a:b:c", "0:1:0", "0:1:-1", "2:1:0.5", "1:2:nan"):
        with pytest.raises(ParameterError):
            parse_range(bad, "alpha")


@pytest.mark.parametrize("alpha", ["0:1e300:1e-300", "-1e308:1e308:1e300"])
def test_range_whose_step_count_overflows_exits_two(alpha, capsys):
    with pytest.raises(ParameterError, match="too many steps"):
        parse_range(alpha, "--alpha")
    assert main(["scan", f"--alpha={alpha}", "--y=0:0:1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: gammacert") and "Traceback" not in err
    assert f"gammacert: error: --alpha has too many steps to count, got '{alpha}'" in err


def test_range_above_the_value_cap_exits_two(capsys):
    # 1,000,001 values; the y range is invalid too, so that a parser without
    # the cap stops there instead of scanning a million cells
    alpha = "0:1000000:1"
    with pytest.raises(ParameterError, match="at most 1000000 values per range"):
        parse_range(alpha, "--alpha")
    assert main(["scan", f"--alpha={alpha}", "--y=0:1:0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: gammacert") and "Traceback" not in err
    assert f"gammacert: error: --alpha has too many steps to count, got '{alpha}'" in err


def test_range_value_cap_boundary(monkeypatch):
    monkeypatch.setattr(cli, "MAX_RANGE_VALUES", 10)
    assert parse_range("0:9:1", "alpha") == [float(i) for i in range(10)]
    assert len(parse_range("0:0.9:0.1", "alpha")) == 10
    for spec in ("0:10:1", "0:1:0.1"):
        with pytest.raises(ParameterError, match="at most 10 values"):
            parse_range(spec, "alpha")


def test_verify_csv_escapes_nothing_unexpected():
    from gammacert import build_report
    report = build_report("thm2", build_suite("thm2"), tool_version="0.1.0")
    text = verify_csv(report)
    assert text.count("\n") == 301  # header + 300 rows, trailing newline
    assert "," in text.splitlines()[1]


def _fmt(v) -> str:
    return format(float(v), ".17g")


def expected_csv(results) -> str:
    """verify_csv's text for results, one "%.17g" join per row."""
    from gammacert import CheckResult, result_status

    expected = ["kind,name,status,lhs,rhs,margin,alpha,y,verdict"]
    for item in results:
        status = result_status(item)
        if isinstance(item, CheckResult):
            expected.append(",".join(["check", item.name, status, _fmt(item.lhs),
                                      _fmt(item.rhs), _fmt(item.margin), "", "", ""]))
        else:
            expected.append(",".join(["certificate", item.check, status, "", "", "",
                                      _fmt(item.params.alpha), _fmt(item.params.y),
                                      item.verdict.value]))
    return "\n".join(expected) + "\n"


def test_verify_csv_rows_match_the_join_of_format_17g():
    from gammacert import (
        Certificate, CheckResult, DerivSample, Direction, HParams, Verdict, build_report,
        default_grid, result_status)

    edges = (-0.0, 0.0, 5e-324, 1.7976931348623157e308, -3.0, 1e16, 1e17, 0.1)
    results = [CheckResult("edge", (("v", v),), v, -v, v, holds=v > 0.0)
               for v in edges]
    results += [Certificate(HParams(alpha, y), Direction.LCM, 8, default_grid(0.0),
                            Verdict.PASS, None)
                for alpha, y in ((2, 0), (-1, 3), (0.5, -0.0))]
    # an undecided and a failed check, a failed certificate, then checks again
    results += [CheckResult("tight", (("x", 1.0), ("margin_within_noise", 1.0)),
                            1.0, 1.0 + 1e-17, 1e-17, holds=False),
                CheckResult("tight", (("x", 2.0),), 2.0, 1.0, -1.0, holds=False),
                Certificate(HParams(0.25, 1.0), Direction.RECIPROCAL, 4,
                            default_grid(1.0), Verdict.FAIL, DerivSample(2, 0.5, -1e-3)),
                CheckResult("edge", (), 1.0, 2.0, 1.0, holds=True),
                CheckResult("\xffψ\udcff", (), 1.0, 2.0, 1.0, holds=True)]  # any str
    assert [result_status(r) for r in results[-5:-2]] == ["undecided", "failed", "failed"]
    report = build_report("edges", results, tool_version="0.1.0")
    assert verify_csv(report) == expected_csv(results)

    # a block boundary just before, at and after the last row, crossed by
    # runs of both kinds and by rows of every status
    rng = np.random.default_rng(19)
    values = 10.0 ** rng.uniform(-300, 300, (_numtext.BLOCK_ROWS + 1, 3))
    values *= rng.choice((-1.0, 1.0), values.shape)
    filler = [CheckResult(f"row{i % 7}", (), lhs, rhs, margin, holds=i % 5 != 0)
              for i, (lhs, rhs, margin) in enumerate(values.tolist())]
    at = _numtext.BLOCK_ROWS - 3 - len(results)  # rows BLOCK - 3 to BLOCK
    filler[at:at + 4] = results[-7:-3]
    for count in (_numtext.BLOCK_ROWS - 1, _numtext.BLOCK_ROWS, _numtext.BLOCK_ROWS + 1):
        rows = results + filler[:count - len(results)]
        report = build_report("blocks", rows, tool_version="0.1.0")
        assert verify_csv(report) == expected_csv(rows)


def table_backed_results():
    """More than 2,048 check rows from the builders, in lemma order with
    failed and undecided rows and certificates mixed in, so that the
    2,048-row block boundary falls inside one x's run of windows."""
    from gammacert import (
        CheckTable, Direction, HParams, certify_lcm, one_sided_rows, two_sided_rows)

    lemmas = build_suite("lemmas", points=150, x_max=1e20)
    odd = CheckTable.concat([
        one_sided_rows("odd", (("t", [1.0, 2.0, 3.0]), ("k", 2)), [1.0, 2.0, 1.0],
                       [2.0, 1.0, 1.0 + 1e-17]),
        two_sided_rows("odd_two", (), [0.0, -1e300], [1.0, 0.0], [1.0, 1e-300],
                       strict=False)])
    cert = certify_lcm(HParams(0.9, 0.0), Direction.LCM, grid=default_grid(0.0, points=20))
    (table,) = lemmas.runs
    assert len(table) == 2550 and 2048 % 17
    return [table[:2040], odd, table[2040:2050], cert, table[2050:], odd]


def test_verify_csv_of_a_table_backed_report_is_the_per_row_text():
    from gammacert import build_report, result_status

    report = build_report("tables", table_backed_results(), tool_version="0.1.0")
    assert [len(run) for run in report.results.runs] == [2055, 1, 505]
    statuses = [result_status(item) for item in report.results]
    assert report.summary == {"total": 2561, **{s: statuses.count(s) for s in (
        "passed", "failed", "undecided")}}
    assert statuses.count("failed") == 3 and statuses.count("undecided") >= 2
    assert verify_csv(report) == expected_csv(list(report.results))


def test_the_lemma_csv_and_json_paths_build_no_row_object(tmp_path, monkeypatch):
    from gammacert import CheckTable

    calls = []
    make_rows = CheckTable._make_rows
    monkeypatch.setattr(CheckTable, "_make_rows",
                        lambda self, *args: calls.append(args) or make_rows(self, *args))
    for fmt in ("csv", "json"):
        assert main(["verify", "--suite", "lemmas", "--grid-points", "300", "--format", fmt,
                     "--out", str(tmp_path / f"lemmas.{fmt}")]) == EXIT_OK
    assert calls == []
    assert len(list(build_suite("thm2"))) == 300 and calls == [(0, 300)]


def _formatted(values) -> list[str]:
    """The verify-CSV column formatter's text of each value."""
    words = _numtext.number_words(np.asarray(values, dtype=float))
    text = words.tobytes().translate(None, _numtext.ABSENT).decode("ascii")
    return text.split(",")[:-1]  # each number is written with its separator


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_csv_number_formatter_matches_format_17g(values):
    assert _formatted(values) == [format(v, ".17g") for v in values]


def test_csv_number_formatter_on_a_million_random_bit_patterns():
    rng = np.random.default_rng(20261019)
    checked = 0
    while checked < 1_000_000:
        values = rng.integers(0, 2 ** 64, 2 ** 16, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)].tolist()
        assert _formatted(values) == [format(v, ".17g") for v in values]
        checked += len(values)


def test_csv_number_formatter_edges():
    powers = [float(f"1e{k}") for k in range(-320, 309)]
    edges = powers + [math.nextafter(v, math.inf) for v in powers] + [
        math.nextafter(v, 0.0) for v in powers]
    # decimal 17th-digit ties, and binary values that are exact ties:
    # (n + 1/2) / 10**j = q / 2**(j + 1) for odd q = (2n + 1) / 5**j
    rng = np.random.default_rng(7)
    for j in range(-20, 21):
        edges += [float(f"{n}5e{j}") for n in rng.integers(10 ** 16, 10 ** 17, 5).tolist()]
    for j in range(1, 24):
        low, high = -(-2 * 10 ** 16 // 5 ** j), min(2 * 10 ** 17 // 5 ** j, 2 ** 53)
        for q in (low, high - 1, (low + high) // 2):
            edges.append((q | 1) / 2 ** (j + 1))
    for centre in (2 ** 53, 10 ** 16, 10 ** 17):
        edges += [float(centre + k) for k in range(-40, 41)]
    tiny = 2.2250738585072014e-308  # the smallest normal
    edges += [5e-324, tiny, math.nextafter(tiny, 0.0), tiny / 3.0, 1e-250, 1e280,
              math.nextafter(1e-250, 0.0), math.nextafter(1e280, math.inf),
              0.0, 1.7976931348623157e308]
    edges += [-v for v in edges]
    assert _formatted(edges) == [format(v, ".17g") for v in edges]
    # near a power of ten only the range ends and a tie fall back to "%.17g":
    # 1e15 - 1/8 is 99999999999999987.5e-2
    powers = np.array(powers[70:-28])  # 1e-250 .. 1e280
    near = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)])
    assert sorted(near[_numtext.exact_digits(near)[2]].tolist()) == [
        math.nextafter(1e-250, 0.0), 1e15 - 0.125, math.nextafter(1e280, math.inf)]


def test_one_parser_serves_every_call_of_a_process(capsys):
    from gammacert.cli import _build_parser

    calls = (["scan", "--alpha", "0:1:0.5"],  # usage error: --y is missing
             ["scan", "--alpha=0:2:0.5", "--y=-0.5:1:0.5", "--grid-points", "40"],
             ["verify", "--suite", "thm2", "--format", "csv"],
             ["--version"])

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, re.sub(r'"timestamp": "[^"]*"', "", err)

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    _build_parser.cache_clear()
    assert [run(argv) for argv in calls] == fresh
    assert _build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "gammacert 0.1.0"
