"""Command-line front end: verification suites, parameter scans, reports.

Two subcommands:

- ``gammacert verify --suite NAME`` runs a named check suite and emits one
  Report (JSON by default, flat CSV rows with ``--format csv``).
- ``gammacert scan --alpha A0:A1:STEP --y Y0:Y1:STEP`` classifies a grid of
  (alpha, y) cells and emits a CSV table plus a JSON report.

Exit codes: 0 when no result failed, 1 on any failure, 2 on usage errors and
on every package error (``gammacert.errors``).  CSV bodies contain no
timestamps, so identical invocations produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import re
import sys
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from . import __version__
from .ballvol import ball_ratio_checks, recurrence_check
from .certify import (
    DEFAULT_K_MAX,
    DEFAULT_POINTS,
    DEFAULT_X_MAX,
    Certificate,
    Direction,
    ScanCell,
    Verdict,
    certify_lcm,  # noqa: F401  (unused; perfbench/test_perfbench.py reads cli.certify_lcm)
    default_grid,
    finite_diff_crosschecks,
    lcm_certifier,
    necessity_limits,
    scan_values,
    verify_thm3,
)
from .errors import CapabilityError, DomainError, ParameterError, PrecisionError, log_grid
from .gammakit import libm
from .hfamily import HParams, lcm_threshold, reciprocal_threshold
from .ineq import (
    CHAIN_SUP,
    AuxFn,
    CheckResult,
    CheckTable,
    aux_eval,
    batir_ineq,
    gamma_ratio_ineq,
    lemma_windows,
    log_upper_bound_ineq,
    one_sided,
    one_sided_rows,
    psi_integral_mean_ineq,
    qcub_root,
    suffice_chain,
    thm2_ineq,
    two_sided,
)
from .report import Report, Results, build_report, dumps, result_status

__all__ = ["EXIT_FAIL", "EXIT_OK", "EXIT_USAGE", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: most values one start:end:step range may hold (the cell count of a scan
#: is the product of its two ranges)
MAX_RANGE_VALUES = 1_000_000

#: Accepted but undocumented: a suite with one deliberately false check,
#: used to exercise the exit-code contract end to end.
FAULT_SUITE = "selftest-fault"

RATIO_SAMPLE_SEED = 20260815

_SUFFICIENCY_YS = (-0.9, -0.5, 0.0, 1.0, 5.0)
_SUFFICIENCY_DELTAS = (0.0, 0.5, 2.0)
_NECESSITY_YS = (-0.5, 0.0, 1.0)
_LIMIT_YS = (-0.5, 0.0, 1.0, 5.0)
_THM3_YS = (-0.9, -0.75, -0.6, -0.51)


# ---------------------------------------------------------------------------
# suite builders: each takes (k_max, points, x_max) and ignores what it
# does not use, and returns a CheckTable or the parts of Results.of
# ---------------------------------------------------------------------------

def _suite_lemmas(k_max: int, points: int, x_max: float) -> CheckTable:
    """The 17 lemma windows of lemma_windows at each point of the log grid
    [1e-2, x_max], each x's rows in turn, built in one pass."""
    if not (math.isfinite(x_max) and x_max > 1e-2):
        raise ParameterError(
            f"x_max must be a finite real > 1e-2 for the lemma grid [1e-2, x_max], "
            f"got {x_max!r}")
    return lemma_windows(log_grid(1e-2, x_max, points))


def _expected_failure_check(cert: Certificate) -> CheckResult:
    """Wrap an expected-FAIL certificate: holds iff the verdict is FAIL."""
    inputs = [("alpha", cert.params.alpha), ("y", cert.params.y)]
    size = 0.0
    if cert.witness is not None:
        size = abs(cert.witness.value)
        inputs += [("witness_k", cert.witness.k),
                   ("witness_x", cert.witness.x),
                   ("witness_value", cert.witness.value)]
    return CheckResult(name="lcm_certificate_fails_below_threshold",
                       inputs=inputs,
                       lhs=0.0, rhs=size, margin=size,
                       holds=cert.verdict is Verdict.FAIL, strict=True)


def ratio_samples(count: int, seed: int = RATIO_SAMPLE_SEED) -> CheckTable:
    """Seeded random admissible (x, y, t) samples of the gamma-ratio window.

    Candidates are drawn in batches, one uniform draw of shape (m, 3) each:
    row i is candidate i's (y, log10 t, log10(x + y + 1)), in the order of
    one scalar draw after another, and the first count admissible candidates
    are checked in one call.
    """
    rng = np.random.default_rng(seed)
    xs: list[float] = []
    ys: list[float] = []
    ts: list[float] = []
    while len(xs) < count:
        draws = rng.uniform((-0.9, -2.0, -2.0), (5.0, 2.0, 3.0), (count - len(xs), 3))
        for y, t_exp, u_exp in draws.tolist():
            t = 10.0 ** t_exp
            x = 10.0 ** u_exp - (y + 1.0)  # u1 = x + y + 1
            if abs(x) < 1e-2 or abs(x + t) < 1e-2:
                continue  # keep the difference quotients well conditioned
            xs.append(x)
            ys.append(y)
            ts.append(t)
    return gamma_ratio_ineq(np.array(xs[:count]), np.array(ys[:count]),
                            np.array(ts[:count]))


def _suite_thm1(k_max: int, points: int, x_max: float) -> list:
    out: list = []
    # one table for every y; the necessity cells reuse the sufficiency certifiers
    certifiers = dict(zip(_SUFFICIENCY_YS, lcm_certifier(
        _SUFFICIENCY_YS, k_max,
        [default_grid(y, points=points, x_max=x_max) for y in _SUFFICIENCY_YS])))
    for y, certify in certifiers.items():
        for delta in _SUFFICIENCY_DELTAS:
            out.append(certify(lcm_threshold(y) + delta, Direction.LCM))
            out.append(certify(reciprocal_threshold(y) - delta, Direction.RECIPROCAL))
    for y in _NECESSITY_YS:
        cert = certifiers[y](lcm_threshold(y) - 0.1, Direction.LCM)
        out.append(_expected_failure_check(cert))
    for y, (inner, tail) in zip(_LIMIT_YS, necessity_limits(_LIMIT_YS)):
        for name, estimate, target, tol in (
                ("alpha_threshold_left_endpoint_limit", inner, 1.0 / (y + 1.0), 1e-2),
                ("alpha_threshold_tail_limit", tail, 1.0, 1e-3)):
            out.append(one_sided(name, (("y", y), ("estimate", estimate),
                                        ("target", target), ("tolerance", tol)),
                                 abs(estimate - target), tol, strict=False))
    out.append(ratio_samples(200))
    return out


def _suite_thm2(k_max: int, points: int, x_max: float) -> CheckTable:
    return thm2_ineq(np.geomspace(1e-4, 1e3, 300))


def _suite_thm3(k_max: int, points: int, x_max: float) -> list[Certificate]:
    return verify_thm3(_THM3_YS, points, x_max)


def _suite_ball(k_max: int, points: int, x_max: float) -> CheckTable:
    return ball_ratio_checks(range(1, 61)) + recurrence_check(range(2, 101))


def _suite_aux(k_max: int, points: int, x_max: float) -> CheckTable:
    out: list = []  # tables and single rows, joined at the end
    third = 1.0 / 3.0

    # exact spot values of the auxiliary polynomials (abs tol for the cubic,
    # rel tol for the sextic whose values are O(1)..O(10))
    spots = (
        ("aux_cubic_spot_value", AuxFn.QCUB, (0.0, 1.0, third),
         (-3.0, 14.0, -2.0 / 3.0), (1e-12,) * 3),
        ("aux_polynomial_spot_value", AuxFn.HPOLY, (third, CHAIN_SUP),
         (-700.0 / 81.0, -404759.0 / 117649.0),
         (1e-12 * (700.0 / 81.0), 1e-12 * (404759.0 / 117649.0))))
    for name, fn, ts, expected, tol in spots:
        values = aux_eval(fn, np.array(ts))
        out.append(one_sided_rows(name, (("t", ts), ("expected", expected),
                                         ("value", values), ("tolerance", tol)),
                                  abs(values - expected), tol, strict=False))

    # the logarithmic helper is barely positive at t = 8/7 ...
    out.append(two_sided("aux_qlog_band", (("t", CHAIN_SUP),),
                         0.002, aux_eval(AuxFn.QLOG, CHAIN_SUP), 0.003))
    # ... positive from there on, and increasing beyond t = 1/4
    ts = np.geomspace(CHAIN_SUP, 1e3, 100)
    out.append(one_sided_rows("aux_qlog_positive_from_chain_sup", (("t", ts),),
                              0.0, aux_eval(AuxFn.QLOG, ts)))
    ts = np.geomspace(0.26, 1e3, 100)
    values = aux_eval(AuxFn.QLOG, ts)
    out.append(one_sided_rows("aux_qlog_increasing_beyond_quarter",
                              (("t_lo", ts[:-1]), ("t_hi", ts[1:])), values[:-1],
                              values[1:]))

    # cubic root bracket and residual
    root = qcub_root(1e-10)
    out.append(two_sided("aux_cubic_root_bracket",
                         (("root", root),), third, root, 1.0))
    out.append(one_sided("aux_cubic_root_residual",
                         (("root", root),),
                         abs(aux_eval(AuxFn.QCUB, root)), 1e-8, strict=False))

    # the sextic stays negative across the open chain interval
    ts = np.linspace(third, CHAIN_SUP, 102)[1:-1]
    out.append(one_sided_rows("aux_polynomial_negative_interior", (("t", ts),),
                              aux_eval(AuxFn.HPOLY, ts), 0.0))

    # chained sufficiency inequalities across (0, 8/7)
    out.append(suffice_chain(np.geomspace(1e-3, CHAIN_SUP * (1.0 - 1e-9), 100)))

    # digamma-at-log-mean bound, printed product form, on its worked pairs
    # (the product form does not hold for arbitrary pairs; see the quotient
    # reading exposed in the result inputs)
    out.append(batir_ineq(np.array([2.0, 1.0, 1.0]), np.array([1.0, 2.0, third])))

    # mean-value windows for integral means of psi and psi' on worked pairs
    # (p = -i-1, q = -i) ...
    s = np.array([0.5, 1.0, 2.0, 0.25])
    t = np.array([2.5, 3.0, 7.0, 0.75])
    out.append(psi_integral_mean_ineq(0, s, t, p=-1.0, q=0.0))
    # ... and along the chain's own pairs s = 2t^2/((2t+1)ln(2t+1)) < t,
    # whose p = -2 lower point is exactly the chain's sqrt evaluation point
    ts = np.geomspace(1e-2, 1e2, 100)
    w = (2.0 * ts + 1.0) * libm(math.log1p, 2.0 * ts)
    out.append(psi_integral_mean_ineq(1, np.concatenate([s, 2.0 * ts * ts / w]),
                                      np.concatenate([t, ts]), p=-2.0, q=-1.0))

    # rational upper bound for ln(1+t)
    out.append(log_upper_bound_ineq(np.geomspace(1e-2, 1e3, 200)))

    # closed-form derivatives against central finite differences
    fd_cases = (
        (1, 1.0, 0.0, 1.0, 1e-5),
        (2, 2.0, 1.0, 3.0, 1e-4),
        (3, 0.5, -0.5, 2.0, 1e-4),
        (4, 1.5, 0.0, 5.0, 1e-3),
        (1, 0.0, 0.0, 10.0, 1e-5),
        (2, 1.0, 4.0, 0.5, 1e-4),
    )
    residuals = finite_diff_crosschecks([(k, HParams(alpha, y), x, step)
                                         for k, alpha, y, x, step in fd_cases])
    for (k, alpha, y, x, step), residual in zip(fd_cases, residuals):
        out.append(one_sided(
            "logh_derivative_matches_finite_difference",
            (("k", k), ("alpha", alpha), ("y", y), ("x", x),
             ("step", step), ("residual", residual)),
            residual, 1e-6, strict=False))
    return CheckTable.concat(out)


SUITES = {
    "lemmas": _suite_lemmas,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "thm3": _suite_thm3,
    "ball": _suite_ball,
    "aux": _suite_aux,
}
PUBLIC_SUITES = (*SUITES, "all")


def build_suite(suite: str, k_max: int = DEFAULT_K_MAX, points: int = DEFAULT_POINTS,
                x_max: float = DEFAULT_X_MAX) -> Results:
    """The results of one named suite, as runs of check tables and certificates."""
    if suite == "all":
        # one build_suite call per suite, so callers that wrap it see each
        return Results(chain.from_iterable(build_suite(name, k_max, points, x_max).runs
                                           for name in SUITES))
    if suite == FAULT_SUITE:
        return Results.of([
            thm2_ineq(1.0),
            one_sided("injected_fault_unit_interval_flip", (("t", 1.0),), 1.0, 0.0)])
    if suite not in SUITES:
        raise ParameterError(
            f"unknown suite {suite!r} (choose from {', '.join(PUBLIC_SUITES)})")
    return Results.of(SUITES[suite](k_max, points, x_max))


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

# CSV numbers are "%.17g", the same digits as format(float(v), ".17g").
# verify_csv writes check numbers a column at a time with the exact numpy
# formatter of gammacert._numtext, imported on first use; certificate and
# scan rows keep "%": too few numbers to pay off.

def _check_lines(table: CheckTable) -> list[str]:
    """The table's lines, one string per block of BLOCK_ROWS (2,048) rows:
    "check,name,status," from a table with one row per key and status,
    lhs, rhs and margin each followed by ",", then ",,\n"."""
    from ._numtext import ABSENT, BLOCK_ROWS, TEXT, number_words, text_words, words

    if not len(table):
        return []
    heads = text_words(["check,%s,%s," % (name, status) for name, _, _ in table.keys
                        for status in CheckTable.STATUSES])
    head_row = len(CheckTable.STATUSES) * table.key + table.statuses()
    tail = words([b",,\n"], 8)  # empty alpha, y, verdict
    lines = []
    for start in range(0, len(table), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        size = table.lhs[rows].size
        numbers = number_words(np.concatenate([
            table.lhs[rows], table.rhs[rows], table.margin[rows]])).reshape(3, size, 6)
        mat = np.concatenate([heads[head_row[rows]], *numbers,
                              np.broadcast_to(tail, (size, 1))], axis=1)
        lines.append(mat.tobytes().translate(None, ABSENT).decode(*TEXT))
    return lines


def _certificate_lines(rows: list[Certificate]) -> str:
    return "".join(["certificate,%s,%s,,,,%.17g,%.17g,%s\n" % (
        c.check, result_status(c), c.params.alpha, c.params.y, c.verdict.value)
        for c in rows])


def verify_csv(report: Report) -> str:
    """Flat CSV rows for a verify report (no timestamps: byte-stable).

    Each check table is written straight from its columns, BLOCK_ROWS
    (2,048) rows at a time as one matrix of lines; each certificate by "%".
    """
    parts = ["kind,name,status,lhs,rhs,margin,alpha,y,verdict\n"]
    for run in Results.of(report.results).runs:
        if isinstance(run, CheckTable):
            parts += _check_lines(run)
            continue
        for kind, items in groupby(run, type):
            if not issubclass(kind, Certificate):
                raise TypeError(f"no CSV row form for {kind.__name__}")
            parts.append(_certificate_lines(list(items)))
    return "".join(parts)


def scan_csv(cells: list[ScanCell]) -> str:
    lines = ["alpha,y,classification"]
    for cell in cells:
        lines.append("%.17g,%.17g,%s" % (cell.alpha, cell.y, cell.classification.value))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def parse_range(spec: str, label: str) -> list[float]:
    """Parse "start:end:step" (step > 0, end >= start) into grid values."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError(f"{label} must be start:end:step, got {spec!r}")
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(
            f"{label} must be numeric start:end:step, got {spec!r}") from exc
    if not (math.isfinite(start) and math.isfinite(end) and math.isfinite(step)):
        raise ParameterError(f"{label} values must be finite, got {spec!r}")
    if step <= 0.0:
        raise ParameterError(f"{label} step must be > 0, got {step!r}")
    if end < start:
        raise ParameterError(f"{label} end must be >= start, got {spec!r}")
    steps = (end - start) / step
    # also false when the step count overflows to inf
    if not steps + 1e-9 < MAX_RANGE_VALUES:
        raise ParameterError(f"{label} has too many steps to count, got {spec!r} "
                             f"(at most {MAX_RANGE_VALUES} values per range)")
    count = int(math.floor(steps + 1e-9)) + 1
    return [start + i * step for i in range(count)]


@functools.cache  # built on the first main() call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammacert",
        description="Verify gamma/digamma inequality suites and "
                    "classify (alpha, y) monotonicity cells.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    grid = argparse.ArgumentParser(add_help=False)  # shared by verify and scan
    grid.add_argument("--kmax", type=int, default=DEFAULT_K_MAX,
                      help="highest log-derivative order (default %(default)s)")
    grid.add_argument("--grid-points", type=int, default=DEFAULT_POINTS,
                      help="points per certificate grid (default %(default)s)")
    grid.add_argument("--x-max", type=float, default=DEFAULT_X_MAX,
                      help="upper end of certificate grids (default %(default)s)")

    p_verify = sub.add_parser(
        "verify", parents=[grid], help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, metavar="SUITE",
                          help=f"one of: {', '.join(PUBLIC_SUITES)}")
    p_verify.add_argument("--out", metavar="PATH",
                          help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json",
                          help="report format (default json)")

    p_scan = sub.add_parser(
        "scan", parents=[grid], help="classify a grid of (alpha, y) cells")
    p_scan.add_argument("--alpha", required=True, metavar="A0:A1:STEP",
                        help="alpha grid as start:end:step")
    p_scan.add_argument("--y", required=True, metavar="Y0:Y1:STEP",
                        help="y grid as start:end:step (y > -1)")
    p_scan.add_argument("--out", metavar="PATH",
                        help="write the CSV here (JSON then goes to stdout)")
    # argparse would read "-0.5:0:0.5" as a flag: it is no plain negative number.
    # The argparse of CPython 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13
    # still compiles ^-\d+$|^-\d*\.\d+$ as this pattern.  The attribute is
    # private: the CI matrix runs every supported minor version so that its
    # removal shows.
    p_scan._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    results = build_suite(args.suite, k_max=args.kmax,
                          points=args.grid_points, x_max=args.x_max)
    report = build_report(args.suite, results, __version__)
    _emit(verify_csv(report) if args.format == "csv" else dumps(report) + "\n",
          args.out)
    return EXIT_OK if report.summary["failed"] == 0 else EXIT_FAIL


def _cmd_scan(args: argparse.Namespace) -> int:
    alphas = parse_range(args.alpha, "--alpha")
    ys = parse_range(args.y, "--y")
    cells = scan_values(alphas, ys, k_max=args.kmax,
                        points=args.grid_points, x_max=args.x_max)
    report = build_report("scan", cells, __version__)
    _emit(scan_csv(cells), args.out)
    # the JSON report goes wherever the CSV does not
    print(dumps(report), file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK if report.summary["failed"] == 0 else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code
        if isinstance(code, int):
            return code
        return EXIT_USAGE if code else EXIT_OK
    try:
        if args.grid_points < 2:
            raise ParameterError(f"--grid-points must be >= 2, got {args.grid_points}")
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_scan(args)
    except (ParameterError, DomainError, CapabilityError, PrecisionError) as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def process_main() -> int:
    """main() on sys.argv for a whole process: the console script and
    ``python -m gammacert.cli`` call this; tests and other in-process
    callers call main().

    Once main has returned, gc.freeze() moves every object the imports and
    the run left into the collector's permanent generation, so the
    collection at interpreter exit does not traverse state that the OS is
    about to reclaim anyway.  atexit handlers, stream flushes and module
    finalisation still run; os._exit would skip them.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())
