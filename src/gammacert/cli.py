"""Command-line front end: verification suites, parameter scans, reports.

Two subcommands:

- ``gammacert verify --suite NAME`` runs a named check suite and emits one
  Report (JSON by default, flat CSV rows with ``--format csv``).
- ``gammacert scan --alpha A0:A1:STEP --y Y0:Y1:STEP`` classifies a grid of
  (alpha, y) cells and emits a CSV table plus a JSON report.

Exit codes: 0 when no result failed, 1 on any failure, 2 on usage errors,
on every package error (``gammacert.errors``) and on an ``--out`` file that
cannot be written.  CSV bodies contain no timestamps, so identical
invocations produce byte-identical CSV output.

The module imports only the check records (``gammacert.checks``) and the
report assembly at load time: a suite loads what it runs when it is built,
a scan loads the certificate engine when it runs, and the first JSON report
loads the JSON writer.  ``gammacert._numtext`` writes check rows in either
format; this module gives it only the CSV row grammar.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import re
import sys
from itertools import chain, groupby
from typing import TYPE_CHECKING

from . import __version__
from .checks import DEFAULT_K_MAX, DEFAULT_POINTS, DEFAULT_X_MAX, CheckTable
from .errors import PACKAGE_ERRORS, ParameterError
from .report import Report, Results, build_report, dumps, result_status

if TYPE_CHECKING:
    from .records import Certificate, ScanCell

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

#: The suites in the order of "all"; gammacert.suites holds one builder
#: per name.
SUITES = ("lemmas", "thm1", "thm2", "thm3", "ball", "aux")
PUBLIC_SUITES = (*SUITES, "all")


def __getattr__(name: str):
    # cli.certify_lcm stays readable (perfbench reads it) without loading
    # certify with cli: certify is imported when the name is read
    if name == "certify_lcm":
        from .certify import certify_lcm

        return certify_lcm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_suite(suite: str, k_max: int = DEFAULT_K_MAX, points: int = DEFAULT_POINTS,
                x_max: float = DEFAULT_X_MAX) -> Results:
    """The results of one named suite, as runs of check tables and certificates."""
    if suite == "all":
        # one build_suite call per suite, so callers that wrap it see each
        return Results(chain.from_iterable(build_suite(name, k_max, points, x_max).runs
                                           for name in SUITES))
    if suite != FAULT_SUITE and suite not in SUITES:
        raise ParameterError(
            f"unknown suite {suite!r} (choose from {', '.join(PUBLIC_SUITES)})")
    from . import suites  # the check catalogue loads with the first suite built

    build = suites.selftest_fault if suite == FAULT_SUITE else getattr(suites, suite)
    return Results.of(build(k_max, points, x_max))


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

# CSV numbers are "%.17g", the same digits as format(float(v), ".17g").
# Check rows go through the row writer of gammacert._numtext, imported on
# first use; certificate and scan rows keep "%": too few numbers to pay off.

def _check_lines(table: CheckTable) -> list[str]:
    """The table's lines, one string per block of _numtext's row writer: a
    row kind per key and status, its text "check,name,status,", a ","
    after lhs and rhs, and ",,,\n" (empty alpha, y, verdict) after margin."""
    from ._numtext import number_words, row_blocks

    statuses = CheckTable.STATUSES
    return row_blocks(len(statuses) * table.key + table.statuses(),
                      [["check,%s,%s," % (name, status), ",", ",", ",,,\n"]
                       for name, _, _ in table.keys for status in statuses],
                      [(True, True, True)] * (len(statuses) * len(table.keys)),
                      [table.lhs, table.rhs, table.margin], number_words)


def _certificate_lines(rows: list[Certificate]) -> str:
    return "".join(["certificate,%s,%s,,,,%.17g,%.17g,%s\n" % (
        c.check, result_status(c), c.params.alpha, c.params.y, c.verdict.value)
        for c in rows])


def verify_csv(report: Report) -> str:
    """Flat CSV rows for a verify report (no timestamps: byte-stable).

    Each check table is written straight from its columns by _numtext's
    row writer; each certificate by "%".
    """
    parts = ["kind,name,status,lhs,rhs,margin,alpha,y,verdict\n"]
    for run in Results.of(report.results).runs:
        if isinstance(run, CheckTable):
            parts += _check_lines(run)
            continue
        from .records import Certificate  # loaded already: the run holds records

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


class _Unwritable(Exception):
    """The --out file cannot be written; the message names it and why."""


def _emit(text: str, out: str | None, end: str = "") -> None:
    """text, then end, to the file out or to stdout; end is written on its
    own, so a report is not copied to append it.  An out that cannot be
    written raises _Unwritable."""
    if out is None:
        sys.stdout.write(text)
        sys.stdout.write(end)
        return
    try:
        with open(out, "w", encoding="utf-8") as file:
            file.write(text)
            file.write(end)
    except OSError as exc:
        raise _Unwritable(f"cannot write {out}: {exc.strerror or exc}") from None


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
    if args.format == "csv":
        _emit(verify_csv(report), args.out)
    else:
        _emit(dumps(report), args.out, "\n")
    return EXIT_OK if report.summary["failed"] == 0 else EXIT_FAIL


def _cmd_scan(args: argparse.Namespace) -> int:
    from .certify import scan_values  # the engine loads with the first scan

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
    except PACKAGE_ERRORS as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Unwritable as exc:  # no usage line: the arguments were fine
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
