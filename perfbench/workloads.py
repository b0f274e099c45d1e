"""Seeded operations and output checks for the gammacert benchmark.

An operation ("op") is a short sequence of CLI calls, each an argv list for
``gammacert.cli.main``.  ``OUT`` in an argv stands for a scratch file the
runner substitutes.  Ops are drawn in blocks: inside a block every input
dimension is stratified (a Latin hypercube over the block), so each block
covers the whole input range evenly and the median op of a run barely
depends on the seed, while the seed still fixes every argv.

Range arguments are passed as ``--y=<spec>`` / ``--alpha=<spec>``: argparse
reads a separate value with a leading ``-`` (``--y -0.9:5:0.5``) as an
option and rejects the scan.  That is a CLI defect the benchmark works
around, not one it measures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

OUT = "{out}"
OUT_DIR = Path(".perfbench_out")  # scratch outputs and span files

VERIFY_CSV_HEADER = "kind,name,status,lhs,rhs,margin,alpha,y,verdict"
SCAN_CSV_HEADER = "alpha,y,classification"
SCAN_CELLS = 41  # alpha spans A0..A0+2 in steps of 0.05
CLASSIFICATIONS = {"LCM", "RECIPROCAL", "NEITHER", "UNDECIDED"}

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


@dataclass(frozen=True)
class Op:
    calls: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    block: int         # ops per stratified block
    trace_blocks: int  # blocks in the fixed op set of a traced run


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-all", block=4, trace_blocks=1),
        Workload("scan-dense", block=8, trace_blocks=1),
        Workload("catalog-csv", block=8, trace_blocks=2),
    )
}
DIMS = 2  # stratified input dimensions of every workload


def _num(v: float) -> str:
    return format(v, ".10g")


def _make_op(workload: str, q: list[float]) -> Op:
    """Map stratified unit draws q (one per dimension) to an op's argv."""
    if workload == "verify-all":
        points = 150 + int(101 * q[0])       # P in [150, 250]
        x_max = 500.0 * 4.0 ** q[1]          # X log-uniform in [500, 2000)
        return Op(((
            "verify", "--suite", "all", "--grid-points", str(points),
            "--x-max", _num(x_max), "--out", OUT),))
    if workload == "scan-dense":
        y = _num(5.0 - 5.95 * q[0])          # Y in (-0.95, 5]
        a0 = 0.05 * q[1]                     # A0 in [0, 0.05)
        # fixed decimals keep end - start at 2 exactly, hence 41 cells
        return Op(((
            "scan", f"--alpha={a0:.6f}:{a0 + 2.0:.6f}:0.05",
            f"--y={y}:{y}:1", "--out", OUT),))
    if workload == "catalog-csv":
        points = 800 + int(401 * q[0])       # P in [800, 1200]
        x_max = 500.0 * 4.0 ** q[1]
        lemmas = ("verify", "--suite", "lemmas", "--grid-points", str(points),
                  "--x-max", _num(x_max), "--format", "csv")
        return Op((lemmas,) + tuple(
            ("verify", "--suite", s, "--format", "csv")
            for s in ("thm2", "ball", "aux")))
    raise ValueError(f"unknown workload {workload!r}")


def blocks(workload: str, seed: int, stream: str, size: int | None = None):
    """Endless stratified blocks of ops, fixed by (workload, seed, stream)."""
    size = size or WORKLOADS[workload].block
    rng = random.Random(f"{workload}:{seed}:{stream}")
    while True:
        strata = [rng.sample(range(size), size) for _ in range(DIMS)]
        yield [_make_op(workload, [(strata[d][i] + rng.random()) / size
                                   for d in range(DIMS)])
               for i in range(size)]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class OutputError(Exception):
    """An op's output contradicts what the program promises."""


@dataclass(frozen=True)
class CallOutput:
    code: int
    stdout: str
    file: str  # text of the OUT file, "" when the call wrote none


def argv(call: tuple[str, ...], out: Path) -> list[str]:
    """call with OUT replaced by the scratch file path."""
    return [str(out) if a == OUT else a for a in call]


def read_out(call: tuple[str, ...], out: Path) -> str:
    """Text a call wrote to the OUT file ("" if it takes none or wrote none)."""
    return out.read_text(encoding="utf-8") if OUT in call and out.exists() else ""


def digest_text(outputs: list[CallOutput]) -> str:
    """Outputs as hashed for the informational sha256 (timestamps blanked)."""
    blank = '"timestamp": ""'
    return "".join(f"{o.code}\0{_TIMESTAMP.sub(blank, o.stdout)}"
                   f"\0{_TIMESTAMP.sub(blank, o.file)}\0" for o in outputs)


def sha256(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
    return h.hexdigest()


def _verify_json(text: str) -> int:
    report = json.loads(text)
    summary = report["summary"]
    if summary["failed"] != 0:
        raise OutputError(f"summary.failed = {summary['failed']}")
    if summary["total"] != len(report["results"]):
        raise OutputError("summary.total disagrees with the result list")
    return summary["total"]


def _verify_csv(text: str) -> int:
    lines = text.splitlines()
    if not lines or lines[0] != VERIFY_CSV_HEADER:
        raise OutputError("verify CSV header mismatch")
    rows = list(csv.reader(lines[1:]))
    failed = sum(1 for r in rows if r[2] == "failed")
    if failed:
        raise OutputError(f"{failed} failed rows")
    if not rows:
        raise OutputError("verify CSV has no rows")
    return len(rows)


def scan_violations(text: str) -> list[str]:
    """Cells of a scan CSV that contradict Theorem 1 away from its thresholds.

    alpha > max{1, 1/(y+1)} must be LCM, alpha < min{1, 1/(2(y+1))} must be
    RECIPROCAL, and the conjecture zone (y > -1/2, min{1, 1/(2(y+1))} <
    alpha <= 1) is never RECIPROCAL.
    """
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_CSV_HEADER:
        return ["scan CSV header mismatch"]
    bad = []
    for row in csv.reader(lines[1:]):
        alpha, y, label = float(row[0]), float(row[1]), row[2]
        upper = max(1.0, 1.0 / (y + 1.0))
        lower = min(1.0, 0.5 / (y + 1.0))
        zone = y > -0.5 and lower < alpha <= 1.0
        if label not in CLASSIFICATIONS:
            bad.append(f"unknown classification {label!r}")
        elif alpha > upper and label != "LCM":
            bad.append(f"({alpha}, {y}) is {label}, expected LCM")
        elif alpha < lower and label != "RECIPROCAL":
            bad.append(f"({alpha}, {y}) is {label}, expected RECIPROCAL")
        elif zone and label == "RECIPROCAL":
            bad.append(f"({alpha}, {y}) in the conjecture zone is RECIPROCAL")
    return bad


def _scan(out: CallOutput) -> int:
    bad = scan_violations(out.file)
    if bad:
        raise OutputError("; ".join(bad[:3]))
    cells = len(out.file.splitlines()) - 1
    if cells != SCAN_CELLS:
        raise OutputError(f"{cells} scan cells, expected {SCAN_CELLS}")
    if json.loads(out.stdout)["summary"]["failed"] != 0:
        raise OutputError("scan report has failed cells")
    return cells


def check(op: Op, outputs: list[CallOutput]) -> tuple[int, str | None]:
    """(result items emitted, failure reason or None) for one op's outputs."""
    if len(outputs) != len(op.calls):
        return 0, "op did not complete"
    items = 0
    try:
        for call, out in zip(op.calls, outputs):
            if out.code != 0:
                raise OutputError(f"exit code {out.code}")
            if call[0] == "scan":
                items += _scan(out)
            elif "csv" in call:
                items += _verify_csv(out.stdout)
            else:
                items += _verify_json(out.file)
    except (OutputError, ValueError, KeyError, IndexError, TypeError) as exc:
        return items, f"{' '.join(call)}: {exc}"
    return items, None

