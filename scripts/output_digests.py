#!/usr/bin/env python3
"""sha256 of every CLI and script output in the byte-identity gate.

Runs each CLI invocation below as ``python -m gammacert.cli ...`` and each
script invocation as ``python scripts/<name>.py ...`` (the ``scripts``
directory next to SRC_DIR) with the package imported from SRC_DIR (default:
this checkout's ``src``), blanks the JSON ``timestamp`` field, and prints one
line per invocation:

    <sha256>  <exit code>  <arguments>

The digest covers stdout and stderr (a scan writes its JSON report to
stderr) and the out.csv that a script, or a CLI call given ``--out
out.csv``, writes into the call's temporary directory.
Two trees produce the same outputs exactly when their printouts are equal:

    python3 scripts/output_digests.py old/src > old.txt
    python3 scripts/output_digests.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SUITES = ("lemmas", "thm1", "thm2", "thm3", "ball", "aux", "all", "selftest-fault")

INVOCATIONS: tuple[tuple[str, ...], ...] = (
    *(("verify", "--suite", s, "--format", f) for s in SUITES for f in ("json", "csv")),
    *(("verify", "--suite", "all", "--grid-points", "173", "--x-max", "1500",
       "--format", f) for f in ("json", "csv")),
    # the smallest and the largest verify-all op of the benchmark
    ("verify", "--suite", "all", "--grid-points", "150", "--x-max", "500",
     "--format", "json"),
    ("verify", "--suite", "all", "--grid-points", "250", "--x-max", "2000",
     "--format", "json"),
    # the lemma grid at the size and range of the benchmark's catalog ops, and
    # its largest op: 20,400 rows, ten blocks of the CSV writer
    *(("verify", "--suite", "lemmas", "--grid-points", "1000", "--x-max", "1999.5",
       "--format", f) for f in ("json", "csv")),
    ("verify", "--suite", "lemmas", "--grid-points", "1200", "--x-max", "1999.5",
     "--format", "csv"),
    # a lemma grid past polygamma(1, .)'s range: the error of its first bad point
    ("verify", "--suite", "lemmas", "--x-max", "1e120", "--format", "csv"),
    # a higher order fails first in x, a lower order first in family order
    ("verify", "--suite", "lemmas", "--x-max", "1e50", "--format", "csv"),
    # a lemma grid up to 1e20: CSV numbers with three-digit exponents
    ("verify", "--suite", "lemmas", "--grid-points", "60", "--x-max", "1e20",
     "--format", "csv"),
    # the same grid as JSON: shortest round-trip numbers either side of
    # repr's switch to exponent form at 1e16
    ("verify", "--suite", "lemmas", "--grid-points", "60", "--x-max", "1e20",
     "--format", "json"),
    ("verify", "--suite", "thm1", "--kmax", "12"),
    ("verify", "--suite", "thm1", "--kmax", "3", "--grid-points", "57", "--x-max", "80"),
    # the witnesses and undecided counts of the smallest certificate table
    ("verify", "--suite", "thm1", "--kmax", "1", "--grid-points", "2"),
    # a suite's tables stacked over its ys raise what the first failing y
    # raises alone: gamma_table(8, u)'s error at thm1's first y ...
    ("verify", "--suite", "thm1", "--x-max", "1e60"),
    # ... and the order-1 table's error naming thm3's first y
    ("verify", "--suite", "thm3", "--x-max", "1e300"),
    ("scan", "--alpha=0:2:0.05", "--y=-0.9:5:0.7"),
    ("scan", "--alpha=0:2:0.05", "--y=3.3:3.3:1", "--kmax", "12"),
    ("scan", "--alpha=-1:3:0.1", "--y=-0.95:0.5:0.15", "--grid-points", "77",
     "--x-max", "300"),
    ("scan", "--alpha=0:2:0.01", "--y=-0.9:5:0.59"),
    # alpha exactly at both thresholds, the conjecture zone and NEITHER cells
    ("scan", "--alpha=0.5:2:0.5", "--y=-0.5:1:0.5"),
    # the smallest derivative table
    ("scan", "--alpha=-1:2:0.25", "--y=0:2:1", "--kmax", "1", "--grid-points", "2"),
    # a 201-alpha row against the cuts of a k_max = 12 table
    ("scan", "--alpha=0:2:0.01", "--y=0.7:0.7:1", "--kmax", "12"),
    # 23,919 cells: 201 alphas on 119 rows
    ("scan", "--alpha=0:2:0.01", "--y=-0.9:5:0.05"),
    # alphas 1e-6 apart across the y = 5 grid cuts, alpha_LCM ~ 0.977174 and
    # alpha_REC ~ 0.163319
    ("scan", "--alpha=0.9771:0.9773:0.000001", "--y=5:5:1"),
    ("scan", "--alpha=0.1632:0.1634:0.000001", "--y=5:5:1"),
    # one cell: a one-point alpha grid against a one-point y grid
    ("scan", "--alpha=1:1:1", "--y=0:0:1"),
    # lngamma(y + 1) overflows: the one-point kernel call's error
    ("scan", "--alpha=1:1:1", "--y=1e307:1e307:1"),
    # the derivative table overflows first: gamma_table's own error
    ("scan", "--alpha=1:1:1", "--y=1e300:1e300:1"),
    # the file branch of the writers: a verify-all report as JSON, the
    # catalog's lemma grid as CSV and a 41-cell scan row (its JSON report then
    # goes to stdout), each into out.csv, which the digest reads back
    ("verify", "--suite", "all", "--grid-points", "250", "--x-max", "2000",
     "--out", "out.csv"),
    ("verify", "--suite", "lemmas", "--grid-points", "1000", "--x-max", "1999.5",
     "--format", "csv", "--out", "out.csv"),
    ("scan", "--alpha=0:2:0.05", "--y=0.7:0.7:1", "--out", "out.csv"),
    # the two exits that argparse takes: --version, and a usage error
    ("--version",),
    ("verify", "--format", "csv"),
    # the help texts, which name the suites
    ("--help",),
    ("verify", "--help"),
    ("scan", "--help"),
)

#: Script invocations at small settings; each writes its CSV to out.csv.
SCRIPTS: tuple[tuple[str, ...], ...] = (
    ("threshold_profile", "--y", "-0.5", "--y", "0", "--y", "3", "--points", "60",
     "--x-max", "500"),
    ("conjecture_scan", "--y-count", "4", "--alpha-count", "5", "--kmax", "6",
     "--grid-points", "60", "--x-max", "200"),
)

_TIMESTAMP = re.compile(rb'("timestamp":\s*")[^"]*(")')


def digest(command: list[str], src: Path) -> tuple[str, int]:
    """(sha256 of the blanked stdout + stderr and of any out.csv written,
    exit code) of one command, run in a fresh temporary directory."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(command, capture_output=True, env=env, cwd=tmp,
                              check=False)
        csv = Path(tmp, "out.csv")
        streams = [proc.stdout, proc.stderr] + ([csv.read_bytes()] if csv.is_file() else [])
    h = hashlib.sha256()
    for stream in streams:
        h.update(_TIMESTAMP.sub(rb"\1\2", stream))
        h.update(b"\0")
    return h.hexdigest(), proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory that contains the gammacert package")
    src = Path(parser.parse_args(argv).src).resolve()
    if not (src / "gammacert" / "cli.py").is_file():
        parser.error(f"no gammacert package under {src}")
    for args in INVOCATIONS:
        sha, code = digest([sys.executable, "-m", "gammacert.cli", *args], src)
        print(f"{sha}  {code}  {' '.join(args)}", flush=True)
    for name, *args in SCRIPTS:
        script = src.parent / "scripts" / f"{name}.py"
        sha, code = digest([sys.executable, str(script), *args, "--out", "out.csv"], src)
        print(f"{sha}  {code}  scripts/{name}.py {' '.join(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
