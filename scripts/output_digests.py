#!/usr/bin/env python3
"""sha256 of every CLI output in the byte-identity gate.

Runs each invocation below as ``python -m gammacert.cli ...`` with the
package imported from SRC_DIR (default: this checkout's ``src``), blanks the
JSON ``timestamp`` field, and prints one line per invocation:

    <sha256>  <exit code>  <arguments>

The digest covers stdout and stderr (a scan writes its JSON report to
stderr).  Two trees produce the same outputs exactly when their printouts
are equal:

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
from pathlib import Path

SUITES = ("lemmas", "thm1", "thm2", "thm3", "ball", "aux", "all", "selftest-fault")

INVOCATIONS: tuple[tuple[str, ...], ...] = (
    *(("verify", "--suite", s, "--format", f) for s in SUITES for f in ("json", "csv")),
    *(("verify", "--suite", "all", "--grid-points", "173", "--x-max", "1500",
       "--format", f) for f in ("json", "csv")),
    ("verify", "--suite", "thm1", "--kmax", "12"),
    ("verify", "--suite", "thm1", "--kmax", "3", "--grid-points", "57", "--x-max", "80"),
    ("scan", "--alpha=0:2:0.05", "--y=-0.9:5:0.7"),
    ("scan", "--alpha=0:2:0.05", "--y=3.3:3.3:1", "--kmax", "12"),
    ("scan", "--alpha=-1:3:0.1", "--y=-0.95:0.5:0.15", "--grid-points", "77",
     "--x-max", "300"),
)

_TIMESTAMP = re.compile(rb'("timestamp":\s*")[^"]*(")')


def digest(args: tuple[str, ...], src: Path) -> tuple[str, int]:
    """(sha256 of the blanked stdout + stderr, exit code) of one invocation."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "gammacert.cli", *args],
                          capture_output=True, env=env, check=False)
    h = hashlib.sha256()
    for stream in (proc.stdout, proc.stderr):
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
        sha, code = digest(args, src)
        print(f"{sha}  {code}  {' '.join(args)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
