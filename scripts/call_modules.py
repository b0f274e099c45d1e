#!/usr/bin/env python3
"""The gammacert modules and source lines that each CLI call loads.

Runs each call below in a fresh interpreter with the package imported from
each SRC_DIR in turn (default: this checkout's ``src``) and prints one
Markdown table: a row per call, the source lines of the gammacert modules
it loaded under each SRC_DIR, those modules under the last one, and the
numpy modules it loaded beyond those that ``import numpy`` loads, under the
last one (a numpy.ma that np.unique pulls in costs every such process about
14 ms).  Modules that a call loads or no longer loads against the first
SRC_DIR are marked ``+`` and ``-``.  To compare two trees:

    python3 scripts/call_modules.py old/src src
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

#: (label, statements) of each call; its output goes to a buffer.
CALLS: tuple[tuple[str, str], ...] = (
    ("import gammacert.cli", "pass"),
    *((f"verify --suite {suite} --format csv",
       f"assert cli.main(['verify', '--suite', '{suite}', '--format', 'csv']) == 0")
      for suite in ("lemmas", "thm2", "ball", "aux")),
    ("scan --alpha=0:2:0.05 --y=1:1:1",
     "assert cli.main(['scan', '--alpha=0:2:0.05', '--y=1:1:1']) == 0"),
    ("verify --suite all", "assert cli.main(['verify', '--suite', 'all']) == 0"),
)

_PROBE = """import contextlib, io, sys
import numpy
before = set(sys.modules)
import gammacert.cli as cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    {}
for name, module in sorted(sys.modules.items()):
    if name.startswith("gammacert"):
        print(name, len(open(module.__file__, encoding="utf-8").readlines()))
    elif name.partition(".")[0] == "numpy" and name not in before:
        print(name, 0)
"""


def loaded(statements: str, src: Path) -> dict[str, int]:
    """The gammacert modules that statements load, with their line counts,
    and the numpy modules beyond import numpy's, with 0."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _PROBE.format(statements)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return {name: int(lines) for name, lines in map(str.split, out.splitlines())}


def marked(first: list[str], last: list[str], prefix: str) -> str:
    """The names of last without prefix, those not in first marked +, then
    those of first not in last marked -; "none" if there are none."""
    names = [("" if name in first else "+") + name.removeprefix(prefix) for name in last]
    names += ["-" + name.removeprefix(prefix) for name in first if name not in last]
    return " ".join(names) or "none"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*",
                        default=[str(Path(__file__).resolve().parent.parent / "src")],
                        help="directories that contain the gammacert package")
    srcs = [Path(src).resolve() for src in parser.parse_args(argv).src]
    for src in srcs:
        if not (src / "gammacert" / "cli.py").is_file():
            parser.error(f"no gammacert package under {src}")
    print("| call | " + " | ".join(f"lines ({src})" for src in srcs)
          + " | modules | numpy beyond `import numpy` |")
    print("|---" * (len(srcs) + 3) + "|")
    for label, statements in CALLS:
        runs = [loaded(statements, src) for src in srcs]
        package, numpy = ([[name for name in run if name.startswith(top)] for run in runs]
                          for top in ("gammacert", "numpy"))
        print(f"| `{label}` | " + " | ".join(f"{sum(run.values()):,}" for run in runs)
              + f" | {marked(package[0], package[-1], 'gammacert.')}"
              + f" | {marked(numpy[0], numpy[-1], '')} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
