"""Smoke tests: each script in scripts/ runs end to end on tiny settings."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv,rows", [
    # 2 y values x 3 zone alphas
    ("conjecture_scan", ["--y-count", "2", "--alpha-count", "3", "--kmax", "3",
                         "--grid-points", "30", "--x-max", "50"], 6),
    # 2 y values x 20 abscissae, none inside |x| < X_EPSILON
    ("threshold_profile", ["--y", "0", "--y", "1", "--points", "20",
                           "--x-max", "10"], 40),
])
def test_script_writes_its_csv(name, argv, rows, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert _load(name).main([*argv, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == rows + 1  # header
    assert f"wrote {rows} " in capsys.readouterr().out


def test_call_modules_tables_what_each_call_loads(capsys):
    assert _load("call_modules").main([]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 + 7  # header, rule, one row per call
    assert rows[0].endswith("| modules | numpy beyond `import numpy` |")
    # the CLI import loads only the report path
    assert rows[2].endswith("| gammacert checks cli errors report | none |")
    # no call loads a numpy module that import numpy does not (np.unique on
    # an int array would load numpy.ma)
    assert [row.rpartition(" | ")[2] for row in rows[2:]] == ["none |"] * 7
