"""Design rules: no gammacert module imports a private name from another,
each module's ``__all__`` is the one declaration of its public names, only
``errors`` decides what an argument's type may be, importing the CLI loads
nothing beyond what it needs anyway, a scan loads only the scan path, and
only thm1 loads its sample stream, without numpy.random."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gammacert

PACKAGE = Path(gammacert.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("gammacert"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno} imports {name}")
    return found


def test_no_module_imports_a_private_name_from_another():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _private_imports(path)]
    assert found == []


def _is_bool(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "bool"


def _own_input_rules(path: Path) -> list[str]:
    """Where path decides an argument's type itself instead of through
    errors: a bool test (isinstance(..., bool), x.__class__ is bool), an
    import of numbers, or an HParams(alpha=0.0, ...) built to check a y."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(map(_is_bool, ast.walk(node.args[1])))):
            found.append(f"{where} tests isinstance(..., bool)")
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Is, ast.IsNot))
              and any(isinstance(side, ast.Attribute) and side.attr == "__class__"
                      for side in (node.left, *node.comparators))
              and any(map(_is_bool, (node.left, *node.comparators)))):
            found.append(f"{where} tests __class__ against bool")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "numbers" in (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module]):
            found.append(f"{where} imports numbers")
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "HParams"
              and any(isinstance(arg, ast.Constant) and arg.value == 0.0 for arg in
                      [*node.args[:1], *(k.value for k in node.keywords if k.arg == "alpha")])):
            found.append(f"{where} builds HParams(alpha=0.0, ...) to check a y")
    return found


def test_only_errors_decides_what_an_argument_may_be():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"
             for hit in _own_input_rules(path)]
    assert found == []


#: Modules whose names the package re-exports: all but the console script
#: and its suite builders.
LIBRARY = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem not in ("__init__", "cli", "suites"))


def test_each_module_all_is_declared_once_and_is_the_package_api():
    modules = {path.stem: importlib.import_module(f"gammacert.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    assert [name for name, module in modules.items()
            if not hasattr(module, "__all__")] == []
    owners: dict[str, list[str]] = {}
    for name, module in modules.items():
        for public in module.__all__:
            owners.setdefault(public, []).append(name)
    assert {public: mods for public, mods in owners.items() if len(mods) > 1} == {}
    union = [public for name in LIBRARY for public in modules[name].__all__]
    assert sorted(gammacert.__all__) == sorted(["__version__", *union])
    for name in LIBRARY:
        for public in modules[name].__all__:
            assert getattr(gammacert, public) is getattr(modules[name], public), public


#: The standard modules the package imports by name.  The guard imports them
#: first, with numpy, argparse and json (the CLI's own dependencies), so that
#: its verdict does not hang on what one numpy or Python version loads.
STDLIB = ("__future__", "collections.abc", "datetime", "enum", "functools", "gc",
          "itertools", "json.encoder", "math", "os", "pathlib", "re",
          "sys", "typing")


def _fresh(code: str) -> list[str]:
    """The words that code prints in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def test_cli_import_adds_only_gammacert_modules():
    # dataclasses, fractions and decimal cost milliseconds of every CLI
    # process; on top of its dependencies the package may load only itself
    added = _fresh(f"import sys, numpy, argparse, json, {', '.join(STDLIB)}\n"
                   "before = set(sys.modules)\n"
                   "import gammacert.cli\n"
                   "print(*sorted(set(sys.modules) - before))")
    assert "gammacert.cli" in added
    assert [name for name in added if name.partition(".")[0] != "gammacert"] == []
    # the number-text kernel loads on the first report that needs it
    assert "gammacert._numtext" not in added


#: What a scan never runs: the check catalogue, the suites that use it and
#: the check rows' number-text kernel.
NOT_SCANNED = ("gammacert.ballvol", "gammacert.ineq", "gammacert.means", "gammacert.suites",
               "gammacert._numtext")


def _loaded_after(statements: str) -> list[str]:
    """The gammacert modules loaded in a fresh interpreter after statements,
    which run with stdout and stderr sent to a buffer."""
    return _fresh("import contextlib, io, sys\n"
                  "with contextlib.redirect_stdout(io.StringIO()), "
                  "contextlib.redirect_stderr(io.StringIO()):\n"
                  f"    {statements}\n"
                  "print(*sorted(m for m in sys.modules if m.startswith('gammacert')))")


@pytest.mark.parametrize("load", ["import gammacert.cli as cli", "from gammacert import cli"])
def test_a_scan_loads_only_the_scan_path(load):
    loaded = _loaded_after(
        f"{load}; assert cli.main(['scan', '--alpha=0:2:0.5', '--y=0:0:1']) == 0")
    assert "gammacert.certify" in loaded
    assert [name for name in NOT_SCANNED if name in loaded] == []


def test_verify_loads_the_suites_when_it_builds_one():
    loaded = _loaded_after("import gammacert.cli as cli; assert cli.main("
                           "['verify', '--suite', 'ball', '--format', 'csv']) == 0")
    assert [name for name in NOT_SCANNED if name not in loaded] == []


#: What numpy's seeded sampling loads: thm1 draws from gammacert._pcg64 instead.
RANDOM = ("numpy.random", "secrets", "hmac")


@pytest.mark.parametrize("suite", ["thm1", "all"])
def test_thm1_draws_its_samples_without_numpy_random(suite):
    # what the run adds to numpy's own import (numpy 1.x imports numpy.random)
    added = _fresh("import contextlib, io, sys, numpy\n"
                   "before = set(sys.modules)\n"
                   "import gammacert.cli as cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    assert cli.main(['verify', '--suite', '{suite}']) == 0\n"
                   "print(*sorted(set(sys.modules) - before))")
    assert [name for name in RANDOM if name in added] == []
    assert "gammacert._pcg64" in added


@pytest.mark.parametrize("suite", ["lemmas", "thm2", "ball", "aux"])
def test_only_thm1_loads_the_sampler(suite):
    loaded = _loaded_after("import gammacert.cli as cli; assert cli.main("
                           f"['verify', '--suite', '{suite}', '--format', 'csv']) == 0")
    assert "gammacert.suites" in loaded
    assert "gammacert._pcg64" not in loaded


def test_package_import_loads_no_submodule():
    assert _fresh("import sys, gammacert\n"
                  "print(*sorted(m for m in sys.modules if m.startswith('gammacert')))"
                  ) == ["gammacert"]


def test_package_names_load_with_the_library():
    union = sorted(public for name in LIBRARY
                   for public in importlib.import_module(f"gammacert.{name}").__all__)
    # what a star import binds, __all__, and the public names of dir()
    starred = _fresh("before = set(globals())\n"
                     "from gammacert import *\n"
                     "print(*sorted(set(globals()) - before - {'before'}))")
    assert starred == sorted(["__version__", *union])
    assert _fresh("import gammacert; print(*sorted(gammacert.__all__))") == starred
    assert _fresh("import gammacert; print(*[n for n in dir(gammacert) if n[0] != '_'])"
                  ) == sorted([*union, *(name for name in LIBRARY if name[0] != "_")])
    # a library module as an attribute of the bare package, as an eager import gives
    assert _fresh("import gammacert; print(gammacert.ineq.__name__, "
                  "gammacert.ineq.CheckResult is gammacert.CheckResult)"
                  ) == ["gammacert.ineq", "True"]


def test_a_missing_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gammacert.no_such_name  # noqa: B018
    assert not hasattr(gammacert, "_private")
