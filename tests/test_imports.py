"""Design rules: no gammacert module imports a private name from another,
each module's ``__all__`` is the one declaration of its public names, only
``errors`` decides what an argument's type may be, importing the CLI loads
nothing beyond what it needs anyway, a scan loads only the scan path, a
suite loads the certificate engine, ballvol, the lemma windows and the
auxiliary chain only if it runs them, a call compiles no part it does not
run and at most its ceiling of source lines and loads no numpy module
beyond import numpy's, each public name is
imported from the module that declares it and has no other module path,
no module imports a name it never reads (but for what perfbench reads),
and only thm1 loads its sample stream, without numpy.random."""

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


def test_cli_import_loads_only_the_report_path():
    assert _fresh("import sys, gammacert.cli\n"
                  "print(*sorted(m for m in sys.modules if m.startswith('gammacert')))") == [
        "gammacert", "gammacert.checks", "gammacert.cli", "gammacert.errors",
        "gammacert.report"]


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


def _added_by(statements: str) -> list[str]:
    """The modules that statements add, in a fresh interpreter, to those that
    numpy and the harness load; stdout and stderr go to a buffer."""
    return _fresh("import contextlib, io, sys, numpy\n"
                  "before = set(sys.modules)\n"
                  "with contextlib.redirect_stdout(io.StringIO()), "
                  "contextlib.redirect_stderr(io.StringIO()):\n"
                  f"    {statements}\n"
                  "print(*sorted(set(sys.modules) - before))")


#: What a certificate-free call never runs: the certificate engine, the h
#: family under it, and json (a CSV report holds no JSON text).
CERTIFICATE_FREE = ("gammacert.certify", "gammacert.hfamily", "json")


@pytest.mark.parametrize("statements", [
    "import gammacert.cli",
    *(f"import gammacert.cli as cli; assert cli.main(['verify', '--suite', '{suite}', "
      "'--format', 'csv']) == 0" for suite in ("lemmas", "thm2", "ball"))])
def test_certificate_free_calls_load_no_engine_and_no_json(statements):
    added = _added_by(statements)
    assert "gammacert.cli" in added
    assert [name for name in CERTIFICATE_FREE if name in added] == []


@pytest.mark.parametrize("suite", ["lemmas", "thm1", "thm2", "thm3", "ball", "aux", "all"])
def test_a_suite_loads_the_engine_and_ballvol_only_if_it_runs_them(suite):
    loaded = _loaded_after("import gammacert.cli as cli; assert cli.main("
                           f"['verify', '--suite', '{suite}', '--format', 'csv']) == 0")
    assert ("gammacert.certify" in loaded) == (suite in ("thm1", "thm3", "all"))
    assert ("gammacert.ballvol" in loaded) == (suite in ("ball", "all"))
    assert ("gammacert.psiwindows" in loaded) == (suite in ("lemmas", "all"))
    assert ("gammacert.auxchain" in loaded) == (suite in ("aux", "all"))
    assert ("gammacert.records" in loaded) == (suite in ("thm1", "thm3", "aux", "all"))
    # a CSV report holds no JSON text
    assert "gammacert._jsontext" not in loaded


#: The call of each catalogue suite as CSV.
CSV_CALL = ("import gammacert.cli as cli; "
            "assert cli.main(['verify', '--suite', '{}', '--format', 'csv']) == 0")
SCAN_CALL = ("import gammacert.cli as cli; "
             "assert cli.main(['scan', '--alpha=0:2:0.5', '--y=0:0:1']) == 0")

#: A name that each part of the package defines, in whichever module holds
#: it: the certificate and scan records, the JSON text, the certificate
#: engine, the h family, the check catalogue, the lemma windows and the
#: auxiliary chain (with the finite-difference cross-check).
RECORDS, JSON_TEXT, ENGINE, H_FAMILY, CATALOGUE, WINDOWS, AUX_CHAIN = (
    "ScanCell", "_check_texts", "certify_lcm", "logh_deriv_table", "thm2_ineq",
    "lemma_windows", "finite_diff_crosschecks")
NOT_CATALOGUED = (RECORDS, JSON_TEXT, ENGINE, H_FAMILY, AUX_CHAIN)


@pytest.mark.parametrize("call,absent", [
    ("import gammacert.cli",
     (RECORDS, JSON_TEXT, ENGINE, H_FAMILY, CATALOGUE, WINDOWS, AUX_CHAIN)),
    (CSV_CALL.format("lemmas"), NOT_CATALOGUED),
    (CSV_CALL.format("thm2"), (*NOT_CATALOGUED, WINDOWS)),
    (CSV_CALL.format("ball"), (*NOT_CATALOGUED, WINDOWS)),
    (CSV_CALL.format("aux"), (JSON_TEXT, ENGINE, WINDOWS)),
    (SCAN_CALL, (CATALOGUE, WINDOWS, AUX_CHAIN)),
], ids=["import", "lemmas", "thm2", "ball", "aux", "scan"])
def test_a_call_compiles_no_part_that_it_does_not_run(call, absent):
    defined = _fresh("import contextlib, io, sys\n"
                     "with contextlib.redirect_stdout(io.StringIO()), "
                     "contextlib.redirect_stderr(io.StringIO()):\n"
                     f"    {call}\n"
                     f"names = {absent!r}\n"
                     "print(*sorted({n for m, module in list(sys.modules.items())\n"
                     "               if m.startswith('gammacert') for n in names\n"
                     "               if n in vars(module)}))")
    assert defined == []


#: Most gammacert source lines that each call may compile: 85% of what it
#: compiled while the records, the JSON text, the lemma windows and the
#: auxiliary chain loaded with the modules that now load them on first use
#: (1,881 lines for the import, 3,133 for lemmas and thm2, 3,269 for ball
#: and 3,937 for aux).
LINE_CEILINGS = {"import gammacert.cli": 1_599, CSV_CALL.format("lemmas"): 2_663,
                 CSV_CALL.format("thm2"): 2_663, CSV_CALL.format("ball"): 2_778,
                 CSV_CALL.format("aux"): 3_346}


@pytest.mark.parametrize("call", list(LINE_CEILINGS),
                         ids=["import", "lemmas", "thm2", "ball", "aux"])
def test_a_call_compiles_at_most_its_ceiling_of_source_lines(call):
    [lines] = _fresh("import contextlib, io, sys\n"
                     "with contextlib.redirect_stdout(io.StringIO()), "
                     "contextlib.redirect_stderr(io.StringIO()):\n"
                     f"    {call}\n"
                     "files = [m.__file__ for n, m in list(sys.modules.items())\n"
                     "         if n.startswith('gammacert')]\n"
                     "print(sum(len(open(f, encoding='utf-8').readlines()) for f in files))")
    assert int(lines) <= LINE_CEILINGS[call]


def test_cli_certify_lcm_loads_certify_when_read():
    assert _fresh("import sys, gammacert.cli as cli\n"
                  "print('gammacert.certify' in sys.modules)\n"
                  "from gammacert.certify import certify_lcm\n"
                  "print(cli.certify_lcm is certify_lcm)") == ["False", "True"]
    with pytest.raises(AttributeError, match="no_such_name"):
        importlib.import_module("gammacert.cli").no_such_name  # noqa: B018


def _defines_getattr(path: Path) -> bool:
    return any(isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
               for node in ast.parse(path.read_text(encoding="utf-8")).body)


def test_only_the_package_and_the_cli_serve_names_through_a_module_getattr():
    # the package's lazy re-exports and cli.certify_lcm: no other module
    # answers for a name that another module declares
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if _defines_getattr(path)] == ["__init__.py", "cli.py"]


#: What perfbench reads of the package, as (module, name, the module that
#: defines the name).  perfbench/ is not part of these tests, so this pins
#: its paths here.  Its tracer rebinds every function that a module imports
#: from another, so an imported binding stays even where its module never
#: calls it.
PERFBENCH_READS = (
    # loop.py and test_perfbench.py
    ("cli", "main", "cli"),
    ("cli", "certify_lcm", "certify"),
    ("certify", "certify_lcm", "certify"),
    ("certify", "logh_derivs_with_scale", "hfamily"),
    ("hfamily", "polygamma", "gammakit"),
    # tracing.py, by name and through each module's imported functions
    ("certify", "Verdict", "records"),
    ("certify", "grid_points", "certify"),
    ("ineq", "CheckResult", "checks"),
    ("ineq", "gen_log_mean", "means"),
    ("ineq", "log_mean", "means"),
    ("cli", "build_suite", "cli"),
    ("cli", "verify_csv", "cli"),
    ("cli", "scan_csv", "cli"),
    ("cli", "dumps", "report"),
)


def test_each_name_perfbench_reads_is_its_owners_object():
    wrong = []
    for module, name, owner in PERFBENCH_READS:
        found = getattr(importlib.import_module(f"gammacert.{module}"), name, None)
        if (found is None or found.__module__ != f"gammacert.{owner}"
                or found is not getattr(importlib.import_module(f"gammacert.{owner}"), name)):
            wrong.append(f"{module}.{name}")
    assert wrong == []


def _unused_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name that path imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(path.stem, bound) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (bound := (alias.asname or alias.name).partition(".")[0]) not in read]


def test_no_module_imports_a_name_it_never_reads_but_for_perfbench():
    kept = {(module, name) for module, name, owner in PERFBENCH_READS if module != owner}
    unused = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _unused_imports(path)]
    assert [hit for hit in unused if hit not in kept] == []


TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


def _misplaced_imports(path: Path, owners: dict[str, str]) -> list[str]:
    """Where path imports a public name from a gammacert module other than
    the one whose __all__ declares it (the package itself may serve any)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = (".".join(filter(None, ["gammacert", node.module])) if node.level
                  else node.module or "")
        if not module.startswith("gammacert."):
            continue
        found += [f"{path.parent.name}/{path.name}:{node.lineno} imports {alias.name} "
                  f"from {module}, not {owners[alias.name]}"
                  for alias in node.names
                  if alias.name in owners and module != f"gammacert.{owners[alias.name]}"]
    return found


def test_each_import_names_the_module_that_declares_the_name():
    owners = {public: path.stem for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "__init__"
              for public in importlib.import_module(f"gammacert.{path.stem}").__all__}
    files = [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py")),
             *sorted(SCRIPTS.glob("*.py"))]
    assert [hit for path in files for hit in _misplaced_imports(path, owners)] == []


#: The calls that the benchmark times or that the catalogue offers: verify-all
#: as JSON, each catalogue suite as CSV, and a scan.
ALL_CALL = "import gammacert.cli as cli; assert cli.main(['verify', '--suite', 'all']) == 0"


@pytest.mark.parametrize("call", [ALL_CALL, *(CSV_CALL.format(suite) for suite in (
    "lemmas", "thm2", "ball", "aux")), SCAN_CALL],
    ids=["all", "lemmas", "thm2", "ball", "aux", "scan"])
def test_a_call_loads_no_numpy_module_beyond_import_numpy(call):
    # np.unique on an int array loads numpy.ma, about 14 ms of every process
    # under -X importtime; a writer or a suite must not pull such a module in
    assert [name for name in _added_by(call) if name.partition(".")[0] == "numpy"] == []


#: What numpy's seeded sampling loads: thm1 draws from gammacert._pcg64 instead.
RANDOM = ("numpy.random", "secrets", "hmac")


@pytest.mark.parametrize("suite", ["thm1", "all"])
def test_thm1_draws_its_samples_without_numpy_random(suite):
    # what the run adds to numpy's own import (numpy 1.x imports numpy.random)
    added = _added_by("import gammacert.cli as cli; "
                      f"assert cli.main(['verify', '--suite', '{suite}']) == 0")
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
