"""Design rule: no gammacert module imports a private name from another."""

from __future__ import annotations

import ast
from pathlib import Path

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
