"""Source rules every library module keeps, read off its syntax tree.

The engine is exact and stdlib-only: no float literal and no `float(...)`
call, and no absolute import of a module outside the standard library (the
package imports itself relatively).  Its refusals are raised, never
asserted: `python -O` strips `assert` statements.
"""
import ast
import sys
from pathlib import Path

import pytest

import superlink

SOURCES = sorted(Path(superlink.__file__).parent.glob("*.py"))


def _breaches(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Assert):
            found.append(f"{where}: assert statement")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append(f"{where}: float(...) call")
        elif isinstance(node, ast.Import):
            found += [f"{where}: import {a.name}" for a in node.names
                      if a.name.partition(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and node.module.partition(".")[0] not in sys.stdlib_module_names:
            found.append(f"{where}: from {node.module} import")
    return found


def test_every_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"__init__.py", "oracle.py", "weights.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_keeps_the_source_rules(path):
    assert _breaches(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source, breach", [
    ("assert x", "line 1: assert statement"),
    ("y = 0.5", "line 1: float literal 0.5"),
    ("y = float(x)", "line 1: float(...) call"),
    ("import numpy.linalg", "line 1: import numpy.linalg"),
    ("from superlink import oracle", "line 1: from superlink import"),
])
def test_scan_names_each_breach(source, breach):
    assert _breaches(ast.parse(source)) == [breach]


def test_scan_passes_stdlib_and_relative_imports():
    source = "from __future__ import annotations\nimport math\nfrom .weights import Weight\n"
    assert _breaches(ast.parse(source)) == []
