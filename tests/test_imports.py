"""Every name a library module imports is used in that module.

No linter ships with the test dependencies, so this is the unused-import
rule (pyflakes' F401) as a small AST walk.  ``__init__.py`` re-exports
what it imports, and a line marked ``# noqa: F401`` keeps an import on
purpose."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "svikit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names in string annotations, such as -> "SviProblem"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from typing import Optional, Union  # noqa: F401\n"
              "from numpy import array as arr, zeros\n"
              "def f(x) -> 'Optional[int]':\n"
              "    return arr(x)\n")
    assert unused_imports(source) == [(2, "math"), (3, "os"), (5, "zeros")]
