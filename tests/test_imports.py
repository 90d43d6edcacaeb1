"""Every name a ttlab module imports is used in that module, and every
private module-level name is used somewhere in the package.

No linter ships with the project, so this reads each module's syntax
tree: a name bound by an import statement must appear somewhere in the
module as a plain name (which covers attribute access on it, calls and
annotations).  The package `__init__` only re-exports and is skipped.
A module-level function, class or assignment whose name starts with `_`
must be read by some other top-level statement of the package, so a
helper left behind when its last caller goes is caught.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ttlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unused_name():
    source = "import os\nimport numpy as np\nfrom .core import FWD, BWD\nprint(np, FWD)\n"
    assert unused_imports(source) == ["BWD", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _read_names(node: ast.AST) -> set[str]:
    """Names a statement reads: plain loads, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names)
    return names


def _private_definitions(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    statements = [(module, stmt) for module, source in sorted(sources.items())
                  for stmt in ast.parse(source).body]
    reads = [_read_names(stmt) for _, stmt in statements]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        for name in _private_definitions(stmt):
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unused.append(f"{module}:{name}")
    return unused


def test_unreferenced_private_names_finds_a_leftover():
    sources = {
        "a.py": "_TABLE = 3\n_DEAD = 4\ndef _walk(x):\n    return _walk(x - 1) if x else _TABLE\n"
                "class _Gone:\n    pass\n",
        "b.py": "from .a import _walk\nprint(_walk(2))\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:_DEAD", "a.py:_Gone"]


def test_every_private_module_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []
