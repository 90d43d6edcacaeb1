"""Every name a ttlab module imports is used in that module, every
private module-level name is used somewhere in the package, the oracle
imports no ttlab module but `core`, and each capacity bound is checked
in one function.

No linter ships with the project, so this reads each module's syntax
tree: a name bound by an import statement must appear somewhere in the
module as a plain name (which covers attribute access on it, calls and
annotations).  The package `__init__` only re-exports and is skipped.
A module-level function, class or assignment whose name starts with `_`
must be read by some other top-level statement of the package, so a
helper left behind when its last caller goes is caught.  The oracle is
the independent check on `embed`, `search` and `census`, so it may not
import them, directly or through the package.  `orbits`, the class loop
that census takes, imports no ttlab module at all: `census` owns the
attachment walk of each family, so the loop stays family-agnostic and
shares no code with the oracle.  Each row of the README "Capacity
bounds" table is raised as CapacityError by one function, and only the
two functions that own the vertex and sweep bounds read them.
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


def package_imports(source: str) -> set[str]:
    """The ttlab modules a module's source imports, at any depth: relative
    imports and absolute ones, `from . import x` counting x as a module.
    A bare `import ttlab` counts as "ttlab", the whole package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ttlab":
                    found.add(parts[1] if len(parts) > 1 else "ttlab")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "ttlab":
                    continue
                parts = parts[1:]
            if parts and parts[0]:  # from .core import x, from ttlab.core import x
                found.add(parts[0])
            else:  # from . import embed, from ttlab import embed
                found.update(a.name for a in node.names)
    return found


def test_package_imports_finds_every_form():
    source = ("import numpy as np\nfrom itertools import product\nfrom .core import Digraph\n"
              "from . import embed\nfrom ttlab.search import extremal\nimport ttlab.census\n"
              "def f():\n    from ttlab import cli\n    import ttlab\n")
    assert package_imports(source) == {"core", "embed", "search", "census", "cli", "ttlab"}


def test_oracle_imports_only_core():
    # the oracle checks the search code, so it must share none of it
    source = (SRC / "oracle.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"core"}


def test_orbits_imports_only_the_search_side():
    # the class loop knows no family: the free and partite attachment walks
    # live in `census`, so the loop imports no ttlab module, and the class
    # route shares no code with the oracle's labelled route
    source = (SRC / "orbits.py").read_text(encoding="utf-8")
    assert package_imports(source) == set()


def _nodes_by_function(source: str):
    """(where, node) for every node of the module, where being the dotted
    name of the innermost function or class around it ("" at module
    level)."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            yield where, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{where}.{child.name}".lstrip("."))
            else:
                yield from visit(child, where)
    return visit(ast.parse(source), "")


def _named(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def capacity_raises(sources: dict[str, str]) -> list[str]:
    """module:function of each `raise CapacityError`, once per raise."""
    found = []
    for module, source in sorted(sources.items()):
        for where, node in _nodes_by_function(source):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if _named(exc) == "CapacityError":
                    found.append(f"{module}:{where}")
    return found


def bound_readers(sources: dict[str, str]) -> set[str]:
    """module:function of each read of MAX_VERTICES or SWEEP_BOUND."""
    return {f"{module}:{where}" for module, source in sources.items()
            for where, node in _nodes_by_function(source)
            if isinstance(node, (ast.Name, ast.Attribute))
            and not isinstance(node.ctx, ast.Store)
            and _named(node) in ("MAX_VERTICES", "SWEEP_BOUND")}


def test_capacity_raises_finds_each_raise():
    sources = {"a.py": "class D:\n    def __init__(self, n):\n        if n > MAX_VERTICES:\n"
                       "            raise CapacityError(n)\n"
                       "def f(n):\n    def g():\n        raise core.CapacityError\n"
                       "    raise ValueError(n)\nraise CapacityError\n"}
    assert capacity_raises(sources) == ["a.py:D.__init__", "a.py:f.g", "a.py:"]
    assert bound_readers(sources) == {"a.py:D.__init__"}


# the one function that raises each row of the README "Capacity bounds"
# table (the sweep bound serves three rows)
CAPACITY_OWNERS = ["container.py:density_m", "core.py:_vertex_count", "embed.py:count_embeddings",
                   "oracle.py:_sweep_size", "search.py:edit_distance_to_dtr"]


def test_each_capacity_bound_is_raised_by_one_function():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert capacity_raises(sources) == CAPACITY_OWNERS
    assert bound_readers(sources) == {"core.py:_vertex_count", "oracle.py:_sweep_size"}
