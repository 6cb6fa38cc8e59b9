"""Hygiene of the test files and the package: no module imports a name it
never uses, and no private helper of the package outlives its last reader,
so a dropped check or a deleted duplicate cannot hide behind a leftover
import or definition."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "skewgb"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports and never read anywhere in it;
    ``import a.b`` binds ``a``, and ``from __future__`` imports bind
    nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_helper():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") \
        == ["e (line 2)", "os (line 1)"]
    assert unused_imports("import a.b\ndef f():\n    return a.b\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_test_module_imports_unused_names():
    files = sorted(TESTS.glob("*.py"))
    assert len(files) > 10
    found = {
        path.name: names
        for path in files
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found, f"unused imports: {found}"


def test_no_package_module_imports_unused_names():
    # __init__.py imports names only to re-export them.
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(files) > 5
    found = {
        path.name: names
        for path in files
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found, f"unused imports: {found}"


def private_definitions(source: str) -> dict:
    """Private (single leading underscore) names the module binds at top
    level by ``def``, ``class`` or assignment, with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found.setdefault(name, node.lineno)
    return found


def names_read(source: str) -> set:
    """Every name the module reads, as a plain name or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def dead_helpers(sources: dict) -> list[str]:
    """Private module-level names of the given modules (file name ->
    source) that no module reads."""
    read = set().union(*(names_read(src) for src in sources.values()))
    return [f"{fname}: {name} (line {line})"
            for fname, src in sorted(sources.items())
            for name, line in sorted(private_definitions(src).items())
            if name not in read]


def test_dead_helpers_helper():
    src = ("_a = 1\n_b: int = 2\n__all__ = []\n"
           "def _f():\n    return _a\nclass _C:\n    pass\n"
           "def g(x):\n    return x._C\n")
    assert dead_helpers({"m.py": src}) == ["m.py: _b (line 2)",
                                           "m.py: _f (line 4)"]
    # A definition that only assigns to the name does not read it.
    assert dead_helpers({"m.py": "_x = 1\ndef f():\n    _x = 2\n"}) == \
        ["m.py: _x (line 1)"]


def test_no_package_module_defines_an_unread_private_name():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    assert len(sources) > 5
    assert not (dead := dead_helpers(sources)), f"dead helpers: {dead}"
    # A helper left behind by a deletion is caught.
    sources["engine.py"] += "\n\ndef _stale_helper():\n    return 1\n"
    assert [d.split(" (")[0] for d in dead_helpers(sources)] == \
        ["engine.py: _stale_helper"]


# The oracle's value is its independence: it may share the arithmetic and
# monomial layers with the engine, never its pair logic, reducer searches,
# normal-form kernel or completion.
# The oracle may read ``_split`` and ``_window_slots``, which belong to the
# input and window layers.
ORACLE_ROOTS = ("_oracle_nf", "_oracle_buchberger", "_oracle_runs",
                "_oracle_polys", "_oracle_lms", "oracle_gbasis_truncated",
                "expand_window", "lm_window_match", "free_oracle_match")
ENGINE_ONLY = {"_nf_terms", "_Entry", "_search", "_Divisors", "_window_pairs",
               "_left_pairs", "_lcm_filter", "_family", "_complete", "_solve",
               "_packed", "_interreduce"}


def names_reached(sources: dict, roots) -> dict:
    """The module-level functions of the given modules that ``roots`` reach
    by naming them, transitively, each with the names its body reads."""
    defs = {node.name: node
            for src in sources.values() for node in ast.parse(src).body
            if isinstance(node, ast.FunctionDef)}
    reached, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached[name] = names_read(ast.unparse(defs[name]))
        todo.extend(reached[name])
    return reached


def test_the_oracle_names_no_engine_machinery():
    sources = {p: (SRC / p).read_text(encoding="utf-8")
               for p in ("engine.py", "letterplace.py")}
    # A renamed or deleted name would leave its guard silently empty.
    defined = {node.name for src in sources.values()
               for node in ast.parse(src).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not (stale := (set(ORACLE_ROOTS) | ENGINE_ONLY) - defined), stale
    reached = names_reached(sources, ORACLE_ROOTS)
    assert set(ORACLE_ROOTS) <= set(reached)
    shared = {f: sorted(names & ENGINE_ONLY) for f, names in reached.items()
              if names & ENGINE_ONLY}
    assert not shared, f"the oracle names engine machinery: {shared}"
    # A helper of the oracle that reaches for the kernel is caught.
    sources["engine.py"] += ("\n\ndef _oracle_nf(work, gens, hkey):\n"
                             "    return _nf_terms(1, work, 0, None, hkey)\n")
    reached = names_reached(sources, ORACLE_ROOTS)
    assert reached["_oracle_nf"] & ENGINE_ONLY == {"_nf_terms"}
