"""Hygiene of the test files and the package: no module imports a name it
never uses, so a dropped check or a deleted duplicate cannot hide behind a
leftover import."""

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
