"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "pathmeas").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by module-level imports that the module never reads
    (``from __future__`` imports are exempt)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_what_it_should():
    assert unused_imports("from __future__ import annotations\nimport os\nimport a.b\n"
                          "from m import x, y as z\nprint(a.b, z)\n") == ["os", "x"]
