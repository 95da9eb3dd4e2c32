"""Module layout rules for ``src/ldpcount``.

A name with a leading underscore is private to its module.  When another
module needs it, it belongs in a shared module under a public name, so no
module imports another's private name.
"""

import ast
from pathlib import Path

import pytest

import ldpcount

MODULES = sorted(Path(ldpcount.__file__).resolve().parent.glob("*.py"))


def private_imports(tree: ast.AST) -> list[str]:
    """Private names pulled from sibling modules by relative imports."""
    return [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_finds_private_import():
    tree = ast.parse("from .triangles import EstimateReport, _resolve_mode\n")
    assert private_imports(tree) == ["from .triangles import _resolve_mode"]
    assert private_imports(ast.parse("from .protocol import resolve_mode\n")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert private_imports(tree) == []
