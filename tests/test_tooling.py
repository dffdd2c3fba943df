"""Source hygiene checked with the standard library's ``ast`` alone: no
unused imports, and no module reaching into another's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oracle_distill"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names listed in
    ``__all__`` count as read, since they are re-exported."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .x import a, b\n__all__ = ['b']\nnp.zeros(a)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore names a module imports from another package module."""
    return sorted(
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for a in node.names
        if a.name.startswith("_") and not a.name.startswith("__")
    )


def test_checker_finds_a_private_import():
    source = "from .ctc import Vocab, _extended\nfrom __future__ import annotations\n"
    assert private_imports(source) == ["_extended"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
