"""Source hygiene that needs no linter: every module-level import is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fairprice"


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def unused_imports(source: str) -> list[str]:
    """Module-level imports that nothing else in the module reads.  Names
    listed in ``__all__`` count as read (re-exports)."""
    tree = ast.parse(source)
    imported = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


def test_the_check_catches_an_unused_import():
    source = ("from __future__ import annotations\nimport io\nimport os.path\n"
              "from typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> str:\n    return os.path.join('a', str(x))\n")
    assert unused_imports(source) == ["io", "Sequence"]
    assert unused_imports("from .core import a, b\n__all__ = ['a', 'b']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
