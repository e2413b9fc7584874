"""Static checks on the package source (standard library only)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "md3lie"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_names(source: str) -> list[str]:
    """Names bound by an import anywhere, or private names assigned at module
    level, that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        bound += [t.id for t in targets if isinstance(t, ast.Name)
                  and t.id.startswith("_") and not t.id.startswith("__")]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_names_are_found():
    source = ("from itertools import product\nimport os.path\n"
              "from fractions import Fraction\n_ONE = Fraction(1)\n_USED = 2\n"
              "def f():\n    from math import comb\n    return _USED\n")
    assert unused_names(source) == ["product", "os", "comb", "_ONE"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports_or_private_constants(path):
    assert unused_names(path.read_text(encoding="utf-8")) == []
