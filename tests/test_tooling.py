"""Static checks on the package, script and test sources (standard library
only), and on the names the benchmark tracer wraps."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = (sorted(p for p in (ROOT / "src" / "md3lie").glob("*.py")
                  if p.name != "__init__.py")
           + sorted((ROOT / "scripts").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")))


def unused_names(source: str) -> list[str]:
    """Names bound by an import anywhere, or private names assigned, defined
    or declared as a class at module level, that the module never reads as a
    name; and private methods that it never reads as an attribute."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = [item for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, defs)]
    for node in tree.body + methods:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, defs + (ast.ClassDef,)):
            names.append(node.name)
        bound += [name for name in names
                  if name.startswith("_") and not name.startswith("__")]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    method_names = {node.name for node in methods}
    return [name for name in bound if name not in read
            and not (name in method_names and name in attrs)]


def test_unused_names_are_found():
    source = ("from itertools import product\nimport os.path\n"
              "from fractions import Fraction\n_ONE = Fraction(1)\n_USED = 2\n"
              "def f():\n    from math import comb\n    return _USED\n"
              "def _helper():\n    return _called()\ndef _called():\n    pass\n"
              "class _Unused:\n    pass\n"
              "class A:\n    def _stale(self):\n        pass\n"
              "    def _read(self):\n        pass\n"
              "    def __eq__(self, other):\n        return self._read()\n"
              "import json\nimport math\n_LIMIT = 3\n"
              "def g(obj):\n    return obj.json, obj._LIMIT, math.pi\n")
    # ``obj.json`` and ``obj._LIMIT`` are attribute reads, which count only
    # for a method: the import and the constant of the same name stay unused
    assert unused_names(source) == ["product", "os", "json", "comb", "_ONE",
                                    "_helper", "_Unused", "_LIMIT", "_stale"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports_or_private_constants(path):
    assert unused_names(path.read_text(encoding="utf-8")) == []


ENGINE_INTERNALS = {"_echelon", "_eliminate", "_back_substitute", "_kernel_vectors"}


def engine_internals_read(source: str) -> list[str]:
    """The private elimination names that source reads as an attribute or
    imports by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return sorted(found & ENGINE_INTERNALS)


def test_engine_internals_are_found():
    source = ("from .exactnum import _eliminate\nm._echelon()\n"
              "total._kernel_vectors(free)\n_back_substitute(rows)\n")
    assert engine_internals_read(source) == ["_echelon", "_eliminate",
                                             "_kernel_vectors"]


def test_only_exactnum_reaches_the_elimination_engine():
    # every other module eliminates through a public Matrix method, a name
    # the benchmark's tracer wraps, so no elimination escapes its layer
    readers = {path.name: engine_internals_read(path.read_text(encoding="utf-8"))
               for path in (ROOT / "src" / "md3lie").glob("*.py")
               if path.name != "exactnum.py"}
    assert {name: read for name, read in readers.items() if read} == {}


def traced_targets() -> list[tuple[str, str]]:
    """(module, name) for every entry point the benchmark's tracer wraps,
    read from the ``TARGETS`` literal of ``perfbench/tracing.py``."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                         for t in node.targets))
    return [(module, name) for _, module, names in ast.literal_eval(value)
            for name in names]


def test_every_traced_name_exists():
    # the tracer only warns on stderr about a name it cannot find, so a
    # renamed entry point would silently drop out of the per-layer metrics
    targets = traced_targets()
    assert len(targets) > 30
    missing = []
    for module_name, name in targets:
        owner = importlib.import_module(module_name)
        for part in name.split("."):
            owner = vars(owner).get(part)
            if owner is None:
                missing.append(f"{module_name}.{name}")
                break
    assert missing == []


def test_star_import_binds_every_exported_name():
    # the README example starts with ``from md3lie import *``
    tree = ast.parse((ROOT / "src" / "md3lie" / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    package = importlib.import_module("md3lie")
    assert package.__all__ == imported
    namespace = {}
    exec("from md3lie import *", namespace)
    assert [name for name in imported
            if namespace.get(name) is not getattr(package, name)] == []
