"""Static checks on the package, script and test sources (standard library
only), on the names the benchmark tracer wraps, and runs of the README's
library example and command-line walkthrough."""

import ast
import importlib
import io
import json
import re
import runpy
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from md3lie import cli
from md3lie.cohomology import TotalCochain
from md3lie.exactnum import Matrix
from md3lie.multilin import cochain_dim

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


OPERATOR_TERMS = {"_delta_terms", "_phi_terms"}


def attribute_reads(source: str, names) -> list[tuple[str, str, bool]]:
    """(name, the dotted name of the enclosing class and function, whether
    it is passed straight to an ``_assemble`` call) for each read of an
    attribute in names in source, in source order."""
    tree = ast.parse(source)
    passed = {id(arg) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_assemble"
              for arg in node.args + [k.value for k in node.keywords]}
    reads = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in names):
            reads.append((node.attr, where, id(node) in passed))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return reads


def operator_term_reads(source: str) -> list[tuple[str, bool]]:
    """(name, whether it is passed straight to an ``_assemble`` call) for
    each read of an operator's term generator in source."""
    return [(name, passed) for name, _, passed in attribute_reads(source, OPERATOR_TERMS)]


def test_operator_term_reads_are_found():
    source = ("self._assemble(q, q - 1, self._delta_terms)\n"
              "rows = list(self._phi_terms(arg, k, stride))\n"
              "self._assemble(q, q, terms=self._phi_terms)\n")
    assert operator_term_reads(source) == [
        ("_delta_terms", True), ("_phi_terms", False), ("_phi_terms", True)]


def test_only_the_assembler_reads_the_operator_terms():
    # delta's and Phi's terms are enumerated by ComplexAssembly._assemble
    # alone, whatever rows or columns it is asked for, so no route grows a
    # second assembler that could drift from the one the oracles check
    reads = [(path.name, name, passed)
             for path in SOURCES if path.parent.name != "tests"
             for name, passed in operator_term_reads(path.read_text(encoding="utf-8"))]
    assert {name for _, name, _ in reads} == OPERATOR_TERMS
    assert [read for read in reads if not read[2]] == []
    assert {path for path, _, _ in reads} == {"cohomology.py"}


ROW_FORMAT = {"_raw", "_integer_rows"}


def test_attribute_reads_name_their_function():
    source = ("class A:\n"
              "    def f(self):\n        return Matrix._raw(1, 1)\n"
              "    def g(self, m):\n"
              "        def h():\n            return m._integer_rows()\n"
              "        return h\n"
              "rows = m._integer_rows\n")
    assert attribute_reads(source, ROW_FORMAT) == [
        ("_raw", "A.f", False), ("_integer_rows", "A.g.h", False),
        ("_integer_rows", "", False)]


def test_only_the_assembler_and_the_quotient_read_integer_rows():
    # exactnum's integer-row format is written by the assembler and read by
    # the quotient lemma alone; every other matrix of the complex is built
    # by Matrix operations, so a route stacks what they give and cannot
    # drift from the format the engine expects
    source = (ROOT / "src" / "md3lie" / "cohomology.py").read_text(encoding="utf-8")
    reads = attribute_reads(source, ROW_FORMAT)
    assert {name for name, _, _ in reads} == ROW_FORMAT
    assert [read for read in reads if read[1] not in {
        "ComplexAssembly._assemble", "ComplexAssembly._quotient"}] == []


def certificate_helpers() -> set[str]:
    """The names exactnum.py defines in its section on the determinant of a
    Kronecker sum."""
    source = (ROOT / "src" / "md3lie" / "exactnum.py").read_text(encoding="utf-8")
    start = source[:source.index("# ---- determinant of a Kronecker sum")].count("\n")
    return {target.id if isinstance(node, ast.Assign) else node.name
            for node in ast.parse(source).body if node.lineno > start
            for target in (node.targets if isinstance(node, ast.Assign) else [node])}


def test_cohomology_imports_one_certificate_name():
    # the choice between exact spectra and polynomials lives in one exactnum
    # object, so cohomology reaches no helper of either path
    tree = ast.parse((ROOT / "src" / "md3lie" / "cohomology.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "exactnum" for alias in node.names}
    assert "PhiDeterminant" in certificate_helpers()
    assert imported & certificate_helpers() == {"PhiDeterminant"}
    assert not any(isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "exactnum" for node in ast.walk(tree))


MOD_P_HELPERS = {"charpoly_mod_p", "negated_charpoly_mod_p", "wedge_charpoly_mod_p",
                 "kronecker_sum_charpoly_mod_p", "kronecker_sum_det_from_halves"}


def prime_comparisons(source: str) -> list[str]:
    """The dotted name of the enclosing class and function of each
    comparison in source that holds CERTIFICATE_PRIME, or a name a function
    binds to it, against a size or a denominator: a comparison that names
    the prime, or ``x.denominator`` modulo it, outermost only."""
    found = []

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def aliases(function):
        bound = {"CERTIFICATE_PRIME"}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    bound |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                              and isinstance(v, ast.Name) and v.id == "CERTIFICATE_PRIME"}
        return bound

    def visit(node, where, primes):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}".lstrip(".")
            if isinstance(node, ast.FunctionDef):
                primes = aliases(node)
        if ((isinstance(node, ast.Compare) and names(node) & primes)
                or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and names(node.right) & primes
                    and isinstance(node.left, ast.Attribute)
                    and node.left.attr == "denominator")):
            found.append(where)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, where, primes)

    visit(ast.parse(source), "", {"CERTIFICATE_PRIME"})
    return found


def test_prime_comparisons_are_found():
    source = ("def f(e, N):\n"
              "    a, p = 1, CERTIFICATE_PRIME\n"
              "    if p <= N or e.denominator % p == 0:\n        return None\n"
              "    return e.numerator * pow(e.denominator, -1, p) % p\n"
              "class A:\n"
              "    def g(self, c):\n        return all(c.denominator % CERTIFICATE_PRIME)\n"
              "def h(p):\n    return p > 2\n")
    assert prime_comparisons(source) == ["f", "f", "A.g"]


def test_one_guard_reads_the_certificate_prime():
    # PhiDeterminant asks whether p can read the input in two places, the
    # size check of mod_p and one predicate; the mod-p helpers state that
    # as their precondition, and neither take nor give None
    source = (ROOT / "src" / "md3lie" / "exactnum.py").read_text(encoding="utf-8")
    helpers = {node.name: ast.get_source_segment(source, node)
               for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef) and node.name in MOD_P_HELPERS}
    assert helpers.keys() == MOD_P_HELPERS
    assert [name for name, text in helpers.items()
            if "None" in text or "Optional" in text] == []
    assert sorted(prime_comparisons(source)) == [
        "PhiDeterminant._reads_input", "PhiDeterminant._reads_input", "PhiDeterminant.mod_p"]


def test_run_command_alone_frames_reports_and_picks_the_exit_code():
    # a subcommand returns only its report fields; the schema, command and
    # argv frame and the exit code derived from "valid" live in run_command
    tree = ast.parse((ROOT / "src" / "md3lie" / "cli.py").read_text(encoding="utf-8"))

    def reads_schema(node):
        return any(isinstance(n, ast.Name) and n.id == "REPORT_SCHEMA"
                   or isinstance(n, ast.Attribute) and n.attr == "REPORT_SCHEMA"
                   for n in ast.walk(node))

    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(handlers) == 10
    for fn in handlers:
        assert not any(isinstance(n, ast.Return) and isinstance(n.value, ast.Tuple)
                       for n in ast.walk(fn)), fn.name
    assert [getattr(node, "name", type(node).__name__) for node in tree.body
            if reads_schema(node)] == ["run_command"]


PROVENANCE = "_adjoint_of"


def provenance_uses(source: str) -> tuple[set, set]:
    """The scopes (function, Class.method, Class or <module>) that read and
    that set the attribute PROVENANCE: an attribute load reads it, a store
    or a setattr/__setattr__ call naming it sets it, and any other string
    naming it (getattr, vars()[...]) counts as a read."""
    scopes = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                name = (f"{node.name}.{item.name}"
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        else node.name)
                scopes.append((name, item))
        else:
            scopes.append(("<module>", node))
    reads, sets = set(), set()
    for name, scope in scopes:
        setters = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "setattr"
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__setattr__"):
                setters.update(id(arg) for arg in node.args)
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and node.attr == PROVENANCE:
                (reads if isinstance(node.ctx, ast.Load) else sets).add(name)
            elif isinstance(node, ast.Constant) and node.value == PROVENANCE:
                (sets if id(node) in setters else reads).add(name)
    return reads, sets


def test_provenance_uses_are_found():
    source = ("class R:\n    _adjoint_of: object = None\n"
              "    def copy(self):\n        return self._adjoint_of\n"
              "def make(r, md):\n    object.__setattr__(r, '_adjoint_of', md)\n"
              "def poke(r, md):\n    setattr(r, '_adjoint_of', md)\n"
              "    r._adjoint_of = md\n"
              "def peek(r):\n    return getattr(r, '_adjoint_of')\n"
              "x = vars(R)['_adjoint_of']\n")
    assert provenance_uses(source) == ({"R.copy", "peek", "<module>"},
                                       {"make", "poke"})


def test_one_predicate_reads_the_adjoint_provenance():
    # the lemma that a valid algebra implies its adjoint and coadjoint has
    # one home, structures.implied_by_algebra, which verify and cohomology
    # both call; dual_representation only carries the provenance over
    uses = {path.name: provenance_uses(path.read_text(encoding="utf-8"))
            for path in (ROOT / "src" / "md3lie").glob("*.py")}
    assert {name: used for name, used in uses.items() if used != (set(), set())} == {
        "structures.py": ({"implied_by_algebra", "dual_representation"},
                          {"adjoint_representation", "dual_representation"})}


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


def test_shapes_the_benchmark_reads():
    # perfbench builds representatives from dense lists and prints .coords,
    # and its tracer counts exactnum.kernel_vectors and output bits only for
    # a list of tuples or a tuple; the benchmark steps run after these tests,
    # so a change of shape would zero those counters with no failure here
    n = m = 3
    for q in (1, 2):
        width = cochain_dim(q, n, m) + (cochain_dim(q - 1, n, m) if q > 1 else 0)
        vec = [Fraction(i % 3 - 1, 2) for i in range(width)]
        tc = TotalCochain.from_stacked(q, n, m, vec)
        assert type(tc.stacked()) is tuple and list(tc.stacked()) == vec
        for part, degree in ((tc.f, q), (tc.g, q - 1)):
            if part is not None:
                assert type(part.coords) is tuple
                assert len(part.coords) == cochain_dim(degree, n, m)
    mat = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    kernel = mat.kernel_basis()
    assert type(kernel) is list and len(kernel) == 2
    assert all(type(v) is tuple and {type(c) for c in v} == {Fraction} for v in kernel)
    x = mat.solve_in_image([Fraction(1), Fraction(2)])
    assert type(x) is tuple and {type(c) for c in x} == {Fraction}
    assert mat.solve_in_image([Fraction(1), Fraction(0)]) is None


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


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    pinned = "z_dim=2, b_dim=0, h_dim=2"
    assert f"# {pinned}" in code
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().startswith(f"CohomologySummary({pinned}, ")


def readme_walkthrough() -> list[list[str]]:
    """The shell lines of the README's command-line walkthrough, split into
    words, continuation lines joined."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Then, for example.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["make_fixtures.py", "--out", "fixtures"])
    with redirect_stdout(io.StringIO()):
        runpy.run_path(str(ROOT / "scripts" / "make_fixtures.py"), run_name="__main__")
    codes = []
    for words in readme_walkthrough():
        if words[:2] == ["python", "-c"]:
            exec(words[2], {})
            continue
        if words[:4] == ["PYTHONPATH=src", "python", "-m", "md3lie"]:
            words = ["md3lie"] + words[4:]
        assert words[0] == "md3lie", words
        argv, target = words[1:], None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[-1]
        code, out, err = run_cli(argv)
        report = json.loads(out)  # one JSON document, nothing else
        assert report["schema"] == "md3lie-report/1" and err == "", argv
        # 0: valid or true, 1: the check ran and failed
        assert code == (0 if report.get("valid", True) else 1), argv
        codes.append((argv[0], code))
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")
    assert codes == [("verify", 0), ("verify", 0), ("cohomology", 0),
                     ("nijenhuis-check", 1), ("o-operator-check", 0),
                     ("deform-check", 0), ("extend", 0), ("extract-cocycle", 0),
                     ("tstar", 0), ("metrised-check", 1)]
    # the written adjoint reads as the literal: the same report, argv aside
    example, rep_file = "fixtures/example_dim3.json", "fixtures/adjoint.json"
    for argv in [["verify", example]] + [
            ["cohomology", example, "--degree", str(q), "--representatives"]
            for q in (1, 2, 3)]:
        code, out, err = run_cli(argv + ["--rep", rep_file])
        assert (code, out.replace(json.dumps(rep_file), '"adjoint"'), err) == run_cli(
            argv + ["--rep", "adjoint"])
