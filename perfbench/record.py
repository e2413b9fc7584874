#!/usr/bin/env python3
"""Record the expected answer of every job the benchmark can run.

Writes ``perfbench/expected.json``.  Every cohomology answer (z, b, h),
every set of representatives the dim-3 jobs print, and every membership
verdict is computed twice: by the program, and by sympy's ``DomainMatrix``
over QQ on the program's assembled total differentials, a path that shares
no elimination code with ``md3lie.exactnum``.  The representatives are
unique: ``Matrix.kernel_basis`` documents its normal form and the
representatives are the leftmost basis vectors independent modulo the
coboundaries, so sympy's reduced row echelon form fixes them.  Recording
stops on any disagreement, and on any pinned value that moved
(H^1 = 2 for the dim-3 adjoint complex, (4, 0, 4) for the trivial complex).

Run from the repository root:

    python3 perfbench/record.py

It takes several minutes, mostly on the abelian n = 5 pool.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import instances as inst  # noqa: E402
import workloads as wl  # noqa: E402
from md3lie import documents  # noqa: E402
from md3lie.cohomology import ComplexAssembly, TotalCochain  # noqa: E402
from md3lie.structures import (  # noqa: E402
    adjoint_representation, coadjoint_representation, trivial_representation,
)
from md3lie.exactnum import Matrix  # noqa: E402

from sympy import QQ, __version__ as sympy_version  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

PINNED = {
    wl.cohomology_key("example", "adjoint", 1): [2, 0, 2],
    wl.cohomology_key("trivial2", "trivial1", 2): [4, 0, 4],
}

# exit codes and verdicts the test suite pins for the fixture commands
PINNED_FIXTURES = {
    "fixture/verify": {"exit": 0, "valid": True},
    "fixture/verify-adjoint": {"exit": 0, "valid": True},
    "fixture/verify-lambda0": {"exit": 1, "valid": False},
    "fixture/deform-d1-diag100": {"exit": 0, "valid": True},
    "fixture/deform-d1-e21": {"exit": 1, "valid": False},
    "fixture/nijenhuis-e13": {"exit": 1, "valid": False},
    "fixture/o-operator-diag11m1": {"exit": 0, "valid": True},
    "fixture/extend": {"exit": 0, "valid": True},
    "fixture/extract-cocycle": {"exit": 0, "valid": True, "is_cocycle": True},
    "fixture/equiv-different": {"exit": 1, "valid": False, "equivalent": False},
    "fixture/equiv-same": {"exit": 0, "valid": True, "equivalent": True},
    "fixture/tstar": {"exit": 0, "valid": True},
    "fixture/metrised-identity": {"exit": 1, "valid": False},
}


def to_domain(mat: Matrix) -> DomainMatrix:
    rows = {}
    for i in range(mat.rows):
        row = {j: QQ(c.numerator, c.denominator)
               for j, c in enumerate(mat.row(i)) if c}
        if row:
            rows[i] = row
    return DomainMatrix(rows, (mat.rows, mat.cols), QQ)


def column(vec) -> DomainMatrix:
    return DomainMatrix({i: {0: QQ(c.numerator, c.denominator)}
                         for i, c in enumerate(vec) if c}, (len(vec), 1), QQ)


def as_fractions(dm: DomainMatrix) -> list:
    return [Fraction(int(x.numerator), int(x.denominator))
            for x in dm.to_dense().rep.to_list_flat()]


def assembly(alg_key: str, rep: str) -> ComplexAssembly:
    md = documents.algebra_from_doc(inst.algebra_doc(inst.algebra(alg_key)))
    if rep == "adjoint":
        module = adjoint_representation(md)
    elif rep == "coadjoint":
        module = coadjoint_representation(md)
    else:
        module = trivial_representation(md, 1, Matrix.zeros(1, 1))
    return ComplexAssembly(md, module)


def primitive(vec: list) -> list:
    """The primitive integer multiple of vec with the same signs."""
    scale = math.lcm(*(c.denominator for c in vec))
    ints = [int(c * scale) for c in vec]
    g = math.gcd(*ints)
    return [Fraction(v // g) for v in ints]


def normal_form_representatives(partial: DomainMatrix, boundary) -> list:
    """The representatives that ``Matrix.kernel_basis``'s normal form fixes.

    The kernel basis has one primitive integer vector per free column of
    the reduced row echelon form, positive at its free column; the
    representatives are the basis vectors, in order, that are independent
    of the coboundaries and of the representatives before them."""
    ncols = partial.shape[1]
    reduced, pivots = partial.rref()
    reduced = reduced.to_dense().rep.to_list()
    kernel = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, pc in enumerate(pivots):
            entry = reduced[row][free]
            x[pc] = -Fraction(int(entry.numerator), int(entry.denominator))
        kernel.append(primitive(x))
    if boundary is None:
        return kernel
    chosen, span, rank = [], boundary, boundary.rank()
    for vec in kernel:
        wider = span.hstack(column(vec))
        if wider.rank() > rank:
            chosen.append(vec)
            span, rank = wider, rank + 1
    return chosen


def representatives_doc(q: int, asm: ComplexAssembly, vectors) -> list:
    """Vectors in the report's ``representatives`` format."""
    out = []
    for vec in vectors:
        tc = TotalCochain.from_stacked(q, asm.md.n, asm.rep.m, list(vec))
        out.append({"f": [documents.scalar_str(c) for c in tc.f.coords],
                    "g": None if tc.g is None
                    else [documents.scalar_str(c) for c in tc.g.coords]})
    return out


def record_cohomology(alg: str, rep: str, degrees, representatives: bool) -> dict:
    """(z, b, h) by sympy ranks and, if asked, the representatives by rref."""
    asm = assembly(alg, rep)
    out = {}
    for q in degrees:
        summary = asm.cohomology_dim(q)
        program = [summary.z_dim, summary.b_dim, summary.h_dim]
        partial = to_domain(asm.partial_matrix(q))
        boundary = to_domain(asm.partial_matrix(q - 1)) if q > 1 else None
        z = partial.shape[1] - partial.rank()
        b = boundary.rank() if q > 1 else 0
        oracle = [z, b, z - b]
        key = wl.cohomology_key(alg, rep, q)
        if program != oracle:
            raise SystemExit(f"{key}: program {program} != sympy {oracle}")
        if key in PINNED and oracle != PINNED[key]:
            raise SystemExit(f"{key}: {oracle} moved from pinned {PINNED[key]}")
        out[key] = {"exit": 0, "dims": oracle}
        if representatives:
            want = representatives_doc(
                q, asm, normal_form_representatives(partial, boundary))
            got = representatives_doc(
                q, asm, [tc.stacked() for tc in summary.representatives])
            if got != want:
                raise SystemExit(f"{key}: representatives differ from sympy's")
            out[key]["representatives"] = want
    return out


def record_queries(alg: str) -> dict:
    """Eight membership queries on alg's adjoint complex, verdicts by sympy.

    Cochains are kernel combinations (cocycles), images of random cochains
    (coboundaries) and random vectors (generally neither)."""
    rng = random.Random(f"md3lie-bench/query/{alg}")
    asm = assembly(alg, "adjoint")
    partial = {q: to_domain(asm.partial_matrix(q)) for q in wl.DEGREES}

    def random_vec(length):
        return [Fraction(rng.randint(-2, 2)) for _ in range(length)]

    def kernel_combo(q):
        basis = partial[q].nullspace()  # rows span ker(partial_q)
        coeffs = column(random_vec(basis.shape[0]))
        vec = as_fractions(basis.transpose() * coeffs)
        scale = math.lcm(*(c.denominator for c in vec))
        return [c * scale for c in vec]

    def boundary(q):
        return as_fractions(partial[q - 1] * column(random_vec(partial[q - 1].shape[1])))

    specs = [
        ("is_cocycle", 1, kernel_combo), ("is_cocycle", 2, None),
        ("is_cocycle", 2, boundary), ("is_cocycle", 3, kernel_combo),
        ("is_coboundary", 2, boundary), ("is_coboundary", 2, kernel_combo),
        ("is_coboundary", 3, None), ("is_coboundary", 3, boundary),
    ]
    out = {}
    for t, (call, q, make) in enumerate(specs):
        vec = make(q) if make else random_vec(partial[q].shape[1])
        cochain = TotalCochain.from_stacked(q, asm.md.n, asm.rep.m, vec)
        if call == "is_cocycle":
            oracle = all(c == 0 for c in as_fractions(partial[q] * column(vec)))
            program = asm.is_cocycle(cochain).valid
        else:
            image = partial[q - 1]
            oracle = image.hstack(column(vec)).rank() == image.rank()
            program = asm.is_coboundary(cochain) is not None
        key = f"query/{alg}/{t}"
        if program != oracle:
            raise SystemExit(f"{key}: program {program} != sympy {oracle}")
        out[key] = {"call": call, "q": q, "coords": [str(c) for c in vec],
                    "verdict": oracle}
    return out


def run_cli(workdir: Path, argv) -> wl.Outcome:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        outcome = wl.CliJob("record", argv).run()
    finally:
        os.chdir(cwd)
    if outcome.error is not None:
        raise SystemExit(f"{argv}: raised {outcome.error}")
    return outcome


def record_fixtures(workdir: Path) -> dict:
    wl.write_fixtures(workdir)
    out = {}
    for name, argv in wl.FIXTURE_JOBS.items():
        key = f"fixture/{name}"
        outcome = run_cli(workdir, argv)
        report = json.loads(outcome.stdout)
        want = {"exit": outcome.code}
        for field in ("valid", "is_cocycle", "equivalent"):
            if field in report:
                want[field] = report[field]
        if key in PINNED_FIXTURES and want != PINNED_FIXTURES[key]:
            raise SystemExit(f"{key}: {want} differs from pinned {PINNED_FIXTURES[key]}")
        out[key] = want
    # input errors: the answer is the README contract, not the program's behaviour
    for name in wl.MALFORMED_JOBS:
        out[f"malformed/{name}"] = {"exit": 2}
    for name in wl.PROBES:
        out[f"probe/{name}"] = {"exit": 2}
    return out


def record_verify6(workdir: Path) -> dict:
    out = {}
    for alg in wl.DIM6_POOL:
        path = wl.write_algebra(workdir, alg)
        outcome = run_cli(workdir, ["verify", path, "--rep", "adjoint"])
        # every pool member is valid by construction
        if outcome.code != 0 or json.loads(outcome.stdout)["valid"] is not True:
            raise SystemExit(f"verify6/{alg}: not reported valid")
        out[f"verify6/{alg}"] = {"exit": 0, "valid": True}
    return out


def dump_one_per_line(expected: dict) -> str:
    """JSON with one answer per line, so a changed answer is a one-line diff."""
    lines = [f"{json.dumps(key)}: {json.dumps(expected[key])}" for key in sorted(expected)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main():
    started = time.time()
    expected = {}
    workdir = HERE.parent / ".bench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        expected.update(record_fixtures(workdir))
        expected.update(record_verify6(workdir))
    finally:
        shutil.rmtree(workdir)
    # the dim-3 jobs run with --representatives, the abelian ones without
    for alg, rep in [("example", "adjoint"), ("example", "coadjoint"),
                     ("trivial2", "trivial1")]:
        expected.update(record_cohomology(alg, rep, wl.DEGREES, True))
    for alg in wl.DIM3_POOL:
        for rep in wl.REPS:
            expected.update(record_cohomology(alg, rep, wl.DEGREES, True))
    print(f"dim-3 pool recorded after {time.time() - started:.0f} s", flush=True)
    for alg in wl.QUERY_POOL:
        expected.update(record_queries(alg))
    for alg in wl.AB3_POOL:
        expected.update(record_cohomology(alg, "adjoint", [2], False))
    for alg in wl.AB5_POOL:
        t0 = time.time()
        expected.update(record_cohomology(alg, "adjoint", [2], False))
        print(f"{alg}: {expected[wl.cohomology_key(alg, 'adjoint', 2)]['dims']} "
              f"in {time.time() - t0:.1f} s", flush=True)
    expected["_meta"] = {
        "oracle": f"sympy {sympy_version} DomainMatrix over QQ",
        "python": sys.version.split()[0],
    }
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write(dump_one_per_line(expected))
    print(f"wrote {len(expected) - 1} answers in {time.time() - started:.0f} s")


if __name__ == "__main__":
    main()
