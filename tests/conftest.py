import importlib
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest

from md3lie.cohomology import ComplexAssembly
from md3lie.corpus import example_md, random_matrix, random_skew_tensor, rational
from md3lie.documents import algebra_from_doc
from md3lie.multilin import SkewTernaryTensor, pair_basis
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, Representation, ThreeLieAlgebra,
    adjoint_representation, coadjoint_representation,
)


def invalid_bracket_md(rng):
    """A 4-dim bracket that fails the fundamental identity, with a random d
    at weight 3/2."""
    return MD3LieAlgebra(
        ThreeLieAlgebra(4, SkewTernaryTensor(4, 4, {
            (0, 1, 2): {0: 1}, (0, 1, 3): {3: 1}})),
        ModifiedDifferential(Fraction(3, 2), random_matrix(rng, 4, 4)))


def random_action(rng, md, m):
    """Random dense actions on every pair and a random d_M."""
    return Representation(
        n=md.n, m=m, rho={p: random_matrix(rng, m, m) for p in pair_basis(md.n)},
        d_M=random_matrix(rng, m, m), lam=md.lam)


def random_md(rng, n):
    """A random dense bracket and differential: nearly every tuple fails."""
    return MD3LieAlgebra(ThreeLieAlgebra(n, random_skew_tensor(rng, n, n)),
                         ModifiedDifferential(rational(rng), random_matrix(rng, n, n)))


def pulled_back(t, P):
    """The tensor t(x, y, z)' = P^-1 t(P x, P y, P z) on the basis triples."""
    inverse, columns = P.inverse(), [P.column(j) for j in range(P.cols)]
    return SkewTernaryTensor(t.dim_in, t.dim_out, {
        (i, j, k): dict(enumerate(inverse.apply(t(columns[i], columns[j], columns[k]))))
        for i, j, k in combinations(range(t.dim_in), 3)})


def conjugated(md, P):
    """md in the basis of P's columns: [x, y, z]' = P^-1 [P x, P y, P z] on
    the basis triples, and d' = P^-1 d P, at the same weight."""
    return MD3LieAlgebra(ThreeLieAlgebra(md.n, pulled_back(md.algebra.bracket, P)),
                         ModifiedDifferential(md.lam, P.inverse() @ md.d @ P))


BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@cache
def _bench_module(name):
    # the benchmark's modules import one another by bare name
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def bench_pool(name):
    """(key, algebra) for each member of a benchmark pool (``DIM3_POOL``,
    ``DIM6_POOL`` or ``AB5_POOL`` of perfbench/workloads.py), parsed from
    the seeded document that perfbench/instances.py writes for the key."""
    inst = _bench_module("instances")
    return [(key, algebra_from_doc(inst.algebra_doc(inst.algebra(key))))
            for key in getattr(_bench_module("workloads"), name)]


def det_mod_p(rows, p):
    """Determinant of a square list of Fraction rows mod p, by Gaussian
    elimination over GF(p)."""
    a = [[x.numerator * pow(x.denominator, -1, p) % p for x in r] for r in rows]
    det = 1
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for r in range(c + 1, len(a)):
            f = a[r][c] * inv % p
            a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


@pytest.fixture(scope="session")
def emd():
    """The dim-3 algebra [e1,e2,e3] = e1 with d = diag(1,2,3) at weight -5."""
    return example_md()


@pytest.fixture(scope="session")
def adjoint(emd):
    return adjoint_representation(emd)


@pytest.fixture(scope="session")
def coadjoint(emd):
    return coadjoint_representation(emd)


@pytest.fixture(scope="session")
def adjoint_asm(emd, adjoint):
    return ComplexAssembly(emd, adjoint)


@pytest.fixture(scope="session")
def coadjoint_asm(emd, coadjoint):
    return ComplexAssembly(emd, coadjoint)
