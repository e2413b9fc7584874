"""Deterministic generators for exercising the verifiers and the complex.

Random structure constants almost never satisfy the fundamental identity, so
the valid test algebras come from three families: the dim-3 algebra with
[e1,e2,e3] = e1 together with its triangular differentials, determinant
brackets [x,y,z] = det(x,y,z) w (a 3-Lie algebra for every w), and abelian
algebras, where any operator is a modified differential of any weight.  Every
generated instance is still checked exhaustively by the tests that consume it.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from .exactnum import Matrix
from .multilin import SkewTernaryTensor, pair_basis
from .structures import (
    MD3LieAlgebra, ModifiedDifferential, Representation, ThreeLieAlgebra,
    verify_representation,
)


def rational(rng: random.Random, num: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rational_nonzero(rng: random.Random, num: int = 3, den: int = 3) -> Fraction:
    while True:
        x = rational(rng, num, den)
        if x:
            return x


def random_vector(rng: random.Random, n: int) -> tuple:
    return tuple(rational(rng) for _ in range(n))


def random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [rational(rng) for _ in range(rows * cols)])


def random_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = random_matrix(rng, n, n)
        if m.rank() == n:
            return m


def random_skew_tensor(rng: random.Random, n: int, m: int) -> SkewTernaryTensor:
    """m draws per triple, triples in lexicographic order."""
    return SkewTernaryTensor(n, m, {
        triple: {r: rational(rng) for r in range(m)}
        for triple in combinations(range(n), 3)})


def example_algebra() -> ThreeLieAlgebra:
    """Dim-3 algebra with [e1, e2, e3] = e1 and all other brackets zero."""
    return ThreeLieAlgebra(3, SkewTernaryTensor(3, 3, {(0, 1, 2): {0: 1}}))


def example_md() -> MD3LieAlgebra:
    """The standard instance: d = diag(1, 2, 3) at weight -5."""
    return MD3LieAlgebra(
        example_algebra(),
        ModifiedDifferential(Fraction(-5), Matrix.diagonal([1, 2, 3])))


def triangular_family_member(rng: random.Random) -> MD3LieAlgebra:
    """Random modified differential on the example algebra.

    The first column is forced to (k11, 0, 0) and the weight to
    -(k22 + k33); those are exactly the operators compatible with the
    bracket."""
    k = {(i, j): rational(rng) for i in range(3) for j in range(3)}
    k[1, 0] = Fraction(0)
    k[2, 0] = Fraction(0)
    d = Matrix(3, 3, [k[i, j] for i in range(3) for j in range(3)])
    lam = -(k[1, 1] + k[2, 2])
    return MD3LieAlgebra(example_algebra(), ModifiedDifferential(lam, d))


def det_bracket_algebra(w) -> ThreeLieAlgebra:
    """[x, y, z] = det(x, y, z) w on a 3-dim space."""
    return ThreeLieAlgebra(3, SkewTernaryTensor(3, 3, {(0, 1, 2): dict(enumerate(w))}))


def det_bracket_md(rng: random.Random) -> MD3LieAlgebra:
    """Random determinant bracket with d = k id, which has weight -2k."""
    while True:
        w = random_vector(rng, 3)
        if any(w):
            break
    k = rational_nonzero(rng)
    return MD3LieAlgebra(
        det_bracket_algebra(w),
        ModifiedDifferential(-2 * k, Matrix.identity(3).scale(k)))


def abelian_md(rng: random.Random, n: int) -> MD3LieAlgebra:
    """Abelian algebra with an arbitrary operator and weight (always valid)."""
    return MD3LieAlgebra(
        ThreeLieAlgebra.abelian(n),
        ModifiedDifferential(rational(rng), random_matrix(rng, n, n)))


_CORRUPTION_TARGETS = (
    "bracket-pair action identity",
    "pair action commutator identity",
    "module differential compatibility",
)


def corrupt_representation(rng: random.Random, md: MD3LieAlgebra,
                           rep: Representation, target: str) -> Representation:
    """A copy of rep perturbed in one entry so that the targeted law fails.

    Perturbing d_M can only break the module differential law; perturbing a
    pair action matrix targets the two action identities (which are coupled,
    so the other one may fail alongside).  Retries until the targeted law
    actually reports a violation."""
    if target not in _CORRUPTION_TARGETS:
        raise ValueError(f"unknown target {target!r}")
    on_d_M = target == "module differential compatibility"
    pairs = pair_basis(rep.n)
    for _ in range(100):
        eps = rational_nonzero(rng)
        pair = None if on_d_M else pairs[rng.randrange(len(pairs))]
        i = rng.randrange(rep.m)
        j = rng.randrange(rep.m)
        bump = Matrix.from_entries(rep.m, rep.m, {(i, j): eps})
        cand = (replace(rep, d_M=rep.d_M + bump) if on_d_M
                else replace(rep, rho={
                    **rep.rho, pair: rep.rho.get(pair, Matrix.zeros(rep.m, rep.m)) + bump}))
        report = verify_representation(md, cand)
        if any(v.law == target for v in report.violations):
            return cand
    raise RuntimeError(f"could not corrupt the representation at {target!r}")
