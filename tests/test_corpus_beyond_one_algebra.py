"""A corpus beyond the example algebra: three 4-dim brackets, seeded
modified differentials on each, and basis-scrambled copies, checked against
the elimination oracle, the long exact sequence of the cone and the power
sums of the certificate.

Every non-abelian algebra of the benchmark pools is the example or a
semidirect product of it.  The brackets here are:

- A4, [e_i, e_j, e_k] = eps_ijkl e_l, the simple 4-dim 3-Lie algebra
  (Filippov, "n-Lie algebras", Sib. Math. J. 26, 1985);
- the nilpotent algebra [e1, e2, e3] = e4;
- the example plus a 1-dim abelian algebra: [e1, e2, e3] = e1 on four
  dimensions.

The modified-differential rule d[x, y, z] = [d x, y, z] + [x, d y, z] + [x,
y, d z] + lam [x, y, z] is linear in (d, lam).  On the basis triples it is
n C(n, 3) equations in the n^2 + 1 unknowns, and the pairs (d, lam) that
satisfy it are the kernel of that system: 7-dimensional on A4 (so(4) and
(-I, 2)), 13 on the nilpotent algebra and 10 on the sum.  A draw is a
seeded integer combination of kernel vectors, and every draw is verified.

Each bracket has a draw from the whole kernel.  Its d has a strongly
connected block of three or four indices, so the certificate takes the
polynomial path.  The nilpotent algebra and the sum also have a draw from
the kernel vectors with d upper triangular, whose spectra the exact path
reads.  A4 has none that is not a multiple of (-I, 2), whose d = k I is the
case of the pools' determinant members.  Each whole-kernel draw has a copy
in the basis of a random invertible P.  That copy is dense, and eliminating
its degree-3 total takes 25-50 s, so it is checked against the oracles at
q <= 2; at q = 3 its certificate is checked, and its dims where the
certificate decides them."""

import random
from itertools import combinations

import pytest

from md3lie.cohomology import ComplexAssembly
from md3lie.corpus import random_invertible
from md3lie.exactnum import Matrix
from md3lie.multilin import SkewTernaryTensor
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, ThreeLieAlgebra, adjoint_representation,
    coadjoint_representation, derivation_sides, verify_3lie, verify_modified_differential,
)

import oracles
from conftest import conjugated


def levi_civita_bracket(n=4):
    """A4: [e_i, e_j, e_k] = eps_ijkl e_l, l the index left out."""
    values = {}
    for triple in combinations(range(n), 3):
        (l,) = set(range(n)) - set(triple)
        order = triple + (l,)
        inversions = sum(a > b for a, b in combinations(order, 2))
        values[triple] = {l: (-1) ** inversions}
    return ThreeLieAlgebra(n, SkewTernaryTensor(n, n, values))


BRACKETS = {
    "A4": levi_civita_bracket(),
    "nilpotent": ThreeLieAlgebra(4, SkewTernaryTensor(4, 4, {(0, 1, 2): {3: 1}})),
    "example+1": ThreeLieAlgebra(4, SkewTernaryTensor(4, 4, {(0, 1, 2): {0: 1}})),
}


def modified_differentials(alg):
    """A basis of the pairs (d, lam) that satisfy the modified-differential
    rule on alg, each as the n^2 entries of d, row by row, then lam: the
    kernel of the rule's residual, which is linear in (d, lam)."""
    n = alg.n
    units = [Matrix.from_entries(n, n, {divmod(u, n): 1}) for u in range(n * n)]
    columns = []
    for u in range(n * n + 1):
        d, lam = (units[u], 0) if u < n * n else (Matrix.zeros(n, n), 1)
        residual = []
        for triple in combinations(range(n), 3):
            lhs, rhs = derivation_sides(alg.bracket, d.column_items(), triple, lam)
            residual += [lhs.get(i, 0) - rhs.get(i, 0) for i in range(n)]
        columns.append(residual)
    return Matrix.from_columns(columns, len(columns[0])).kernel_basis()


def draw(alg, basis, rng):
    """A seeded integer combination of the basis vectors, as an algebra."""
    n = alg.n
    coefficients = [rng.randint(-2, 2) for _ in basis]
    v = [sum(c * b[i] for c, b in zip(coefficients, basis)) for i in range(n * n + 1)]
    return MD3LieAlgebra(alg, ModifiedDifferential(v[-1], Matrix(n, n, v[:-1])))


def upper_triangular(basis, n):
    return [v for v in basis if not any(v[r * n + c] for r in range(n) for c in range(r))]


def corpus():
    """name -> (algebra, whether the certificate takes the exact path, the
    degrees checked against the elimination oracle)."""
    rng, members = random.Random("md3lie/corpus"), {}
    for name, alg in BRACKETS.items():
        basis = modified_differentials(alg)
        md = draw(alg, basis, rng)
        members[name] = (md, False, (1, 2, 3))
        if name != "A4":
            members[f"{name}/triangular"] = (
                draw(alg, upper_triangular(basis, alg.n), rng), True, (1, 2, 3))
        members[f"{name}/scrambled"] = (
            conjugated(md, random_invertible(rng, alg.n)), False, (1, 2))
    return members


CORPUS = corpus()
ACTIONS = (adjoint_representation, coadjoint_representation)
each_member = pytest.mark.parametrize("name", list(CORPUS))


def test_the_modified_differentials_are_the_kernel_of_the_rule():
    """The kernels have dimensions 7, 13 and 10; every basis vector and
    every draw passes verify_modified_differential, and at lam + 1 none of
    them does, the brackets being nonzero; every bracket and every scrambled
    copy passes verify_3lie."""
    dims = {}
    for name, alg in BRACKETS.items():
        basis = modified_differentials(alg)
        dims[name] = len(basis)
        for v in basis:
            n = alg.n
            md = MD3LieAlgebra(alg, ModifiedDifferential(v[-1], Matrix(n, n, v[:-1])))
            assert verify_modified_differential(md).valid, (name, v)
    assert dims == {"A4": 7, "nilpotent": 13, "example+1": 10}
    for name, (md, _, _) in CORPUS.items():
        assert verify_3lie(md.algebra).valid, name
        assert verify_modified_differential(md).valid, name
        off = MD3LieAlgebra(md.algebra, ModifiedDifferential(md.lam + 1, md.d))
        assert not verify_modified_differential(off).valid, name


@each_member
def test_the_corpus_cohomology_is_the_oracle_s(name):
    """For both actions at each checked degree: the dims-only and the
    representatives paths give the (z, b, h) of
    oracles.cohomology_by_elimination, the representatives path its
    representatives item for item, and h is the sum of the coranks of Phi*
    on H^q(delta) and H^(q-1)(delta), by the long exact sequence of the cone.
    A scrambled copy at q = 3 gives its original's dims where the
    certificate decides them."""
    md, _, degrees = CORPUS[name]
    decided = 0
    for make in ACTIONS:
        asm = ComplexAssembly(md, make(md))
        for q in degrees:
            dims_only = asm.cohomology_dim(q, representatives=False)
            got, want = asm.cohomology_dim(q), oracles.cohomology_by_elimination(asm, q)
            assert (dims(dims_only) == dims(got) == dims(want)), (name, make.__name__, q)
            assert ([tc.stacked() for tc in got.representatives]
                    == [tc.stacked() for tc in want.representatives]), (name, q)
            les = oracles.phi_star_corank(asm, q) + oracles.phi_star_corank(asm, q - 1)
            assert want.h_dim == les, (name, make.__name__, q)
        if degrees == (1, 2) and asm.phi_det_mod_p(3) and asm.phi_det_mod_p(2):
            original, _, _ = CORPUS[name.split("/")[0]]
            assert dims(asm.cohomology_dim(3, representatives=False)) == dims(
                ComplexAssembly(original, make(original)).cohomology_dim(3, representatives=False))
            decided += 1
    assert decided or 3 in degrees, name


@each_member
def test_the_corpus_certificate_is_the_power_sums(name):
    """At q <= 3 for both actions, phi_det_mod_p on the path the member
    takes and on the polynomial path forced is oracles.phi_det, and the
    member takes the path its draw was made for."""
    md, exact, _ = CORPUS[name]
    for make in ACTIONS:
        rep = make(md)
        asm, forced = ComplexAssembly(md, rep), ComplexAssembly(md, rep)
        forced._phi_det._spectra = None
        for q in (1, 2, 3):
            want = oracles.phi_det(md, rep, q)
            assert asm.phi_det_mod_p(q) == want == forced.phi_det_mod_p(q), (name, q)
        assert (asm._phi_det._spectra is not None) == exact, (name, make.__name__)


def test_the_corpus_takes_both_certificate_paths():
    assert {exact for _, exact, _ in CORPUS.values()} == {True, False}


def dims(summary):
    return summary.z_dim, summary.b_dim, summary.h_dim
