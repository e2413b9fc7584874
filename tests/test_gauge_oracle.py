"""Invariance oracles for the cohomology of the total complex: two changes
of the input that leave the answer fixed whatever path computes it.

- Weight gauge.  (d, d_M, lam) -> (d + s I, d_M + s I, lam - 2s) leaves d_F
  = d ^ 1 + 1 ^ d + lam and the tail d (+) -d_M unchanged, so every Phi_q,
  every total matrix and every report is the same.  The adjoint of the
  shifted algebra is the shifted adjoint; the coadjoint of the shifted
  algebra has d_M = -(d + s I)^T, so it is not the shifted coadjoint, and
  only the adjoint is tested.  At s = lam / 2 this is the paper's lemma
  that d + (lam / 2) id is a derivation of the bracket.
- Scaling.  c (d, d_M, lam) with c != 0 scales every Phi_q to c Phi_q, and
  (f, g) -> (f, c g) conjugates the two totals, so (z, b, h) is unchanged
  for either action, and det Phi_q gains the factor c^N, N = dim Phi_q.

- Basis change.  For P invertible, [x, y, z]' = P^-1 [P x, P y, P z] and
  d' = P^-1 d P make P an isomorphism of the two algebras, and of their
  adjoints and coadjoints, so every Phi'_q is similar to Phi_q and the two
  cones are isomorphic, valid or not: det Phi_q, every verdict and (z, b,
  h) are unchanged.  A unipotent P with one entry below the diagonal moves
  a tri member's d, which the exact spectra read, into one strongly
  connected block, which only the polynomials read, so the two paths meet
  on equal spectra, and the commutant of d runs off the coordinate basis.

All three also compare det Phi_q mod p, not only the dimensions: the two
sides hand the certificate different spectra whose products are related, so
a certificate that miscounts an eigenvalue, flips the sign of the tail or
uses the head of the degree before breaks the relation.

The same three changes check the weight split (ComplexAssembly splits
partial_q by Phi's weights where d and d_M are diagonal) on complexes with
nonzero weights, where the split runs on both sides: the gauge keeps every
weight, scaling multiplies every weight by c, and a permutation of the basis
keeps d diagonal and permutes the coordinates with signs, so the split
meets a different set of weight-0 coordinates in a different order.  The
module's basis can move on its own: the example's adjoint read from a
document (so verify_representation runs), moved by Q != P on the module,
rho'(x, y) = Q^-1 rho(P x, P y) Q and d_M' = Q^-1 d_M Q, keeps d_M
diagonal too.

A basis change moves abelian extensions over the adjoint as well: with f' =
P^-1 f(P x, P y, P z) and g' = P^-1 g P, two extensions are equivalent, and
each is valid, exactly when their moved images are, and an equivalence
returned for the moved pair is an isomorphism of the moved totals."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from md3lie.cli import run_command
from md3lie.cohomology import ComplexAssembly, TotalCochain
from md3lie.corpus import example_md, random_matrix, triangular_family_member
from md3lie.documents import (
    dump_json, representation_from_doc, representation_to_doc, serialize_algebra,
)
from md3lie.exactnum import CERTIFICATE_PRIME, Matrix
from md3lie.extension import build_abelian_extension, extensions_equivalent, verify_extension
from md3lie.multilin import (
    CochainCoordinates, SkewTernaryTensor, extract_skew_trilinear, pair_basis,
)
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, Representation, ThreeLieAlgebra,
    adjoint_representation, coadjoint_representation, implied_by_algebra,
    isomorphism_check, trivial_representation, verify_3lie, verify_modified_differential,
    verify_representation,
)

import oracles
from conftest import bench_pool

DEGREES = (1, 2, 3)


def members():
    """The example and a seeded sample of the benchmark's DIM3_POOL, four
    triangular and four determinant-bracket members."""
    pool = dict(bench_pool("DIM3_POOL"))
    rng = random.Random("gauge")
    keys = (rng.sample(sorted(k for k in pool if k.startswith("tri")), 4)
            + rng.sample(sorted(k for k in pool if k.startswith("det")), 4))
    return [("example", example_md())] + [(key, pool[key]) for key in keys]


MEMBERS = members()
each_member = pytest.mark.parametrize(
    "md", [md for _, md in MEMBERS], ids=[key for key, _ in MEMBERS])


def with_diff(md, d, lam):
    return MD3LieAlgebra(md.algebra, ModifiedDifferential(Fraction(lam), d))


def shifted(md, s):
    return with_diff(md, md.d + Matrix.identity(md.n).scale(s), md.lam - 2 * s)


def scaled(md, c):
    return with_diff(md, md.d.scale(c), c * md.lam)


def valid(md):
    return verify_3lie(md.algebra).valid and verify_modified_differential(md).valid


def mod_p(x: Fraction) -> int:
    p = CERTIFICATE_PRIME
    return x.numerator * pow(x.denominator, -1, p) % p


@each_member
def test_the_weight_gauge_changes_no_matrix_and_no_report(md, tmp_path, capsys):
    """At s = lam / 2 and at s = 1: equal partial_matrix(q), equal det Phi_q
    mod p, and byte-equal cohomology reports with and without
    representatives, for the adjoint at q = 1..3."""
    path = tmp_path / "algebra.json"
    argvs = [["cohomology", str(path), "--rep", "adjoint", "--degree", str(q)]
             + flag for q in DEGREES for flag in ([], ["--representatives"])]

    def reports(alg):
        path.write_text(serialize_algebra(alg), encoding="utf-8")
        out = [(run_command(argv), capsys.readouterr()) for argv in argvs]
        assert all(code == 0 for code, _ in out)
        return out

    before = reports(md)
    asm = ComplexAssembly(md, adjoint_representation(md))
    for s in (md.lam / 2, Fraction(1)):
        gauged = shifted(md, s)
        assert valid(gauged) and gauged.lam == md.lam - 2 * s
        other = ComplexAssembly(gauged, adjoint_representation(gauged))
        for q in DEGREES:
            assert other.partial_matrix(q) == asm.partial_matrix(q), (s, q)
            assert other.phi_det_mod_p(q) == asm.phi_det_mod_p(q), (s, q)
        assert reports(gauged) == before, s


@each_member
def test_scaling_the_differentials_and_the_weight_keeps_the_cohomology(md):
    """c in {2, -1, -3/5}: (z, b, h) unchanged at q = 1..3 with and without
    representatives, and det Phi_q mod p multiplied by c^N, for the adjoint
    and the coadjoint (the coadjoint of the scaled algebra is the scaled
    coadjoint)."""
    for make in (adjoint_representation, coadjoint_representation):
        rep = make(md)
        asm = ComplexAssembly(md, rep)
        dims = {(q, reps): asm.cohomology_dim(q, representatives=reps)
                for q in DEGREES for reps in (False, True)}
        for c in (Fraction(2), Fraction(-1), Fraction(-3, 5)):
            alg = scaled(md, c)
            other_rep = make(alg)
            assert valid(alg) and other_rep.d_M == rep.d_M.scale(c)
            other = ComplexAssembly(alg, other_rep)
            for (q, reps), summary in dims.items():
                got = other.cohomology_dim(q, representatives=reps)
                assert ((got.z_dim, got.b_dim, got.h_dim)
                        == (summary.z_dim, summary.b_dim, summary.h_dim)), (c, q)
            for q in DEGREES:
                det, det_c = asm.phi_det_mod_p(q), other.phi_det_mod_p(q)
                size = len(pair_basis(md.n)) ** (q - 1) * md.n * rep.m
                assert det_c == det * pow(mod_p(c), size, CERTIFICATE_PRIME) % (
                    CERTIFICATE_PRIME), (make.__name__, c, q)


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


def verdicts(md, rep):
    return (verify_3lie(md.algebra).valid, verify_modified_differential(md).valid,
            verify_representation(md, rep).valid)


# tri members whose d the exact spectra read, each with the entry (i, j), i >
# j, of a unipotent P = I + E_ij that moves d' onto the polynomial path;
# tri-9's d has the eigenvalue -1 twice
BASIS_CHANGES = [("tri-2", (1, 0)), ("tri-9", (2, 0)), ("tri-13", (2, 0)),
                 ("tri-17", (1, 0)), ("tri-28", (1, 0))]


@pytest.mark.parametrize("key, entry", BASIS_CHANGES, ids=[k for k, _ in BASIS_CHANGES])
def test_a_basis_change_keeps_the_certificate_the_verdicts_and_the_cohomology(key, entry):
    """On the member and on a copy at weight lam + 1, which fails
    verify_modified_differential, for the adjoint and the coadjoint: equal
    verdicts, equal det Phi_q mod p and equal dims-only and representatives
    (z, b, h) at q = 1..3, with the exact path on one side and the
    polynomial path on the other.  Where d_M = d and d has distinct
    eigenvalues both sides answer rank partial_1 from the commutant of d."""
    member = dict(bench_pool("DIM3_POOL"))[key]
    P = Matrix.identity(3) + Matrix.from_entries(3, 3, {entry: 1})
    for md in (member, with_diff(member, member.d, member.lam + 1)):
        assert verify_modified_differential(md).valid == (md is member)
        other = conjugated(md, P)
        commutant = oracles.has_distinct_eigenvalues(md.d)
        for make in (adjoint_representation, coadjoint_representation):
            rep, other_rep = make(md), make(other)
            assert verdicts(md, rep) == verdicts(other, other_rep)
            asm, other_asm = ComplexAssembly(md, rep), ComplexAssembly(other, other_rep)
            assert asm._phi_det._spectra is not None and other_asm._phi_det._spectra is None
            for q in DEGREES:
                assert other_asm.phi_det_mod_p(q) == asm.phi_det_mod_p(q), (make.__name__, q)
                for reps in (False, True):
                    got, want = (a.cohomology_dim(q, representatives=reps)
                                 for a in (other_asm, asm))
                    assert ((got.z_dim, got.b_dim, got.h_dim)
                            == (want.z_dim, want.b_dim, want.h_dim)), (make.__name__, q, reps)
            on_route = make is adjoint_representation and commutant
            fresh = [ComplexAssembly(*pair) for pair in ((md, rep), (other, other_rep))]
            for a in fresh:
                a.cohomology_dim(1, representatives=False)
                assert (1 not in a._partial) == (on_route or bool(a.phi_det_mod_p(1)))


# ---------------------------------------------------------------------------
# the weight split: diagonal d and d_M with nonzero weights

SPLIT_DEGREES = (2, 3, 4)


def trivial_module(d_M):
    """A representation maker for the trivial module with this d_M."""
    def make(md):
        return trivial_representation(md, d_M.rows, d_M)
    return make


def diagonal_members():
    """(key, algebra, representation maker): the example, two members of its
    family with d made diagonal, the example on a trivial module with
    diagonal d_M, and an abelian n = 2 algebra with diagonal d."""
    rng = random.Random("weight split")
    family = []
    while len(family) < 2:
        member = triangular_family_member(rng)
        d = Matrix.diagonal([member.d[i, i] for i in range(3)])
        if len(set(d[i, i] for i in range(3))) == 3:
            family.append(with_diff(member, d, member.lam))
    plane = MD3LieAlgebra(ThreeLieAlgebra.abelian(2),
                          ModifiedDifferential(Fraction(1), Matrix.diagonal([1, -2])))
    example = example_md()
    return ([("example", example, adjoint_representation),
             ("example/trivial", example, trivial_module(Matrix.diagonal([1, 4])))]
            + [(f"family-{i}", md, adjoint_representation) for i, md in enumerate(family)]
            + [("plane", plane, adjoint_representation)])


DIAGONAL = diagonal_members()
each_diagonal = pytest.mark.parametrize(
    "md, make", [(md, make) for _, md, make in DIAGONAL], ids=[k for k, _, _ in DIAGONAL])


def split_summary(md, rep, q, representatives):
    """cohomology_dim(q) on a fresh assembly, which must take the split."""
    asm = ComplexAssembly(md, rep)
    summary = asm.cohomology_dim(q, representatives)
    assert asm._zero_delta, (q, representatives)
    return summary


def summary_dims(summary):
    return summary.z_dim, summary.b_dim, summary.h_dim


@each_diagonal
def test_the_weight_gauge_keeps_every_weight_and_every_report(md, make, tmp_path, capsys):
    """(d + s I, d_M + s I, lam - 2s) at s = lam / 2 and s = 1: the split
    runs on both sides, and the cohomology reports at q = 2..4, with and
    without representatives, are byte-identical."""
    path, rep_path = tmp_path / "algebra.json", tmp_path / "rep.json"
    rep_arg = "adjoint" if make is adjoint_representation else str(rep_path)
    argvs = [["cohomology", str(path), "--rep", rep_arg, "--degree", str(q)] + flag
             for q in SPLIT_DEGREES for flag in ([], ["--representatives"])]

    def reports(alg, rep):
        path.write_text(serialize_algebra(alg), encoding="utf-8")
        dump_json(str(rep_path), representation_to_doc(rep))
        out = [(run_command(argv), capsys.readouterr()) for argv in argvs]
        assert all(code == 0 for code, _ in out)
        return out

    rep = make(md)
    before = reports(md, rep)
    for s in (md.lam / 2, Fraction(1)):
        gauged = shifted(md, s)
        gauged_rep = (make(gauged) if make is adjoint_representation
                      else trivial_module(rep.d_M + Matrix.identity(rep.m).scale(s))(gauged))
        assert valid(gauged) and verify_representation(gauged, gauged_rep).valid
        for q in SPLIT_DEGREES:
            for representatives in (False, True):
                split_summary(gauged, gauged_rep, q, representatives)
        assert reports(gauged, gauged_rep) == before, s


@each_diagonal
def test_scaling_keeps_the_split_cohomology(md, make):
    """c in {2, -1, -3/5} multiplies every weight by c: the split runs on
    both sides and (z, b, h) is unchanged at q = 2..4 on both paths."""
    for q, representatives in product(SPLIT_DEGREES, (False, True)):
        want = summary_dims(split_summary(md, make(md), q, representatives))
        for c in (Fraction(2), Fraction(-1), Fraction(-3, 5)):
            alg = scaled(md, c)
            rep = (make(alg) if make is adjoint_representation
                   else trivial_module(make(md).d_M.scale(c))(alg))
            assert summary_dims(split_summary(alg, rep, q, representatives)) == want, (
                c, q, representatives)


def signed_coordinates(sigma, tau, q, n, m):
    """For each coordinate of C^q over the algebra in the basis e_sigma(i)
    and the module in the basis e_tau(r), the coordinate of C^q in the old
    bases that it reads, and the sign of the pairs it reorders."""
    pairs = pair_basis(n)
    position = {pair: t for t, pair in enumerate(pairs)}
    image = [(position[min(sigma[i], sigma[j]), max(sigma[i], sigma[j])],
              1 if sigma[i] < sigma[j] else -1) for i, j in pairs]
    out = []
    for args in product(range(len(pairs)), repeat=q - 1):
        index, sign = 0, 1
        for a in args:
            index, sign = index * len(pairs) + image[a][0], sign * image[a][1]
        out += [((index * n + sigma[k]) * m + tau[r], sign)
                for k in range(n) for r in range(m)]
    return out


def permutation(sigma):
    """The matrix of e_i -> e_sigma(i)."""
    return Matrix.from_entries(len(sigma), len(sigma),
                               {(s, i): Fraction(1) for i, s in enumerate(sigma)})


def assert_the_split_survives_the_permutation(md, rep, other, other_rep, sigma, tau):
    """(other, other_rep) is (md, rep) in the algebra basis e_sigma(i) and
    the module basis e_tau(r): the split runs on both sides at q = 2..4,
    (z, b, h) is unchanged on both paths, and the representatives, mapped
    back by the induced signed coordinate permutation, are cocycles of the
    old complex that span the same space modulo B = im partial_(q-1) as the
    old ones."""
    n, m = md.n, rep.m
    asm = ComplexAssembly(md, rep)
    for q in SPLIT_DEGREES:
        assert (summary_dims(split_summary(other, other_rep, q, False))
                == summary_dims(split_summary(md, rep, q, False))), q
        mine, theirs = (split_summary(*pair, q, True)
                        for pair in ((md, rep), (other, other_rep)))
        assert summary_dims(theirs) == summary_dims(mine), q
        maps = [signed_coordinates(sigma, tau, k, n, m) for k in (q, q - 1)]
        moved = [TotalCochain(q, *(
            CochainCoordinates(k, n, m, {at[i][0]: at[i][1] * c for i, c in part.items.items()})
            for k, at, part in zip((q, q - 1), maps, (tc.f, tc.g))))
            for tc in theirs.representatives]
        assert all(asm.is_cocycle(tc).valid for tc in moved), q
        boundary = asm.partial_matrix(q - 1)
        width = boundary.rows

        def rank(*groups):
            columns = [tc.stacked() for group in groups for tc in group]
            return Matrix.hstack([boundary, Matrix.from_columns(columns, width)]).rank()

        b_rank = boundary.rank()
        assert (rank(mine.representatives) == rank(moved)
                == rank(mine.representatives, moved) == b_rank + mine.h_dim), q


@each_diagonal
def test_a_basis_permutation_keeps_the_split_cohomology(md, make):
    """P e_i = e_sigma(i) keeps d diagonal, and the split survives it
    (assert_the_split_survives_the_permutation)."""
    n = md.n
    sigma = [1, 0] if n == 2 else [1, 2, 0]
    other = conjugated(md, permutation(sigma))
    rep, other_rep = make(md), make(other)
    # the adjoint module moves with the algebra; a trivial one stays
    tau = sigma if make is adjoint_representation else list(range(rep.m))
    assert other.d == Matrix.diagonal([md.d[s, s] for s in sigma])
    assert_the_split_survives_the_permutation(md, rep, other, other_rep, sigma, tau)


def transported(md, rep, sigma, Q):
    """rep in the algebra basis e_sigma(i) and the module basis of Q's
    columns: rho'(x, y) = Q^-1 rho(P x, P y) Q, P = permutation(sigma), and
    d_M' = Q^-1 d_M Q."""
    inverse, rho = Q.inverse(), {}
    for i, j in pair_basis(md.n):
        a, b = sigma[i], sigma[j]
        action = rep.rho.get((min(a, b), max(a, b)))
        if action is not None:
            rho[i, j] = inverse @ (action if a < b else -action) @ Q
    return Representation(n=md.n, m=rep.m, rho=rho, d_M=inverse @ rep.d_M @ Q,
                          lam=rep.lam)


def test_a_module_basis_of_its_own_keeps_the_split_cohomology():
    """The example's adjoint read from its document, so implied_by_algebra is
    false and verify_representation runs on both sides, moved by P = sigma
    on the algebra and by a module permutation Q = tau that is neither sigma
    nor the identity: d_M' stays diagonal, and the split survives the move
    (assert_the_split_survives_the_permutation)."""
    md = example_md()
    rep = representation_from_doc(representation_to_doc(adjoint_representation(md)), md)
    sigma, tau = [1, 2, 0], [0, 2, 1]
    other = conjugated(md, permutation(sigma))
    other_rep = transported(md, rep, sigma, permutation(tau))
    assert other_rep.d_M == Matrix.diagonal([rep.d_M[t, t] for t in tau])
    for alg, module in ((md, rep), (other, other_rep)):
        assert not implied_by_algebra(alg, module)
        assert verify_representation(alg, module).valid
    assert other_rep != adjoint_representation(other)
    assert_the_split_survives_the_permutation(md, rep, other, other_rep, sigma, tau)


# ---------------------------------------------------------------------------
# equivalence of extensions under a basis change


def extension_pairs(md, rep):
    """((f1, g1), (f2, g2), equivalent) over the example's adjoint: (0, g)
    with g = diag(0, 1, -1) against the same cocycle shifted by the
    coboundary of a random 1-cochain, and against (0, 0)."""
    g = Matrix.diagonal([0, 1, -1])
    iota = random_matrix(random.Random(43), 3, 3)
    shift = ComplexAssembly(md, rep).apply_partial(
        TotalCochain(1, CochainCoordinates.from_linear_map(iota), None))
    zero = SkewTernaryTensor.zero(3, 3)
    return [((zero, g), (extract_skew_trilinear(shift.f), g + shift.g.to_linear_map()), True),
            ((zero, g), (zero, Matrix.zeros(3, 3)), False)]


EXTENSION_BASES = [Matrix.identity(3) + Matrix.from_entries(3, 3, {(1, 0): 1}),
                   permutation([1, 2, 0]),
                   Matrix.from_rows([[2, 1, 0], [0, 1, 3], [1, 0, 1]])]


@pytest.mark.parametrize("P", EXTENSION_BASES, ids=["unipotent", "cyclic", "dense"])
def test_a_basis_change_keeps_the_equivalence_of_extensions(P):
    """Both extensions of each pair moved by P, with the adjoint of the
    conjugated algebra, f' = P^-1 f(P x, P y, P z) and g' = P^-1 g P:
    extensions_equivalent gives the same verdict as in the given basis,
    verify_extension the same validity, and each returned eta' is an
    isomorphism of the moved totals by structures.isomorphism_check."""
    md = example_md()
    rep, other = adjoint_representation(md), conjugated(md, P)
    other_rep, inverse = adjoint_representation(other), P.inverse()
    for data1, data2, equivalent in extension_pairs(md, rep):
        given = [build_abelian_extension(md, rep, f, g) for f, g in (data1, data2)]
        moved = [build_abelian_extension(other, other_rep, pulled_back(f, P),
                                         inverse @ g @ P) for f, g in (data1, data2)]
        eta = extensions_equivalent(*moved)
        assert (extensions_equivalent(*given) is not None) == (eta is not None) == equivalent
        assert ([verify_extension(e).valid for e in moved]
                == [verify_extension(e).valid for e in given])
        assert eta is None or isomorphism_check(eta, moved[0].total, moved[1].total)
