import json
import random
from fractions import Fraction

import pytest

from md3lie.corpus import (
    abelian_md, corrupt_representation, det_bracket_md, example_algebra, example_md,
    random_matrix, rational, triangular_family_member,
)
from md3lie.documents import representation_from_doc, representation_to_doc
from md3lie.errors import InputError
from md3lie.exactnum import Matrix, unit
from md3lie.extension import build_abelian_extension, extract_cocycle
from md3lie.multilin import SkewTernaryTensor, pair_basis
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, Representation, ThreeLieAlgebra,
    adjoint_representation, derivation_shift_check,
    dual_representation, fundamental_identity_sides, fundamental_leibniz,
    homomorphism_check, isomorphism_check, semidirect_product,
    trivial_representation, verify_3lie, verify_leibniz,
    verify_modified_differential, verify_representation,
)

from oracles import adjoint_representation as oracle_adjoint, rho_basis, wedge_coords


def elementary(n, i, j, value=1):
    return Matrix(n, n, [value if (r, c) == (i, j) else 0
                         for r in range(n) for c in range(n)])


# ---------------------------------------------------------------------------
# fundamental identity


def test_abelian_is_valid():
    for n in (1, 2, 3, 4):
        assert verify_3lie(ThreeLieAlgebra.abelian(n)).valid


def test_example_algebra_is_valid():
    assert verify_3lie(example_algebra()).valid


def test_invalid_four_dimensional_bracket():
    bad = ThreeLieAlgebra(4, SkewTernaryTensor(4, 4, {
        (0, 1, 2): {0: 1},
        (0, 1, 3): {3: 1},
    }))
    report = verify_3lie(bad)
    assert not report.valid and report.violations
    # the violating tuple named by the reduced enumeration really violates
    first = report.violations[0]
    lhs, rhs = fundamental_identity_sides(
        bad.bracket, bad.bracket, first.args)
    assert lhs != rhs
    # and so does (e1, e2, e3, e4, e2)
    lhs, rhs = fundamental_identity_sides(
        bad.bracket, bad.bracket, (0, 1, 2, 3, 1))
    assert lhs == {} and rhs == {3: -1}


# ---------------------------------------------------------------------------
# modified differential


def test_example_differential_is_valid(emd):
    assert verify_modified_differential(emd).valid


def test_abelian_accepts_any_operator():
    rng = random.Random(5)
    for n in (2, 3):
        assert verify_modified_differential(abelian_md(rng, n)).valid


def test_wrong_weight_reports_witness():
    md = MD3LieAlgebra(example_algebra(),
                       ModifiedDifferential(Fraction(0), Matrix.diagonal([1, 2, 3])))
    report = verify_modified_differential(md)
    assert not report.valid
    (v,) = report.violations
    assert v.args == (0, 1, 2)
    assert v.lhs == (1, 0, 0) and v.rhs == (6, 0, 0)


def test_triangular_family_members_are_valid():
    rng = random.Random(11)
    for _ in range(5):
        assert verify_modified_differential(triangular_family_member(rng)).valid


def test_scaling_law():
    # scaling the operator scales the weight
    rng = random.Random(12)
    for md in [example_md(), det_bracket_md(rng)]:
        for k in (Fraction(2), Fraction(-1, 3), Fraction(0)):
            scaled = MD3LieAlgebra(
                md.algebra, ModifiedDifferential(k * md.lam, md.d.scale(k)))
            assert verify_modified_differential(scaled).valid


def test_scalar_operator_has_weight_minus_two_k():
    rng = random.Random(13)
    for alg in [example_algebra(), det_bracket_md(rng).algebra]:
        for k in (Fraction(1), Fraction(-3, 2)):
            md = MD3LieAlgebra(alg, ModifiedDifferential(
                -2 * k, Matrix.identity(3).scale(k)))
            assert verify_modified_differential(md).valid
            # the identity on the module represents it
            rep = Representation(n=3, m=3,
                                 rho=adjoint_representation(md).rho,
                                 d_M=Matrix.identity(3), lam=-2 * k)
            assert verify_representation(md, rep).valid


def test_derivation_shift_examples(emd):
    assert derivation_shift_check(emd)
    rng = random.Random(6)
    assert derivation_shift_check(abelian_md(rng, 3))
    md0 = MD3LieAlgebra(example_algebra(),
                        ModifiedDifferential(Fraction(0), Matrix.diagonal([1, 2, 3])))
    assert not derivation_shift_check(md0)


def test_derivation_shift_matches_verifier():
    rng = random.Random(7)
    for _ in range(15):
        kind = rng.randrange(3)
        if kind == 0:
            md = triangular_family_member(rng)
        elif kind == 1:
            md = det_bracket_md(rng)
        else:
            md = MD3LieAlgebra(example_algebra(), ModifiedDifferential(
                rational(rng), random_matrix(rng, 3, 3)))
        assert derivation_shift_check(md) == verify_modified_differential(md).valid


# ---------------------------------------------------------------------------
# representations


def test_adjoint_representation(emd, adjoint):
    assert verify_representation(emd, adjoint).valid
    # ad(e1,e2) maps e3 to e1 and kills e1, e2
    assert adjoint.rho[0, 1] == elementary(3, 0, 2)
    # ad(e2,e3) maps e1 to e1
    assert rho_basis(adjoint, 1, 2).apply(unit(3, 0)) == (1, 0, 0)


def test_adjoint_of_abelian_is_zero():
    rng = random.Random(8)
    md = abelian_md(rng, 3)
    rep = adjoint_representation(md)
    assert all(mat.is_zero for mat in rep.rho.values())
    assert verify_representation(md, rep).valid


def test_trivial_representation_is_valid(emd):
    rng = random.Random(9)
    rep = trivial_representation(emd, 2, random_matrix(rng, 2, 2))
    assert verify_representation(emd, rep).valid


def test_weight_mismatch_is_an_input_error(emd):
    rep = trivial_representation(emd, 1, Matrix.zeros(1, 1))
    bad = Representation(n=3, m=1, rho=rep.rho, d_M=rep.d_M, lam=Fraction(0))
    with pytest.raises(InputError):
        verify_representation(emd, bad)


def test_perturbed_module_differential_fails_at_compatibility(emd, adjoint):
    bad = Representation(n=3, m=3, rho=adjoint.rho,
                         d_M=adjoint.d_M + elementary(3, 1, 0), lam=emd.lam)
    report = verify_representation(emd, bad)
    assert not report.valid
    assert all(v.law == "module differential compatibility"
               for v in report.violations)
    assert report.violations[0].args == (0, 1)


def test_dual_representation(emd, adjoint, coadjoint):
    assert verify_representation(emd, coadjoint).valid
    # coadjoint of the example: single entry (3,1) = -1 for the pair (1,2)
    assert coadjoint.rho[0, 1] == elementary(3, 2, 0, -1)
    # trivial dualizes to trivial
    triv = trivial_representation(emd, 2, Matrix.zeros(2, 2))
    assert dual_representation(triv).rho == triv.rho
    # double dual is the original
    double = dual_representation(coadjoint)
    assert double.rho == adjoint.rho and double.d_M == adjoint.d_M


def test_dual_of_random_valid_representation():
    rng = random.Random(16)
    md = det_bracket_md(rng)
    rep = adjoint_representation(md)
    assert verify_representation(md, dual_representation(rep)).valid


def test_representation_scaling_law(emd, adjoint):
    for k in (Fraction(3), Fraction(-1, 2)):
        scaled_md = MD3LieAlgebra(
            emd.algebra, ModifiedDifferential(k * emd.lam, emd.d.scale(k)))
        scaled_rep = Representation(n=3, m=3, rho=adjoint.rho,
                                    d_M=adjoint.d_M.scale(k), lam=k * emd.lam)
        assert verify_representation(scaled_md, scaled_rep).valid


# ---------------------------------------------------------------------------
# the stored form of a representation: nonzero actions on canonical pairs


LAWS = ("bracket-pair action identity", "pair action commutator identity",
        "module differential compatibility")


def sparse_adjoint_md():
    """The semidirect product of a triangular algebra with its adjoint: 6 of
    its 15 pairs act by zero in its own adjoint."""
    tri = triangular_family_member(random.Random(5))
    return semidirect_product(tri, adjoint_representation(tri))


def test_zero_actions_are_dropped(emd):
    d_M = Matrix.identity(2)
    empty = Representation(n=3, m=2, rho={}, d_M=d_M, lam=emd.lam)
    assert Representation(n=3, m=2, rho={(0, 1): Matrix.zeros(2, 2)},
                          d_M=d_M, lam=emd.lam) == empty
    assert empty.rho == {}


def test_no_construction_stores_a_zero_action(emd):
    md = sparse_adjoint_md()
    adjoint = adjoint_representation(md)
    assert len(adjoint.rho) == 9
    assert list(adjoint.rho) == [p for p in pair_basis(md.n)
                                 if not rho_basis(oracle_adjoint(md), *p).is_zero]
    m = 2
    zero_doc = {"module_dim": m, "d_M": [["1", "0"], ["0", "1"]],
                "rho": [{"pair": [1, 2], "matrix": [["0", "0"], ["0", "0"]]}]}
    ext = build_abelian_extension(md, adjoint, SkewTernaryTensor.zero(md.n, md.n),
                                  Matrix.zeros(md.n, md.n))
    built = {
        "adjoint": adjoint,
        "dual": dual_representation(adjoint),
        "trivial": trivial_representation(md, m, Matrix.identity(m)),
        "document": representation_from_doc(zero_doc, md),
        "extracted": extract_cocycle(ext, ext.canonical_section()).rep,
    }
    for name, rep in built.items():
        assert not any(mat.is_zero for mat in rep.rho.values()), name
    assert built["document"].rho == built["trivial"].rho == {}
    assert built["extracted"].rho == adjoint.rho


def test_every_action_is_checked_for_shape(emd):
    for rho in ({(0, 1): Matrix.zeros(3, 3)}, {(0, 1): Matrix.zeros(2, 3)},
                {(0, 2): Matrix.identity(2), (1, 2): Matrix.identity(3)}):
        with pytest.raises(InputError, match="is not 2x2"):
            Representation(n=3, m=2, rho=rho, d_M=Matrix.identity(2), lam=emd.lam)


def test_only_canonical_pairs_are_keys(emd):
    for key in ((1, 0), (0, 0), (0, 3), (-1, 2)):
        with pytest.raises(InputError, match="is not a canonical pair"):
            Representation(n=3, m=2, rho={key: Matrix.zeros(2, 2)},
                           d_M=Matrix.identity(2), lam=emd.lam)


def test_actions_are_stored_in_pair_basis_order(emd):
    rng = random.Random(17)
    mats = {p: random_matrix(rng, 2, 2) for p in pair_basis(4)}
    reps = [Representation(n=4, m=2, rho=dict(order), d_M=Matrix.identity(2), lam=emd.lam)
            for order in (mats.items(), reversed(mats.items()),
                          sorted(mats.items(), key=lambda item: item[0][::-1]))]
    docs_ = [json.dumps(representation_to_doc(rep)) for rep in reps]
    assert all(list(rep.rho) == list(pair_basis(4)) for rep in reps)
    assert docs_[1:] == docs_[:1] * 2


@pytest.mark.parametrize("law", LAWS)
def test_corrupting_a_representation_with_zero_actions(law):
    md = sparse_adjoint_md()
    rep = adjoint_representation(md)
    zero = Matrix.zeros(rep.m, rep.m)
    absent_pair_hit = False
    for seed in range(8):
        bad = corrupt_representation(random.Random(seed), md, rep, law)
        assert law in {v.law for v in verify_representation(md, bad).violations}
        moved = [(p, bad.rho.get(p, zero) - rep.rho.get(p, zero)) for p in pair_basis(md.n)]
        moved = [(p, diff) for p, diff in moved if not diff.is_zero]
        if law == "module differential compatibility":
            assert moved == [] and len((bad.d_M - rep.d_M).entry_items()) == 1
        else:
            assert bad.d_M == rep.d_M
            assert len(moved) == 1 and len(moved[0][1].entry_items()) == 1
            absent_pair_hit |= moved[0][0] not in rep.rho
        assert not any(mat.is_zero for mat in bad.rho.values())
    assert absent_pair_hit or law == "module differential compatibility"


# ---------------------------------------------------------------------------
# semidirect products


def test_semidirect_of_adjoint(emd, adjoint):
    sd = semidirect_product(emd, adjoint)
    assert sd.n == 6 and sd.lam == emd.lam
    assert verify_3lie(sd.algebra).valid
    assert verify_modified_differential(sd).valid


def test_semidirect_of_trivial_on_abelian():
    rng = random.Random(10)
    md = abelian_md(rng, 2)
    rep = trivial_representation(md, 3, random_matrix(rng, 3, 3))
    sd = semidirect_product(md, rep)
    assert sd.n == 5
    assert sd.algebra.bracket.is_zero
    assert verify_modified_differential(sd).valid


def test_semidirect_detects_corrupted_representation(emd, adjoint):
    bad = Representation(n=3, m=3, rho=adjoint.rho,
                         d_M=adjoint.d_M + elementary(3, 1, 0), lam=emd.lam)
    sd = semidirect_product(emd, bad)
    assert not verify_modified_differential(sd).valid


# ---------------------------------------------------------------------------
# fundamental objects


def test_fundamental_leibniz_example(emd):
    data = fundamental_leibniz(emd)
    assert data.dim == 3
    # pairs are ordered (e1^e2, e1^e3, e2^e3)
    assert data.bracket_basis(0, 2) == (-1, 0, 0)
    assert data.d_F.column(0) == (-2, 0, 0)
    assert verify_leibniz(data).valid


def test_fundamental_leibniz_abelian():
    rng = random.Random(14)
    md = abelian_md(rng, 3)
    data = fundamental_leibniz(md)
    assert not data.bracket_F
    pairs = pair_basis(3)
    for t, (i, j) in enumerate(pairs):
        expected = wedge_coords(md.d.column(i), unit(3, j))
        expected = tuple(
            a + b + md.lam * c
            for a, b, c in zip(expected,
                               wedge_coords(unit(3, i), md.d.column(j)),
                               wedge_coords(unit(3, i), unit(3, j))))
        assert data.d_F.column(t) == expected


# ---------------------------------------------------------------------------
# homomorphisms


def test_homomorphism_identity_and_zero(emd):
    assert homomorphism_check(Matrix.identity(3), emd, emd)
    # the zero map works between any two algebras: both sides vanish
    rng = random.Random(15)
    assert homomorphism_check(Matrix.zeros(3, 3), emd, det_bracket_md(rng))


def test_homomorphism_scaling_example(emd):
    eta = Matrix.diagonal([2, 1, 1])
    assert homomorphism_check(eta, emd, emd)
    assert isomorphism_check(eta, emd, emd)
    assert not isomorphism_check(Matrix.zeros(3, 3), emd, emd)


def test_homomorphism_shape_mismatch(emd):
    with pytest.raises(InputError):
        homomorphism_check(Matrix.zeros(2, 2), emd,
                           MD3LieAlgebra(ThreeLieAlgebra.abelian(2),
                                         ModifiedDifferential(emd.lam,
                                                              Matrix.zeros(2, 2))))
