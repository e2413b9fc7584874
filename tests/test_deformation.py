import random
from fractions import Fraction

import pytest

import oracles
from md3lie.cohomology import TotalCochain
from md3lie.corpus import (
    abelian_md, det_bracket_md, example_md, random_invertible, random_matrix,
    random_skew_tensor, rational, triangular_family_member,
)
from md3lie.deformation import (
    LinearDeformation, check_equivalence, infinitesimal,
    inverse_cocycle_check, is_nijenhuis, is_o_operator,
    nijenhuis_deformed_algebra, o_operator_lift,
    trivial_deformation_from_nijenhuis, verify_linear_deformation,
)
from md3lie.errors import InputError
from md3lie.exactnum import Matrix
from md3lie.multilin import CochainCoordinates, SkewTernaryTensor
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, ThreeLieAlgebra, adjoint_representation,
    semidirect_product, trivial_representation, verify_3lie,
    verify_modified_differential,
)


def zero3():
    return SkewTernaryTensor.zero(3, 3)


def elementary(i, j):
    return Matrix(3, 3, [1 if (r, c) == (i, j) else 0
                         for r in range(3) for c in range(3)])


# ---------------------------------------------------------------------------
# linear deformations


def test_zero_deformation_is_valid(emd):
    assert verify_linear_deformation(LinearDeformation.zero(emd)).valid


def test_diagonal_d1_deformation(emd):
    ld = LinearDeformation(emd, zero3(), zero3(), Matrix.diagonal([1, 0, 0]))
    assert verify_linear_deformation(ld).valid


def test_non_derivation_d1_fails_at_order_one(emd):
    ld = LinearDeformation(emd, zero3(), zero3(), elementary(1, 0))
    report = verify_linear_deformation(ld)
    assert not report.valid
    assert {v.law for v in report.violations} == {"differential rule at order 1"}


def test_order_zero_reproduces_base_axioms(emd):
    broken_base = MD3LieAlgebra(emd.algebra,
                                ModifiedDifferential(Fraction(0), emd.d))
    broken = LinearDeformation(broken_base, zero3(), zero3(), Matrix.zeros(3, 3))
    report = verify_linear_deformation(broken)
    assert any(v.law == "differential rule at order 0" for v in report.violations)
    # the witnesses themselves are the base verifiers', on either law
    bad = MD3LieAlgebra(
        ThreeLieAlgebra(4, SkewTernaryTensor(4, 4, {
            (0, 1, 2): (1, 0, 0, 0), (0, 1, 3): (0, 0, 0, 1)})),
        ModifiedDifferential(Fraction(3, 2), random_matrix(random.Random(4), 4, 4)))
    seen = set()
    for base in (broken_base, bad):
        zero = SkewTernaryTensor.zero(base.n, base.n)
        report = verify_linear_deformation(
            LinearDeformation(base, zero, zero, Matrix.zeros(base.n, base.n)))
        by_law = {
            "bracket identity at order 0": verify_3lie(base.algebra),
            "differential rule at order 0": verify_modified_differential(base),
        }
        assert {v.law for v in report.violations} <= set(by_law)
        for law, base_report in by_law.items():
            got = [(v.args, v.lhs, v.rhs) for v in report.violations if v.law == law]
            assert got == [(v.args, v.lhs, v.rhs) for v in base_report.violations]
            if got:
                seen.add(law)
    assert seen == set(by_law)


def test_infinitesimal_is_cocycle(adjoint_asm, emd):
    ld = LinearDeformation(emd, zero3(), zero3(), Matrix.diagonal([1, 0, 0]))
    tc = infinitesimal(ld)
    assert tc.degree == 2
    assert adjoint_asm.is_cocycle(tc).valid
    assert adjoint_asm.is_cocycle(infinitesimal(LinearDeformation.zero(emd))).valid


# ---------------------------------------------------------------------------
# Nijenhuis operators


def test_scalar_multiples_of_identity(emd):
    for c in (Fraction(0), Fraction(1), Fraction(-7, 3)):
        assert is_nijenhuis(emd, Matrix.identity(3).scale(c)).valid


def test_diagonal_operator_on_example(emd):
    assert is_nijenhuis(emd, Matrix.diagonal([1, 2, 3])).valid


def test_non_commuting_operator_fails(emd):
    report = is_nijenhuis(emd, elementary(0, 2))
    assert not report.valid
    assert report.violations[0].law == "differential commutation"


def test_deformed_bracket_values(emd):
    got = nijenhuis_deformed_algebra(emd, Matrix.diagonal([1, 2, 3]))
    assert got.algebra.bracket.basis_value(0, 1, 2) == (6, 0, 0)
    assert verify_3lie(got.algebra).valid
    assert verify_modified_differential(got).valid
    assert got.lam == emd.lam

    c = Fraction(5, 2)
    scaled = nijenhuis_deformed_algebra(emd, Matrix.identity(3).scale(c))
    assert scaled.algebra.bracket == emd.algebra.bracket.scale(c * c)
    same = nijenhuis_deformed_algebra(emd, Matrix.identity(3))
    assert same.algebra.bracket == emd.algebra.bracket


def test_deformed_algebra_rejects_invalid_operator(emd):
    with pytest.raises(InputError):
        nijenhuis_deformed_algebra(emd, elementary(0, 2))


def test_trivial_deformation_from_nijenhuis(emd, adjoint_asm):
    N = Matrix.diagonal([1, 2, 3])
    ld = trivial_deformation_from_nijenhuis(emd, N)
    assert ld.d1.is_zero
    assert ld.nu1.basis_value(0, 1, 2) == (5, 0, 0)
    assert verify_linear_deformation(ld).valid
    assert check_equivalence(ld, LinearDeformation.zero(emd), N)
    # infinitesimal equals the total differential of N
    pN = adjoint_asm.apply_partial(
        TotalCochain(1, CochainCoordinates.from_linear_map(N), None))
    assert infinitesimal(ld).stacked() == pN.stacked()
    assert adjoint_asm.is_coboundary(infinitesimal(ld)) is not None


def test_trivial_deformation_scalar_case(emd):
    c = Fraction(3, 4)
    ld = trivial_deformation_from_nijenhuis(emd, Matrix.identity(3).scale(c))
    assert ld.nu1 == emd.algebra.bracket.scale(2 * c)
    assert ld.nu2 == emd.algebra.bracket.scale(c * c)
    assert trivial_deformation_from_nijenhuis(
        emd, Matrix.zeros(3, 3)).is_zero


def test_equivalence_with_zero_map(emd):
    zero_ld = LinearDeformation.zero(emd)
    ld = LinearDeformation(emd, zero3(), zero3(), Matrix.diagonal([1, 0, 0]))
    assert check_equivalence(zero_ld, zero_ld, Matrix.zeros(3, 3))
    assert check_equivalence(ld, ld, Matrix.zeros(3, 3))
    assert not check_equivalence(ld, zero_ld, Matrix.zeros(3, 3))


def test_equivalence_infinitesimal_difference(emd, adjoint_asm):
    N = Matrix.diagonal([2, 1, 1])
    assert is_nijenhuis(emd, N).valid
    ld = trivial_deformation_from_nijenhuis(emd, N)
    zero_ld = LinearDeformation.zero(emd)
    assert check_equivalence(ld, zero_ld, N)
    difference = infinitesimal(ld).stacked()
    pN = adjoint_asm.apply_partial(
        TotalCochain(1, CochainCoordinates.from_linear_map(N), None))
    assert difference == pN.stacked()


# ---------------------------------------------------------------------------
# relative (module-to-algebra) operators


def test_o_operator_examples(emd, adjoint):
    assert is_o_operator(emd, adjoint, Matrix.zeros(3, 3)).valid
    assert is_o_operator(emd, adjoint, Matrix.diagonal([1, 1, -1])).valid
    report = is_o_operator(emd, adjoint, Matrix.identity(3))
    assert not report.valid
    assert report.violations[0].law == "relative bracket condition"


def test_o_operator_type_validates(emd, adjoint):
    from md3lie.deformation import OOperator

    op = OOperator(emd, adjoint, Matrix.diagonal([1, 1, -1]))
    assert op.R == Matrix.diagonal([1, 1, -1])
    with pytest.raises(InputError):
        OOperator(emd, adjoint, Matrix.identity(3))


def test_o_operator_lift(emd, adjoint):
    sd = semidirect_product(emd, adjoint)
    for R in (Matrix.diagonal([1, 1, -1]), Matrix.identity(3),
              Matrix.zeros(3, 3)):
        lift = o_operator_lift(emd, adjoint, R)
        assert (lift @ lift).is_zero
        assert is_o_operator(emd, adjoint, R).valid == is_nijenhuis(sd, lift).valid


def test_inverse_cocycle_check(emd, adjoint):
    assert inverse_cocycle_check(emd, adjoint, Matrix.diagonal([1, 1, -1]))
    assert not inverse_cocycle_check(emd, adjoint, Matrix.identity(3))
    with pytest.raises(InputError):
        inverse_cocycle_check(emd, adjoint, Matrix.zeros(3, 3))


def test_inverse_cocycle_check_vacuous_case():
    rng = random.Random(31)
    md = MD3LieAlgebra(abelian_md(rng, 3).algebra,
                       ModifiedDifferential(rational(rng), Matrix.zeros(3, 3)))
    rep = trivial_representation(md, 3, Matrix.zeros(3, 3))
    R = random_invertible(rng, 3)
    assert is_o_operator(md, rep, R).valid
    assert inverse_cocycle_check(md, rep, R)


def equivalence_cases():
    """Seven (ld, ld2, N) triples for each of seven Nijenhuis operators N on
    corpus algebras (every N that commutes with d is one for a dim-3
    determinant bracket; the lift of a relative operator squares to zero)."""
    rng = random.Random(2027)
    emd = example_md()
    adjoint = adjoint_representation(emd)
    operators = [(emd, Matrix.diagonal([rational(rng) for _ in range(3)]))]
    for _ in range(2):
        md = det_bracket_md(rng)
        operators += [(md, random_matrix(rng, 3, 3)), (md, elementary(0, 2))]
    tri = triangular_family_member(rng)
    d = tri.d
    operators.append((tri, Matrix.identity(3).scale(rational(rng)) + d.scale(rational(rng))
                      + (d @ d).scale(rational(rng))))
    operators.append((semidirect_product(emd, adjoint),
                      o_operator_lift(emd, adjoint, Matrix.diagonal([1, 1, -1]))))
    cases = []
    for md, N in operators:
        n = md.n
        ld, zero = trivial_deformation_from_nijenhuis(md, N), LinearDeformation.zero(md)
        bumped = N + Matrix(n, n, [1] + [0] * (n * n - 1))
        rand = LinearDeformation(md, random_skew_tensor(rng, n, n),
                                 random_skew_tensor(rng, n, n), random_matrix(rng, n, n))
        cases.append([(ld, zero, N), (rand, rand, Matrix.zeros(n, n)), (zero, ld, -N),
                      (ld, zero, bumped), (zero, ld, N), (rand, rand, N), (ld, rand, N)])
    return cases


def test_check_equivalence_matches_the_evaluation_oracle():
    verdicts = []
    for cases in equivalence_cases():
        got = [check_equivalence(*case) for case in cases]
        assert got == [oracles.check_equivalence(*case) for case in cases]
        ld, _, N = cases[0]
        # id + tN trivializes the deformation N generates; a map is an
        # equivalence of anything with itself at N = 0; when N^2 = 0 the
        # inverse id - tN goes back, with nu2 reaching orders 4 and 5
        assert got[:3] == [True, True, (N @ N).is_zero]
        verdicts += got
    assert (verdicts.count(True), verdicts.count(False)) == (19, 30)
def test_equivalence_against_different_base_raises(emd):
    rng = random.Random(32)
    other = abelian_md(rng, 3)
    with pytest.raises(InputError):
        check_equivalence(LinearDeformation.zero(emd),
                          LinearDeformation.zero(other), Matrix.zeros(3, 3))
