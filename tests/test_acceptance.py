"""Acceptance suite: one test per criterion, all checks exact (no tolerances).

Every assertion is an identity of rational numbers; a criterion passes only
if it holds bit-exactly.  Each test prints its own pass line through the
capture-disabled channel, so a `pytest` run shows one line per criterion.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles

from md3lie.cohomology import ComplexAssembly, TotalCochain
from md3lie.corpus import (
    abelian_md, corrupt_representation, det_bracket_md, example_md,
    random_invertible, random_matrix, random_skew_tensor, rational,
    rational_nonzero, triangular_family_member,
)
from md3lie.deformation import (
    LinearDeformation, check_equivalence, infinitesimal, inverse_cocycle_check,
    is_nijenhuis, is_o_operator, nijenhuis_deformed_algebra, o_operator_lift,
    trivial_deformation_from_nijenhuis, verify_linear_deformation,
)
from md3lie.exactnum import Matrix, unit
from md3lie.extension import (
    build_abelian_extension, extensions_equivalent, extract_cocycle,
    hyperbolic_pairing, is_metrised, tstar_abelian_extension,
    tstar_cyclicity_check, verify_extension,
)
from md3lie.multilin import (
    CochainCoordinates, SkewTernaryTensor, cochain_dim, embed_skew_trilinear,
    extract_skew_trilinear,
)
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, ThreeLieAlgebra,
    adjoint_representation, coadjoint_representation, derivation_shift_check,
    homomorphism_check, semidirect_product, trivial_representation,
    verify_3lie, verify_modified_differential, verify_representation,
)


@pytest.fixture
def announce(capsys):
    def _announce(number, text):
        with capsys.disabled():
            print(f"[acceptance] criterion {number:2d} PASS  {text}")
    return _announce


def assert_valid_md(md):
    assert verify_3lie(md.algebra).valid
    assert verify_modified_differential(md).valid


def complex_identity_checks(asm):
    d1, d2, d3 = (asm.delta_matrix(q) for q in (1, 2, 3))
    p1, p2, p3 = (asm.phi_matrix(q) for q in (1, 2, 3))
    t1, t2, t3 = (asm.partial_matrix(q) for q in (1, 2, 3))
    assert (d2 @ d1).is_zero and (d3 @ d2).is_zero
    assert p2 @ d1 == d1 @ p1 and p3 @ d2 == d2 @ p2
    assert (t2 @ t1).is_zero and (t3 @ t2).is_zero


def skew_embedding_matrix(n, m):
    """Columns: degree-2 coordinates of the basis fully-skew tensors."""
    cols = []
    for triple in combinations(range(n), 3):
        for r in range(m):
            t = SkewTernaryTensor(n, m, {triple: unit(m, r)})
            cols.append(embed_skew_trilinear(t).coords)
    return Matrix.from_columns(cols, cochain_dim(2, n, m))


def skew_cocycle_space(asm):
    """Kernel basis of the total differential restricted to pairs (f, g)
    with fully skew f: exactly the data that feeds an extension."""
    n, m = asm.md.n, asm.rep.m
    embed = skew_embedding_matrix(n, m)
    ntriples = embed.cols
    c1 = cochain_dim(1, n, m)
    restricted = asm.partial_matrix(2) @ Matrix.block([
        [embed, Matrix.zeros(embed.rows, c1)],
        [Matrix.zeros(c1, ntriples), Matrix.identity(c1)],
    ])
    return restricted.kernel_basis(), ntriples


def unpack_extension_data(vec, n, m, ntriples):
    values = {}
    pos = 0
    for triple in combinations(range(n), 3):
        values[triple] = tuple(vec[pos:pos + m])
        pos += m
    assert pos == ntriples
    f = SkewTernaryTensor(n, m, values)
    g = CochainCoordinates(1, n, m, vec[ntriples:]).to_linear_map()
    return f, g


def combine(rng, basis, length):
    out = [Fraction(0)] * length
    for v in basis:
        c = rational(rng)
        if c:
            out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


# ---------------------------------------------------------------------------


def test_criterion_01_complex_identities(emd, adjoint_asm, coadjoint_asm,
                                         announce):
    rng = random.Random(101)
    instances = [adjoint_asm, coadjoint_asm]
    for n in (2, 3):
        md = abelian_md(rng, n)
        instances.append(ComplexAssembly(md, adjoint_representation(md)))
    for i in range(5):
        md = det_bracket_md(rng)
        assert_valid_md(md)
        rep = (adjoint_representation(md) if i % 2 == 0
               else coadjoint_representation(md))
        assert verify_representation(md, rep).valid
        instances.append(ComplexAssembly(md, rep))
    for asm in instances:
        complex_identity_checks(asm)
    announce(1, f"delta^2=0, Phi delta=delta Phi, total^2=0 on "
                f"{len(instances)} instances, degrees 1->2->3")


def test_criterion_02_triangular_family(announce):
    rng = random.Random(102)
    for _ in range(10):
        md = triangular_family_member(rng)
        assert verify_modified_differential(md).valid
        row = rng.choice((1, 2))
        bumped = [list(md.d.row(i)) for i in range(3)]
        bumped[row][0] = rational_nonzero(rng)
        broken = MD3LieAlgebra(md.algebra, ModifiedDifferential(
            md.lam, Matrix.from_rows(bumped)))
        report = verify_modified_differential(broken)
        assert not report.valid and report.violations
        assert report.violations[0].args == (0, 1, 2)
    announce(2, "10 triangular members valid; first-column bumps fail "
                "with witnesses")


def test_criterion_03_shift_equivalence(announce):
    rng = random.Random(103)
    agreements = 0
    for i in range(50):
        kind = i % 5
        if kind == 0:
            md = triangular_family_member(rng)
        elif kind == 1:
            md = det_bracket_md(rng)
        elif kind == 2:
            md = abelian_md(rng, rng.choice((2, 3)))
        elif kind == 3:
            md = MD3LieAlgebra(example_md().algebra, ModifiedDifferential(
                rational(rng), random_matrix(rng, 3, 3)))
        else:
            base = det_bracket_md(rng)
            md = MD3LieAlgebra(base.algebra, ModifiedDifferential(
                rational(rng), random_matrix(rng, 3, 3)))
        assert derivation_shift_check(md) == verify_modified_differential(md).valid
        agreements += 1
    assert agreements == 50
    announce(3, "shifted-derivation check agrees with the verifier on 50 inputs")


def test_criterion_04_h1_value(emd, adjoint, adjoint_asm, announce):
    summary = adjoint_asm.cohomology_dim(1)
    assert (summary.z_dim, summary.b_dim, summary.h_dim) == (2, 0, 2)
    oracle = oracles.direct_cocycle_matrix(emd, adjoint, 1)
    assert (oracle.rows, oracle.cols) == (36, 9)
    kernel = oracle.kernel_basis()
    assert len(kernel) == 2
    # the two kernels agree as subspaces
    both = Matrix.from_columns(
        kernel + [tc.f.coords for tc in summary.representatives], 9)
    assert both.rank() == 2
    announce(4, "H^1 = (Z=2, B=0, H=2) confirmed against the 36x9 oracle")


def test_criterion_05_trivial_complex_value(announce):
    md = MD3LieAlgebra(ThreeLieAlgebra.abelian(2),
                       ModifiedDifferential(Fraction(0), Matrix.zeros(2, 2)))
    asm = ComplexAssembly(md, trivial_representation(md, 1, Matrix.zeros(1, 1)))
    summary = asm.cohomology_dim(2)
    assert (summary.z_dim, summary.b_dim, summary.h_dim) == (4, 0, 4)
    announce(5, "abelian n=2, m=1 complex has H^2 = 4")


def test_criterion_06_semidirect_iff(emd, adjoint, coadjoint, announce):
    rng = random.Random(106)
    valid_reps = [adjoint, coadjoint,
                  trivial_representation(emd, 2, random_matrix(rng, 2, 2))]
    for rep in valid_reps:
        assert verify_representation(emd, rep).valid
        sd = semidirect_product(emd, rep)
        assert verify_3lie(sd.algebra).valid
        assert verify_modified_differential(sd).valid
    targets = ("bracket-pair action identity", "pair action commutator identity",
               "module differential compatibility")
    for i in range(20):
        rep = corrupt_representation(rng, emd, adjoint, targets[i % 3])
        report = verify_representation(emd, rep)
        assert not report.valid
        sd = semidirect_product(emd, rep)
        assert not (verify_3lie(sd.algebra).valid
                    and verify_modified_differential(sd).valid)
    announce(6, "semidirect product verifies iff the representation does "
                "(3 valid + 20 corrupted)")


def test_criterion_07_nijenhuis_closure(emd, adjoint, announce):
    rng = random.Random(107)
    cases = []
    for c in (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3)):
        cases.append((emd, Matrix.identity(3).scale(c)))
    for diag in ([1, 2, 3], [2, 2, 7],
                 [rational(rng), rational(rng), rational(rng)]):
        cases.append((emd, Matrix.diagonal(diag)))
    sd = semidirect_product(emd, adjoint)
    for R in (Matrix.diagonal([1, 1, -1]),
              Matrix.diagonal([0, rational(rng), rational(rng)]),
              Matrix.zeros(3, 3)):
        assert is_o_operator(emd, adjoint, R).valid
        cases.append((sd, o_operator_lift(emd, adjoint, R)))
    assert len(cases) == 10
    for md, N in cases:
        assert is_nijenhuis(md, N).valid
        deformed = nijenhuis_deformed_algebra(md, N)
        assert deformed.lam == md.lam
        assert_valid_md(deformed)
    announce(7, "10 Nijenhuis operators: deformed algebras pass both verifiers")


def test_criterion_08_o_operator_lift_iff(emd, adjoint, announce):
    rng = random.Random(108)
    sd = semidirect_product(emd, adjoint)
    operators = [Matrix.diagonal([1, 1, -1]), Matrix.identity(3)]
    operators += [random_matrix(rng, 3, 3) for _ in range(18)]
    seen_valid = seen_invalid = 0
    for R in operators:
        relative = is_o_operator(emd, adjoint, R).valid
        lifted = is_nijenhuis(sd, o_operator_lift(emd, adjoint, R)).valid
        assert relative == lifted
        seen_valid += relative
        seen_invalid += not relative
    assert seen_valid >= 1 and seen_invalid >= 1
    announce(8, "20 operators: relative condition iff lifted Nijenhuis")


def test_criterion_09_inverse_cocycle_iff(emd, adjoint, announce):
    rng = random.Random(109)
    operators = [Matrix.diagonal([1, 1, -1]), Matrix.identity(3)]
    operators += [random_invertible(rng, 3) for _ in range(10)]
    seen_true = seen_false = 0
    for R in operators:
        relative = is_o_operator(emd, adjoint, R).valid
        cocycle = inverse_cocycle_check(emd, adjoint, R)
        assert relative == cocycle
        seen_true += relative
        seen_false += not relative
    assert seen_true >= 1 and seen_false >= 1
    announce(9, "12 invertible operators: inverse is a 1-cocycle iff relative "
                "condition holds")


def test_criterion_10_extension_iff(emd, adjoint, adjoint_asm, announce):
    rng = random.Random(110)
    basis, ntriples = skew_cocycle_space(adjoint_asm)
    assert basis, "the skew cocycle space is trivial"
    samples = []
    for _ in range(10):
        samples.append(unpack_extension_data(
            combine(rng, basis, ntriples + 9), 3, 3, ntriples))
    for _ in range(10):
        samples.append((random_skew_tensor(rng, 3, 3), random_matrix(rng, 3, 3)))
    cocycles = extensions = 0
    for f, g in samples:
        ext = build_abelian_extension(emd, adjoint, f, g)
        is_valid = verify_extension(ext).valid
        is_cocycle = adjoint_asm.is_cocycle(ext.cocycle_total()).valid
        assert is_valid == is_cocycle
        cocycles += is_cocycle
        extensions += is_valid
    assert cocycles >= 1 and cocycles <= 19
    announce(10, f"20 sampled (f, g): extension valid iff cocycle "
                 f"({extensions} valid, {20 - extensions} invalid)")


def test_criterion_11_section_independence(emd, adjoint, adjoint_asm, announce):
    rng = random.Random(111)
    ext = build_abelian_extension(
        emd, adjoint, SkewTernaryTensor.zero(3, 3), Matrix.diagonal([0, 1, -1]))
    sections = [ext.section_from(random_matrix(rng, 3, 3)) for _ in range(10)]
    extracted = [extract_cocycle(ext, s) for s in sections]
    for ec in extracted:
        assert adjoint_asm.is_cocycle(ec.total()).valid
        assert ec.rep.rho == extracted[0].rep.rho
        assert ec.rep.d_M == extracted[0].rep.d_M
    for i in range(len(extracted)):
        for j in range(i + 1, len(extracted)):
            diff = extracted[i].total() - extracted[j].total()
            pre = adjoint_asm.is_coboundary(diff)
            assert pre is not None
            assert adjoint_asm.apply_partial(pre).stacked() == diff.stacked()
    announce(11, "10 sections: cocycles throughout, differences exact, "
                 "pair action bitwise identical")


def test_criterion_12_classification(emd, adjoint, adjoint_asm, announce):
    rng = random.Random(112)
    f0 = SkewTernaryTensor.zero(3, 3)
    g0 = Matrix.diagonal([0, 1, -1])
    ext = build_abelian_extension(emd, adjoint, f0, g0)
    iota = random_matrix(rng, 3, 3)
    shift = adjoint_asm.apply_partial(
        TotalCochain(1, CochainCoordinates.from_linear_map(iota), None))
    ext_shifted = build_abelian_extension(
        emd, adjoint, f0 + extract_skew_trilinear(shift.f),
        g0 + shift.g.to_linear_map())
    eta = extensions_equivalent(ext, ext_shifted)
    assert eta is not None
    assert homomorphism_check(eta, ext.total, ext_shifted.total)
    assert eta @ ext.inclusion == ext_shifted.inclusion
    assert ext_shifted.projection @ eta == ext.projection

    ext_zero = build_abelian_extension(emd, adjoint, f0, Matrix.zeros(3, 3))
    assert extensions_equivalent(ext, ext_zero) is None
    announce(12, "cocycle shift gives an equivalence with verified "
                 "isomorphism; non-cohomologous pair is inequivalent")


def test_criterion_13_tstar_iff(emd, coadjoint_asm, announce):
    rng = random.Random(113)
    varpi = hyperbolic_pairing(3)
    basis, ntriples = skew_cocycle_space(coadjoint_asm)
    samples = []
    for _ in range(6):
        samples.append(unpack_extension_data(
            combine(rng, basis, ntriples + 9), 3, 3, ntriples))
    for _ in range(7):
        # cyclic data: in dim 3 cyclicity forces f = 0, so sample skew g
        a, b, c = rational(rng), rational(rng), rational(rng)
        g = Matrix(3, 3, [0, a, b, -a, 0, c, -b, -c, 0])
        samples.append((SkewTernaryTensor.zero(3, 3), g))
    for _ in range(7):
        samples.append((random_skew_tensor(rng, 3, 3), random_matrix(rng, 3, 3)))
    cyclic_count = 0
    for f, g in samples:
        ext = tstar_abelian_extension(emd, f, g)
        assert varpi.rank() == 6 and varpi.is_symmetric
        cyclic = tstar_cyclicity_check(f, g)
        metrised = is_metrised(ext.total, varpi).valid
        assert cyclic == metrised
        cyclic_count += cyclic
    assert 1 <= cyclic_count <= 19
    announce(13, f"20 sampled (f, g): cyclicity iff metrised pairing "
                 f"({cyclic_count} cyclic); pairing always full rank")


def test_criterion_14_infinitesimals(emd, adjoint_asm, announce):
    rng = random.Random(114)
    deformations = [LinearDeformation.zero(emd)]
    zero3 = SkewTernaryTensor.zero(3, 3)
    for _ in range(3):
        b = rational(rng)
        deformations.append(LinearDeformation(
            emd, zero3, zero3, Matrix.diagonal([rational(rng), b, -b])))
    operators = [Matrix.diagonal([1, 2, 3]),
                 Matrix.identity(3).scale(Fraction(-3, 2)),
                 Matrix.diagonal([rational(rng), rational(rng), rational(rng)])]
    trivial = [trivial_deformation_from_nijenhuis(emd, N) for N in operators]
    for ld in deformations + trivial:
        assert verify_linear_deformation(ld).valid
        assert adjoint_asm.is_cocycle(infinitesimal(ld)).valid
    for N, ld in zip(operators, trivial):
        assert check_equivalence(ld, LinearDeformation.zero(emd), N)
        pN = adjoint_asm.apply_partial(
            TotalCochain(1, CochainCoordinates.from_linear_map(N), None))
        assert infinitesimal(ld).stacked() == pN.stacked()
        pre = adjoint_asm.is_coboundary(infinitesimal(ld))
        assert pre is not None
        assert adjoint_asm.apply_partial(pre).stacked() == pN.stacked()
    announce(14, "infinitesimals of 7 valid deformations are cocycles; "
                 "trivial ones are exact with explicit preimages")
