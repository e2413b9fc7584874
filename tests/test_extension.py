import random
from dataclasses import replace

import pytest

from md3lie.cohomology import TotalCochain
from md3lie.corpus import random_matrix, random_skew_tensor
from md3lie.errors import InputError
from md3lie.exactnum import Matrix
from md3lie.extension import (
    build_abelian_extension, extensions_equivalent, extract_cocycle,
    hyperbolic_pairing, is_metrised, tstar_abelian_extension,
    tstar_cyclicity_check, verify_extension,
)
from md3lie.multilin import (
    CochainCoordinates, SkewTernaryTensor, extract_skew_trilinear,
)
from md3lie.structures import (
    MD3LieAlgebra, ThreeLieAlgebra, homomorphism_check, semidirect_product,
    verify_3lie, verify_modified_differential,
)

import oracles


def zero_f():
    return SkewTernaryTensor.zero(3, 3)


def diag(*entries):
    return Matrix.diagonal(list(entries))


def partial_of(asm, mat):
    return asm.apply_partial(
        TotalCochain(1, CochainCoordinates.from_linear_map(mat), None))


# ---------------------------------------------------------------------------
# building


def test_zero_cocycle_gives_semidirect_product(emd, adjoint):
    ext = build_abelian_extension(emd, adjoint, zero_f(), Matrix.zeros(3, 3))
    assert ext.total == semidirect_product(emd, adjoint)
    assert verify_extension(ext).valid
    # short exact sequence bookkeeping
    assert (ext.projection @ ext.inclusion).is_zero
    assert ext.projection.rank() == 3 and ext.inclusion.rank() == 3
    assert ext.is_section(ext.canonical_section())


def test_extension_adds_f_and_g_to_the_direct_sum(emd, adjoint):
    rng = random.Random(46)
    f = random_skew_tensor(rng, 3, 3)
    g = random_matrix(rng, 3, 3)
    ext = build_abelian_extension(emd, adjoint, f, g)
    bracket = ext.total.algebra.bracket
    for i in range(3):
        for j in range(3):
            for k in range(6):
                if k < 3:
                    want = emd.algebra.bracket.basis_value(i, j, k) + f.basis_value(i, j, k)
                else:
                    want = (0, 0, 0) + oracles.rho_basis(adjoint, i, j).column(k - 3)
                assert bracket.basis_value(i, j, k) == want
    assert ext.total.d == Matrix.block([[emd.d, Matrix.zeros(3, 3)],
                                        [g, adjoint.d_M]])


def test_extension_is_abelian_on_the_module(emd, adjoint):
    ext = build_abelian_extension(emd, adjoint, zero_f(), diag(0, 1, -1))
    values = ext.total.algebra.bracket.values
    for (i, j, k) in values:
        # at most one module index per nonzero bracket value
        assert sum(idx >= 3 for idx in (i, j, k)) <= 1


def test_inclusion_and_projection_are_homomorphisms(emd, adjoint):
    from md3lie.structures import MD3LieAlgebra, ModifiedDifferential, ThreeLieAlgebra

    ext = build_abelian_extension(emd, adjoint, zero_f(), diag(0, 1, -1))
    module_md = MD3LieAlgebra(ThreeLieAlgebra.abelian(3),
                              ModifiedDifferential(emd.lam, adjoint.d_M))
    assert homomorphism_check(ext.inclusion, module_md, ext.total)
    assert homomorphism_check(ext.projection, ext.total, emd)


def test_cocycle_gives_valid_extension(emd, adjoint, adjoint_asm):
    ext = build_abelian_extension(emd, adjoint, zero_f(), diag(0, 1, -1))
    assert verify_extension(ext).valid
    assert adjoint_asm.is_cocycle(ext.cocycle_total()).valid


def test_non_cocycle_fails_verification(emd, adjoint, adjoint_asm):
    g = Matrix(3, 3, [0, 0, 0, 1, 0, 0, 0, 0, 0])  # e1 -> e2
    ext = build_abelian_extension(emd, adjoint, zero_f(), g)
    assert not verify_extension(ext).valid
    assert not adjoint_asm.is_cocycle(ext.cocycle_total()).valid


def test_shape_validation(emd, adjoint):
    with pytest.raises(InputError):
        build_abelian_extension(emd, adjoint, SkewTernaryTensor.zero(3, 2),
                                Matrix.zeros(3, 3))
    with pytest.raises(InputError):
        build_abelian_extension(emd, adjoint, zero_f(), Matrix.zeros(2, 3))


# ---------------------------------------------------------------------------
# sections and extraction


def test_canonical_section_recovers_construction_data(emd, adjoint):
    f = zero_f()
    g = diag(0, 1, -1)
    ext = build_abelian_extension(emd, adjoint, f, g)
    got = extract_cocycle(ext, ext.canonical_section())
    assert got.upsilon == f and got.mu == g
    assert got.rep.rho == adjoint.rho and got.rep.d_M == adjoint.d_M


def test_shifted_section_extracts_a_coboundary(emd, adjoint, adjoint_asm):
    ext = build_abelian_extension(emd, adjoint, zero_f(), Matrix.zeros(3, 3))
    rng = random.Random(41)
    sigma = random_matrix(rng, 3, 3)
    got = extract_cocycle(ext, ext.section_from(sigma))
    assert got.total().stacked() == partial_of(adjoint_asm, sigma).stacked()


def test_sections_differ_by_coboundaries(emd, adjoint, adjoint_asm):
    ext = build_abelian_extension(emd, adjoint, zero_f(), diag(0, 1, -1))
    rng = random.Random(42)
    sections = [ext.canonical_section()] + [
        ext.section_from(random_matrix(rng, 3, 3)) for _ in range(3)]
    extracted = [extract_cocycle(ext, s) for s in sections]
    for ec in extracted:
        assert adjoint_asm.is_cocycle(ec.total()).valid
        assert ec.rep.rho == extracted[0].rep.rho
    for i in range(len(extracted)):
        for j in range(i + 1, len(extracted)):
            diff = extracted[i].total() - extracted[j].total()
            pre = adjoint_asm.is_coboundary(diff)
            assert pre is not None
            assert adjoint_asm.apply_partial(pre).stacked() == diff.stacked()


def test_extract_rejects_non_section(emd, adjoint):
    ext = build_abelian_extension(emd, adjoint, zero_f(), Matrix.zeros(3, 3))
    # the right shape, but they project to 0 and to diag(1, 1, 0)
    for s in (Matrix.zeros(6, 3), Matrix.block([[diag(1, 1, 0)], [Matrix.identity(3)]])):
        with pytest.raises(InputError, match="^map is not a section of the projection$"):
            extract_cocycle(ext, s)


def test_extract_rejects_another_pair_action(emd, adjoint, coadjoint):
    ext = build_abelian_extension(emd, adjoint, zero_f(), diag(0, 1, -1))
    with pytest.raises(InputError, match="^extracted pair action disagrees"):
        extract_cocycle(replace(ext, rep=coadjoint), ext.canonical_section())


def test_extract_rejects_another_module_differential(emd, adjoint):
    ext = build_abelian_extension(emd, adjoint, zero_f(), diag(0, 1, -1))
    other = replace(adjoint, d_M=diag(1, 1, 1))
    with pytest.raises(InputError, match="^extracted module differential disagrees"):
        extract_cocycle(replace(ext, rep=other), ext.canonical_section())


def test_extract_rejects_another_base_bracket(emd, adjoint):
    # the total bracket on algebra triples then leaves the embedded module
    ext = build_abelian_extension(emd, adjoint, zero_f(), diag(0, 1, -1))
    other = MD3LieAlgebra(ThreeLieAlgebra.abelian(3), emd.diff)
    with pytest.raises(InputError, match="^vector does not lie in the embedded module$"):
        extract_cocycle(replace(ext, base=other), ext.canonical_section())


# ---------------------------------------------------------------------------
# equivalence


def test_self_equivalence_is_identity(emd, adjoint):
    ext = build_abelian_extension(emd, adjoint, zero_f(), diag(0, 1, -1))
    assert extensions_equivalent(ext, ext) == Matrix.identity(6)


def test_shifted_cocycle_gives_equivalent_extension(emd, adjoint, adjoint_asm):
    rng = random.Random(43)
    base_f, base_g = zero_f(), diag(0, 1, -1)
    iota = random_matrix(rng, 3, 3)
    shift = partial_of(adjoint_asm, iota)
    f2 = base_f + extract_skew_trilinear(shift.f)
    g2 = base_g + shift.g.to_linear_map()
    ext1 = build_abelian_extension(emd, adjoint, base_f, base_g)
    ext2 = build_abelian_extension(emd, adjoint, f2, g2)
    for a, b in [(ext1, ext2), (ext2, ext1)]:
        eta = extensions_equivalent(a, b)
        assert eta is not None
        assert homomorphism_check(eta, a.total, b.total)
        assert eta @ a.inclusion == b.inclusion
        assert b.projection @ eta == a.projection


def test_inequivalent_extensions(emd, adjoint):
    ext1 = build_abelian_extension(emd, adjoint, zero_f(), diag(0, 1, -1))
    ext2 = build_abelian_extension(emd, adjoint, zero_f(), Matrix.zeros(3, 3))
    assert extensions_equivalent(ext1, ext2) is None


def test_equivalence_requires_matching_data(emd, adjoint, coadjoint):
    ext1 = build_abelian_extension(emd, adjoint, zero_f(), Matrix.zeros(3, 3))
    ext2 = build_abelian_extension(emd, coadjoint, zero_f(), Matrix.zeros(3, 3))
    with pytest.raises(InputError):
        extensions_equivalent(ext1, ext2)


# ---------------------------------------------------------------------------
# dual extensions and invariant forms


def test_tstar_of_zero_data(emd):
    total = tstar_abelian_extension(emd, zero_f(), Matrix.zeros(3, 3)).total
    varpi = hyperbolic_pairing(emd.n)
    assert verify_3lie(total.algebra).valid
    assert verify_modified_differential(total).valid
    assert varpi == hyperbolic_pairing(3)
    assert varpi.rank() == 6
    assert is_metrised(total, varpi).valid


def test_tstar_matches_coadjoint_extension(emd, coadjoint):
    ext = tstar_abelian_extension(emd, zero_f(), Matrix.zeros(3, 3))
    assert ext.rep.rho == coadjoint.rho
    assert ext.rep.d_M == -emd.d.transpose()


def test_tstar_invalid_for_non_cocycle(emd):
    rng = random.Random(44)
    f = random_skew_tensor(rng, 3, 3)
    ext = tstar_abelian_extension(emd, f, Matrix.zeros(3, 3))
    assert not verify_extension(ext).valid


def test_is_metrised_counterexamples(emd):
    report = is_metrised(emd, Matrix.identity(3))
    assert not report.valid
    assert any(v.law == "bracket invariance" for v in report.violations)
    report0 = is_metrised(emd, Matrix.zeros(3, 3))
    assert any(v.law == "non-degeneracy" for v in report0.violations)


def test_cyclicity_examples(emd):
    varpi = hyperbolic_pairing(3)
    assert tstar_cyclicity_check(zero_f(), Matrix.zeros(3, 3))

    g_sym = Matrix(3, 3, [1, 0, 0, 0, 0, 0, 0, 0, 0])  # g(e1) = e1*
    assert not tstar_cyclicity_check(zero_f(), g_sym)
    total = tstar_abelian_extension(emd, zero_f(), g_sym).total
    assert not is_metrised(total, varpi).valid

    g_skew = Matrix(3, 3, [0, -1, 0, 1, 0, 0, 0, 0, 0])
    assert tstar_cyclicity_check(zero_f(), g_skew)
    total2 = tstar_abelian_extension(emd, zero_f(), g_skew).total
    assert is_metrised(total2, varpi).valid


def test_cyclicity_matches_metrised_on_random_data(emd):
    rng = random.Random(45)
    varpi = hyperbolic_pairing(3)
    for _ in range(6):
        f = random_skew_tensor(rng, 3, 3)
        g = random_matrix(rng, 3, 3)
        total = tstar_abelian_extension(emd, f, g).total
        assert tstar_cyclicity_check(f, g) == is_metrised(total, varpi).valid
