import random
from dataclasses import replace
from fractions import Fraction

import pytest

from md3lie import multilin
from md3lie.cohomology import TotalCochain
from md3lie.corpus import random_matrix, random_skew_tensor
from md3lie.errors import InputError
from md3lie.exactnum import Matrix
from md3lie.extension import (
    ExtractedCocycle, build_abelian_extension, extensions_equivalent, extract_cocycle,
    hyperbolic_pairing, is_metrised, tstar_abelian_extension,
    tstar_cyclicity_check, verify_extension,
)
from md3lie.multilin import (
    CochainCoordinates, SkewTernaryTensor, extract_skew_trilinear,
)
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, ThreeLieAlgebra, adjoint_representation,
    coadjoint_representation, homomorphism_check, semidirect_product,
    trivial_representation, verify_3lie, verify_modified_differential,
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


def test_n60_constructions_coerce_in_proportion_to_nonzeros(monkeypatch):
    """On n = 60, where the carrier has C(120, 3) triples, the scalars the
    tensor layer coerces are bounded by a small multiple of the inputs'
    nonzero structure constants and action entries: nothing is built per
    zero entry of the semidirect product or of the extension."""
    n = 60
    coerced = []
    scal = multilin.scal

    def counting_scal(c):
        coerced.append(c)
        return scal(c)

    monkeypatch.setattr(multilin, "scal", counting_scal)

    def assert_bounded(md, rep, f=None):
        tensors = [md.algebra.bracket] + ([] if f is None else [f])
        nonzeros = (sum(len(items) for t in tensors for items in t.values.values())
                    + sum(len(mat.entry_items()) for mat in rep.rho.values()))
        assert 0 < len(coerced) <= 3 * nonzeros, (len(coerced), nonzeros)
        coerced.clear()

    abelian = MD3LieAlgebra(ThreeLieAlgebra.abelian(n),
                            ModifiedDifferential(0, Matrix.zeros(n, n)))
    f = SkewTernaryTensor(n, n, {(0, 1, 2): {3: 1, n - 1: Fraction(-2, 3)}})
    coerced.clear()
    ext = tstar_abelian_extension(abelian, f, Matrix.zeros(n, n))
    assert ext.total.algebra.bracket.values == {(0, 1, 2): (
        (n + 3, Fraction(1)), (2 * n - 1, Fraction(-2, 3)))}
    assert_bounded(abelian, ext.rep, f)
    trivial = trivial_representation(abelian, 1, Matrix.zeros(1, 1))
    f1 = SkewTernaryTensor(n, 1, {(0, 1, 2): {0: 5}})
    coerced.clear()
    ext = build_abelian_extension(abelian, trivial, f1, Matrix.zeros(1, n))
    assert ext.total.algebra.bracket.values == {(0, 1, 2): ((n, Fraction(5)),)}
    assert_bounded(abelian, trivial, f1)
    # [e1, e2, e3] = e1 inside n = 60: its adjoint acts on three pairs
    md = MD3LieAlgebra(ThreeLieAlgebra(n, SkewTernaryTensor(n, n, {(0, 1, 2): {0: 1}})),
                       ModifiedDifferential(0, Matrix.zeros(n, n)))
    adjoint = adjoint_representation(md)
    coerced.clear()
    split = semidirect_product(md, adjoint)
    assert len(split.algebra.bracket.values) == 4
    assert_bounded(md, adjoint)


def test_n60_pair_action_constructions_build_per_nonzero_action(monkeypatch):
    """On an abelian n = 60 algebra with zero d no pair acts, so the adjoint,
    the coadjoint and the invariance check of a form build a fixed number of
    matrices, and the cyclicity check and the degree-2 embedding of a tensor
    build a fixed number plus a few per pair that the tensor acts on; none of
    them builds one per each of the C(60, 2) pairs."""
    n = 60
    made = []
    raw = Matrix._raw.__func__

    def counting_raw(cls, *args, **kwargs):
        made.append(1)
        return raw(cls, *args, **kwargs)

    abelian = MD3LieAlgebra(ThreeLieAlgebra.abelian(n),
                            ModifiedDifferential(0, Matrix.zeros(n, n)))
    identity, zero = Matrix.identity(n), Matrix.zeros(n, n)
    # f(e1, e2, e3) = e4 and its cyclic images: the 4-form e1^e2^e3^e4, so
    # every one of its six pair actions is skew and the check reads them all
    cyclic = SkewTernaryTensor(n, n, {(0, 1, 2): {3: 1}, (0, 1, 3): {2: -1},
                                      (0, 2, 3): {1: 1}, (1, 2, 3): {0: -1}})
    one_triple = SkewTernaryTensor(n, 1, {(0, 1, 2): {0: 5}})
    monkeypatch.setattr(Matrix, "_raw", classmethod(counting_raw))
    results = {}
    for name, build, actions in [
            ("adjoint", lambda: adjoint_representation(abelian), 0),
            ("coadjoint", lambda: coadjoint_representation(abelian), 0),
            ("is_metrised", lambda: is_metrised(abelian, identity), 0),
            ("tstar_cyclicity_check", lambda: tstar_cyclicity_check(cyclic, zero), 6),
            ("embed_skew_trilinear", lambda: multilin.embed_skew_trilinear(one_triple), 3)]:
        made.clear()
        results[name] = build()
        assert len(made) <= 8 + 3 * actions, (name, len(made))
    monkeypatch.undo()
    assert results["adjoint"].rho == results["coadjoint"].rho == {}
    assert results["is_metrised"].valid and results["tstar_cyclicity_check"]
    assert extract_skew_trilinear(results["embed_skew_trilinear"]) == one_triple


def test_n60_cochains_build_items_in_proportion_to_nonzeros(monkeypatch):
    """On n = m = 60 a degree-2 cochain has 6,372,000 coordinates.  Embedding
    a one-triple tensor, extracting it back, the cocycle of an extension and
    of directly built extracted data, and the difference of two total
    cochains each coerce at most three scalars per nonzero of their input
    and never read the dense view."""
    n = 60
    abelian = MD3LieAlgebra(ThreeLieAlgebra.abelian(n),
                            ModifiedDifferential(0, Matrix.zeros(n, n)))
    adjoint = adjoint_representation(abelian)
    f = SkewTernaryTensor(n, n, {(0, 1, 2): {3: 1, n - 1: Fraction(-2, 3)}})
    g = Matrix.from_entries(n, n, {(0, 1): Fraction(5), (n - 1, 2): Fraction(-1)})
    ext = build_abelian_extension(abelian, adjoint, f, g)
    doubled = ExtractedCocycle(adjoint, f.scale(2), g)
    embedded = multilin.embed_skew_trilinear(f)
    a, b = ext.cocycle_total(), doubled.total()

    def tensor_nonzeros(t):
        return sum(len(items) for items in t.values.values())

    def cochain_nonzeros(*tcs):
        return sum(len(c.items) for tc in tcs for c in (tc.f, tc.g))

    coerced = []
    scal = multilin.scal

    def counting_scal(c):
        coerced.append(c)
        return scal(c)

    def dense_view(self):
        raise AssertionError("the dense coordinates were read")

    monkeypatch.setattr(multilin, "scal", counting_scal)
    monkeypatch.setattr(CochainCoordinates, "coords", property(dense_view))
    results = {}
    for name, build, nonzeros in [
            ("embed_skew_trilinear", lambda: multilin.embed_skew_trilinear(f),
             tensor_nonzeros(f)),
            ("extract_skew_trilinear", lambda: extract_skew_trilinear(embedded),
             len(embedded.items)),
            ("cocycle_total", ext.cocycle_total,
             tensor_nonzeros(f) + len(g.entry_items())),
            ("ExtractedCocycle.total", doubled.total,
             tensor_nonzeros(doubled.upsilon) + len(g.entry_items())),
            ("TotalCochain.__sub__", lambda: a - b, cochain_nonzeros(a, b))]:
        coerced.clear()
        results[name] = build()
        assert 0 < len(coerced) <= 3 * nonzeros, (name, len(coerced), nonzeros)
    monkeypatch.undo()
    assert results["embed_skew_trilinear"] == embedded and len(embedded.items) == 6
    assert results["extract_skew_trilinear"] == f
    assert results["cocycle_total"] == ExtractedCocycle(adjoint, f, g).total()
    assert results["TotalCochain.__sub__"] == TotalCochain(
        2, multilin.embed_skew_trilinear(f.scale(-1)), CochainCoordinates.zero(1, n, n))


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
