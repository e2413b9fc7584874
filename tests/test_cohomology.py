import dataclasses
import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from md3lie import cli, cohomology, documents, exactnum
from md3lie.cli import run_command
from md3lie.cohomology import ComplexAssembly, TotalCochain
from md3lie.corpus import (
    abelian_md, corrupt_representation, det_bracket_md, example_md,
    random_matrix, random_vector, rational, triangular_family_member,
)
from md3lie.errors import InputError
from md3lie.exactnum import Matrix, vec_is_zero
from md3lie.multilin import CochainCoordinates, cochain_dim, pair_basis
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, Representation, ThreeLieAlgebra,
    adjoint_representation, coadjoint_representation, dual_representation,
    fundamental_leibniz, leibniz_data, semidirect_product,
    trivial_representation, verify_3lie, verify_modified_differential,
    verify_representation,
)

import oracles
from conftest import bench_pool, det_mod_p, invalid_bracket_md, random_md


def one_cochain(mat):
    return TotalCochain(1, CochainCoordinates.from_linear_map(mat), None)


def two_cochain(f_coords, g_mat):
    return TotalCochain(2, f_coords, CochainCoordinates.from_linear_map(g_mat))


@pytest.fixture(scope="module")
def trivial_asm():
    md = MD3LieAlgebra(ThreeLieAlgebra.abelian(2),
                       ModifiedDifferential(Fraction(0), Matrix.zeros(2, 2)))
    return ComplexAssembly(md, trivial_representation(md, 1, Matrix.zeros(1, 1)))


def test_delta_dimensions(adjoint_asm):
    d1 = adjoint_asm.delta_matrix(1)
    assert (d1.rows, d1.cols) == (27, 9)
    assert adjoint_asm.partial_matrix(1).rows == 36


def test_partial_matrix_blocks(adjoint_asm):
    """[[delta_q, 0], [(-1)^q Phi_q, delta_(q-1)]], and (delta_1, -Phi_1)."""
    n, m = adjoint_asm.md.n, adjoint_asm.rep.m
    phi1 = adjoint_asm.phi_matrix(1)
    assert adjoint_asm.partial_matrix(1) == Matrix.vstack(
        [adjoint_asm.delta_matrix(1), phi1.scale(-1)])
    for q in (2, 3):
        phi = adjoint_asm.phi_matrix(q)
        assert adjoint_asm.partial_matrix(q) == Matrix.block([
            [adjoint_asm.delta_matrix(q),
             Matrix.zeros(cochain_dim(q + 1, n, m), cochain_dim(q - 1, n, m))],
            [phi.scale((-1) ** q), adjoint_asm.delta_matrix(q - 1)]])


def test_assembly_peak_memory_is_below_a_dense_layout():
    """The abelian n=5 degree-2 total matrix (2750 x 275, 0.4% nonzero) is
    assembled in sparse rows: the traced peak stays below 4 bytes per dense
    entry, half the pointer array alone of a dense row-major layout."""
    md = abelian_md(random.Random(0), 5)
    asm = ComplexAssembly(md, adjoint_representation(md))
    tracemalloc.start()
    try:
        mat = asm.partial_matrix(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (mat.rows, mat.cols) == (2750, 275)
    assert peak < mat.rows * mat.cols * 4


def test_trivial_complex_is_zero(trivial_asm):
    for q in (1, 2, 3):
        assert trivial_asm.delta_matrix(q).is_zero
        assert trivial_asm.phi_matrix(q).is_zero
        assert trivial_asm.partial_matrix(q).is_zero


def test_delta_kills_bracket_derivation(adjoint_asm):
    F = CochainCoordinates.from_linear_map(Matrix.diagonal([0, 1, -1]))
    assert all(not c for c in adjoint_asm.delta_matrix(1).apply(F.coords))


def test_phi_degree_one_is_commutator(adjoint_asm, emd):
    # Phi(F) = F d - d_M F; the identity commutes with d
    ident = CochainCoordinates.from_linear_map(Matrix.identity(3))
    assert all(not c for c in adjoint_asm.phi_matrix(1).apply(ident.coords))
    e12 = Matrix(3, 3, [0, 1, 0, 0, 0, 0, 0, 0, 0])
    got = adjoint_asm.phi_matrix(1).apply(
        CochainCoordinates.from_linear_map(e12).coords)
    assert CochainCoordinates(1, 3, 3, dict(enumerate(got))).to_linear_map() == e12


def test_phi_degree_one_formula_random(adjoint_asm, emd, adjoint):
    rng = random.Random(21)
    for _ in range(5):
        F = random_matrix(rng, 3, 3)
        got = adjoint_asm.phi_matrix(1).apply(
            CochainCoordinates.from_linear_map(F).coords)
        expected = F @ emd.d - adjoint.d_M @ F
        assert CochainCoordinates(1, 3, 3, dict(enumerate(got))).to_linear_map() == expected


def complex_identities_hold(asm):
    d1, d2, d3 = (asm.delta_matrix(q) for q in (1, 2, 3))
    p1, p2, p3 = (asm.phi_matrix(q) for q in (1, 2, 3))
    t1, t2, t3 = (asm.partial_matrix(q) for q in (1, 2, 3))
    return ((d2 @ d1).is_zero and (d3 @ d2).is_zero
            and p2 @ d1 == d1 @ p1 and p3 @ d2 == d2 @ p2
            and (t2 @ t1).is_zero and (t3 @ t2).is_zero)


def test_complex_identities_adjoint_and_coadjoint(adjoint_asm, coadjoint_asm):
    assert complex_identities_hold(adjoint_asm)
    assert complex_identities_hold(coadjoint_asm)


def test_complex_identities_random_instances():
    rng = random.Random(22)
    md = det_bracket_md(rng)
    assert complex_identities_hold(
        ComplexAssembly(md, adjoint_representation(md)))
    ab = abelian_md(rng, 3)
    assert complex_identities_hold(
        ComplexAssembly(ab, coadjoint_representation(ab)))


def test_is_cocycle_examples(adjoint_asm):
    assert adjoint_asm.is_cocycle(TotalCochain.zero(1, 3, 3)).valid
    assert adjoint_asm.is_cocycle(TotalCochain.zero(2, 3, 3)).valid
    tc = two_cochain(CochainCoordinates.zero(2, 3, 3), Matrix.diagonal([0, 1, -1]))
    assert adjoint_asm.is_cocycle(tc).valid
    bad = two_cochain(CochainCoordinates.zero(2, 3, 3),
                      Matrix(3, 3, [0, 0, 0, 1, 0, 0, 0, 0, 0]))
    report = adjoint_asm.is_cocycle(bad)
    assert not report.valid and any(report.residual)


def test_is_cocycle_dimension_mismatch(adjoint_asm):
    with pytest.raises(InputError):
        adjoint_asm.is_cocycle(TotalCochain.zero(1, 2, 2))


@pytest.mark.parametrize("degree, got, width", [
    (1, 8, 9), (1, 10, 9), (2, 30, 36), (2, 37, 36), (2, 27, 36)])
def test_stacked_vector_of_the_wrong_length(degree, got, width):
    # checked once before slicing: items would pad a short vector with zeros
    with pytest.raises(InputError, match=f"stacked vector of length {got}, "
                                         f"expected {width}$"):
        TotalCochain.from_stacked(degree, 3, 3, [Fraction(1)] * got)
    tc = TotalCochain.from_stacked(degree, 3, 3, [Fraction(1)] * width)
    assert list(tc.stacked()) == [1] * width


def test_is_coboundary(adjoint_asm):
    rng = random.Random(23)
    h = one_cochain(random_matrix(rng, 3, 3))
    image = adjoint_asm.apply_partial(h)
    pre = adjoint_asm.is_coboundary(image)
    assert pre is not None
    assert adjoint_asm.apply_partial(pre).stacked() == image.stacked()

    zero = TotalCochain.zero(2, 3, 3)
    pre0 = adjoint_asm.is_coboundary(zero)
    assert pre0 is not None and pre0.is_zero

    nonexact = two_cochain(CochainCoordinates.zero(2, 3, 3),
                           Matrix.diagonal([0, 1, -1]))
    assert adjoint_asm.is_coboundary(nonexact) is None

    with pytest.raises(InputError):
        adjoint_asm.is_coboundary(TotalCochain.zero(1, 3, 3))


def test_h1_of_example_against_oracle(adjoint_asm, emd, adjoint):
    summary = adjoint_asm.cohomology_dim(1)
    assert (summary.z_dim, summary.b_dim, summary.h_dim) == (2, 0, 2)
    oracle = oracles.direct_cocycle_matrix(emd, adjoint, 1)
    assert (oracle.rows, oracle.cols) == (36, 9)
    assert len(oracle.kernel_basis()) == 2
    # representatives solve both conditions and span diag(f1, f2, -f2)
    for tc in summary.representatives:
        F = tc.f.to_linear_map()
        assert all(not c for c in oracle.apply(tc.f.coords))
        assert F[1, 0] == F[2, 0] == 0 and F[1, 1] + F[2, 2] == 0


def test_trivial_h2_is_four(trivial_asm):
    summary = trivial_asm.cohomology_dim(2)
    assert (summary.z_dim, summary.b_dim, summary.h_dim) == (4, 0, 4)
    assert len(summary.representatives) == 4


def test_cohomology_dim_consistency(adjoint_asm):
    for q in (1, 2):
        s = adjoint_asm.cohomology_dim(q)
        assert s.h_dim == s.z_dim - s.b_dim >= 0
        assert len(s.representatives) == s.h_dim
        for tc in s.representatives:
            assert adjoint_asm.is_cocycle(tc).valid


def test_representatives_complete_modulo_image(adjoint_asm):
    s = adjoint_asm.cohomology_dim(2)
    boundary = adjoint_asm.partial_matrix(1)
    base_rank = boundary.rank()
    stacked = Matrix.hstack(
        [boundary] + [Matrix.from_columns([tc.stacked()], boundary.rows)
                      for tc in s.representatives])
    assert stacked.rank() == base_rank + s.h_dim


def test_assembly_is_deterministic(emd, adjoint):
    a = ComplexAssembly(emd, adjoint)
    b = ComplexAssembly(emd, adjoint)
    for q in (1, 2):
        assert a.delta_matrix(q) == b.delta_matrix(q)
        assert a.phi_matrix(q) == b.phi_matrix(q)
        assert a.partial_matrix(q) == b.partial_matrix(q)


def test_cross_check_agreement_on_random_cochains(adjoint_asm, emd, adjoint):
    # the matrix route and the direct evaluation of the degree-1/2 identities
    # give the same verdict on random cochains
    rng = random.Random(24)
    for _ in range(8):
        tc = one_cochain(random_matrix(rng, 3, 3))
        assert adjoint_asm.is_cocycle(tc).valid == vec_is_zero(
            oracles.direct_one_cocycle(emd, adjoint, tc))
        f = CochainCoordinates(
            2, 3, 3, {i: Fraction(rng.randint(-2, 2)) for i in range(27)})
        tc = two_cochain(f, random_matrix(rng, 3, 3))
        assert adjoint_asm.is_cocycle(tc).valid == vec_is_zero(
            oracles.direct_two_cocycle(emd, adjoint, tc))


def test_higher_degree_supported(trivial_asm):
    s = trivial_asm.cohomology_dim(4)
    dim = cochain_dim(4, 2, 1) + cochain_dim(3, 2, 1)
    assert (s.z_dim, s.b_dim, s.h_dim) == (dim, 0, dim)


def test_degree_four_identities(adjoint_asm):
    # the assembler is generic in the degree; spot-check one degree beyond
    # the routinely exercised range on a nontrivial instance
    d3 = adjoint_asm.delta_matrix(3)
    d4 = adjoint_asm.delta_matrix(4)
    assert (d4.rows, d4.cols) == (729, 243)
    assert (d4 @ d3).is_zero
    assert adjoint_asm.phi_matrix(4) @ d3 == d3 @ adjoint_asm.phi_matrix(3)


# ---------------------------------------------------------------------------
# Phi against an independent Kronecker sum


def kron(*factors):
    out = Matrix.identity(1)
    for f in factors:
        rows, cols = out.rows * f.rows, out.cols * f.cols
        out = Matrix(rows, cols, [
            out[i // f.rows, j // f.cols] * f[i % f.rows, j % f.cols]
            for i in range(rows) for j in range(cols)])
    return out


def phi_oracle(md, rep, q):
    """Sum over pair slots of d_F^T, plus d^T on the final slot, minus d_M
    on values, with d_F (weight included) built here from oracles.wedge_coords."""
    n, d = md.n, md.d
    base = [oracles.unit(n, i) for i in range(n)]
    P = len(pair_basis(n))
    d_F = Matrix.from_columns([
        oracles.vec_add(oracles.vec_add(oracles.wedge_coords(d.column(i), base[j]),
                                        oracles.wedge_coords(base[i], d.column(j))),
                        oracles.vec_scale(md.lam, oracles.wedge_coords(base[i], base[j])))
        for i, j in pair_basis(n)], P)
    pair_ids = [Matrix.identity(P)] * (q - 1)
    I_n, I_m = Matrix.identity(n), Matrix.identity(rep.m)
    total = (kron(*pair_ids, d.transpose(), I_m)
             - kron(*pair_ids, I_n, rep.d_M))
    for i in range(q - 1):
        slots = list(pair_ids)
        slots[i] = d_F.transpose()
        total = total + kron(*slots, I_n, I_m)
    return total


def _nonzero_weight(make):
    while True:
        md = make()
        if md.lam:
            return md


def test_phi_matches_kronecker_sum_oracle():
    # a wrong weight on the pair slots would go unseen by the complex
    # identities: Phi + cI still commutes with delta
    rng = random.Random(11)
    dim3 = _nonzero_weight(lambda: triangular_family_member(rng))
    assert not dim3.d.is_zero and dim3.d != Matrix.diagonal(
        [dim3.d[i, i] for i in range(3)])
    dim4 = _nonzero_weight(lambda: abelian_md(rng, 4))
    bad = invalid_bracket_md(rng)
    with pytest.raises(InputError):
        fundamental_leibniz(bad)
    d_M = Matrix(2, 2, [1, 2, 0, -3])
    for md, degrees in ((dim3, (1, 2, 3)), (dim4, (1, 2)), (bad, (1, 2))):
        for rep in (coadjoint_representation(md),
                    trivial_representation(md, 2, d_M)):
            asm = ComplexAssembly(md, rep)
            for q in degrees:
                assert asm.phi_matrix(q) == phi_oracle(md, rep, q), (md, q)


# ---------------------------------------------------------------------------
# delta against the coboundary formula, column by column


def delta_oracle(md, rep, q):
    """delta_q from the coboundary formula on the pairs X_i = x_i ^ y_i,
    1-based i, applied to each basis cochain f of C^q:

    (delta f)(X_1, ..., X_q, z)
      = sum_(i<l) (-1)^i f(X_1, ..^i.., X_(l-1), [X_i, X_l]_F, X_(l+1), ..., z)
      + sum_i (-1)^i f(X_1, ..^i.., X_q, [x_i, y_i, z])
      + sum_i (-1)^(i+1) rho(x_i, y_i) f(X_1, ..^i.., X_q, z)
      + (-1)^(q+1) (rho(y_q, z) f(X_1, ..., X_(q-1), x_q)
                    + rho(z, x_q) f(X_1, ..., X_(q-1), y_q)).

    Each term is (sign, action or None, pair arguments, final argument),
    listed once per row block (X_1, ..., X_q, z) in coordinate order."""
    n, m = md.n, rep.m
    pairs = pair_basis(n)
    P = len(pairs)
    leibniz = leibniz_data(md)
    X = [oracles.unit(P, t) for t in range(P)]
    e = [oracles.unit(n, i) for i in range(n)]
    blocks = []
    for arg in itertools.product(range(P), repeat=q):
        for z in range(n):
            terms = []
            for i, a in enumerate(arg, start=1):
                rest = [X[t] for t in arg[:i - 1] + arg[i:]]
                x, y = pairs[a]
                for l in range(i + 1, q + 1):
                    slots = list(rest)
                    slots[l - 2] = oracles.leibniz_bracket(leibniz, X[a], X[arg[l - 1]])
                    terms.append(((-1) ** i, None, slots, e[z]))
                terms.append(((-1) ** i, None, rest,
                              md.algebra.bracket(e[x], e[y], e[z])))
                terms.append(((-1) ** (i + 1), oracles.rho_basis(rep, x, y), rest, e[z]))
            head = [X[t] for t in arg[:-1]]
            xq, yq = pairs[arg[-1]]
            terms.append(((-1) ** (q + 1), oracles.rho_basis(rep, yq, z), head, e[xq]))
            terms.append(((-1) ** (q + 1), oracles.rho_basis(rep, z, xq), head, e[yq]))
            blocks.append(terms)
    dim = cochain_dim(q, n, m)
    columns = []
    for col in range(dim):
        f = CochainCoordinates(q, n, m, {col: 1})
        column = []
        for terms in blocks:
            total = [Fraction(0)] * m
            for sign, action, slots, last in terms:
                value = oracles.evaluate(f, slots, last)
                if not any(value):
                    continue
                if action is not None:
                    value = action.apply(value)
                total = [t + sign * c for t, c in zip(total, value)]
            column += total
        columns.append(tuple(column))
    return columns


def test_delta_matches_coboundary_formula():
    # delta in degree >= 3 is otherwise seen only through delta^2 = 0 and
    # Phi delta = delta Phi
    rng = random.Random(12)
    dim3 = triangular_family_member(rng)
    dim4 = abelian_md(rng, 4)
    bad = invalid_bracket_md(rng)
    d_M = Matrix(2, 2, [1, 2, 0, -3])
    # on the abelian algebra every action from the bracket is 0, so it gets
    # one that satisfies no axiom
    arbitrary = Representation(4, 2, {p: random_matrix(rng, 2, 2)
                                      for p in pair_basis(4)}, d_M, dim4.lam)
    cases = [(dim3, coadjoint_representation(dim3), (1, 2, 3)),
             (dim3, trivial_representation(dim3, 2, d_M), (1, 2, 3)),
             (dim4, arbitrary, (1, 2)),
             (bad, coadjoint_representation(bad), (1, 2))]
    for md, rep, degrees in cases:
        asm = ComplexAssembly(md, rep)
        for q in degrees:
            delta = asm.delta_matrix(q)
            for col, expected in enumerate(delta_oracle(md, rep, q)):
                assert delta.column(col) == expected, (md, q, col)
    # with the adjoint action every rho, ad and bracket_F table is empty, and
    # so is every term of the formula
    asm = ComplexAssembly(dim4, adjoint_representation(dim4))
    for q in (1, 2):
        assert asm.delta_matrix(q) == Matrix.zeros(cochain_dim(q + 1, 4, 4),
                                                   cochain_dim(q, 4, 4))


# ---------------------------------------------------------------------------
# dims-only cohomology: ranks certified by det Phi mod p


def dims(summary):
    return summary.z_dim, summary.b_dim, summary.h_dim


def dims_only_cases():
    """(algebra, representation, degrees) on which the dims-only path must
    reproduce the full path."""
    rng = random.Random(31)
    trivial2 = MD3LieAlgebra(ThreeLieAlgebra.abelian(2),
                             ModifiedDifferential(Fraction(0), Matrix.zeros(2, 2)))
    dim3 = ([example_md(), trivial2]
            + [triangular_family_member(rng) for _ in range(4)]
            + [det_bracket_md(rng) for _ in range(4)])
    cases = [(md, rep(md), (1, 2, 3)) for md in dim3
             for rep in (adjoint_representation, coadjoint_representation)]
    cases.append((trivial2, trivial_representation(trivial2, 1, Matrix.zeros(1, 1)),
                  (1, 2, 3)))
    ab4 = abelian_md(rng, 4)
    cases += [(ab4, adjoint_representation(ab4), (1, 2)),
              (ab4, coadjoint_representation(ab4), (1, 2))]
    d_M = Matrix(2, 2, [1, 2, 0, -3])
    line = MD3LieAlgebra(ThreeLieAlgebra.abelian(1),
                         ModifiedDifferential(Fraction(1, 2), Matrix.from_rows([[1]])))
    plane = abelian_md(rng, 2)
    example = example_md()
    cases += [(line, adjoint_representation(line), (1, 2, 3)),
              (line, trivial_representation(line, 2, d_M), (1, 2, 3)),
              (plane, trivial_representation(plane, 2, d_M), (1, 2, 3)),
              (example, trivial_representation(example, 0, Matrix.zeros(0, 0)),
               (1, 2, 3))]
    bad = invalid_bracket_md(rng)
    cases += [(bad, adjoint_representation(bad), (1, 2)),
              (bad, coadjoint_representation(bad), (1, 2))]
    adjoint = adjoint_representation(example)
    for target in ("bracket-pair action identity", "pair action commutator identity",
                   "module differential compatibility"):
        cases.append((example, corrupt_representation(rng, example, adjoint, target),
                      (1, 2, 3)))
    return cases


@pytest.fixture(scope="module")
def eliminated():
    """(algebra, representation, q, summary by oracles.cohomology_by_elimination)
    for every dims-only case and degree."""
    return [(md, rep, q, oracles.cohomology_by_elimination(ComplexAssembly(md, rep), q))
            for md, rep, degrees in dims_only_cases() for q in degrees]


def test_dims_only_matches_the_full_path(eliminated):
    certified = []
    for md, rep, q, want in eliminated:
        summary = ComplexAssembly(md, rep).cohomology_dim(q, representatives=False)
        assert dims(summary) == dims(want), (md, rep, q)
        assert summary.representatives == []
        certified.append(bool(ComplexAssembly(md, rep).phi_det_mod_p(q)))
    # both routes to a rank are taken
    assert any(certified) and not all(certified)


def test_representatives_match_the_elimination_oracle(eliminated):
    """cohomology_dim(q) gives the oracle's dims and representatives, in
    order.  Where the lemma proves H^q = 0 it assembles no total; where
    partial_q splits by Phi's weights (the example) it pivots the weight-0
    blocks; every other job pivots the free-coordinate quotient, with no
    top block at q = 1 and on valid input, and with the product partial_q
    partial_(q-1) on top on invalid input; every route is taken.  On the
    invalid 4-dim bracket with the coadjoint action both Phi are certified
    but partial_2 partial_1 != 0, and the oracle's (9, 16, -7) at q = 2 is
    kept only by the failing axioms."""
    routes, invalid_laws = set(), {2: set(), 3: set()}
    for md, rep, q, want in eliminated:
        asm = ComplexAssembly(md, rep)
        summary = asm.cohomology_dim(q)
        assert dims(summary) == dims(want), (md, rep, q)
        assert ([tc.stacked() for tc in summary.representatives]
                == [tc.stacked() for tc in want.representatives]), (md, rep, q)
        if asm._zero_delta:
            routes.add("weight split")
        elif q not in asm._partial:
            routes.add("certified")
        elif q == 1:
            routes.add("degree 1")
        elif asm._axioms_hold:
            routes.add("valid")
        else:
            routes.add("invalid")
            invalid_laws[q] |= {v.law for v in verify_representation(md, rep).violations}
    assert routes == {"certified", "degree 1", "valid", "invalid", "weight split"}
    # every representation law, broken by corrupt_representation, builds
    # the top block at q = 2 and 3
    laws = {"bracket-pair action identity", "pair action commutator identity",
            "module differential compatibility"}
    assert invalid_laws[2] >= laws and invalid_laws[3] >= laws
    bad = invalid_bracket_md(random.Random(31))
    asm = ComplexAssembly(bad, coadjoint_representation(bad))
    assert asm.phi_det_mod_p(2) and asm.phi_det_mod_p(1)
    assert dims(asm.cohomology_dim(2)) == (9, 16, -7)


def test_dims_only_needs_the_guard():
    """On the invalid 4-dim bracket with the adjoint action Phi_2 is
    invertible, but partial_2 partial_1 != 0 and rank partial_2 is not
    dim C^2: only the failing axioms keep z_2 right."""
    md = invalid_bracket_md(random.Random(31))
    asm = ComplexAssembly(md, adjoint_representation(md))
    assert asm.phi_det_mod_p(2)
    assert not verify_3lie(md.algebra).valid
    assert not (asm.partial_matrix(2) @ asm.partial_matrix(1)).is_zero
    assert asm.partial_matrix(2).rank() == 105 != cochain_dim(2, 4, 4)
    assert (dims(asm.cohomology_dim(2, representatives=False))
            == dims(oracles.cohomology_by_elimination(asm, 2)))


def guard_blocks(asm, q):
    """Whether each block of partial_q partial_(q-1) is zero: delta_q
    delta_(q-1), Phi_q delta_(q-1) - delta_(q-1) Phi_(q-1), and (q >= 3)
    delta_(q-1) delta_(q-2)."""
    delta = asm.delta_matrix(q - 1)
    return ((asm.delta_matrix(q) @ delta).is_zero,
            asm.phi_matrix(q) @ delta == delta @ asm.phi_matrix(q - 1),
            q == 2 or (delta @ asm.delta_matrix(q - 2)).is_zero)


def test_block_guard_matches_the_full_product():
    """The blocks, and the integer product of the oracle, decide
    partial_q partial_(q-1) = 0 exactly as the Fraction product of the
    assembled totals does, on every dims-only case in degree >= 2."""
    verdicts, failing = set(), set()
    for md, rep, degrees in dims_only_cases():
        for q in degrees:
            if q < 2:
                continue
            asm = ComplexAssembly(md, rep)
            top, low = asm.partial_matrix(q), asm.partial_matrix(q - 1)
            holds = (top @ low).is_zero
            assert oracles.product_is_zero(top, low) == holds, (md, rep, q)
            blocks = guard_blocks(asm, q)
            assert holds == all(blocks)
            verdicts.add(holds)
            failing.add(blocks)
    assert verdicts == {True, False}
    # delta_q delta_(q-1) alone fails (a corrupted action at q = 3), and so
    # does Phi_q delta_(q-1) = delta_(q-1) Phi_(q-1) alone
    assert (False, True, True) in failing and (True, False, True) in failing


def test_block_guard_checks_every_block(emd, adjoint):
    """On the valid example complex, breaking any one factor of a block
    makes partial_3 partial_2 nonzero, and the blocks and the integer
    product say so."""
    delta_2 = ComplexAssembly(emd, adjoint).delta_matrix(2)
    row = next(i for i, r in enumerate(delta_2.sparse_rows) if r)
    col = next(j for r in delta_2.sparse_rows for j in r)

    def bump(mat, i, j):
        return mat + Matrix.from_entries(mat.rows, mat.cols, {(i, j): Fraction(1)})

    def plus_identity(mat):
        return mat + Matrix.identity(mat.rows)

    def composes(asm):
        holds = oracles.product_is_zero(asm.partial_matrix(3), asm.partial_matrix(2))
        assert holds == all(guard_blocks(asm, 3))
        return holds

    # (cache, degree, change): delta_3 delta_2 != 0 when delta_3 reads a
    # nonzero row of delta_2, delta_2 delta_1 != 0 when delta_1 hits a
    # nonzero column, and Phi_3 + 1 or Phi_2 + 1 breaks Phi delta = delta Phi
    changes = [("_delta", 3, lambda m: bump(m, 0, row)),
               ("_delta", 1, lambda m: bump(m, col, 0)),
               ("_phi", 3, plus_identity), ("_phi", 2, plus_identity)]
    assert composes(ComplexAssembly(emd, adjoint))
    for cache, q, change in changes:
        asm = ComplexAssembly(emd, adjoint)
        matrix = asm.delta_matrix if cache == "_delta" else asm.phi_matrix
        getattr(asm, cache)[q] = change(matrix(q))
        assert not (asm.partial_matrix(3) @ asm.partial_matrix(2)).is_zero, (cache, q)
        assert not composes(asm), (cache, q)


def pool_complexes():
    """32 triangular and 32 determinant-bracket members of the corpus, each
    with the adjoint and the coadjoint action."""
    members = ([triangular_family_member(random.Random(f"tri-{i}")) for i in range(32)]
               + [det_bracket_md(random.Random(f"det-{i}")) for i in range(32)])
    return [(md, rep(md)) for md in members
            for rep in (adjoint_representation, coadjoint_representation)]


def axioms_hold(md, rep):
    return (verify_3lie(md.algebra).valid and verify_modified_differential(md).valid
            and verify_representation(md, rep).valid)


def test_verified_axioms_make_the_totals_compose_to_zero():
    """The implication the certified ranks rest on: every complex that
    passes the verifiers has partial_q partial_(q-1) = 0 for 2 <= q <= 4
    (where the budget admits the degree-q total), and every complex where
    a product is nonzero fails a verifier.  Checked on the dims-only cases
    and the corpus pool, by the integer product of the oracle."""
    valid, nonzero = 0, 0
    complexes = [(md, rep) for md, rep, _ in dims_only_cases()] + pool_complexes()
    for md, rep in complexes:
        holds = axioms_hold(md, rep)
        asm = ComplexAssembly(md, rep)
        for q in (2, 3, 4):
            try:
                asm._total_dims(q)
            except InputError:
                continue
            zero = oracles.product_is_zero(asm.partial_matrix(q),
                                           asm.partial_matrix(q - 1))
            assert zero or not holds, (md, rep, q)
            nonzero += not zero
        valid += holds
    assert valid >= 128 and nonzero


def test_dims_only_assembles_no_total_it_certifies(monkeypatch):
    """On abelian n=5 with the adjoint action Phi_2 is certified and the
    axioms hold, so rank partial_2 needs no delta_2, Phi_2 or degree-2
    total; d has 5 distinct eigenvalues, so rank partial_1 comes from the
    commutant of d, and delta_1 is zero because the bracket and the action
    tables are empty: no delta, Phi, total or assembly table is built, and
    nothing is eliminated or turned into Fractions."""
    md = abelian_md(random.Random("md3lie-bench/ab5-0"), 5)
    asm = ComplexAssembly(md, adjoint_representation(md))
    partial_matrix = ComplexAssembly.partial_matrix

    def refuse_above_one(self, q):
        assert q < 2, q
        return partial_matrix(self, q)

    def refuse(*args):
        raise AssertionError("a matrix was eliminated")

    monkeypatch.setattr(ComplexAssembly, "partial_matrix", refuse_above_one)
    for name in ("rank", "pivot_columns", "kernel_basis"):
        monkeypatch.setattr(Matrix, name, refuse)
    assert dims(asm.cohomology_dim(2, representatives=False)) == (25, 20, 5)
    assert (set(asm._delta), set(asm._phi), set(asm._partial)) == (set(), set(), set())
    assert "_tables" not in vars(asm)
    # delta_1, assembled on request, is integer rows with no Fraction view
    assert asm.delta_matrix(1)._fraction_rows is None


def test_representatives_assemble_no_total_they_certify(monkeypatch):
    """Phi_3 and Phi_2 of a determinant-bracket member with the coadjoint
    action are certified and the axioms hold, so cohomology_dim(3) answers
    H^3 = 0 without assembling a delta, a Phi or a total, or computing a
    kernel; it calls neither leibniz_data nor verify_representation (the
    coadjoint of a valid algebra is a representation).  With the adjoint
    action Phi is singular and elimination still runs."""
    md = det_bracket_md(random.Random(31))
    asm = ComplexAssembly(md, coadjoint_representation(md))

    def refuse(*args):
        raise AssertionError("elimination path taken")

    monkeypatch.setattr(ComplexAssembly, "partial_matrix", refuse)
    monkeypatch.setattr(Matrix, "kernel_basis", refuse)
    monkeypatch.setattr(cohomology, "leibniz_data", refuse)
    monkeypatch.setattr(cohomology, "verify_representation", refuse)
    summary = asm.cohomology_dim(3)
    assert (dims(summary), summary.representatives) == ((27, 27, 0), [])
    assert not (asm._delta or asm._phi or asm._partial)
    monkeypatch.undo()
    singular = ComplexAssembly(md, adjoint_representation(md))
    assert not singular.phi_det_mod_p(3)
    assert dims(singular.cohomology_dim(3)) == (30, 24, 6)
    assert set(singular._partial) == {2, 3}


def test_an_uncertified_rank_runs_no_verifier(monkeypatch):
    """The axioms are verified only after every certificate a rank needs
    has passed: a singular Phi (the adjoint action of a determinant-bracket
    member) takes no verifier on the dims-only path, and a degree-1 request
    takes none on either path.  The representatives path of degree >= 2
    verifies them to choose the quotient, once per complex: the two algebra
    verifiers, as the adjoint of a valid algebra is a representation."""
    md = det_bracket_md(random.Random(31))
    names = ("verify_3lie", "verify_modified_differential", "verify_representation")
    calls = []

    def counted(name, verifier):
        def run(*args):
            calls.append(name)
            return verifier(*args)
        return run

    for name in names:
        monkeypatch.setattr(cohomology, name, counted(name, getattr(cohomology, name)))
    singular = ComplexAssembly(md, adjoint_representation(md))
    for q in (1, 2, 3):
        singular.cohomology_dim(q, representatives=False)
    singular.cohomology_dim(1)
    assert calls == []
    singular.cohomology_dim(2)
    singular.cohomology_dim(3)
    assert sorted(calls) == sorted(names[:2])

    def refuse(*args):
        raise AssertionError("a verifier ran")

    for name in names:
        monkeypatch.setattr(cohomology, name, refuse)
    certified = ComplexAssembly(md, coadjoint_representation(md))
    assert certified.phi_det_mod_p(1)
    for representatives in (False, True):
        assert dims(certified.cohomology_dim(1, representatives)) == (0, 0, 0)
    with pytest.raises(AssertionError, match="a verifier ran"):
        certified.cohomology_dim(2)


# ---------------------------------------------------------------------------
# the representation verdict that the algebra's verdict implies


def valid_pool_algebras():
    """The example, every member of the benchmark's DIM3_POOL, DIM6_POOL and
    AB5_POOL, and the corpus draws of pool_complexes, all valid."""
    members = [example_md()] + [md for md, rep in pool_complexes()[::2]]
    for name in ("DIM3_POOL", "DIM6_POOL", "AB5_POOL"):
        members += [md for _, md in bench_pool(name)]
    return members


def algebra_verdict(md):
    return verify_3lie(md.algebra).valid and verify_modified_differential(md).valid


def test_a_valid_algebra_implies_its_adjoint_and_coadjoint(monkeypatch):
    """The lemma _axioms_hold rests on, with the verifier as the oracle: on
    every valid pool algebra, adjoint and coadjoint pass
    verify_representation, and _axioms_hold says so without running it."""
    def refuse(*args):
        raise AssertionError("verify_representation ran")

    algebras = valid_pool_algebras()
    for md in algebras:
        assert algebra_verdict(md)
        for make in (adjoint_representation, coadjoint_representation):
            rep = make(md)
            assert verify_representation(md, rep).valid, md
            with monkeypatch.context() as mp:
                mp.setattr(cohomology, "verify_representation", refuse)
                assert ComplexAssembly(md, rep)._axioms_hold
    assert len(algebras) == 1 + 64 + 64 + 128 + 16


@st.composite
def valid_algebras(draw):
    """A valid algebra of one of the corpus families, drawn by hypothesis,
    or the semidirect product of one with its adjoint action (dim 6)."""
    rng = draw(st.randoms(use_true_random=False))
    make = draw(st.sampled_from([
        lambda rng: example_md(), triangular_family_member, det_bracket_md,
        lambda rng: abelian_md(rng, rng.randint(1, 5))]))
    md = make(rng)
    if draw(st.booleans()):
        md = semidirect_product(md, adjoint_representation(md))
    return md


@given(md=valid_algebras())
@settings(max_examples=40, deadline=None)
def test_drawn_valid_algebras_imply_their_adjoint_and_coadjoint(md):
    assert algebra_verdict(md)
    for make in (adjoint_representation, coadjoint_representation):
        rep = make(md)
        assert verify_representation(md, rep).valid
        assert rep._adjoint_of is md
        assert dual_representation(rep)._adjoint_of is md


def test_the_axiom_verdict_is_the_conjunction_of_the_verifiers(monkeypatch):
    """On every pool complex, valid or not, _axioms_hold equals the three
    verifiers' conjunction; verify_representation runs exactly when the
    algebra passes and the representation is not the adjoint or coadjoint
    built on this md object."""
    calls = []
    verify = cohomology.verify_representation

    def counted(md, rep):
        calls.append(rep)
        return verify(md, rep)

    monkeypatch.setattr(cohomology, "verify_representation", counted)
    complexes = ([(md, rep) for md, rep, _ in dims_only_cases()] + pool_complexes()
                 + [(md, make(md)) for _, md in bench_pool("DIM3_POOL")
                    for make in (adjoint_representation, coadjoint_representation)])
    verdicts, ran = set(), 0
    for md, rep in complexes:
        calls.clear()
        holds = ComplexAssembly(md, rep)._axioms_hold
        assert holds == axioms_hold(md, rep), (md, rep)
        implied = rep._adjoint_of is md
        assert len(calls) == (algebra_verdict(md) and not implied), (md, rep)
        verdicts.add(holds)
        ran += len(calls)
    assert verdicts == {True, False} and ran


def test_the_verifier_runs_on_a_representation_no_constructor_vouches_for(
        monkeypatch):
    """verify_representation still runs, and reports what it reports today,
    for a representation equal to the example's adjoint but in one entry,
    for dataclasses.replace of the adjoint (with and without a change), for
    an adjoint built on another md object (equal, or with another d), and
    for one loaded from a file equal to the adjoint."""
    md = example_md()
    adjoint = adjoint_representation(md)
    bump = Matrix.from_entries(3, 3, {(1, 0): Fraction(1)})
    other = MD3LieAlgebra(md.algebra, ModifiedDifferential(md.lam, md.d + bump))
    cases = {
        "one entry": (Representation(n=3, m=3, rho=adjoint.rho,
                                     d_M=adjoint.d_M + bump, lam=md.lam), False),
        "replace": (dataclasses.replace(adjoint), True),
        "replace d_M": (dataclasses.replace(adjoint, d_M=adjoint.d_M + bump),
                        False),
        "equal md": (adjoint_representation(
            MD3LieAlgebra(md.algebra, md.diff)), True),
        "other md": (adjoint_representation(other), False),
        "file": (documents.representation_from_doc(
            documents.representation_to_doc(adjoint), md, "adjoint.json"), True),
    }
    reports = []
    verify = cohomology.verify_representation

    def recorded(*args):
        reports.append(verify(*args))
        return reports[-1]

    monkeypatch.setattr(cohomology, "verify_representation", recorded)
    for name, (rep, valid) in cases.items():
        reports.clear()
        assert ComplexAssembly(md, rep)._axioms_hold is valid, name
        (report,) = reports
        assert report == verify_representation(md, rep), name
        laws = {v.law for v in report.violations}
        assert report.valid is valid
        assert valid or laws == {"module differential compatibility"}
    reports.clear()
    for rep in (adjoint, coadjoint_representation(md)):
        assert ComplexAssembly(md, rep)._axioms_hold
    assert reports == []


def test_the_implied_verdict_leaves_every_report_as_it_was(monkeypatch, tmp_path,
                                                           capsys):
    """cohomology --representatives on the example and a seeded sample of
    the benchmark's DIM3_POOL, both actions, q = 1..3, prints the same
    bytes with the implied verdict turned off (the CLI's constructors hand
    out copies that no constructor vouches for) and on; off, the
    representation verifier runs, on, it never does.  The example's
    adjoint from a file reports what --rep adjoint reports."""
    members = [("example", example_md())] + random.Random("implied").sample(
        bench_pool("DIM3_POOL"), 8)
    paths = []
    for key, md in members:
        paths.append(tmp_path / f"{key}.json")
        paths[-1].write_text(documents.serialize_algebra(md), encoding="utf-8")
    rep_file = tmp_path / "adjoint.json"
    rep_file.write_text(json.dumps(documents.representation_to_doc(
        adjoint_representation(example_md()))), encoding="utf-8")
    calls = []
    verify = cohomology.verify_representation

    def counted(*args):
        calls.append(args)
        return verify(*args)

    def reports(argvs):
        out = []
        for argv in argvs:
            code = run_command(argv)
            out.append((code, capsys.readouterr()))
        return out

    argvs = [["cohomology", str(path), "--rep", rep, "--degree", str(q),
              "--representatives"]
             for path in paths for rep in ("adjoint", "coadjoint")
             for q in (1, 2, 3)]
    monkeypatch.setattr(cohomology, "verify_representation", counted)
    on = reports(argvs)
    assert calls == []
    for name in ("adjoint_representation", "coadjoint_representation"):
        make = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda md, make=make: dataclasses.replace(make(md)))
    off = reports(argvs)
    assert calls and all(verify(*args).valid for args in calls)
    assert off == on
    assert all(code == 0 and out.out for code, out in on)

    def without_argv(out):
        return [(code, {k: v for k, v in json.loads(o.out).items() if k != "argv"})
                for code, o in out]

    from_file = reports([argv[:3] + [str(rep_file)] + argv[4:]
                         for argv in argvs[:3]])
    assert without_argv(from_file) == without_argv(on[:3])


def with_weight(md, lam):
    return MD3LieAlgebra(md.algebra, ModifiedDifferential(Fraction(lam), md.d))


def test_verify_takes_the_implied_verdict_and_prints_the_same_report(
        monkeypatch, tmp_path, capsys):
    """verify --rep adjoint|coadjoint on the example, a seeded sample of the
    benchmark's DIM3_POOL and DIM6_POOL, every other one of those with the
    weight changed to 7/3, and the example at weight 0 (all but the abelian
    one fail the modified differential rule), plus the example with its
    adjoint from a file: the same bytes with the implied verdict on, turned
    off (the constructors hand out dataclasses.replace copies) and turned
    off by building the adjoint on another, equal, algebra object.  On,
    verify_representation runs exactly when the algebra fails or the
    representation comes from a file; off, on every command."""
    rng = random.Random("verify-implied")
    valid = ([("example", example_md())] + rng.sample(bench_pool("DIM3_POOL"), 8)
             + rng.sample(bench_pool("DIM6_POOL"), 4))
    changed = ([(f"{key}-7_3", with_weight(md, Fraction(7, 3)))
                for key, md in valid[::2]]
               + [("example_lambda0", with_weight(example_md(), 0))])
    assert all(algebra_verdict(md) for _, md in valid)
    paths, fails = {}, set()
    for key, md in valid + changed:
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(documents.serialize_algebra(md), encoding="utf-8")
        if not algebra_verdict(md):
            fails.add(str(paths[key]))
    # an abelian bracket passes at any weight
    assert len(fails) == len(changed) - 1
    rep_file = tmp_path / "adjoint.json"
    rep_file.write_text(json.dumps(documents.representation_to_doc(
        adjoint_representation(example_md()))), encoding="utf-8")
    argvs = [["verify", str(paths[key]), "--rep", rep]
             for key, _ in valid + changed for rep in ("adjoint", "coadjoint")]
    argvs.append(["verify", str(paths["example"]), "--rep", str(rep_file)])
    calls = []
    verify = cli.verify_representation

    def counted(*args):
        calls.append(args)
        return verify(*args)

    def reports():
        for argv in argvs:
            calls.clear()
            code = run_command(argv)
            yield (code, capsys.readouterr()), len(calls)

    monkeypatch.setattr(cli, "verify_representation", counted)
    on = list(reports())
    assert [ran for _, ran in on] == [
        int(argv[1] in fails or argv[3] == str(rep_file)) for argv in argvs]
    assert [code for (code, _), _ in on] == [int(argv[1] in fails) for argv in argvs]
    constructors = {name: getattr(cli, name) for name in
                    ("adjoint_representation", "coadjoint_representation")}
    for unvouched in (lambda md, make: dataclasses.replace(make(md)),
                      lambda md, make: make(MD3LieAlgebra(md.algebra, md.diff))):
        for name, make in constructors.items():
            monkeypatch.setattr(cli, name, lambda md, make=make, build=unvouched:
                                build(md, make))
        off = list(reports())
        assert [ran for _, ran in off] == [1] * len(argvs)
        assert [report for report, _ in off] == [report for report, _ in on]


def test_verify_checks_a_representation_one_entry_off_the_adjoint(tmp_path,
                                                                 capsys):
    """A file equal to the example's adjoint but in one entry of d_M is
    verified and fails with the witnesses verify_representation gives."""
    md = example_md()
    adjoint = adjoint_representation(md)
    rep = Representation(n=3, m=3, rho=adjoint.rho, lam=md.lam,
                         d_M=adjoint.d_M + Matrix.from_entries(
                             3, 3, {(1, 0): Fraction(1)}))
    alg_file, rep_file = tmp_path / "example.json", tmp_path / "near.json"
    alg_file.write_text(documents.serialize_algebra(md), encoding="utf-8")
    rep_file.write_text(json.dumps(documents.representation_to_doc(rep)),
                        encoding="utf-8")
    assert run_command(["verify", str(alg_file), "--rep", str(rep_file)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == {"fundamental identity": True,
                             "modified differential rule": True,
                             "representation": False}
    report = verify_representation(md, rep)
    assert doc["witnesses"] == cli._witness_docs(report) != []
    assert {w["law"] for w in doc["witnesses"]} == {
        "module differential compatibility"}


def test_the_quotient_back_substitutes_only_the_representatives(monkeypatch):
    """An uncertified job pivots on the free rows of partial_q: it builds no
    kernel matrix and back-substitutes one kernel vector per representative,
    its representatives are exactly what one Matrix.kernel_basis(free) call
    on partial_q returns, and its answer is the oracle's.  The jobs: a valid
    degree-3 one (a triangular member with the adjoint action), the invalid
    4-dim bracket with the coadjoint action at q = 2, and a corrupted action
    at q = 3."""
    tri = triangular_family_member(random.Random("tri-0"))
    bad = invalid_bracket_md(random.Random(31))
    example = example_md()
    corrupt = corrupt_representation(
        random.Random(5), example, adjoint_representation(example),
        "pair action commutator identity")
    back_substitute = exactnum._back_substitute
    kernel_basis = Matrix.kernel_basis
    calls, kernels = [], []

    def counted(*args):
        calls.append(args)
        return back_substitute(*args)

    def recorded(self, free=None):
        kernels.append((self, free, kernel_basis(self, free)))
        return kernels[-1][2]

    def refuse(*args):
        raise AssertionError("a kernel matrix was built")

    jobs = [(tri, adjoint_representation(tri), 3, True),
            (bad, coadjoint_representation(bad), 2, False),
            (example, corrupt, 3, False)]
    answers = []
    for md, rep, q, valid in jobs:
        asm = ComplexAssembly(md, rep)
        assert asm._axioms_hold is valid and not asm._full_rank_proved(q, q - 1)
        calls.clear()
        kernels.clear()
        monkeypatch.setattr(exactnum, "_back_substitute", counted)
        monkeypatch.setattr(Matrix, "from_columns", refuse)
        monkeypatch.setattr(Matrix, "kernel_basis", recorded)
        summary = asm.cohomology_dim(q)
        monkeypatch.undo()
        assert len(calls) == len(summary.representatives) > 0, (md, rep, q)
        ((total, free, vectors),) = kernels
        assert total is asm.partial_matrix(q) and len(free) == len(calls)
        assert [tc.stacked() for tc in summary.representatives] == vectors
        want = oracles.cohomology_by_elimination(ComplexAssembly(md, rep), q)
        assert dims(summary) == dims(want)
        assert ([tc.stacked() for tc in summary.representatives]
                == [tc.stacked() for tc in want.representatives])
        answers.append(dims(summary))
    assert answers[1] == (9, 16, -7)


def scaled_complexes():
    """The example and triangular and determinant-bracket members whose
    tables have denominators 1, 2, 3 and 6, with both actions."""
    members = [example_md(), triangular_family_member(random.Random("tri-0")),
               triangular_family_member(random.Random("tri-1")),
               det_bracket_md(random.Random("det-0"))]
    return [(md, rep(md)) for md in members
            for rep in (adjoint_representation, coadjoint_representation)]


def test_integer_assembly_matches_the_direct_residuals():
    """Assembled over integers scaled by the tables' common denominator, the
    totals of degrees 1 and 2 are the direct residual matrices of the
    displayed cocycle identities (oracles.direct_cocycle_matrix), entry by
    entry, whatever that denominator is."""
    dens = set()
    for md, rep in scaled_complexes():
        asm = ComplexAssembly(md, rep)
        for q in (1, 2):
            assert asm.partial_matrix(q) == oracles.direct_cocycle_matrix(md, rep, q)
        dens.add(asm._tables.den)
    assert dens == {1, 2, 3, 6}


def test_integer_and_fraction_forms_of_the_complex_agree():
    """delta_q, Phi_q and partial_q for q = 1..3 are born with integer rows;
    the Fraction-built matrix of their dense rows equals each under == and
    hash and agrees in apply, in products and in the echelon form."""
    rng = random.Random(33)
    for md, rep in scaled_complexes():
        asm = ComplexAssembly(md, rep)
        for q in (1, 2, 3):
            for m in (asm.delta_matrix(q), asm.phi_matrix(q), asm.partial_matrix(q)):
                assert m._fraction_rows is None
                fresh = Matrix._raw(m.rows, m.cols, int_rows=m._int_rows)
                ref = Matrix.from_rows([m.row(i) for i in range(m.rows)])
                assert m == ref and hash(m) == hash(ref) and m.entries == ref.entries
                v = random_vector(rng, m.cols)
                assert fresh.apply(v) == ref.apply(v)
                left = Matrix.from_rows([random_vector(rng, m.rows)])
                right = Matrix.from_columns([v], m.cols)
                assert m @ right == ref @ right and left @ m == left @ ref
                assert fresh._echelon() == ref._echelon()


def test_the_quotient_is_the_boundary_on_the_free_rows_beside_the_identity(
        monkeypatch):
    """The z-row matrix that the quotient lemma pivots is exactly
    [partial_(q-1)|_F | I_z], in integer rows over the boundary's
    denominators (here 3 and 2)."""
    stacked = []
    pivot_columns = Matrix.pivot_columns

    def recorded(self):
        stacked.append(self)
        return pivot_columns(self)

    monkeypatch.setattr(Matrix, "pivot_columns", recorded)
    for md in (triangular_family_member(random.Random("tri-0")),
               det_bracket_md(random.Random("det-0"))):
        asm = ComplexAssembly(md, adjoint_representation(md))
        for q in (2, 3):
            stacked.clear()
            summary = asm.cohomology_dim(q)
            total, quotient = stacked
            boundary = asm.partial_matrix(q - 1)
            pivots = set(pivot_columns(total))
            free = [c for c in range(total.cols) if c not in pivots]
            assert len(free) == summary.z_dim > 0
            assert quotient._fraction_rows is None
            assert {den for _, den in quotient._int_rows} == {asm._tables.den} != {1}
            assert quotient == Matrix.hstack([
                Matrix.from_rows([boundary.row(f) for f in free]),
                Matrix.identity(len(free))])


def test_a_valid_degree_3_job_reads_integer_rows_only(monkeypatch, tmp_path, capsys):
    """The CLI job cohomology --degree 3 --representatives on a valid,
    uncertified complex (a triangular member with the adjoint action)
    assembles, stacks and eliminates integer rows end to end: no
    integer-built matrix builds its Fraction rows, and no Fraction row is
    converted to integers.  Its report is the one it gives unrestricted."""
    md = triangular_family_member(random.Random("tri-0"))
    asm = ComplexAssembly(md, adjoint_representation(md))
    assert asm._axioms_hold and not asm._full_rank_proved(3, 2)
    path = tmp_path / "tri-0.json"
    path.write_text(documents.serialize_algebra(md), encoding="utf-8")
    argv = ["cohomology", str(path), "--rep", "adjoint", "--degree", "3",
            "--representatives"]
    assert run_command(argv) == 0
    want = capsys.readouterr()

    def refuse(*args):
        raise AssertionError("a Fraction row was read or converted")

    fraction_rows = Matrix.sparse_rows.fget

    def no_fraction_view(self):
        if self._fraction_rows is None:
            refuse()
        return fraction_rows(self)

    monkeypatch.setattr(exactnum, "_integer_row", refuse)
    monkeypatch.setattr(Matrix, "sparse_rows", property(no_fraction_view))
    assert run_command(argv) == 0
    assert capsys.readouterr() == want


def test_certificates_share_the_characteristic_polynomials(monkeypatch):
    """Phi_3 and Phi_2 have the factors d_F, d and -d_M.  Where d has no
    exact spectrum (this triangular member's 2 x 2 block has an irrational
    discriminant), a certified cohomology_dim(3) takes the characteristic
    polynomials of d and -d_M once, on both paths, and d_F's from d's: it
    builds no leibniz_data and no scaled table.  A degree-1 certificate,
    whose Phi_1 has no d_F factor, computes no polynomial of d_F."""
    md = triangular_family_member(random.Random(2))
    charpoly = exactnum._charpoly_mod
    calls = []

    def counted(a, p):
        calls.append(p)
        return charpoly(a, p)

    monkeypatch.setattr(exactnum, "_charpoly_mod", counted)
    for representatives in (True, False):
        calls.clear()
        asm = ComplexAssembly(md, coadjoint_representation(md))
        assert dims(asm.cohomology_dim(3, representatives)) == (27, 27, 0)
        assert asm._phi_det._spectra is None and len(calls) == 2
        assert "_leibniz" not in vars(asm) and "_tables" not in vars(asm)
        assert asm.phi_det_mod_p(3) and len(calls) == 2
    calls.clear()
    asm = ComplexAssembly(md, coadjoint_representation(md))
    assert dims(asm.cohomology_dim(1)) == (0, 0, 0)
    assert len(calls) == 2 and "_pair" not in vars(asm._phi_det)


def test_the_pair_polynomial_is_that_of_d_F():
    """The certificate's d_F factor on the polynomial path (forced: the
    exact spectra withheld), taken from d's characteristic polynomial, is
    that of leibniz_data's d_F on every pool algebra and on every dims-only
    complex, valid or not."""
    algebras = valid_pool_algebras() + [md for md, _, _ in dims_only_cases()]
    for md in algebras:
        asm = ComplexAssembly(md, adjoint_representation(md))
        asm._phi_det._spectra = None
        assert asm._phi_det._pair == exactnum.charpoly_mod_p(leibniz_data(md).d_F), md
        assert "_leibniz" not in vars(asm)


@pytest.mark.parametrize("representatives", [False, True])
def test_budget_refusal_comes_before_the_certificate(emd, adjoint, monkeypatch,
                                                      representatives):
    """The degree-9 total (236196 x 78732) is refused by arithmetic alone;
    the certificate's power sums there (M = 6561) would run for long."""
    def certificate(self, q):
        raise AssertionError(f"certificate asked at degree {q}")

    monkeypatch.setattr(ComplexAssembly, "phi_det_mod_p", certificate)
    asm = ComplexAssembly(emd, adjoint)
    with pytest.raises(InputError, match="a 236196 x 78732 matrix exceeds the "
                       "assembly budget"):
        asm.cohomology_dim(9, representatives=representatives)
    assert not (asm._delta or asm._phi or asm._partial)


def test_phi_certificate_agrees_with_exact_elimination():
    answered = 0
    for md, rep, degrees in dims_only_cases():
        asm = ComplexAssembly(md, rep)
        for q in degrees:
            det = asm.phi_det_mod_p(q)
            phi = asm.phi_matrix(q)
            assert det is not None
            answered += 1
            assert det == det_mod_p([phi.row(i) for i in range(phi.rows)],
                                    exactnum.CERTIFICATE_PRIME)
            assert det == oracles.phi_det(md, rep, q), (md, rep, q)
            assert bool(det) == (phi.rank() == phi.rows), (md, rep, q)
    assert answered


def test_phi_certificate_holds_on_abelian_five():
    """Phi_2 is invertible on each member of the benchmark's abelian n=5
    pool (its instances use the seeds md3lie-bench/ab5-<i>), so their
    dims-only degree-2 answers skip eliminating it."""
    for i in (0, 2, 4, 8, 9, 11, 12, 13, 17, 19, 20, 23, 28, 29, 30, 31):
        md = abelian_md(random.Random(f"md3lie-bench/ab5-{i}"), 5)
        rep = adjoint_representation(md)
        asm = ComplexAssembly(md, rep)
        det = asm.phi_det_mod_p(2)
        assert det, i
        assert det == oracles.phi_det(md, rep, 2), i
    assert dims(asm.cohomology_dim(2, representatives=False)) == (25, 20, 5)


def test_phi_certificate_in_degree_three_on_abelian_algebras():
    # Phi_3 is 2500 x 2500 on n = 5 and 576 x 576 on n = 4; neither is built
    md = abelian_md(random.Random("md3lie-bench/ab5-0"), 5)
    assert ComplexAssembly(md, adjoint_representation(md)).phi_det_mod_p(3)
    ab4 = abelian_md(random.Random(31), 4)
    for rep in (adjoint_representation(ab4), coadjoint_representation(ab4)):
        assert (ComplexAssembly(ab4, rep).phi_det_mod_p(3)
                == oracles.phi_det(ab4, rep, 3))


def test_certificate_declines_a_prime_dividing_a_denominator(monkeypatch):
    def complex_with(entry):
        md = MD3LieAlgebra(ThreeLieAlgebra.abelian(2), ModifiedDifferential(
            Fraction(1, 2), Matrix.from_rows([[1, entry], [0, 2]])))
        return ComplexAssembly(md, trivial_representation(
            md, 1, Matrix.from_rows([[Fraction(1, 3)]])))

    want = [dims(complex_with(Fraction(1, 7)).cohomology_dim(q)) for q in (1, 2, 3)]
    assert complex_with(Fraction(1, 7)).phi_det_mod_p(1)
    # d is triangular: the certificate takes the exact path
    assert complex_with(Fraction(1, 7))._phi_det._spectra is not None
    monkeypatch.setattr(exactnum, "CERTIFICATE_PRIME", 7)
    for q in (1, 2, 3):
        asm = complex_with(Fraction(1, 7))
        assert asm.phi_det_mod_p(q) is None
        assert dims(asm.cohomology_dim(q, representatives=False)) == want[q - 1]
        # the same complex with 1 in place of 1/7 is decided mod 7
        assert complex_with(Fraction(1)).phi_det_mod_p(q) is not None


def certificate_cases():
    """(md, rep, degrees): every dims-only complex, and the example and every
    DIM3_POOL member with both actions, at q = 1..4; n = 4 stops at q = 3,
    where the oracle's O(N^2) power sums already take 0.1 s."""
    cases = [(md, rep, (1, 2, 3, 4) if md.n < 4 else (1, 2, 3))
             for md, rep, _ in dims_only_cases()]
    for md in [example_md()] + [md for _, md in bench_pool("DIM3_POOL")]:
        cases += [(md, make(md), (1, 2, 3, 4))
                  for make in (adjoint_representation, coadjoint_representation)]
    return cases


def test_both_certificate_paths_match_the_oracle():
    """phi_det_mod_p, on the path the input takes and on the polynomial path
    forced (an assembly whose exact spectra are withheld), is the oracle's
    det Phi_q mod p.  Both paths are taken: d is k I on det members and
    diagonal on the example, and 21 of the 32 tri members have a 2 x 2
    block with an irrational spectrum."""
    paths = set()
    for md, rep, degrees in certificate_cases():
        asm, forced = ComplexAssembly(md, rep), ComplexAssembly(md, rep)
        forced._phi_det._spectra = None
        for q in degrees:
            want = oracles.phi_det(md, rep, q)
            assert asm.phi_det_mod_p(q) == want == forced.phi_det_mod_p(q), (md, rep, q)
        paths.add(asm._phi_det._spectra is not None)
    assert paths == {True, False}


def operator_with_block(block):
    """A 3 x 3 operator with the given 2 x 2 block on e_1, e_2 and 5 on e_3,
    coupled above the diagonal."""
    (a, b), (c, e) = block
    return Matrix.from_rows([[a, b, 1], [c, e, -2], [0, 0, 5]])


@pytest.mark.parametrize("block, rational", [
    ([[1, 2], [2, 1]], True),  # discriminant 16
    ([[Fraction(1, 2), Fraction(3, 4)], [Fraction(1, 3), Fraction(1, 2)]], True),
    ([[2, 1], [-1, 0]], True),  # discriminant 0: one eigenvalue, twice
    ([[1, 2], [3, 4]], False),  # discriminant 33
    ([[Fraction(1, 2), 3], [Fraction(1, 3), Fraction(5, 2)]], False),  # 8
    ([[0, 1], [-1, 0]], False),  # -4
], ids=["square", "square-fractions", "double", "33", "8", "negative"])
def test_two_by_two_blocks_choose_the_path(block, rational):
    """A 2 x 2 block in d or in d_M takes the exact path exactly when its
    discriminant is a rational square; the certificate is the oracle's
    either way."""
    d = operator_with_block(block)
    md = MD3LieAlgebra(ThreeLieAlgebra.abelian(3), ModifiedDifferential(Fraction(1, 3), d))
    plain = MD3LieAlgebra(ThreeLieAlgebra.abelian(3),
                          ModifiedDifferential(Fraction(1, 3), Matrix.diagonal([1, 2, 3])))
    for md, rep in ((md, adjoint_representation(md)), (md, coadjoint_representation(md)),
                    (plain, trivial_representation(plain, 3, d))):
        asm = ComplexAssembly(md, rep)
        for q in (1, 2, 3, 4):
            assert asm.phi_det_mod_p(q) == oracles.phi_det(md, rep, q), (block, q)
        assert (asm._phi_det._spectra is not None) == rational


def test_a_representation_file_with_a_cyclic_d_M_takes_the_polynomial_path(
        monkeypatch, tmp_path, capsys):
    """The example's d is diagonal, but a representation file whose d_M
    permutes e_1 -> e_2 -> e_3 -> e_1 (one component of three indices) has
    no exact spectrum: the certificate is the resultant of the polynomial
    halves, and the report is the one full elimination gives."""
    md = example_md()
    d_M = Matrix.from_rows([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    rep = trivial_representation(md, 3, d_M)
    algebra, module = tmp_path / "example.json", tmp_path / "cyclic.json"
    algebra.write_text(documents.serialize_algebra(md), encoding="utf-8")
    documents.dump_json(str(module), documents.representation_to_doc(rep))
    halves = []
    from_halves = exactnum.kronecker_sum_det_from_halves

    def counted(a, b):
        halves.append((a, b))
        return from_halves(a, b)

    def refuse(*args):
        raise AssertionError("the exact path answered")

    monkeypatch.setattr(exactnum, "kronecker_sum_det_from_halves", counted)
    monkeypatch.setattr(exactnum, "spectrum_det_mod_p", refuse)
    for q in (1, 2, 3):
        halves.clear()
        argv = ["cohomology", str(algebra), "--rep", str(module), "--degree", str(q)]
        assert run_command(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert halves
        asm = ComplexAssembly(md, rep)
        want = oracles.cohomology_by_elimination(asm, q)
        assert (report["z_dim"], report["b_dim"], report["h_dim"]) == dims(want), q
        assert asm._phi_det._spectra is None
        assert asm.phi_det_mod_p(q) == oracles.phi_det(md, rep, q)


@pytest.mark.parametrize("key, rep, q", [
    ("det-0", "coadjoint", 3), ("det-5", "coadjoint", 2), ("example", "coadjoint", 1)])
def test_a_certified_job_with_exact_spectra_takes_no_characteristic_polynomial(
        monkeypatch, tmp_path, capsys, key, rep, q):
    """A certified --representatives job on a det member (d = k I) or on the
    example (d diagonal) answers from the exact spectra: no characteristic
    polynomial, no leibniz_data, and the report has H = 0 and no
    representatives."""
    md = example_md() if key == "example" else dict(bench_pool("DIM3_POOL"))[key]
    path = tmp_path / f"{key}.json"
    path.write_text(documents.serialize_algebra(md), encoding="utf-8")

    def refuse(*args):
        raise AssertionError("a characteristic polynomial or leibniz_data was built")

    monkeypatch.setattr(exactnum, "_charpoly_mod", refuse)
    monkeypatch.setattr(cohomology, "leibniz_data", refuse)
    argv = ["cohomology", str(path), "--rep", rep, "--degree", str(q),
            "--representatives"]
    assert run_command(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["h_dim"] == 0 and report["representatives"] == []


@pytest.mark.parametrize("representatives", [False, True])
def test_a_degree_one_adjoint_job_takes_no_spectrum_and_no_polynomial(
        monkeypatch, tmp_path, capsys, representatives):
    """With --rep adjoint, d_M is d, so Phi_1 = d^T (+) -d has the eigenvalue
    0: the certificate is 0 at once.  With --representatives the degree-1
    job eliminates with no rational_spectrum and no characteristic
    polynomial.  Dims only, it reads d's spectrum or polynomial (n x n) to
    ask whether d has distinct eigenvalues, and none of Phi_1 or d_F: the
    example (diagonal d, exact spectra) and a tri member with an irrational
    2 x 2 block (polynomials) answer from the commutant of d, and eliminate
    no partial_1 (at most delta_1 K, of n columns); a det member (d = k I)
    eliminates partial_1.  Each report is the one full elimination gives."""
    pool = dict(bench_pool("DIM3_POOL"))
    cases = {"det-4": pool["det-4"], "tri-2": triangular_family_member(random.Random(2)),
             "example": example_md()}
    sizes, eliminated = [], []

    def refuse(*args):
        raise AssertionError("a spectrum or a characteristic polynomial was computed")

    def d_only(compute):
        def run(f, *args):
            sizes.append(len(f) if isinstance(f, list) else f.rows)
            return compute(f, *args)
        return run if not representatives else refuse

    def counted(rank):
        def run(self):
            eliminated.append((self.rows, self.cols))
            return rank(self)
        return run

    monkeypatch.setattr(exactnum, "rational_spectrum", d_only(exactnum.rational_spectrum))
    monkeypatch.setattr(exactnum, "_charpoly_mod", d_only(exactnum._charpoly_mod))
    for name in ("wedge_spectrum", "kronecker_sum_spectrum", "wedge_charpoly_mod_p",
                 "kronecker_sum_charpoly_mod_p", "kronecker_sum_det_from_halves"):
        monkeypatch.setattr(exactnum, name, refuse)
    monkeypatch.setattr(Matrix, "rank", counted(Matrix.rank))
    for key, md in cases.items():
        path = tmp_path / f"{key}.json"
        path.write_text(documents.serialize_algebra(md), encoding="utf-8")
        argv = ["cohomology", str(path), "--rep", "adjoint", "--degree", "1"]
        eliminated.clear()
        assert run_command(argv + ["--representatives"] * representatives) == 0
        report = json.loads(capsys.readouterr().out)
        if not representatives:
            # the commutant's delta_1 K has at most n columns; partial_1 has n^2
            assert (max((c for _, c in eliminated), default=0) == md.n ** 2) == (
                key == "det-4"), key
        asm = ComplexAssembly(md, adjoint_representation(md))
        assert asm.phi_det_mod_p(1) == 0
        want = oracles.cohomology_by_elimination(asm, 1)
        assert (report["z_dim"], report["b_dim"], report["h_dim"]) == dims(want), key
    assert all(size <= 3 for size in sizes) and (not representatives) == bool(sizes)


def abelian_with(d):
    return MD3LieAlgebra(ThreeLieAlgebra.abelian(d.rows),
                         ModifiedDifferential(Fraction(0), d))


def commutant_cases():
    """(key, algebra): the example, every DIM3_POOL, AB3_POOL and AB5_POOL
    member, abelian n = 0, 1 and 2, and abelian n = 3 with k I and the
    cyclic J_2(1) (+) (2) (exact spectra, a repeated eigenvalue), and with
    diag(1, 1, 2) and diag(1, -1, 2) conjugated by a dense P, which puts
    d's pattern in one strongly connected block (polynomials; the first
    has a repeated eigenvalue, the second a singular coadjoint Phi_1); and
    random brackets and d at n = 3 and 4, which fail the axioms."""
    cases = [("example", example_md())]
    for name in ("DIM3_POOL", "AB3_POOL", "AB5_POOL"):
        cases += bench_pool(name)
    cases += [(f"ab{n}", abelian_md(random.Random(f"commutant-{n}"), n)) for n in (0, 1, 2)]
    cases += [(f"random{n}-{i}", random_md(random.Random(f"commutant-{n}-{i}"), n))
              for n in (3, 4) for i in range(2)]
    P = Matrix.from_rows([[1, 1, 1], [1, 2, 3], [1, 3, 6]])
    cases += [("3I", abelian_with(Matrix.identity(3).scale(3))),
              ("J2(1)+(2)", abelian_with(Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]])))]
    cases += [(f"P^-1 diag{diag} P", abelian_with(P.inverse() @ Matrix.diagonal(diag) @ P))
              for diag in ((1, 1, 2), (1, -1, 2))]
    return cases


def commutant_image_is_zero(asm):
    """Whether delta_1 kills I, d, ..., d^(n-1) as degree-1 cochains, by
    Fraction matrix powers and dense products."""
    power = Matrix.identity(asm.md.n)
    for _ in range(asm.md.n):
        cochain = CochainCoordinates.from_linear_map(power)
        if not vec_is_zero(asm.delta_matrix(1).apply(cochain.coords)):
            return False
        power = asm.md.d @ power
    return True


def test_the_degree_one_adjoint_rank_from_the_commutant_is_that_of_elimination():
    """Dims only, at q = 1 (z) and q = 2 (b), rank partial_1 is that of the
    eliminated partial_matrix(1) on every commutant_cases() complex with
    both actions, and up to n = 3 the whole (z, b, h) at q = 2 is that of
    full elimination.  The commutant route (Phi_1 singular, and partial_1 never
    assembled) is taken exactly where d_M = d (the adjoint, or a coadjoint
    with d = -d^T) and d has n >= 1 distinct eigenvalues
    (oracles.has_distinct_eigenvalues), and it is
    taken both where delta_1 kills Q[d] (abelian) and where it does not, so
    the rank(delta_1 K) term is read."""
    taken = Counter()
    for key, md in commutant_cases():
        distinct = oracles.has_distinct_eigenvalues(md.d)
        for make in (adjoint_representation, coadjoint_representation):
            rep = make(md)
            want = ComplexAssembly(md, rep).partial_matrix(1).rank()
            route = rep.d_M == md.d and md.n > 0 and distinct
            for q in (1, 2):
                asm = ComplexAssembly(md, rep)
                summary = asm.cohomology_dim(q, representatives=False)
                got = summary.b_dim if q == 2 else md.n * rep.m - summary.z_dim
                assert got == want, (key, make.__name__, q)
                if q == 2 and md.n <= 3:
                    full = oracles.cohomology_by_elimination(ComplexAssembly(md, rep), 2)
                    assert dims(summary) == dims(full), (key, make.__name__)
                took = asm.phi_det_mod_p(1) == 0 and 1 not in asm._partial
                assert took == route, (key, make.__name__, q)
            if route:
                taken[commutant_image_is_zero(asm)] += 1
    assert taken[True] >= 32 and taken[False] >= 32, taken


def test_an_action_on_an_abelian_algebra_still_assembles_delta_1():
    """The commutant route reads delta_1 = 0 off empty bracket and action
    tables, so an abelian algebra whose representation acts (here rho(e_0,
    e_1) = I, with d_M = d of distinct eigenvalues) still assembles delta_1,
    whose image of Q[d] is nonzero, and its degree-1 (z, b, h) is that of
    full elimination; so is the example's adjoint, whose bracket is not
    empty."""
    abelian, example = abelian_with(Matrix.diagonal([1, 2, 3])), example_md()
    acting = Representation(n=3, m=3, rho={(0, 1): Matrix.identity(3)},
                            d_M=abelian.d, lam=abelian.lam)
    for md, rep in ((abelian, acting), (example, adjoint_representation(example))):
        asm = ComplexAssembly(md, rep)
        summary = asm.cohomology_dim(1, representatives=False)
        assert 1 in asm._delta and 1 not in asm._partial
        assert not commutant_image_is_zero(asm)
        want = oracles.cohomology_by_elimination(ComplexAssembly(md, rep), 1)
        assert dims(summary) == dims(want)


def test_degree_one_and_abelian_five_jobs_build_no_pair_tables(monkeypatch):
    """delta_1 and Phi_1 read the bracket, the action, d and d_M only, so a
    degree-1 job builds no leibniz_data even where it eliminates.  A
    dims-only degree-2 job on an abelian n = 5 member, whose Phi_2 is
    certified and whose rank partial_1 comes from the commutant of d with
    empty bracket and action tables, builds no assembly table at all.
    Degree 2 and up, where the pair tables are read, still assemble with
    the one denominator."""
    def refuse(md):
        raise AssertionError("leibniz_data was built")

    monkeypatch.setattr(cohomology, "leibniz_data", refuse)
    tri = triangular_family_member(random.Random("tri-0"))
    for md in (example_md(), tri, det_bracket_md(random.Random("det-0"))):
        for make in (adjoint_representation, coadjoint_representation):
            asm = ComplexAssembly(md, make(md))
            summary = asm.cohomology_dim(1)
            assert dims(summary) == dims(oracles.cohomology_by_elimination(asm, 1))
            assert "_leibniz" not in vars(asm) and "_pair_tables" not in vars(asm)
    ab5 = abelian_md(random.Random("md3lie-bench/ab5-0"), 5)
    asm = ComplexAssembly(ab5, adjoint_representation(ab5))
    assert dims(asm.cohomology_dim(2, representatives=False)) == (25, 20, 5)
    assert "_tables" not in vars(asm) and "_leibniz" not in vars(asm)
    monkeypatch.undo()
    # d and the action are integral, and only d_F's diagonal d_ii + d_jj +
    # lam carries lam's denominator: the tables know it before d_F is built
    half = MD3LieAlgebra(ThreeLieAlgebra.abelian(3),
                         ModifiedDifferential(Fraction(1, 2), Matrix.diagonal([1, 2, 3])))
    for md in (tri, half):
        asm = ComplexAssembly(md, adjoint_representation(md))
        assert asm.partial_matrix(1) == oracles.direct_cocycle_matrix(md, asm.rep, 1)
        den = asm._tables.den
        assert "_leibniz" not in vars(asm)
        assert asm.partial_matrix(2) == oracles.direct_cocycle_matrix(md, asm.rep, 2)
        for mat in (asm.delta_matrix(1), asm.phi_matrix(2), asm.delta_matrix(2)):
            assert {d for _, d in mat._int_rows} == {den}
    assert den == 2


# ---------------------------------------------------------------------------
# the weight split where d and d_M are diagonal


def with_diagonal_d(md):
    """md with the off-diagonal entries of d dropped, at the same weight."""
    return MD3LieAlgebra(md.algebra, ModifiedDifferential(
        md.lam, Matrix.diagonal([md.d[i, i] for i in range(md.n)])))


def diagonal_complexes():
    """(name, algebra, representation) with diagonal d and d_M: the example,
    four members of its family with d made diagonal (the family admits any
    d with d_21 = d_31 = 0 at weight -(d_22 + d_33)), abelian n = 1 and
    n = 2, trivial modules with a diagonal d_M over n = 1, 2 and 3, a
    determinant-bracket member (d = k I: Phi = 0 for the adjoint, certified
    for the coadjoint), trivial2 (every weight 0), and two invalid inputs:
    the example at weight lam + 1 and the example's adjoint with a corrupted
    pair action."""
    rng = random.Random("weights")
    example = example_md()
    family = [with_diagonal_d(triangular_family_member(rng)) for _ in range(4)]
    line = MD3LieAlgebra(ThreeLieAlgebra.abelian(1),
                         ModifiedDifferential(Fraction(1, 2), Matrix.diagonal([1])))
    plane = MD3LieAlgebra(ThreeLieAlgebra.abelian(2),
                          ModifiedDifferential(Fraction(1), Matrix.diagonal([1, -2])))
    det = det_bracket_md(random.Random("det-0"))
    trivial2 = MD3LieAlgebra(ThreeLieAlgebra.abelian(2),
                             ModifiedDifferential(Fraction(0), Matrix.zeros(2, 2)))
    out = [(f"{name}/{make.__name__[:4]}", md, make(md))
           for name, md in [("example", example), ("line", line), ("plane", plane),
                            ("det-0", det)] + [(f"family-{i}", md) for i, md in enumerate(family)]
           for make in (adjoint_representation, coadjoint_representation)]
    out += [("line/trivial", line, trivial_representation(line, 2, Matrix.diagonal([1, 2]))),
            ("plane/trivial", plane,
             trivial_representation(plane, 2, Matrix.diagonal([Fraction(1, 2), 1]))),
            ("example/trivial", example,
             trivial_representation(example, 2, Matrix.diagonal([1, 4]))),
            ("trivial2", trivial2, trivial_representation(trivial2, 1, Matrix.zeros(1, 1)))]
    shifted = MD3LieAlgebra(example.algebra,
                            ModifiedDifferential(example.lam + 1, example.d))
    corrupt = corrupt_representation(rng, example, adjoint_representation(example),
                                     "pair action commutator identity")
    out += [("example+1/adjo", shifted, adjoint_representation(shifted)),
            ("example/corrupt", example, corrupt)]
    return out


def zero_diagonal(asm, q):
    """The coordinates where the assembled Phi_q is zero, and whether Phi_q
    is diagonal."""
    rows = asm.phi_matrix(q).sparse_rows
    return ([i for i, row in enumerate(rows) if not row.get(i)],
            all(row.keys() <= {i} for i, row in enumerate(rows)))


def test_the_weight_split_gives_the_oracle_s_dims_and_representatives():
    """On every diagonal_complexes() member at q = 2..4, both paths give
    the dims of oracles.cohomology_by_elimination, and the representatives
    path its representatives, item for item.  The lemma the split rests on
    holds on every valid member: Phi delta = delta Phi with Phi diagonal,
    so each entry (i, j) of delta_(q-1) joins coordinates of equal weight,
    Phi_q[i, i] = Phi_(q-1)[j, j].  The representatives path takes the
    split exactly where q >= 2, Phi_q or Phi_(q-1) is nonzero on some
    coordinate, H^q = 0 is not certified and the axioms hold (by the
    verifiers).  Where it runs, each list of weight-0 coordinates is the set
    where the assembled, diagonal Phi is zero, and its length is the
    multiplicity of 0 in Phi's exact spectrum."""
    taken, names = 0, set()
    for name, md, rep in diagonal_complexes():
        valid = axioms_hold(md, rep)
        for q in (2, 3, 4):
            full = ComplexAssembly(md, rep)
            phi = [full.phi_matrix(k).sparse_rows for k in (q, q - 1)]
            assert not valid or all(
                phi[0][i].get(i, 0) == phi[1][j].get(j, 0)
                for i, row in enumerate(full.delta_matrix(q - 1).sparse_rows)
                for j in row), (name, q)
            asm, dims_only = ComplexAssembly(md, rep), ComplexAssembly(md, rep)
            want = oracles.cohomology_by_elimination(full, q)
            got = asm.cohomology_dim(q)
            assert dims(got) == dims(want), (name, q)
            assert ([tc.f.items for tc in got.representatives]
                    == [tc.f.items for tc in want.representatives]), (name, q)
            assert ([tc.g.items for tc in got.representatives]
                    == [tc.g.items for tc in want.representatives]), (name, q)
            assert dims(dims_only.cohomology_dim(q, representatives=False)) == dims(want)
            zeros = {k: zero_diagonal(asm, k) for k in (q - 1, q, q + 1)}
            assert all(diagonal for _, diagonal in zeros.values()), name
            nonzero = any(len(zeros[k][0]) < cochain_dim(k, md.n, rep.m) for k in (q, q - 1))
            certified = asm.phi_det_mod_p(q) and asm.phi_det_mod_p(q - 1)
            route = bool(asm._zero_delta)
            assert route == (nonzero and not certified and valid), (name, q)
            if route:
                taken += 1
                names.add(name.split("/")[0])
                for k in (q - 1, q, q + 1):
                    assert list(asm._weight_zero(k)) == zeros[k][0], (name, q, k)
                    assert (len(asm._weight_zero(k))
                            == asm._phi_det.zero_multiplicity(k)), (name, q, k)
    assert (taken, names) == (36, {"example", "line", "plane"} | {
        f"family-{i}" for i in range(4)})


def test_the_weight_split_builds_no_total_and_no_phi(monkeypatch):
    """The example at q = 3, both actions, both paths: no partial_matrix,
    no phi_matrix and no delta_matrix; delta_q is assembled on the weight-0
    rows only.  The determinant member's adjoint (Phi = 0) and trivial2
    (every weight 0) take the full path."""
    md = example_md()

    def refuse(self, q):
        raise AssertionError("a full matrix was assembled")

    with monkeypatch.context() as patch:
        for name in ("partial_matrix", "phi_matrix", "delta_matrix"):
            patch.setattr(ComplexAssembly, name, refuse)
        for make, want in ((adjoint_representation, (28, 26, 2)),
                           (coadjoint_representation, (27, 27, 0))):
            for representatives in (True, False):
                asm = ComplexAssembly(md, make(md))
                summary = asm.cohomology_dim(3, representatives)
                assert dims(summary) == want, (make.__name__, representatives)
                assert not (asm._partial or asm._phi or asm._delta)
                assert {q: m.rows for q, m in asm._zero_delta.items()} == {
                    q: len(asm._weight_zero(q + 1)) for q in (1, 2, 3)}
    trivial2 = MD3LieAlgebra(ThreeLieAlgebra.abelian(2),
                             ModifiedDifferential(Fraction(0), Matrix.zeros(2, 2)))
    det = det_bracket_md(random.Random("det-0"))
    for asm in (ComplexAssembly(det, adjoint_representation(det)),
                ComplexAssembly(trivial2, trivial_representation(trivial2, 1,
                                                                 Matrix.zeros(1, 1)))):
        for representatives in (True, False):
            asm.cohomology_dim(3, representatives)
        assert not asm._zero_delta and set(asm._partial) == {2, 3}


def test_a_weight_zero_list_that_disagrees_with_the_spectrum_is_an_internal_error(
        monkeypatch):
    """The weight-0 coordinates are counted against Phi's exact spectrum,
    and delta_q^Z refuses an entry on a column outside them: a complex whose
    d disagrees with the spectrum, or whose delta links two weights, raises
    RuntimeError (exit 3), never a wrong report."""
    md = example_md()
    asm = ComplexAssembly(md, adjoint_representation(md))
    monkeypatch.setattr(asm._phi_det, "zero_multiplicity", lambda q: 0)
    with pytest.raises(RuntimeError, match="weight 0 in degree 3"):
        asm.cohomology_dim(3)
    asm = ComplexAssembly(md, adjoint_representation(md))
    asm._zero[2] = asm._weight_zero(2)[1:]  # one coordinate misfiled
    with pytest.raises(RuntimeError, match="outside the columns"):
        asm.cohomology_dim(2)


# ---------------------------------------------------------------------------
# the direct cocycle identities, and the long exact sequence of the cone


def test_direct_identities_cut_out_the_total_kernel():
    """In degrees 1 and 2 the cocycles of every dims-only complex with n <= 3
    are the space cut out by the displayed identities, evaluated directly on
    each basis cochain of C^q + C^(q-1) (oracles.direct_cocycle_matrix): the
    same dimension, the oracle kills each kernel vector of partial_q, and
    is_cocycle accepts each kernel vector of the oracle."""
    checked = 0
    for md, rep, _ in dims_only_cases():
        if md.n > 3:
            continue
        asm = ComplexAssembly(md, rep)
        for q in (1, 2):
            kernel = asm.partial_matrix(q).kernel_basis()
            oracle = oracles.direct_cocycle_matrix(md, rep, q)
            direct = oracle.kernel_basis()
            assert len(kernel) == len(direct), (md, rep, q)
            assert all(vec_is_zero(oracle.apply(v)) for v in kernel), (md, rep, q)
            assert all(asm.is_cocycle(TotalCochain.from_stacked(q, md.n, rep.m, v)).valid
                       for v in direct), (md, rep, q)
            checked += bool(kernel)
    assert checked == 44


def test_is_cocycle_agrees_with_the_direct_identities_on_four_dims():
    """On the n = 4 complexes at q = 2, where the oracle's full matrix is
    too slow to build: the first two kernel vectors of partial_2, a random
    combination of its kernel and two random cochains get the same verdict
    from is_cocycle and from the direct identities."""
    rng = random.Random(32)
    for md, rep, _ in dims_only_cases():
        if md.n != 4:
            continue
        asm = ComplexAssembly(md, rep)
        kernel = asm.partial_matrix(2).kernel_basis()
        dim = len(kernel[0])
        combination = oracles.vec_zero(dim)
        for v in kernel:
            combination = oracles.vec_add(combination, oracles.vec_scale(rational(rng), v))
        verdicts = []
        for v in kernel[:2] + [combination] + [random_vector(rng, dim)
                                               for _ in range(2)]:
            tc = TotalCochain.from_stacked(2, md.n, rep.m, v)
            verdict = asm.is_cocycle(tc).valid
            assert verdict == vec_is_zero(oracles.direct_two_cocycle(md, rep, tc)), (
                md, rep)
            verdicts.append(verdict)
        assert verdicts == [True, True, True, False, False], (md, rep)


def test_cone_long_exact_sequence():
    """The total complex is the mapping cone of Phi, so its long exact
    sequence gives dim H^q = dim ker(Phi* on H^q(delta)) + dim coker(Phi* on
    H^(q-1)(delta)) on every valid dims-only complex, in every listed
    degree.  The right side reads delta and Phi only, never partial or the
    certified ranks, so it checks how the cone is stacked and the dims-only
    path in degree 3 too."""
    pairs, nonzero_in_three = 0, 0
    for md, rep, degrees in dims_only_cases():
        if not (verify_3lie(md.algebra).valid and verify_modified_differential(md).valid
                and verify_representation(md, rep).valid):
            continue
        asm = ComplexAssembly(md, rep)
        for q in degrees:
            want = oracles.phi_star_corank(asm, q) + oracles.phi_star_corank(asm, q - 1)
            assert asm.cohomology_dim(q, representatives=False).h_dim == want, (
                md, rep, q)
            assert asm.cohomology_dim(q).h_dim == want, (md, rep, q)
            pairs += 1
            nonzero_in_three += q == 3 and want > 0
    assert (pairs, nonzero_in_three) == (79, 12)
