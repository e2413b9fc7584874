import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from md3lie.cohomology import ComplexAssembly, TotalCochain
from md3lie.corpus import (
    abelian_md, det_bracket_md, random_matrix, triangular_family_member,
)
from md3lie.errors import InputError
from md3lie.exactnum import Matrix, unit, vec_add, vec_scale
from md3lie.multilin import (
    CochainCoordinates, SkewTernaryTensor, cochain_dim, pair_basis, wedge_coords,
)
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, Representation, ThreeLieAlgebra,
    adjoint_representation, coadjoint_representation, fundamental_leibniz,
    leibniz_data, trivial_representation,
)

from conftest import brute_force_degree_one_kernel


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
    assert CochainCoordinates(1, 3, 3, got).to_linear_map() == e12


def test_phi_degree_one_formula_random(adjoint_asm, emd, adjoint):
    rng = random.Random(21)
    for _ in range(5):
        F = random_matrix(rng, 3, 3)
        got = adjoint_asm.phi_matrix(1).apply(
            CochainCoordinates.from_linear_map(F).coords)
        expected = F @ emd.d - adjoint.d_M @ F
        assert CochainCoordinates(1, 3, 3, got).to_linear_map() == expected


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
    oracle = brute_force_degree_one_kernel(emd, adjoint)
    assert (oracle.rows, oracle.cols) == (36, 9)
    assert len(oracle.kernel_basis()) == 2
    # representatives solve both conditions and span diag(f1, f2, -f2)
    for tc in summary.representatives:
        F = tc.f.to_linear_map()
        assert all(not c for c in oracle.apply(tc.f.coords))
        assert F[1, 0] == F[2, 0] == 0 and F[1, 1] + F[2, 2] == 0


def test_z2_of_example_against_direct_conditions(adjoint_asm, emd, adjoint):
    """Degree-2 cocycle space re-derived by evaluating the two displayed
    conditions on every basis cochain of C^2 + C^1 (no assembler)."""
    from md3lie.exactnum import unit, vec_add, vec_scale, vec_sub
    from md3lie.multilin import pair_basis, wedge_coords

    n = m = 3
    alg, d = emd.algebra, emd.d
    pairs = pair_basis(n)
    base = [unit(n, i) for i in range(n)]
    dim2, dim1 = cochain_dim(2, n, m), cochain_dim(1, n, m)
    cols = []
    for idx in range(dim2 + dim1):
        fco = [Fraction(0)] * dim2
        gco = [Fraction(0)] * dim1
        (fco if idx < dim2 else gco)[idx if idx < dim2 else idx - dim2] = Fraction(1)
        f = CochainCoordinates(2, n, m, fco)
        g = CochainCoordinates(1, n, m, gco).to_linear_map()

        def fv(x, y, z):
            return f.evaluate([wedge_coords(x, y)], z)

        col = []
        for a1, b1 in pairs:
            for a2, b2 in pairs:
                for c in range(n):
                    total = [Fraction(0)] * m
                    for term in (
                        vec_scale(-1, adjoint.rho_basis(b2, c).apply(
                            fv(base[a1], base[b1], base[a2]))),
                        vec_scale(-1, adjoint.rho_basis(c, a2).apply(
                            fv(base[a1], base[b1], base[b2]))),
                        adjoint.rho_basis(a1, b1).apply(
                            fv(base[a2], base[b2], base[c])),
                        vec_scale(-1, adjoint.rho_basis(a2, b2).apply(
                            fv(base[a1], base[b1], base[c]))),
                        vec_scale(-1, fv(base[a2], base[b2],
                                         alg.bracket_basis(a1, b1, c))),
                        fv(base[a1], base[b1], alg.bracket_basis(a2, b2, c)),
                        vec_scale(-1, fv(alg.bracket_basis(a1, b1, a2),
                                         base[b2], base[c])),
                        vec_scale(-1, fv(base[a2],
                                         alg.bracket_basis(a1, b1, b2),
                                         base[c])),
                    ):
                        total = vec_add(total, term)
                    col.extend(total)
        for a1, b1 in pairs:
            for a2 in range(n):
                total = vec_add(
                    vec_add(adjoint.rho_basis(b1, a2).apply(g.column(a1)),
                            adjoint.rho_basis(a2, a1).apply(g.column(b1))),
                    vec_sub(adjoint.rho_basis(a1, b1).apply(g.column(a2)),
                            g.apply(alg.bracket_basis(a1, b1, a2))))
                total = vec_add(total, fv(d.column(a1), base[b1], base[a2]))
                total = vec_add(total, fv(base[a1], d.column(b1), base[a2]))
                total = vec_add(total, fv(base[a1], base[b1], d.column(a2)))
                total = vec_add(total, vec_scale(
                    emd.lam, fv(base[a1], base[b1], base[a2])))
                total = vec_sub(total, adjoint.d_M.apply(
                    fv(base[a1], base[b1], base[a2])))
                col.extend(total)
        cols.append(tuple(col))
    oracle = Matrix.from_columns(cols, len(cols[0]))
    assert len(oracle.kernel_basis()) == adjoint_asm.cohomology_dim(2).z_dim


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


def test_cross_check_agreement_on_random_cochains(adjoint_asm):
    # is_cocycle raises if the matrix route and the direct evaluation of the
    # degree-1/2 identities ever disagree; exercise it on random cochains
    rng = random.Random(24)
    for _ in range(8):
        adjoint_asm.is_cocycle(one_cochain(random_matrix(rng, 3, 3)))
        f = CochainCoordinates(
            2, 3, 3, [Fraction(rng.randint(-2, 2)) for _ in range(27)])
        adjoint_asm.is_cocycle(two_cochain(f, random_matrix(rng, 3, 3)))


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
    on values, with d_F (weight included) built here from wedge_coords."""
    n, d = md.n, md.d
    base = [unit(n, i) for i in range(n)]
    P = len(pair_basis(n))
    d_F = Matrix.from_columns([
        vec_add(vec_add(wedge_coords(d.column(i), base[j]),
                        wedge_coords(base[i], d.column(j))),
                vec_scale(md.lam, wedge_coords(base[i], base[j])))
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
    bad = MD3LieAlgebra(
        ThreeLieAlgebra(4, SkewTernaryTensor(4, 4, {
            (0, 1, 2): (1, 0, 0, 0), (0, 1, 3): (0, 0, 0, 1)})),
        ModifiedDifferential(Fraction(3, 2), random_matrix(rng, 4, 4)))
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
    X = [unit(P, t) for t in range(P)]
    e = [unit(n, i) for i in range(n)]
    blocks = []
    for arg in itertools.product(range(P), repeat=q):
        for z in range(n):
            terms = []
            for i, a in enumerate(arg, start=1):
                rest = [X[t] for t in arg[:i - 1] + arg[i:]]
                x, y = pairs[a]
                for l in range(i + 1, q + 1):
                    slots = list(rest)
                    slots[l - 2] = leibniz.bracket_vec(X[a], X[arg[l - 1]])
                    terms.append(((-1) ** i, None, slots, e[z]))
                terms.append(((-1) ** i, None, rest,
                              md.algebra.bracket(e[x], e[y], e[z])))
                terms.append(((-1) ** (i + 1), rep.rho_basis(x, y), rest, e[z]))
            head = [X[t] for t in arg[:-1]]
            xq, yq = pairs[arg[-1]]
            terms.append(((-1) ** (q + 1), rep.rho_basis(yq, z), head, e[xq]))
            terms.append(((-1) ** (q + 1), rep.rho_basis(z, xq), head, e[yq]))
            blocks.append(terms)
    dim = cochain_dim(q, n, m)
    columns = []
    for col in range(dim):
        f = CochainCoordinates(q, n, m, unit(dim, col))
        column = []
        for terms in blocks:
            total = [Fraction(0)] * m
            for sign, action, slots, last in terms:
                value = f.evaluate(slots, last)
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
    bad = MD3LieAlgebra(
        ThreeLieAlgebra(4, SkewTernaryTensor(4, 4, {
            (0, 1, 2): (1, 0, 0, 0), (0, 1, 3): (0, 0, 0, 1)})),
        ModifiedDifferential(Fraction(3, 2), random_matrix(rng, 4, 4)))
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
