"""Dense reference verifiers: the package's axiom checks written out entry by
entry, with no sparse lookup.

Values of a tensor come from ``call``, the trilinear evaluation through the
minors of its stored triples (it never reads the signed table of the
package's ``SkewTernaryTensor.sparse_call``), actions from the canonical
``rho`` dict, Leibniz brackets from dense double loops, and every side is a
dense vector or a full matrix sum, so a wrong sign, a skipped term or a lost
action in the package's sparse evaluation shows as a different report.

The pair-action constructions have dense forms here too, each built from
``basis_value`` one basis triple at a time: ``adjoint_representation``,
``is_metrised`` (every invariance value a dense pairing of basis values),
``tstar_cyclicity_check``, ``embed_skew_trilinear`` and
``semidirect_product`` (every triple of the direct sum, in order).

``check_equivalence`` decides an equivalence of deformations by evaluating
both deformed brackets at t = 0..5, with no expansion in t.

``homomorphism_check``, ``is_o_operator`` and ``extract_cocycle`` are the
package's checks on dense vectors: ``call`` on dense columns, ``Matrix.apply``
on dense basis values, whole ``rho_vec`` matrices, and the module
coordinates of a dense vector cut off the algebra coordinates, which must be
zero.

``direct_one_cocycle`` and ``direct_two_cocycle`` evaluate the displayed
cocycle identities of a total cochain in degrees 1 and 2 term by term, on
dense pair coordinates (``wedge_coords``) through the multilinear expansion
of the cochain (``evaluate``), with no assembled matrix; each returns the
residual of every identity in its own order, zero exactly on a cocycle.

``kronecker_sum_det_mod_p`` is the determinant certificate of the dims-only
cohomology path as it was first written: the power sums of the whole
Kronecker sum, up to its dimension N, turned into the determinant by
Newton's identities in O(N^2), with no resultant.

``product_is_zero`` decides ``a @ b = 0`` in integers, the zero test of the
run-time guard that the totals compose to zero before the verified axioms
took its place; the tests check that implication with it.

``scan_eliminate`` is the elimination engine as it was before it filed rows
by leading column: at every column it scans every active row for a nonzero
there and rebuilds the active list after each pivot.

``has_distinct_eigenvalues`` decides whether a matrix has distinct
eigenvalues over Q itself: its characteristic polynomial by the
Faddeev-LeVerrier recursion over Fractions, and the rank of the Sylvester
matrix of that polynomial and its derivative, with no prime.

``cohomology_by_elimination`` is ``ComplexAssembly.cohomology_dim`` with
representatives as it was before the certificate served that path too: the
kernel basis of the assembled partial_q, and the pivot columns of
[partial_(q-1) | kernel] for b and the representatives, in every case.
"""

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import mul

from md3lie.cohomology import CohomologySummary, TotalCochain
from md3lie.errors import InputError
from md3lie.exactnum import Matrix, _cancel, _charpoly_mod, _power_sums_mod, vec_is_zero
from md3lie.extension import ExtractedCocycle
from md3lie.multilin import (CochainCoordinates, SkewTernaryTensor, cochain_dim,
                             pair_basis)
from md3lie.structures import (LeibnizData, MD3LieAlgebra, ModifiedDifferential,
                               Report, Representation, ThreeLieAlgebra, Violation)


def unit(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_zero(n):
    return (Fraction(0),) * n


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(s, u):
    return tuple(s * a for a in u)


def wedge_coords(x, y):
    """Coordinates of x ^ y on the pair basis of a dim-len(x) space."""
    return tuple(x[i] * y[j] - x[j] * y[i] for i, j in pair_basis(len(x)))


def evaluate(f, pair_args, last):
    """The cochain f on pair arguments (on the pair basis) and a final
    argument, expanded multilinearly over their nonzero coordinates."""
    assert len(pair_args) == f.degree - 1 and len(last) == f.n
    npairs = len(pair_basis(f.n))
    slots = [[(t, c) for t, c in enumerate(pv) if c] for pv in pair_args]
    out = [Fraction(0)] * f.m
    for combo in product(*slots, [(k, c) for k, c in enumerate(last) if c]):
        coeff, idx = Fraction(1), 0
        for pos, c in combo[:-1]:
            coeff *= c
            idx = idx * npairs + pos
        k, c = combo[-1]
        coeff *= c
        base = (idx * f.n + k) * f.m
        for r in range(f.m):
            v = f.items.get(base + r)
            if v:
                out[r] += coeff * v
    return tuple(out)


def call(t, x, y, z):
    """t(x, y, z) as the sum over stored triples i < j < k of their stored
    items times the 3 x 3 minor of (x, y, z) on the rows i, j, k."""
    out = [Fraction(0)] * t.dim_out
    for (i, j, k), val in t.values.items():
        minor = (
            x[i] * (y[j] * z[k] - y[k] * z[j])
            - y[i] * (x[j] * z[k] - x[k] * z[j])
            + z[i] * (x[j] * y[k] - x[k] * y[j])
        )
        if minor:
            for r, c in val:
                out[r] += minor * c
    return tuple(out)


def basis_value(t, i, j, k):
    n = t.dim_in
    return call(t, unit(n, i), unit(n, j), unit(n, k))


def pair_value(t, i, j, w):
    n = t.dim_in
    return call(t, unit(n, i), unit(n, j), w)


def rho_basis(rep, i, j):
    zero = Matrix.zeros(rep.m, rep.m)
    if i < j:
        return rep.rho.get((i, j), zero)
    if i > j:
        return -rep.rho.get((j, i), zero)
    return zero


def rho_vec(rep, x, y):
    out = Matrix.zeros(rep.m, rep.m)
    for i, j in pair_basis(rep.n):
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            out = out + rep.rho.get((i, j), Matrix.zeros(rep.m, rep.m)).scale(c)
    return out


def fundamental_identity_sides(outer, inner, idx):
    i1, i2, i3, i4, i5 = idx
    lhs = pair_value(outer, i1, i2, basis_value(inner, i3, i4, i5))
    rhs = vec_add(
        vec_sub(pair_value(outer, i4, i5, basis_value(inner, i1, i2, i3)),
                pair_value(outer, i3, i5, basis_value(inner, i1, i2, i4))),
        pair_value(outer, i3, i4, basis_value(inner, i1, i2, i5)),
    )
    return lhs, rhs


def verify_3lie(alg):
    violations = []
    n = alg.n
    for i1, i2 in pair_basis(n):
        for triple in combinations(range(n), 3):
            idx = (i1, i2) + triple
            lhs, rhs = fundamental_identity_sides(alg.bracket, alg.bracket, idx)
            if lhs != rhs:
                violations.append(Violation("fundamental identity", idx, lhs, rhs))
    return Report.from_violations(violations)


def verify_modified_differential(md):
    violations = []
    br, op = md.algebra.bracket, md.d
    for triple in combinations(range(md.n), 3):
        i, j, k = triple
        lhs = op.apply(basis_value(br, i, j, k))
        rhs = vec_add(
            vec_sub(pair_value(br, j, k, op.column(i)),
                    pair_value(br, i, k, op.column(j))),
            pair_value(br, i, j, op.column(k)),
        )
        rhs = vec_add(rhs, vec_scale(md.lam, basis_value(br, i, j, k)))
        if lhs != rhs:
            violations.append(Violation("modified differential rule", triple, lhs, rhs))
    return Report.from_violations(violations)


def verify_representation(md, rep):
    br = md.algebra.bracket
    violations = []
    n = md.n
    for i1, i2, i3 in combinations(range(n), 3):
        for i4 in range(n):
            lhs = rho_vec(rep, basis_value(br, i1, i2, i3), unit(n, i4))
            rhs = (
                rho_basis(rep, i2, i3) @ rho_basis(rep, i1, i4)
                + rho_basis(rep, i3, i1) @ rho_basis(rep, i2, i4)
                + rho_basis(rep, i1, i2) @ rho_basis(rep, i3, i4)
            )
            if lhs != rhs:
                violations.append(Violation(
                    "bracket-pair action identity", (i1, i2, i3, i4), lhs, rhs))
    for i1, i2 in pair_basis(n):
        for i3, i4 in pair_basis(n):
            lhs = rho_basis(rep, i1, i2) @ rho_basis(rep, i3, i4)
            rhs = (
                rho_basis(rep, i3, i4) @ rho_basis(rep, i1, i2)
                + rho_vec(rep, basis_value(br, i1, i2, i3), unit(n, i4))
                + rho_vec(rep, unit(n, i3), basis_value(br, i1, i2, i4))
            )
            if lhs != rhs:
                violations.append(Violation(
                    "pair action commutator identity", (i1, i2, i3, i4), lhs, rhs))
    d = md.d
    for i, j in pair_basis(n):
        lhs = rep.d_M @ rho_basis(rep, i, j)
        rhs = (
            rho_vec(rep, d.column(i), unit(n, j))
            + rho_vec(rep, unit(n, i), d.column(j))
            + rho_basis(rep, i, j) @ rep.d_M
            + rho_basis(rep, i, j).scale(md.lam)
        )
        if lhs != rhs:
            violations.append(Violation(
                "module differential compatibility", (i, j), lhs, rhs))
    return Report.from_violations(violations)


def leibniz_data(md):
    n = md.n
    br = md.algebra.bracket
    pairs = pair_basis(n)
    dim = len(pairs)
    bracket_F = {}
    for a, (a1, a2) in enumerate(pairs):
        for b, (b1, b2) in enumerate(pairs):
            v = vec_add(
                wedge_coords(basis_value(br, a1, a2, b1), unit(n, b2)),
                wedge_coords(unit(n, b1), basis_value(br, a1, a2, b2)),
            )
            if not vec_is_zero(v):
                bracket_F[a, b] = tuple((r, c) for r, c in enumerate(v) if c)
    cols = []
    for i, j in pairs:
        col = vec_add(
            wedge_coords(md.d.column(i), unit(n, j)),
            wedge_coords(unit(n, i), md.d.column(j)),
        )
        col = vec_add(col, vec_scale(md.lam, wedge_coords(unit(n, i), unit(n, j))))
        cols.append(col)
    return LeibnizData(dim=dim, bracket_F=bracket_F, d_F=Matrix.from_columns(cols, dim))


def leibniz_bracket(data, x, y):
    """[x, y]_F for coordinate vectors, from the dense basis brackets."""
    out = [Fraction(0)] * data.dim
    for a, ca in enumerate(x):
        if not ca:
            continue
        for b, cb in enumerate(y):
            if not cb:
                continue
            for r, v in enumerate(data.bracket_basis(a, b)):
                if v:
                    out[r] += ca * cb * v
    return tuple(out)


def verify_leibniz(data):
    violations = []
    dim = data.dim
    basis = [unit(dim, t) for t in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                lhs = leibniz_bracket(data, basis[a], data.bracket_basis(b, c))
                rhs = vec_add(
                    leibniz_bracket(data, data.bracket_basis(a, b), basis[c]),
                    leibniz_bracket(data, basis[b], data.bracket_basis(a, c)),
                )
                if lhs != rhs:
                    violations.append(Violation("Leibniz identity", (a, b, c), lhs, rhs))
    for a in range(dim):
        for b in range(dim):
            lhs = data.d_F.apply(data.bracket_basis(a, b))
            rhs = vec_add(
                leibniz_bracket(data, data.d_F.column(a), basis[b]),
                leibniz_bracket(data, basis[a], data.d_F.column(b)),
            )
            if lhs != rhs:
                violations.append(Violation("derivation property", (a, b), lhs, rhs))
    return Report.from_violations(violations)


def adjoint_representation(md):
    """rho(e_i, e_j) with column k the dense value [e_i, e_j, e_k]."""
    n, br = md.n, md.algebra.bracket
    rho = {(i, j): Matrix.from_columns([basis_value(br, i, j, k) for k in range(n)], n)
           for i, j in pair_basis(n)}
    return Representation(n=n, m=n, rho=rho, d_M=md.d, lam=md.lam)


def is_metrised(md, B):
    """The metrised-form report, with each invariance value
    B([e_i1, e_i2, e_i3], e_i4) + B(e_i3, [e_i1, e_i2, e_i4]) a sum over
    dense pairings x . (B y) of basis values."""
    n, br = md.n, md.algebra.bracket
    violations = []
    if not B.is_symmetric:
        violations.append(Violation("symmetry", (), B, B.transpose()))
    if (rank := B.rank()) != n:
        violations.append(Violation("non-degeneracy", (), rank, n))

    def pairing(x, y):
        return sum((c * v for c, v in zip(x, B.apply(y))), Fraction(0))

    for i1, i2 in pair_basis(n):
        for i3 in range(n):
            for i4 in range(n):
                lhs = (pairing(basis_value(br, i1, i2, i3), unit(n, i4))
                       + pairing(unit(n, i3), basis_value(br, i1, i2, i4)))
                if lhs:
                    violations.append(Violation(
                        "bracket invariance", (i1, i2, i3, i4), lhs, Fraction(0)))
    if md.d.transpose() @ B + B @ md.d != Matrix.zeros(n, n):
        violations.append(Violation("differential skewness", (),
                                    md.d.transpose() @ B, -(B @ md.d)))
    return Report.from_violations(violations)


def tstar_cyclicity_check(f, g):
    """g(e_k)_l = -g(e_l)_k and f(e_i, e_j, e_k)_l = -f(e_i, e_j, e_l)_k,
    entry by entry."""
    n = f.dim_in
    return (all(g[k, l] + g[l, k] == 0 for k in range(n) for l in range(n))
            and all(basis_value(f, i, j, k)[l] + basis_value(f, i, j, l)[k] == 0
                    for i, j in pair_basis(n) for k in range(n) for l in range(n)))


def embed_skew_trilinear(t):
    """The degree-2 coordinates listed in index order: pair, then final
    argument k, then the dense value t(e_i, e_j, e_k)."""
    n = t.dim_in
    coords = []
    for i, j in pair_basis(n):
        for k in range(n):
            coords.extend(basis_value(t, i, j, k))
    return CochainCoordinates(2, n, t.dim_out, dict(enumerate(coords)))


def semidirect_product(md, rep):
    """Every triple i < j < k of the direct sum in order: the dense bracket
    value on algebra triples, column k - n of rho(e_i, e_j) on two algebra
    slots and one module slot, and zero otherwise."""
    n, m = md.n, rep.m
    values = {}
    for i, j, k in combinations(range(n + m), 3):
        if k < n:
            values[i, j, k] = basis_value(md.algebra.bracket, i, j, k) + vec_zero(m)
        elif j < n:
            values[i, j, k] = vec_zero(n) + rep.rho.get(
                (i, j), Matrix.zeros(m, m)).column(k - n)
    values = {key: dict(enumerate(v)) for key, v in values.items()}
    d = Matrix.block([[md.d, Matrix.zeros(n, m)], [Matrix.zeros(m, n), rep.d_M]])
    return MD3LieAlgebra(ThreeLieAlgebra(n + m, SkewTernaryTensor(n + m, n + m, values)),
                         ModifiedDifferential(md.lam, d))


def check_equivalence(ld, ld2, N):
    """Whether N_t nu_t(a, b, c) = nu'_t(N_t a, N_t b, N_t c) on basis
    triples and N_t d_t = d'_t N_t, for N_t = id + tN, at t = 0..5: both
    sides are polynomials of degree at most 5 in t."""
    n = ld.base.n
    br = ld.base.algebra.bracket
    for t in range(6):
        Nt = Matrix.identity(n) + N.scale(t)
        if Nt @ (ld.base.d + ld.d1.scale(t)) != (ld.base.d + ld2.d1.scale(t)) @ Nt:
            return False
        nu = br + ld.nu1.scale(t) + ld.nu2.scale(t * t)
        nu2 = br + ld2.nu1.scale(t) + ld2.nu2.scale(t * t)
        cols = [Nt.column(i) for i in range(n)]
        for a, b, c in combinations(range(n), 3):
            if Nt.apply(basis_value(nu, a, b, c)) != call(nu2, cols[a], cols[b], cols[c]):
                return False
    return True


def homomorphism_check(eta, src, dst):
    """eta [e_i, e_j, e_k] = [eta e_i, eta e_j, eta e_k] on each basis
    triple, both sides dense, then eta d = d' eta."""
    if eta.cols != src.n or eta.rows != dst.n:
        raise InputError("homomorphism shape does not match the algebras")
    cols = [eta.column(i) for i in range(src.n)]
    for i, j, k in combinations(range(src.n), 3):
        if (eta.apply(basis_value(src.algebra.bracket, i, j, k))
                != call(dst.algebra.bracket, cols[i], cols[j], cols[k])):
            return False
    return eta @ src.d == dst.d @ eta


def is_o_operator(md, rep, R):
    """The relative operator report, each bracket condition on dense
    vectors: [Ra, Rb, Rc] against R of the three cyclic terms
    rho(Ra, Rb) c, each a column of a whole ``rho_vec`` matrix."""
    n, m = md.n, rep.m
    if R.rows != n or R.cols != m:
        raise InputError(f"operator must be {n}x{m}")
    violations = []
    if R @ rep.d_M != md.d @ R:
        violations.append(Violation(
            "differential intertwining", (), R @ rep.d_M, md.d @ R))
    rcols = [R.column(i) for i in range(m)]
    for a, b, c in combinations(range(m), 3):
        lhs = call(md.algebra.bracket, rcols[a], rcols[b], rcols[c])
        inner = vec_add(vec_add(rho_vec(rep, rcols[a], rcols[b]).column(c),
                                rho_vec(rep, rcols[b], rcols[c]).column(a)),
                        rho_vec(rep, rcols[c], rcols[a]).column(b))
        rhs = R.apply(inner)
        if lhs != rhs:
            violations.append(Violation("relative bracket condition", (a, b, c), lhs, rhs))
    return Report.from_violations(violations)


def extract_cocycle(ext, s):
    """The extracted representation and cocycle on dense vectors: the total
    bracket of section and inclusion columns, s applied to dense base values
    and d applied column by column, each cut to its module coordinates."""
    if not ext.is_section(s):
        raise InputError("map is not a section of the projection")
    n, m, total = ext.n, ext.m, ext.total
    br = total.algebra.bracket

    def module_coords(w):
        if any(w[:n]):
            raise InputError("vector does not lie in the embedded module")
        return w[n:]

    scols = [s.column(i) for i in range(n)]
    icols = [ext.inclusion.column(c) for c in range(m)]
    rho = {}
    for i, j in pair_basis(n):
        rho[i, j] = Matrix.from_columns(
            [module_coords(call(br, scols[i], scols[j], icols[c])) for c in range(m)], m)
        if rho[i, j] != ext.rep.rho.get((i, j), Matrix.zeros(m, m)):
            raise InputError("extracted pair action disagrees with the construction data")
    d_M = Matrix.from_columns([module_coords(total.d.apply(w)) for w in icols], m)
    if d_M != ext.rep.d_M:
        raise InputError("extracted module differential disagrees with the construction data")
    upsilon = SkewTernaryTensor(n, m, {(i, j, k): dict(enumerate(module_coords(vec_sub(
        call(br, scols[i], scols[j], scols[k]),
        s.apply(basis_value(ext.base.algebra.bracket, i, j, k))))))
        for i, j, k in combinations(range(n), 3)})
    mu = Matrix.from_columns([
        module_coords(vec_sub(total.d.apply(scols[i]), s.apply(ext.base.d.column(i))))
        for i in range(n)], m)
    rep = Representation(n=n, m=m, rho=rho, d_M=d_M, lam=ext.base.lam)
    return ExtractedCocycle(rep=rep, upsilon=upsilon, mu=mu)

def direct_one_cocycle(md, rep, tc):
    """Residual of a degree-1 total cochain F: for each pair (e_i, e_j) and
    e_c, rho(e_j, e_c) F e_i + rho(e_c, e_i) F e_j + rho(e_i, e_j) F e_c -
    F [e_i, e_j, e_c], then d_M F e_k - F d e_k for each e_k."""
    return _residual(_one_cocycle_identities(md, rep), tc)


def direct_two_cocycle(md, rep, tc):
    """Residual of a degree-2 total cochain (f, g): for each X = e_a1 ^ e_b1,
    Y = e_a2 ^ e_b2 and e_c the coboundary identity of f, then for each X
    and e_a2 the identity tying delta g to the differentials applied to f."""
    return _residual(_two_cocycle_identities(md, rep), tc)


def direct_cocycle_matrix(md, rep, q):
    """The direct residual (q = 1 or 2) of each basis cochain of C^q +
    C^(q-1), one column each, in the stacked coordinate order."""
    n, m = md.n, rep.m
    identities = {1: _one_cocycle_identities, 2: _two_cocycle_identities}[q](md, rep)
    dim = cochain_dim(q, n, m) + (cochain_dim(q - 1, n, m) if q > 1 else 0)
    return Matrix.from_columns(
        [_residual(identities, TotalCochain.from_stacked(q, n, m, unit(dim, j)))
         for j in range(dim)], len(identities) * m)


# An identity is a list of terms (coefficient, action or None, component,
# pair arguments, final argument): the component (f, or g when True)
# evaluated on the arguments, acted on, and scaled.


def _residual(identities, tc):
    out = []
    for terms in identities:
        total = vec_zero(tc.f.m)
        for coeff, action, on_g, pair_args, last in terms:
            value = evaluate(tc.g if on_g else tc.f, pair_args, last)
            if not any(value):
                continue
            if action is not None:
                value = action.apply(value)
            total = vec_add(total, vec_scale(coeff, value))
        out.extend(total)
    return tuple(out)


def _one_cocycle_identities(md, rep):
    n, br, d = md.n, md.algebra.bracket, md.d
    e = [unit(n, i) for i in range(n)]
    identities = []
    for i, j in pair_basis(n):
        for c in range(n):
            identities.append([(1, rho_basis(rep, j, c), False, [], e[i]),
                               (1, rho_basis(rep, c, i), False, [], e[j]),
                               (1, rho_basis(rep, i, j), False, [], e[c]),
                               (-1, None, False, [], basis_value(br, i, j, c))])
    for k in range(n):
        identities.append([(1, rep.d_M, False, [], e[k]),
                           (-1, None, False, [], d.column(k))])
    return identities


def _two_cocycle_identities(md, rep):
    n, br, d = md.n, md.algebra.bracket, md.d
    e = [unit(n, i) for i in range(n)]
    pairs = pair_basis(n)

    def rho(i, j):
        return rho_basis(rep, i, j)

    def at(x, y):  # f's pair argument x ^ y
        return [wedge_coords(x, y)]

    identities = []
    for a1, b1 in pairs:
        X = at(e[a1], e[b1])
        for a2, b2 in pairs:
            Y = at(e[a2], e[b2])
            for c in range(n):
                identities.append([
                    (-1, rho(b2, c), False, X, e[a2]),
                    (-1, rho(c, a2), False, X, e[b2]),
                    (1, rho(a1, b1), False, Y, e[c]),
                    (-1, rho(a2, b2), False, X, e[c]),
                    (-1, None, False, Y, basis_value(br, a1, b1, c)),
                    (1, None, False, X, basis_value(br, a2, b2, c)),
                    (-1, None, False, at(basis_value(br, a1, b1, a2), e[b2]), e[c]),
                    (-1, None, False, at(e[a2], basis_value(br, a1, b1, b2)), e[c]),
                ])
    for a1, b1 in pairs:
        X = at(e[a1], e[b1])
        for a2 in range(n):
            identities.append([
                (1, rho(b1, a2), True, [], e[a1]),
                (1, rho(a2, a1), True, [], e[b1]),
                (1, rho(a1, b1), True, [], e[a2]),
                (-1, None, True, [], basis_value(br, a1, b1, a2)),
                (1, None, False, at(d.column(a1), e[b1]), e[a2]),
                (1, None, False, at(e[a1], d.column(b1)), e[a2]),
                (1, None, False, X, d.column(a2)),
                (md.lam, None, False, X, e[a2]),
                (-1, rep.d_M, False, X, e[a2]),
            ])
    return identities


def kronecker_sum_det_mod_p(factors, p):
    """det of the Kronecker sum of the factors mod p, or None where p
    divides an entry's denominator or p <= N (as exactnum.PhiDeterminant):
    e_N of the whole sum by Newton's identities."""
    N = 1
    for f in factors:
        N *= f.rows
    if p <= N:
        return None
    inv = [0, 1]
    for k in range(2, N + 1):
        inv.append(-(p // k) * inv[p % k] % p)
    fact, fact_inv = [1], [1]
    for k in range(1, N + 1):
        fact.append(fact[-1] * k % p)
        fact_inv.append(fact_inv[-1] * inv[k] % p)
    series = [1] + [0] * N  # sum_j S_j t^j / j!, truncated past t^N
    for f in factors:
        dense = [[0] * f.cols for _ in range(f.rows)]
        for i, row in enumerate(f.sparse_rows):
            for j, e in row.items():
                if e.denominator % p == 0:
                    return None
                dense[i][j] = e.numerator * pow(e.denominator, -1, p) % p
        power_sums = _power_sums_mod(_charpoly_mod(dense, p), N, p)
        rev = [s * fi % p for s, fi in zip(power_sums, fact_inv)][::-1]
        series = [sum(map(mul, series[:k + 1], rev[N - k:])) % p
                  for k in range(N + 1)]
    # Newton: k e_k = sum_(i=1..k) e_(k-i) (-1)^(i-1) S_i, and det = e_N
    signed = [(x * y if i % 2 else -x * y) % p
              for i, (x, y) in enumerate(zip(series, fact))]
    e = [1]
    for k in range(1, N + 1):
        e.append(sum(map(mul, reversed(e), signed[1:k + 1])) % p * inv[k] % p)
    return e[N]


def product_is_zero(a, b):
    """Whether ``a @ b`` is the zero matrix, decided in integers.

    Scaling a row of a, or all of b, by a positive integer keeps each entry
    of the product zero or nonzero, so every row of a is cleared of
    denominators by their lcm and b by the lcm of all of its denominators.
    The integer product is summed one row at a time, and the first nonzero
    row decides; no Fraction is built.  A shape mismatch raises the
    InputError of ``@``."""
    a._check_product(b)
    scale = lcm(*(v.denominator for r in b.sparse_rows for v in r.values()))
    right = [[(j, v.numerator * (scale // v.denominator)) for j, v in r.items()]
             for r in b.sparse_rows]
    for row_a in a.sparse_rows:
        if not row_a:
            continue
        clear = lcm(*(x.denominator for x in row_a.values()))
        row = {}
        get = row.get
        for k, x in row_a.items():
            x = x.numerator * (clear // x.denominator)
            for j, y in right[k]:
                row[j] = get(j, 0) + x * y
        if any(row.values()):
            return False
    return True


def scan_eliminate(rows, ncols):
    """Echelon rows and pivot columns of sparse integer rows, by a scan.

    At column c the pivot is the active row with the fewest nonzeros (the
    lowest index on ties), found among every active row that has a nonzero
    at c; every other such row is cancelled against it (exactnum._cancel),
    and the active list is rebuilt without the pivot and the rows that
    vanished."""
    echelon, pivots = [], []
    for c in range(ncols):
        if not rows:
            break
        hits = [k for k, r in enumerate(rows) if c in r]
        if not hits:
            continue
        p = min(hits, key=lambda k: len(rows[k]))
        prow = rows[p]
        pv = prow[c]
        for k in hits:
            if k != p:
                rows[k] = _cancel(rows[k], prow, c, pv)
        echelon.append(prow)
        pivots.append(c)
        rows = [r for k, r in enumerate(rows) if k != p and r]
    return echelon, pivots


def has_distinct_eigenvalues(mat):
    """Whether the square matrix has distinct eigenvalues over an algebraic
    closure of Q: its characteristic polynomial c and c' are coprime, that
    is their Sylvester matrix (of size 2n - 1) is invertible."""
    n = mat.rows
    if n < 2:
        return True
    a = [list(mat.row(i)) for i in range(n)]
    # Faddeev-LeVerrier: M_k = A M_(k-1) + c_(k-1) I, c_k = -tr(A M_k) / k
    c, m = [Fraction(1)], [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][l] * m[l][j] for l in range(n)) + (c[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        c.append(-sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)) / k)
    derivative = [(n - k) * x for k, x in enumerate(c[:-1])]
    size = 2 * n - 1
    rows = ([[0] * k + c + [0] * (size - k - n - 1) for k in range(n - 1)]
            + [[0] * k + derivative + [0] * (size - k - n) for k in range(n)])
    return Matrix.from_rows(rows).rank() == size


def cohomology_by_elimination(asm, q):
    """Z, B and H dims of degree q and the representatives, by eliminating
    the assembled totals: the kernel vectors of partial_q that extend a basis
    of the image of partial_(q-1)."""
    n, m = asm.md.n, asm.rep.m
    kernel = asm.partial_matrix(q).kernel_basis()
    if q == 1:
        reps = [TotalCochain.from_stacked(q, n, m, v) for v in kernel]
        return CohomologySummary(len(kernel), 0, len(kernel), reps)
    boundary = asm.partial_matrix(q - 1)
    pivots = Matrix.hstack(
        [boundary, Matrix.from_columns(kernel, boundary.rows)]).pivot_columns()
    b_dim = sum(1 for c in pivots if c < boundary.cols)
    reps = [TotalCochain.from_stacked(q, n, m, kernel[c - boundary.cols])
            for c in pivots if c >= boundary.cols]
    return CohomologySummary(len(kernel), b_dim, len(kernel) - b_dim, reps)
