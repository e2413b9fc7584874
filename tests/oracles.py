"""Dense reference verifiers: the package's axiom checks written out entry by
entry, with no sparse lookup.

Basis values of a tensor come from its general trilinear call (which reads
the stored triples through their minors), actions from the canonical ``rho``
dict, and every side is a dense vector or a full matrix sum, so a wrong sign,
a skipped term or a lost action in the package's sparse evaluation shows as
a different report.

``kronecker_sum_det_mod_p`` is the determinant certificate of the dims-only
cohomology path as it was first written: the power sums of the whole
Kronecker sum, up to its dimension N, turned into the determinant by
Newton's identities in O(N^2), with no resultant.
"""

from itertools import combinations
from operator import mul

from md3lie.exactnum import (Matrix, _charpoly_mod, _power_sums_mod, unit, vec_add,
                             vec_is_zero, vec_scale, vec_sub)
from md3lie.multilin import pair_basis, wedge_coords
from md3lie.structures import LeibnizData, Report, Violation


def basis_value(t, i, j, k):
    n = t.dim_in
    return t(unit(n, i), unit(n, j), unit(n, k))


def pair_value(t, i, j, w):
    n = t.dim_in
    return t(unit(n, i), unit(n, j), w)


def rho_basis(rep, i, j):
    if i < j:
        return rep.rho[i, j]
    if i > j:
        return -rep.rho[j, i]
    return Matrix.zeros(rep.m, rep.m)


def rho_vec(rep, x, y):
    out = Matrix.zeros(rep.m, rep.m)
    for i, j in pair_basis(rep.n):
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            out = out + rep.rho[i, j].scale(c)
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
                bracket_F[a, b] = v
    cols = []
    for i, j in pairs:
        col = vec_add(
            wedge_coords(md.d.column(i), unit(n, j)),
            wedge_coords(unit(n, i), md.d.column(j)),
        )
        col = vec_add(col, vec_scale(md.lam, wedge_coords(unit(n, i), unit(n, j))))
        cols.append(col)
    return LeibnizData(dim=dim, bracket_F=bracket_F, d_F=Matrix.from_columns(cols, dim))


def kronecker_sum_det_mod_p(factors, p):
    """det of the Kronecker sum of the factors mod p, or None (as the package
    function): e_N of the whole sum by Newton's identities."""
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

