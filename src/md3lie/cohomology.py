"""Cochain complex of a modified weighted-differential 3-Lie algebra.

Assembles the coboundary delta, the cochain map Phi, and the total
differential on C^q + C^(q-1) as exact matrices over the canonical cochain
bases, and decides cocycle/coboundary membership and cohomology dimensions by
exact elimination.

Matrix assembly enumerates basis cochains against basis argument tuples; the
degree is generic, although only degrees 1..3 are exercised routinely
(column counts grow like C(n,2)^(q-1)).

Caching: a ComplexAssembly memoizes assembled matrices.  Population is
idempotent (pure recomputation), so a racing first access at worst computes
twice and discards one copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import InputError
from .exactnum import Matrix, Vector, unit, vec_add, vec_is_zero, vec_scale, vec_sub
from .multilin import (
    CochainCoordinates, cochain_dim, pair_basis, pair_position, wedge_coords,
)
from .structures import MD3LieAlgebra, Representation

Sparse = list[tuple[int, Fraction]]

_ONE = Fraction(1)


def _sparse(dense) -> Sparse:
    return [(i, c) for i, c in enumerate(dense) if c]


def _sparse_unit(i: int) -> Sparse:
    return [(i, _ONE)]


def _pair_wedge_basis(u, j: int, pos) -> dict[int, Fraction]:
    """Pair-basis coordinates of u ^ e_j for a general vector u."""
    out: dict[int, Fraction] = {}
    for i, c in enumerate(u):
        if not c or i == j:
            continue
        if i < j:
            key, val = pos[i, j], c
        else:
            key, val = pos[j, i], -c
        out[key] = out.get(key, Fraction(0)) + val
    return out


@dataclass(frozen=True)
class TotalCochain:
    """Element of C^q + C^(q-1); the second summand is absent at degree 1."""

    degree: int
    f: CochainCoordinates
    g: Optional[CochainCoordinates]

    def __post_init__(self):
        if self.degree < 1:
            raise InputError("total cochain degree must be >= 1")
        if self.f.degree != self.degree:
            raise InputError("f component has wrong degree")
        if self.degree == 1:
            if self.g is not None:
                raise InputError("degree-1 total cochains have no second component")
        else:
            if self.g is None or self.g.degree != self.degree - 1:
                raise InputError("g component has wrong degree")
            if (self.g.n, self.g.m) != (self.f.n, self.f.m):
                raise InputError("components live over different spaces")

    @classmethod
    def zero(cls, degree: int, n: int, m: int) -> "TotalCochain":
        g = None if degree == 1 else CochainCoordinates.zero(degree - 1, n, m)
        return cls(degree, CochainCoordinates.zero(degree, n, m), g)

    @classmethod
    def from_stacked(cls, degree: int, n: int, m: int, coords) -> "TotalCochain":
        fdim = cochain_dim(degree, n, m)
        f = CochainCoordinates(degree, n, m, coords[:fdim])
        if degree == 1:
            if len(coords) != fdim:
                raise InputError("stacked vector has wrong length")
            return cls(degree, f, None)
        g = CochainCoordinates(degree - 1, n, m, coords[fdim:])
        return cls(degree, f, g)

    def stacked(self) -> Vector:
        return self.f.coords + (self.g.coords if self.g is not None else ())

    def __sub__(self, other: "TotalCochain") -> "TotalCochain":
        if self.degree != other.degree:
            raise InputError("degree mismatch")
        g = None if self.g is None else self.g - other.g
        return TotalCochain(self.degree, self.f - other.f, g)

    @property
    def is_zero(self) -> bool:
        return self.f.is_zero and (self.g is None or self.g.is_zero)


@dataclass
class CocycleReport:
    valid: bool
    residual: Vector


@dataclass
class CohomologySummary:
    z_dim: int
    b_dim: int
    h_dim: int
    representatives: list[TotalCochain]


class ComplexAssembly:
    """Assembled complex of a fixed (algebra, representation) pair."""

    def __init__(self, md: MD3LieAlgebra, rep: Representation):
        if rep.lam != md.lam:
            raise InputError("representation weight differs from the algebra weight")
        if rep.n != md.n:
            raise InputError("representation is indexed over a different algebra")
        self.md = md
        self.rep = rep
        self._delta: dict[int, Matrix] = {}
        self._phi: dict[int, Matrix] = {}
        self._partial: dict[int, Matrix] = {}

    # -- matrices ---------------------------------------------------------

    def delta_matrix(self, q: int) -> Matrix:
        """Coboundary C^q -> C^(q+1) in the canonical cochain bases."""
        if q < 1:
            raise InputError("degree must be >= 1")
        if q not in self._delta:
            self._delta[q] = self._assemble_delta(q)
        return self._delta[q]

    def phi_matrix(self, q: int) -> Matrix:
        """Cochain map C^q -> C^q built from the differentials and weight."""
        if q < 1:
            raise InputError("degree must be >= 1")
        if q not in self._phi:
            self._phi[q] = self._assemble_phi(q)
        return self._phi[q]

    def partial_matrix(self, q: int) -> Matrix:
        """Total differential C^q + C^(q-1) -> C^(q+1) + C^q.

        Degree 1 sends f to (delta f, -Phi f); higher degrees are the block
        matrix [[delta_q, 0], [(-1)^q Phi_q, delta_(q-1)]]."""
        if q < 1:
            raise InputError("degree must be >= 1")
        if q not in self._partial:
            if q == 1:
                mat = Matrix.vstack([self.delta_matrix(1), -self.phi_matrix(1)])
            else:
                n, m = self.md.n, self.rep.m
                zeros = Matrix.zeros(cochain_dim(q + 1, n, m),
                                     cochain_dim(q - 1, n, m))
                phi = self.phi_matrix(q)
                sign_phi = phi if q % 2 == 0 else -phi
                mat = Matrix.block([
                    [self.delta_matrix(q), zeros],
                    [sign_phi, self.delta_matrix(q - 1)],
                ])
            self._partial[q] = mat
        return self._partial[q]

    # -- assembly ---------------------------------------------------------

    def _assemble_delta(self, q: int) -> Matrix:
        md, rep = self.md, self.rep
        n, m = md.n, rep.m
        pairs = pair_basis(n)
        P = len(pairs)
        pos = pair_position(n)
        rows_dim = cochain_dim(q + 1, n, m)
        cols_dim = cochain_dim(q, n, m)
        data = [[Fraction(0)] * cols_dim for _ in range(rows_dim)]
        basis_pvec = [_sparse_unit(t) for t in range(P)]
        top_sign = Fraction((-1) ** (q + 1))

        for arg in product(range(P), repeat=q):
            arg_pairs = [pairs[t] for t in arg]
            row_block = 0
            for t in arg:
                row_block = row_block * P + t
            for k in range(n):
                row_base = (row_block * n + k) * m
                acc = _Accumulator(data, row_base, P, n, m)
                xq, yq = arg_pairs[q - 1]
                head = [basis_pvec[t] for t in arg[: q - 1]]
                # boundary terms pairing the last pair with the final slot
                acc.add(top_sign, rep.rho_basis(yq, k), head, _sparse_unit(xq))
                acc.add(top_sign, rep.rho_basis(k, xq), head, _sparse_unit(yq))
                for i in range(q):
                    xi, yi = arg_pairs[i]
                    rest = [basis_pvec[t] for s, t in enumerate(arg) if s != i]
                    # alternating sign of the i-th pair, +1 for the first
                    sign = Fraction((-1) ** i)
                    # action of the removed pair
                    acc.add(sign, rep.rho[xi, yi], rest, _sparse_unit(k))
                    # bracket absorbed into the final slot
                    br = md.algebra.bracket_basis(xi, yi, k)
                    if not vec_is_zero(br):
                        acc.add(-sign, None, rest, _sparse(br))
                    # bracket absorbed into a later pair slot
                    for l in range(i + 1, q):
                        xl, yl = arg_pairs[l]
                        w = _pair_wedge_basis(
                            md.algebra.bracket_basis(xi, yi, xl), yl, pos)
                        for key, val in _pair_wedge_basis(
                                md.algebra.bracket_basis(xi, yi, yl), xl, pos).items():
                            w[key] = w.get(key, Fraction(0)) - val
                        sw = [(t, c) for t, c in sorted(w.items()) if c]
                        if not sw:
                            continue
                        modified = list(rest)
                        modified[l - 1] = sw
                        acc.add(-sign, None, modified, _sparse_unit(k))
        return Matrix._raw(rows_dim, cols_dim,
                           (v for row in data for v in row))

    def _assemble_phi(self, q: int) -> Matrix:
        md, rep = self.md, self.rep
        n, m = md.n, rep.m
        pairs = pair_basis(n)
        P = len(pairs)
        pos = pair_position(n)
        dim = cochain_dim(q, n, m)
        data = [[Fraction(0)] * dim for _ in range(dim)]
        basis_pvec = [_sparse_unit(t) for t in range(P)]
        d = md.d
        weight = (q - 1) * md.lam

        for arg in product(range(P), repeat=q - 1):
            row_block = 0
            for t in arg:
                row_block = row_block * P + t
            for k in range(n):
                row_base = (row_block * n + k) * m
                acc = _Accumulator(data, row_base, P, n, m)
                head = [basis_pvec[t] for t in arg]
                for i in range(q - 1):
                    xi, yi = pairs[arg[i]]
                    w = _pair_wedge_basis(d.column(xi), yi, pos)
                    for key, val in _pair_wedge_basis(d.column(yi), xi, pos).items():
                        w[key] = w.get(key, Fraction(0)) - val
                    sw = [(t, c) for t, c in sorted(w.items()) if c]
                    if not sw:
                        continue
                    modified = list(head)
                    modified[i] = sw
                    acc.add(_ONE, None, modified, _sparse_unit(k))
                dk = _sparse(d.column(k))
                if dk:
                    acc.add(_ONE, None, head, dk)
                if weight:
                    acc.add(weight, None, head, _sparse_unit(k))
                acc.add(_ONE, -rep.d_M, head, _sparse_unit(k))
        return Matrix._raw(dim, dim, (v for row in data for v in row))

    # -- membership and dimensions ----------------------------------------

    def is_cocycle(self, tc: TotalCochain) -> CocycleReport:
        """Whether the total differential kills tc.

        For degrees 1 and 2 the verdict is cross-checked against a direct
        evaluation of the cocycle identities (an independent code path); a
        disagreement would mean an assembly bug and raises RuntimeError."""
        self._check_spaces(tc)
        residual = self.partial_matrix(tc.degree).apply(tc.stacked())
        valid = vec_is_zero(residual)
        if tc.degree == 1:
            direct = _direct_one_cocycle(self.md, self.rep, tc)
        elif tc.degree == 2:
            direct = _direct_two_cocycle(self.md, self.rep, tc)
        else:
            direct = valid
        if direct != valid:
            raise RuntimeError("cocycle cross-check disagrees with the assembled matrix")
        return CocycleReport(valid=valid, residual=residual)

    def is_coboundary(self, tc: TotalCochain) -> Optional[TotalCochain]:
        """A preimage of tc under the total differential, when one exists.

        Degree-1 coboundaries are zero by convention, so the degree must be
        at least 2."""
        self._check_spaces(tc)
        if tc.degree < 2:
            raise InputError("coboundaries start at degree 2")
        x = self.partial_matrix(tc.degree - 1).solve_in_image(tc.stacked())
        if x is None:
            return None
        return TotalCochain.from_stacked(tc.degree - 1, self.md.n, self.rep.m, x)

    def cohomology_dim(self, q: int) -> CohomologySummary:
        """Exact dimensions of cocycles, coboundaries and cohomology.

        Representatives are the kernel basis vectors that extend a basis of
        the coboundary space, so they project to a basis of the quotient."""
        if q < 1:
            raise InputError("degree must be >= 1")
        n, m = self.md.n, self.rep.m
        kernel = self.partial_matrix(q).kernel_basis()
        z_dim = len(kernel)
        if q == 1:
            reps = [TotalCochain.from_stacked(q, n, m, v) for v in kernel]
            return CohomologySummary(z_dim, 0, z_dim, reps)
        boundary = self.partial_matrix(q - 1)
        stacked = Matrix.hstack(
            [boundary, Matrix.from_columns(kernel, boundary.rows)])
        pivots = stacked.pivot_columns()
        # the pivots are the leftmost independent columns, so those inside
        # the boundary block count its rank
        b_dim = sum(1 for c in pivots if c < boundary.cols)
        reps = [TotalCochain.from_stacked(q, n, m, kernel[c - boundary.cols])
                for c in pivots if c >= boundary.cols]
        return CohomologySummary(z_dim, b_dim, z_dim - b_dim, reps)

    def apply_partial(self, tc: TotalCochain) -> TotalCochain:
        """The total differential applied to tc, as a degree-(q+1) cochain."""
        self._check_spaces(tc)
        image = self.partial_matrix(tc.degree).apply(tc.stacked())
        return TotalCochain.from_stacked(tc.degree + 1, self.md.n, self.rep.m, image)

    def _check_spaces(self, tc: TotalCochain):
        if (tc.f.n, tc.f.m) != (self.md.n, self.rep.m):
            raise InputError("cochain does not live over this complex")


class _Accumulator:
    """Adds one multilinear term of delta/Phi into the assembled matrix.

    A term is sign * T(f(args)): ``pvecs`` are the sparse pair-space
    arguments, ``last`` the sparse final argument, and T an optional module
    endomorphism (None meaning the identity)."""

    __slots__ = ("data", "row_base", "P", "n", "m")

    def __init__(self, data, row_base, P, n, m):
        self.data = data
        self.row_base = row_base
        self.P = P
        self.n = n
        self.m = m

    def add(self, sign: Fraction, T: Optional[Matrix], pvecs, last: Sparse):
        if T is not None and T.is_zero:
            return
        data = self.data
        row_base = self.row_base
        P, n, m = self.P, self.n, self.m
        for combo in product(*pvecs, last):
            coeff = sign
            idx = 0
            for p, c in combo[:-1]:
                coeff *= c
                idx = idx * P + p
            k, c = combo[-1]
            coeff *= c
            if not coeff:
                continue
            col_base = (idx * n + k) * m
            if T is None:
                for r in range(m):
                    data[row_base + r][col_base + r] += coeff
            else:
                ent = T.entries
                for r in range(m):
                    rb = r * m
                    row = data[row_base + r]
                    for r0 in range(m):
                        t = ent[rb + r0]
                        if t:
                            row[col_base + r0] += coeff * t


# ---------------------------------------------------------------------------
# direct evaluation of the displayed low-degree cocycle identities
# (kept independent of the matrix assembly on purpose)


def _direct_one_cocycle(md: MD3LieAlgebra, rep: Representation,
                        tc: TotalCochain) -> bool:
    F = tc.f.to_linear_map()
    n = md.n
    for i, j in pair_basis(n):
        for c in range(n):
            residual = vec_add(
                vec_add(rep.rho_basis(j, c).apply(F.column(i)),
                        rep.rho_basis(c, i).apply(F.column(j))),
                vec_sub(rep.rho_basis(i, j).apply(F.column(c)),
                        F.apply(md.algebra.bracket_basis(i, j, c))),
            )
            if not vec_is_zero(residual):
                return False
    return rep.d_M @ F == F @ md.d


def _direct_two_cocycle(md: MD3LieAlgebra, rep: Representation,
                        tc: TotalCochain) -> bool:
    f, g = tc.f, tc.g.to_linear_map()
    n = md.n
    alg = md.algebra
    d = md.d
    pairs = pair_basis(n)
    base = [unit(n, i) for i in range(n)]

    def fv(x, y, z):
        return f.evaluate([wedge_coords(x, y)], z)

    for a1, b1 in pairs:
        for a2, b2 in pairs:
            for c in range(n):
                terms = [
                    vec_scale(-1, rep.rho_basis(b2, c).apply(
                        fv(base[a1], base[b1], base[a2]))),
                    vec_scale(-1, rep.rho_basis(c, a2).apply(
                        fv(base[a1], base[b1], base[b2]))),
                    rep.rho_basis(a1, b1).apply(fv(base[a2], base[b2], base[c])),
                    vec_scale(-1, rep.rho_basis(a2, b2).apply(
                        fv(base[a1], base[b1], base[c]))),
                    vec_scale(-1, fv(base[a2], base[b2],
                                     alg.bracket_basis(a1, b1, c))),
                    fv(base[a1], base[b1], alg.bracket_basis(a2, b2, c)),
                    vec_scale(-1, fv(alg.bracket_basis(a1, b1, a2), base[b2],
                                     base[c])),
                    vec_scale(-1, fv(base[a2], alg.bracket_basis(a1, b1, b2),
                                     base[c])),
                ]
                total = [Fraction(0)] * rep.m
                for t in terms:
                    total = vec_add(total, t)
                if not vec_is_zero(total):
                    return False
    for a1, b1 in pairs:
        for a2 in range(n):
            total = vec_add(
                vec_add(rep.rho_basis(b1, a2).apply(g.column(a1)),
                        rep.rho_basis(a2, a1).apply(g.column(b1))),
                vec_sub(rep.rho_basis(a1, b1).apply(g.column(a2)),
                        g.apply(alg.bracket_basis(a1, b1, a2))),
            )
            total = vec_add(total, fv(d.column(a1), base[b1], base[a2]))
            total = vec_add(total, fv(base[a1], d.column(b1), base[a2]))
            total = vec_add(total, fv(base[a1], base[b1], d.column(a2)))
            total = vec_add(total, vec_scale(
                md.lam, fv(base[a1], base[b1], base[a2])))
            total = vec_sub(total, rep.d_M.apply(fv(base[a1], base[b1], base[a2])))
            if not vec_is_zero(total):
                return False
    return True
