"""Cochain complex of a modified weighted-differential 3-Lie algebra.

Assembles the coboundary delta, the cochain map Phi, and the total
differential on C^q + C^(q-1) as sparse exact matrices over the canonical
cochain bases, and decides cocycle/coboundary membership and cohomology
dimensions by exact elimination.

One assembler builds delta and Phi: it enumerates the row blocks (pair
arguments, final index) once, each operator lists its terms per block, and
the terms accumulate into sparse rows; the total differential stacks those
rows, so no dense matrix is built on the way to elimination.  A term either
substitutes one argument of the column cochain by a sparse table vector
([X, Y]_F or [X, e_k] for delta; d_F, which carries the weight, or d for
Phi) or applies rho or -d_M to its values, so it names the column blocks it
reads, each with one coefficient.  The tables come from
structures.leibniz_data once per complex; no axiom is verified, so invalid
input assembles too.  The degree is generic, but sizes grow like
C(n,2)^(q-1), and a matrix whose rows x cols exceeds MAX_DENSE_ENTRIES is
refused before it is built.

Caching: a ComplexAssembly memoizes assembled matrices.  Population is
idempotent (pure recomputation), so a racing first access at worst computes
twice and discards one copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from types import SimpleNamespace
from typing import Optional

from .errors import InputError
from .exactnum import (Matrix, Vector, _sparse_row, unit, vec_add, vec_is_zero,
                       vec_scale, vec_sub)
from .multilin import CochainCoordinates, cochain_dim, pair_basis, wedge_coords
from .structures import MD3LieAlgebra, Representation, leibniz_data

#: Largest matrix, in rows x cols, that the assembly will build; the abelian
#: n=4 degree-3 total differential (about 2.7M entries) fits.
MAX_DENSE_ENTRIES = 10_000_000
#: No higher degree fits the budget once n >= 3 (C^(q+1) has 2^q coordinates
#: or more); checked first, it also bounds n <= 2 and the powers in cochain_dim.
MAX_DEGREE = MAX_DENSE_ENTRIES.bit_length()

def _sparse_entries(mat: Matrix) -> list[tuple[int, int, Fraction]]:
    return [(i, j, c) for i, row in enumerate(mat.sparse_rows)
            for j, c in row.items()]


def _check_degree(q: int) -> None:
    if q < 1:
        raise InputError("degree must be >= 1")
    if q > MAX_DEGREE:
        raise InputError(f"degree {q} is above the maximum {MAX_DEGREE}")


def _check_entry_budget(rows: int, cols: int) -> None:
    if rows * cols > MAX_DENSE_ENTRIES:
        raise InputError(
            f"a {rows} x {cols} matrix exceeds the assembly budget of "
            f"{MAX_DENSE_ENTRIES} dense entries; ask for a lower degree")


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
        _check_degree(q)
        if q not in self._delta:
            self._delta[q] = self._assemble(
                q, cochain_dim(q, self.md.n, self.rep.m), self._delta_terms)
        return self._delta[q]

    def phi_matrix(self, q: int) -> Matrix:
        """Cochain map C^q -> C^q built from the differentials and weight."""
        _check_degree(q)
        if q not in self._phi:
            self._phi[q] = self._assemble(
                q - 1, cochain_dim(q, self.md.n, self.rep.m), self._phi_terms)
        return self._phi[q]

    def partial_matrix(self, q: int) -> Matrix:
        """Total differential C^q + C^(q-1) -> C^(q+1) + C^q.

        Degree 1 sends f to (delta f, -Phi f); higher degrees are the block
        matrix [[delta_q, 0], [(-1)^q Phi_q, delta_(q-1)]]."""
        _check_degree(q)
        if q not in self._partial:
            n, m = self.md.n, self.rep.m
            up, mid = cochain_dim(q + 1, n, m), cochain_dim(q, n, m)
            low = cochain_dim(q - 1, n, m) if q > 1 else 0
            # the total holds its blocks: the largest allocation of a degree
            _check_entry_budget(up + mid, mid + low)
            if q == 1:
                mat = Matrix.vstack([self.delta_matrix(1), -self.phi_matrix(1)])
            else:
                phi = self.phi_matrix(q)
                mat = Matrix.block([
                    [self.delta_matrix(q), Matrix.zeros(up, low)],
                    [phi if q % 2 == 0 else -phi, self.delta_matrix(q - 1)],
                ])
            self._partial[q] = mat
        return self._partial[q]

    # -- assembly ---------------------------------------------------------

    @cached_property
    def _tables(self):
        """Sparse operator data shared by every assembly of this complex."""
        md, rep, n = self.md, self.rep, self.md.n
        pairs = pair_basis(n)
        leibniz = leibniz_data(md)
        dim = len(pairs)
        return SimpleNamespace(
            pairs=pairs,
            # [X_a, X_b]_F and d_F(X_a) on the pair basis
            bracket_F=[[list(_sparse_row(leibniz.bracket_basis(a, b)).items())
                        for b in range(dim)] for a in range(dim)],
            d_F=[list(col.items()) for col in leibniz.d_F.transpose().sparse_rows],
            # [X_a, e_k] and d(e_k) on the algebra basis
            ad=[[list(_sparse_row(md.algebra.bracket_basis(i, j, k)).items())
                 for k in range(n)] for i, j in pairs],
            d=[list(col.items()) for col in md.d.transpose().sparse_rows],
            rho=[[_sparse_entries(rep.rho_basis(i, j)) for j in range(n)]
                 for i in range(n)],
            d_M=_sparse_entries(rep.d_M),
        )

    def _block(self, args, k: int) -> int:
        """First column of the cochain coordinates at pair arguments args and
        final index k (the order of CochainCoordinates.index)."""
        P = len(self._tables.pairs)
        idx = 0
        for p in args:
            idx = idx * P + p
        return (idx * self.md.n + k) * self.rep.m

    def _delta_terms(self, arg, k):
        """Terms of (delta f)(X_1, ..., X_q, e_k) for the pairs X_i in arg."""
        tb, block = self._tables, self._block
        pairs, rho = tb.pairs, tb.rho
        xq, yq = pairs[arg[-1]]
        head = arg[:-1]
        # boundary terms pairing the last pair with the final slot
        top = 1 if len(arg) % 2 else -1
        yield rho[yq][k], [(block(head, xq), top)]
        yield rho[k][xq], [(block(head, yq), top)]
        for i, a in enumerate(arg):
            # alternating sign of the i-th pair, +1 for the first
            sign = -1 if i % 2 else 1
            rest = arg[:i] + arg[i + 1:]
            # action of the removed pair
            yield rho[pairs[a][0]][pairs[a][1]], [(block(rest, k), sign)]
            # bracket absorbed into the final slot
            yield None, [(block(rest, kk), -sign * c) for kk, c in tb.ad[a][k]]
            # [X_i, X_l]_F absorbed into a later pair slot
            for l in range(i, len(rest)):
                yield None, [(block(rest[:l] + (p,) + rest[l + 1:], k), -sign * c)
                             for p, c in tb.bracket_F[a][rest[l]]]

    def _phi_terms(self, arg, k):
        """Terms of (Phi f)(X_1, ..., X_(q-1), e_k): d_F on each pair slot
        (it carries the weight), d on the final slot, minus d_M on values."""
        tb, block = self._tables, self._block
        for i, a in enumerate(arg):
            yield None, [(block(arg[:i] + (p,) + arg[i + 1:], k), c)
                         for p, c in tb.d_F[a]]
        yield None, [(block(arg, kk), c) for kk, c in tb.d[k]]
        yield tb.d_M, [(block(arg, k), -1)]

    def _assemble(self, arity: int, cols: int, terms) -> Matrix:
        """Matrix whose row block (arg, k) sums the terms(arg, k).

        Row blocks run over pair-index tuples ``arg`` of length ``arity`` and
        a final index k, in cochain coordinate order, m rows each.  A term
        (T, columns) adds coeff * T(values of f at block) for each (block,
        coeff) in columns, a column block as _block numbers it; T holds the
        sparse entries of a module endomorphism, None meaning the identity."""
        n, m = self.md.n, self.rep.m
        P = len(self._tables.pairs)
        rows = P ** arity * n * m
        _check_entry_budget(rows, cols)
        data = [{} for _ in range(rows)]
        identity = [(r, r, None) for r in range(m)]  # t None: no product
        blocks = product(product(range(P), repeat=arity), range(n))
        for block, (arg, k) in enumerate(blocks):
            row_base = block * m
            for T, columns in terms(arg, k):
                T = identity if T is None else T
                for col_base, coeff in columns:
                    for r, r0, t in T:
                        row = data[row_base + r]
                        j = col_base + r0
                        v = coeff if t is None else coeff * t
                        prev = row.get(j)
                        row[j] = v if prev is None else prev + v
        # terms can cancel; the matrix stores no zeros
        return Matrix._raw(rows, cols,
                           ({j: v for j, v in row.items() if v} for row in data))

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
        _check_degree(q)
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
