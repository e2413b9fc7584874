"""Cochain complex of a modified weighted-differential 3-Lie algebra.

Assembles the coboundary delta, the cochain map Phi, and the total
differential on C^q + C^(q-1) as sparse exact matrices over the canonical
cochain bases, and decides cocycle/coboundary membership and cohomology
dimensions by exact elimination, or dimensions alone by the certificate
and the commutant below.

One assembler builds delta and Phi: it enumerates the row blocks (pair
arguments, final index) once, each operator lists its terms per block, and
the terms accumulate into sparse rows; the total differential stacks those
rows, so no dense matrix is built on the way to elimination.  A term either
substitutes one argument of the column cochain by a sparse table vector
([X, Y]_F or [X, e_k] for delta; d_F, which carries the weight, or d for
Phi) or applies rho or -d_M to its values, so it names the column blocks it
reads, each with one coefficient.  A column block's first index is a sum of
one stride per pair slot and the final index times m, so substituting p for
the pair in slot l moves a block by (p - arg[l]) stride_l.  The tables are
built once per complex, those of [X, Y]_F and d_F (from
structures.leibniz_data) only when a degree of 2 or more first reads them;
no axiom is verified, so invalid input assembles too.  Every term is a table
entry times +-1, so assembly runs over integers: the tables are scaled once
by the lcm D of all their denominators, known before the pair tables are
built, and each row is its integers over D (exactnum's integer rows, which
only the assembler writes and only the quotient below reads).
The degree is generic, but sizes grow like C(n,2)^(q-1), and a matrix whose
rows x cols exceeds MAX_DENSE_ENTRIES is refused before it is built.

Dimensions from a certificate.  The total complex is the mapping cone of
Phi.  Lemma: if the algebra passes structures.verify_3lie and
verify_modified_differential and the representation passes
verify_representation, then delta and Phi are the coboundary and the cochain
map of the paper's cochain complex, so partial_q partial_(q-1) = 0 in every
degree: delta delta = 0 and Phi_q delta_(q-1) = delta_(q-1) Phi_(q-1).  If
moreover Phi_q is injective, Phi_q maps B^q = im delta_(q-1) onto itself;
for every g in C^(q-1) exactly one f, namely (-1)^(q+1) Phi_q^-1
delta_(q-1) g in B^q, has (f, g) in ker partial_q, so rank partial_q =
dim C^q.  At q = 1, partial_1 = (delta_1, -Phi_1) is injective with Phi_1
and no condition is needed.  Injectivity is certified by a nonzero det
Phi_q mod the prime 2^30 - 35 (exactnum.CERTIFICATE_PRIME), below 2^30 so
that every residue is one digit of a CPython int.  Phi_q is the Kronecker
sum of q - 1 copies of d_F^T, then d^T and -d_M, and one
exactnum.PhiDeterminant per complex computes its determinant from d, d_M
and lam alone, from exact spectra or from characteristic polynomials mod
p: Phi_q is neither assembled nor eliminated, and neither d_F nor
leibniz_data is built.  The axioms are needed, because input that fails
them can have Phi_q invertible and rank partial_q != dim C^q; such input is
never certified and always eliminated.
Every certificate runs before the axioms are verified, and they are
verified once per complex, so a singular Phi on the dims-only path and a
degree-1 request run no verifier; the verdict only chooses the path, and the
numbers are those of full elimination either way.  For the adjoint
representation of this algebra object, or its coadjoint
(structures.implied_by_algebra, which the verify command reads too), only
verify_3lie and verify_modified_differential run: an algebra that passes
them makes both a representation (structures.Representation says why, and
the tests check it against verify_representation).  Any other
representation, a file equal to the adjoint included, is verified by
verify_representation as well.

Degree 1 from the commutant of d.  ker partial_1 = ker delta_1 cap ker
Phi_1, and Phi_1 f = f d - d_M f, so where d_M = d (the adjoint) ker Phi_1
is the commutant of d.  Lemma: when d has n distinct eigenvalues, d is
cyclic, and its commutant is Q[d] = span(I, d, ..., d^(n-1)), of dimension
n.  So rank partial_1 = n^2 - n + rank(delta_1 K), where K holds the n
vectors of Q[d] as degree-1 cochains.  This is linear algebra alone and
holds on every input, valid or not, so no verifier runs.  The condition is
one PhiDeterminant query, read from d's spectrum or its polynomial mod p
(no spectrum or polynomial of Phi_1 or d_F).  Every term of delta_1 reads
a bracket value or an action matrix, both stored without zeros, so where
the algebra has no bracket value and the representation no action (the
adjoint of an abelian algebra) rank(delta_1 K) = 0 and nothing is
assembled; elsewhere only delta_1 is, and the n-column product delta_1 K
is formed and eliminated.  Every other degree-1 rank with Phi_1 singular (a
repeated eigenvalue, another d_M, a prime that divides a denominator of d)
eliminates partial_1.

One predicate, the lemma's condition, serves both paths of cohomology_dim,
and so does a second, the condition of the weight split below (q >= 2, d
and d_M diagonal, Phi_q or Phi_(q-1) with a nonzero eigenvalue in the exact
spectrum, and the axioms verified).  Without representatives, z =
dim(C^q + C^(q-1)) - rank partial_q and b = rank partial_(q-1), each from
the lemma when it applies, from the weight split when its condition holds,
and by exact elimination otherwise.  With representatives, the corollary
H^q = 0: when the lemma gives both rank partial_q = dim C^q and rank
partial_(q-1) = dim C^(q-1) (Phi_q and, from q = 2 on, Phi_(q-1)
certified, and the axioms verified), then z = dim C^(q-1) = b and the list
of representatives is empty, so nothing is assembled and no kernel
computed; in every other case the representatives are the kernel vectors
of partial_q at the pivots of [partial_(q-1) | K] beyond partial_(q-1),
found as below, on the weight-0 blocks where the split's condition holds.
The budget of the degree-q total is checked before any certificate on both
paths, so a request too large to assemble is refused at once, not after a
certificate whose cost grows with dim C^q.

Weight split.  Where d and d_M are diagonal, with diagonals mu and eta,
Phi is diagonal in cochain coordinates: the coordinate (a_1, ...,
a_(q-1), k, r) has the weight sum_s (mu_i + mu_j + lam)_(a_s) + mu_k -
eta_r.  Lemma: on input that passes the axioms, Phi delta = delta Phi, so
delta joins no two coordinates of different weight, and partial_q splits by
coordinates into two blocks.  Phi vanishes on the weight-0 block, which is
diag(delta_q^Z, delta_(q-1)^Z).  The weight-nonzero block is the cone of an
invertible diagonal map, so it is acyclic: its rank is dim C^q_N (the lemma
above, on that summand), and its kernel is the image of its degree-(q-1)
block, of dimension dim C^(q-1)_N.  So rank partial_q = rank delta_q^Z +
rank delta_(q-1)^Z + dim C^q_N, and the quotient of the weight-0 blocks
gives z and b short by dim C^(q-1)_N each.  The representatives are those
of full elimination, byte for byte: the two blocks have disjoint row and
column supports, so the leftmost independent pivots of partial_q, the
normal-form kernel vector at each free column (supported on earlier pivots
and that column) and the pivots of [partial_(q-1) | K] all split by weight,
and no weight-nonzero free column names a representative, as its kernel
vector lies in the image of partial_(q-1).  So the split is the full path
on the weight-0 coordinates, with Phi's blocks zero: one stacking, one
quotient and one embedding (below).  The weight-0 coordinates of each
degree come from the weights of the pair tuples and a lookup of (k, r) by
weight, once per complex, and their number is checked against the
multiplicity of 0 in Phi's exact spectrum (PhiDeterminant.zero_multiplicity).
delta_q^Z comes from the one assembler, told which rows to build and where
each column goes; an entry on a weight-nonzero column is an internal error.
The nonzero eigenvalue is read from the spectrum before any verifier runs:
where every weight is 0 (d = k I with the adjoint, d = d_M = 0) nothing
would split, and the full totals are eliminated as before.

Representatives from the free coordinates.  Let B = partial_(q-1), with no
columns at q = 1, F the z free columns of the echelon form of partial_q, and
K the kernel basis of partial_q; a vector of ker partial_q is fixed by its
coordinates on F, and K restricted to the rows F is diagonal with positive
entries.  Lemma, for every input: [B | K] has the pivots of
[[partial_q B, 0], [B|_F, I_z]].  Indeed B y + K w = 0 exactly when
partial_q B y = 0 and B|_F y + K|_F w = 0, because B y + K w then lies in
ker partial_q and vanishes on F; scaling K|_F to I_z moves no pivot.  The
top block is partial_q partial_(q-1), zero at q = 1 and on input that
passes the axioms, and built only on input that fails one.  So
cohomology_dim pivots that matrix: its pivots inside the boundary block
count b, those beyond it name the free columns whose kernel vectors are the
representatives, and only those vectors are back-substituted; row f of the
lower block is its integer row with its denominator at the identity column.
cohomology_dim takes this step once, on the full or the weight-0 totals,
and embeds each kernel vector through their coordinate lists.

Caching: a ComplexAssembly memoizes assembled matrices, the tables and,
from degree 2 on, the pair tables, the weight-0 coordinates and the
delta_q^Z of the weight split (not its totals), and the axiom verdict; its
PhiDeterminant keeps the spectral data of every degree certified so far,
so a certificate of Phi_q after one of Phi_(q-1) adds one d_F factor and
takes one product or one resultant.  Population is idempotent (pure
recomputation), so a racing first access at worst computes twice and
discards one copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from math import lcm
from operator import mul
from types import SimpleNamespace
from typing import Optional

from .errors import InputError
from .exactnum import (
    Matrix, PhiDeterminant, Vector, vec_is_zero,
)
from .multilin import CochainCoordinates, cochain_dim, pair_basis
from .structures import (
    MD3LieAlgebra, Representation, implied_by_algebra, leibniz_data,
    verify_3lie, verify_modified_differential, verify_representation,
)

#: Largest matrix, in rows x cols, that the assembly will build; the abelian
#: n=4 degree-3 total differential (about 2.7M entries) fits.
MAX_DENSE_ENTRIES = 10_000_000
#: No higher degree fits the budget once n >= 3 (C^(q+1) has 2^q coordinates
#: or more); checked first, it also bounds n <= 2 and the powers in cochain_dim.
MAX_DEGREE = MAX_DENSE_ENTRIES.bit_length()

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
        """The one place a dense vector becomes items: f's, then g's."""
        fdim = cochain_dim(degree, n, m)
        width = fdim + (cochain_dim(degree - 1, n, m) if degree > 1 else 0)
        if len(coords) != width:
            raise InputError(f"stacked vector of length {len(coords)}, expected {width}")
        f = CochainCoordinates(degree, n, m, dict(enumerate(coords[:fdim])))
        return cls(degree, f, None if degree == 1 else CochainCoordinates(
            degree - 1, n, m, dict(enumerate(coords[fdim:]))))

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
        self._phi_det = PhiDeterminant(md.d, rep.d_M, md.lam)
        # the weight split: weight-0 coordinates of C^q, delta_q between them
        self._zero: dict[int, tuple[int, ...]] = {}
        self._zero_delta: dict[int, Matrix] = {}

    # -- matrices ---------------------------------------------------------

    def delta_matrix(self, q: int) -> Matrix:
        """Coboundary C^q -> C^(q+1) in the canonical cochain bases."""
        _check_degree(q)
        if q not in self._delta:
            self._delta[q] = self._assemble(q, q - 1, self._delta_terms)
        return self._delta[q]

    def phi_matrix(self, q: int) -> Matrix:
        """Cochain map C^q -> C^q built from the differentials and weight."""
        _check_degree(q)
        if q not in self._phi:
            self._phi[q] = self._assemble(q - 1, q - 1, self._phi_terms)
        return self._phi[q]

    def partial_matrix(self, q: int) -> Matrix:
        """Total differential C^q + C^(q-1) -> C^(q+1) + C^q.

        Degree 1 sends f to (delta f, -Phi f); higher degrees are the block
        matrix [[delta_q, 0], [(-1)^q Phi_q, delta_(q-1)]]."""
        _check_degree(q)
        if q not in self._partial:
            self._total_dims(q)  # refuses a total over the budget
            self._partial[q] = self._stack(
                q, self.delta_matrix(q), self.phi_matrix(q),
                self.delta_matrix(q - 1) if q > 1 else None)
        return self._partial[q]

    @staticmethod
    def _stack(q: int, delta: Matrix, phi: Matrix, low: Optional[Matrix]) -> Matrix:
        """partial_q from delta_q, Phi_q and delta_(q-1) (None at q = 1),
        on all coordinates or on the same coordinate list in each degree."""
        if q == 1:
            return Matrix.vstack([delta, -phi])
        return Matrix.block([[delta, Matrix.zeros(delta.rows, low.cols)],
                             [phi if q % 2 == 0 else -phi, low]])

    def _total_dims(self, q: int) -> tuple[int, int, int]:
        """dim C^(q+1), dim C^q and dim C^(q-1) (0 at q = 1); refuses a
        degree-q total differential over the budget, by arithmetic alone."""
        n, m = self.md.n, self.rep.m
        up, mid = cochain_dim(q + 1, n, m), cochain_dim(q, n, m)
        low = cochain_dim(q - 1, n, m) if q > 1 else 0
        # the total holds its blocks: the largest allocation of a degree
        _check_entry_budget(up + mid, mid + low)
        return up, mid, low

    # -- assembly ---------------------------------------------------------

    @cached_property
    def _leibniz(self):
        return leibniz_data(self.md)

    @cached_property
    def _tables(self):
        """Sparse operator data shared by every assembly of this complex,
        each entry c stored as ``scaled(c)``, c times ``den``, the lcm of all
        their denominators and those of _pair_tables, which only degrees 2
        and up read.  No table here reads leibniz_data: d_F's entries are
        entries of d, or d_ii + d_jj + lam on its diagonal, and those of [X,
        Y]_F sums of structure constants, so lam's denominator (once a pair
        exists) is all they add."""
        md, rep, n = self.md, self.rep, self.md.n
        pairs = pair_basis(n)
        signed, act = md.algebra.bracket.signed, rep._action_items
        den = lcm(*{c.denominator for c in chain(
            (c for items in chain(signed.values(), act.values()) for _, c in items),
            (c for mat in (md.d, rep.d_M) for row in mat.sparse_rows
             for c in row.values()),
            [md.lam] if pairs else ())})

        def scaled(c):
            return c.numerator * (den // c.denominator)

        return SimpleNamespace(
            pairs=pairs,
            den=den,
            scaled=scaled,
            # [X_a, e_k] and d(e_k) on the algebra basis
            ad=[[[(r, scaled(c)) for r, c in signed.get((i, j, k), ())]
                 for k in range(n)] for i, j in pairs],
            d=[[(r, scaled(c)) for r, c in col] for col in md.d.column_items()],
            # (row, column, entry) of rho(e_i, e_j) and of d_M
            rho=[[[(r, s, scaled(c)) for (r, s), c in act.get((i, j), ())]
                  for j in range(n)] for i in range(n)],
            d_M=[(r, s, scaled(c)) for (r, s), c in rep.d_M.entry_items()],
        )

    @cached_property
    def _pair_tables(self):
        """[X_a, X_b]_F (where leibniz_data stores one) and the columns of
        d_F on the pair basis, times _tables.den."""
        leibniz, pairs, scaled = self._leibniz, self._tables.pairs, self._tables.scaled
        bracket_F = [[()] * len(pairs) for _ in pairs]
        for (a, b), items in leibniz.bracket_F.items():
            bracket_F[a][b] = [(j, scaled(c)) for j, c in items]
        return SimpleNamespace(
            bracket_F=bracket_F,
            d_F=[[(r, scaled(c)) for r, c in col]
                 for col in leibniz.d_F.column_items()])

    def _delta_terms(self, arg, k, stride):
        """Terms of (delta f)(X_1, ..., X_q, e_k) for the pairs X_i in arg.

        A term whose action or table vector is zero is not listed: on an
        abelian algebra with the adjoint action every one is, and delta_q is
        assembled without computing a column block."""
        tb, m = self._tables, self.rep.m
        pairs, rho = tb.pairs, tb.rho
        # [X, Y]_F is read from degree 2 on only
        bracket_F = self._pair_tables.bracket_F if len(arg) > 1 else None
        xq, yq = pairs[arg[-1]]
        # the column block of the pairs arg[:-1] (stride is one shorter)
        head = sum(map(mul, arg, stride))
        # boundary terms pairing the last pair with the final slot
        top = 1 if len(arg) % 2 else -1
        if rho[yq][k]:
            yield rho[yq][k], [(head + xq * m, top)]
        if rho[k][xq]:
            yield rho[k][xq], [(head + yq * m, top)]
        for i, a in enumerate(arg):
            # alternating sign of the i-th pair, +1 for the first
            sign = -1 if i % 2 else 1
            rest = arg[:i] + arg[i + 1:]
            base = sum(map(mul, rest, stride))
            # action of the removed pair
            action = rho[pairs[a][0]][pairs[a][1]]
            if action:
                yield action, [(base + k * m, sign)]
            # bracket absorbed into the final slot, with sign -sign
            if tb.ad[a][k]:
                yield None, [(base + kk * m, -sign * c) for kk, c in tb.ad[a][k]]
            # [X_i, X_l]_F absorbed into a later pair slot, with sign -sign
            for l in range(i, len(rest)):
                bracket = bracket_F[a][rest[l]]
                if bracket:
                    at = base + k * m - rest[l] * stride[l]
                    yield None, [(at + p * stride[l], -sign * c)
                                 for p, c in bracket]

    def _phi_terms(self, arg, k, stride):
        """Terms of (Phi f)(X_1, ..., X_(q-1), e_k): d_F on each pair slot
        (it carries the weight), d on the final slot, minus d_M on values."""
        tb, m = self._tables, self.rep.m
        d_F = self._pair_tables.d_F if arg else None
        base = sum(map(mul, arg, stride))
        for i, a in enumerate(arg):
            at = base + k * m - a * stride[i]
            yield None, [(at + p * stride[i], c) for p, c in d_F[a]]
        yield None, [(base + kk * m, c) for kk, c in tb.d[k]]
        yield tb.d_M, [(base + k * m, -1)]

    def _assemble(self, arity: int, col_arity: int, terms, rows=None,
                  columns=None) -> Matrix:
        """Matrix whose row block (arg, k) sums the terms(arg, k, stride),
        over den.

        Row blocks run over pair-index tuples ``arg`` of length ``arity`` and
        a final index k, in cochain coordinate order, m rows each; so do the
        column blocks, over tuples of length ``col_arity``, and the column
        block of (args, k) is ``sum(args[l] * stride[l]) + k * m`` (the
        order of CochainCoordinates.index).  A term (T, columns) adds coeff *
        T(values of f at block) for each (block, coeff) in columns; T holds
        the (row, column, entry) items of a module endomorphism (its coeff is
        then +-1), None meaning the identity.

        Given ``rows``, increasing row indices, and ``columns``, a {column:
        position} map, only the blocks holding those rows are visited, only
        those rows are built, in that order, and column j is column
        columns[j] of the result; an entry at a column outside the map
        raises RuntimeError (the weight split asks where none can land)."""
        n, m = self.md.n, self.rep.m
        P, den = len(self._tables.pairs), self._tables.den
        height, width = P ** arity * n * m, P ** col_arity * n * m
        _check_entry_budget(height, width)
        stride = [P ** (col_arity - 1 - l) * n * m for l in range(col_arity)]
        identity = [(r, r, 1) for r in range(m)]
        if rows is None:
            data, kept = [{} for _ in range(height)], None
        else:
            data, kept = {row: {} for row in rows}, {}
            for row in rows:
                kept.setdefault(row // m, set()).add(row % m)
        blocks = product(product(range(P), repeat=arity), range(n))
        for block, (arg, k) in enumerate(blocks):
            if kept is not None:
                wanted = kept.get(block)
                if wanted is None:
                    continue
            row_base = block * m
            for T, reads in terms(arg, k, stride):
                T = identity if T is None else T
                if kept is not None:
                    T = [item for item in T if item[0] in wanted]
                for col_base, coeff in reads:
                    for r, r0, t in T:
                        row = data[row_base + r]
                        j = col_base + r0
                        row[j] = row.get(j, 0) + coeff * t
        # terms can cancel; the matrix stores no zeros, and only a row that
        # some term touched holds an entry to filter
        if rows is None:
            return Matrix._raw(height, width, int_rows=(
                ({j: v for j, v in row.items() if v} if row else row, den)
                for row in data))
        out = []
        for i in rows:
            row = {j: v for j, v in data[i].items() if v}
            if not row.keys() <= columns.keys():
                raise RuntimeError(f"row {i} has an entry outside the columns asked for")
            out.append(({columns[j]: v for j, v in row.items()}, den))
        return Matrix._raw(len(rows), len(columns), int_rows=out)

    # -- membership and dimensions ----------------------------------------

    def is_cocycle(self, tc: TotalCochain) -> CocycleReport:
        """Whether the total differential kills tc, with its residual
        partial_q tc; one matrix product in every degree.

        No second path checks the verdict at run time.  The tests compare
        partial_1 and partial_2 with a direct evaluation of the displayed
        cocycle identities (tests/oracles.py) and every degree with the long
        exact sequence of the mapping cone."""
        self._check_spaces(tc)
        residual = self.partial_matrix(tc.degree).apply(tc.stacked())
        return CocycleReport(valid=vec_is_zero(residual), residual=residual)

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

    def phi_det_mod_p(self, q: int) -> Optional[int]:
        """det Phi_q modulo exactnum.CERTIFICATE_PRIME from d, d_M and lam
        alone (exactnum.PhiDeterminant), or None when undecided; a nonzero
        value proves Phi_q invertible."""
        _check_degree(q)
        return self._phi_det.mod_p(q)

    @cached_property
    def _axioms_hold(self) -> bool:
        """Whether the algebra and the representation pass their verifiers,
        the condition under which partial partial = 0 (module docstring).
        Where structures.implied_by_algebra holds (the adjoint of this md
        object, or a dual of it), md passing the other two verifiers implies
        verify_representation, so that verifier runs only for other
        representations."""
        md, rep = self.md, self.rep
        return (verify_3lie(md.algebra).valid
                and verify_modified_differential(md).valid
                and (implied_by_algebra(md, rep)
                     or verify_representation(md, rep).valid))

    def _full_rank_proved(self, *degrees: int) -> bool:
        """Whether the lemma in the module docstring proves rank partial_k =
        dim C^k for every k in degrees: Phi_k certified invertible and, when
        some k >= 2, the axioms verified.  Every certificate runs before the
        verifiers, so a singular Phi verifies nothing and assembles nothing."""
        return (all(self.phi_det_mod_p(k) for k in degrees)
                and (max(degrees) < 2 or self._axioms_hold))

    def _total_rank(self, q: int) -> int:
        """Rank of partial_matrix(q): dim C^q when the lemma proves it, from
        the weight-0 blocks where partial_q splits by Phi's weights, at q = 1
        with d_M = d and d of n distinct eigenvalues from the commutant of d
        (module docstring), else by exact elimination.  The budget of the
        degree-q total is checked first, so a request too large to assemble
        is refused before the certificate runs."""
        _, mid, _ = self._total_dims(q)
        if self._full_rank_proved(q):
            return mid
        if self._splits_by_weight(q):
            return (self._zero_delta_matrix(q).rank()
                    + self._zero_delta_matrix(q - 1).rank()
                    + mid - len(self._weight_zero(q)))
        if (q == 1 and self.rep.d_M == self.md.d
                and self._phi_det.d_has_distinct_eigenvalues()):
            return mid - self.md.n + self._commutant_image_rank()
        return self.partial_matrix(q).rank()

    def _commutant_image_rank(self) -> int:
        """rank(delta_1 K), K the n vectors d^j, j < n, of Q[d] as degree-1
        cochains (f(e_k)_r at k m + r).  delta_1 is zero where the bracket
        and the action tables are both empty, since each of its terms reads
        one of them: then nothing is built, neither _tables nor delta_1."""
        if self.md.algebra.bracket.is_zero and not self.rep.rho:
            return 0
        delta_1, d, n = self.delta_matrix(1), self.md.d, self.md.n
        power, K = Matrix.identity(n), {}
        for j in range(n):
            for r, row in enumerate(power.sparse_rows):
                for k, v in row.items():
                    K[k * n + r, j] = v
            power = power @ d
        return (delta_1 @ Matrix.from_entries(n * n, n, K)).rank()

    # -- the weight split -------------------------------------------------

    @cached_property
    def _weights(self) -> Optional[SimpleNamespace]:
        """Where d and d_M are diagonal, with diagonals mu and eta, the
        weight mu_i + mu_j + lam of each pair (``pairs``) and the offsets k m
        + r of the final slot and the value by their weight mu_k - eta_r
        (``tail``), every weight times _tables.den; None elsewhere."""
        if not all(row.keys() <= {i} for mat in (self.md.d, self.rep.d_M)
                   for i, row in enumerate(mat.sparse_rows)):
            return None
        tb, m = self._tables, self.rep.m
        mu = [dict(col).get(k, 0) for k, col in enumerate(tb.d)]
        eta = [0] * m
        for r, _, c in tb.d_M:
            eta[r] = c
        tail = {}
        for k, r in product(range(self.md.n), range(m)):
            tail.setdefault(mu[k] - eta[r], []).append(k * m + r)
        return SimpleNamespace(
            pairs=[mu[i] + mu[j] + tb.scaled(self.md.lam) for i, j in tb.pairs],
            tail=tail)

    def _splits_by_weight(self, q: int) -> bool:
        """Whether partial_q takes the weight split (module docstring): q >=
        2, d and d_M diagonal, an exact spectrum in which Phi_q or
        Phi_(q-1) has a nonzero eigenvalue, and, checked last, the axioms
        verified."""
        if q < 2 or self._weights is None:
            return False
        n, m = self.md.n, self.rep.m
        kernels = [self._phi_det.zero_multiplicity(k) for k in (q, q - 1)]
        return (None not in kernels
                and kernels != [cochain_dim(k, n, m) for k in (q, q - 1)]
                and self._axioms_hold)

    def _weight_zero(self, q: int) -> tuple[int, ...]:
        """The increasing coordinates of C^q of weight 0, from the weights of
        the pair tuples and a lookup of the tail by weight; their number is
        checked against the multiplicity of 0 in Phi_q's exact spectrum."""
        if q not in self._zero:
            weights, width = self._weights, self.md.n * self.rep.m
            heads = [0]  # weights of the pair tuples, in index order
            for _ in range(q - 1):
                heads = [h + x for h in heads for x in weights.pairs]
            zero = tuple(t * width + offset for t, h in enumerate(heads)
                         for offset in weights.tail.get(-h, ()))
            if len(zero) != self._phi_det.zero_multiplicity(q):
                raise RuntimeError(f"{len(zero)} coordinates of weight 0 in degree "
                                   f"{q}, not the multiplicity of 0 in Phi_{q}")
            self._zero[q] = zero
        return self._zero[q]

    def _zero_delta_matrix(self, q: int) -> Matrix:
        """delta_q between the weight-0 coordinates of C^q and C^(q+1)."""
        if q not in self._zero_delta:
            columns = {c: i for i, c in enumerate(self._weight_zero(q))}
            self._zero_delta[q] = self._assemble(
                q, q - 1, self._delta_terms, self._weight_zero(q + 1), columns)
        return self._zero_delta[q]

    def _zero_total(self, q: int) -> Matrix:
        """partial_q on the weight-0 coordinates, where Phi vanishes."""
        zero = len(self._weight_zero(q))
        return self._stack(q, self._zero_delta_matrix(q), Matrix.zeros(zero, zero),
                           self._zero_delta_matrix(q - 1) if q > 1 else None)

    # -- dimensions and representatives -----------------------------------

    def cohomology_dim(self, q: int,
                       representatives: bool = True) -> CohomologySummary:
        """Exact dimensions of cocycles, coboundaries and cohomology.

        Representatives are the kernel basis vectors that extend a basis of
        the coboundary space, so they project to a basis of the quotient;
        when the lemma of the module docstring proves the ranks of the
        degree-q and degree-(q - 1) totals full, H^q = 0 and the list is
        empty without any elimination, and where partial_q splits by Phi's
        weights only the weight-0 blocks are pivoted.  With
        representatives=False the summary lists none, and the dimensions
        come from the ranks of the total differentials in degrees q and q -
        1, which _total_rank may certify without elimination or read from
        the weight-0 blocks.  Both paths refuse a degree-q total over the
        budget before anything else runs."""
        _check_degree(q)
        n, m = self.md.n, self.rep.m
        _, mid, low = self._total_dims(q)
        if not representatives:
            z_dim = mid + low - self._total_rank(q)
            b_dim = self._total_rank(q - 1) if q > 1 else 0
            return CohomologySummary(z_dim, b_dim, z_dim - b_dim, [])
        if self._full_rank_proved(*((q, q - 1) if q > 1 else (q,))):
            return CohomologySummary(low, low, 0, [])
        if self._splits_by_weight(q):
            # the weight-nonzero block is acyclic: its kernel is its image,
            # of dimension dim C^(q-1)_N, and holds no representative
            total, boundary = self._zero_total(q), self._zero_total(q - 1)
            f, g = self._weight_zero(q), self._weight_zero(q - 1)
            composes = True
        else:
            total = self.partial_matrix(q)
            boundary = (self.partial_matrix(q - 1) if q > 1
                        else Matrix.zeros(total.cols, 0))
            f, g = range(mid), range(low)
            composes = q == 1 or self._axioms_hold
        z_dim, b_dim, kernel = self._quotient(total, boundary, composes)
        shift = low - len(g)
        return CohomologySummary(z_dim + shift, b_dim + shift, z_dim - b_dim, [
            TotalCochain(q, CochainCoordinates(q, n, m, dict(zip(f, v))),
                         CochainCoordinates(q - 1, n, m, dict(zip(g, v[len(f):])))
                         if q > 1 else None)
            for v in kernel])

    @staticmethod
    def _quotient(total: Matrix, boundary: Matrix,
                  composes: bool) -> tuple[int, int, list[Vector]]:
        """z, b and the kernel vectors of total (partial_q) that are the
        representatives modulo the image of boundary (partial_(q-1)), by the
        quotient lemma of the module docstring; ``composes`` says that total
        @ boundary is zero, so the top block is not built."""
        width = boundary.cols
        pivoted = set(total.pivot_columns())
        free = [c for c in range(total.cols) if c not in pivoted]
        # the quotient lemma: [[partial_q B, 0], [B|_F, I_z]] has the pivots
        # of [B | K]
        top = () if composes else (total @ boundary)._integer_rows()
        rows = boundary._integer_rows()
        stacked = Matrix._raw(len(top) + len(free), width + len(free), int_rows=chain(
            top, (({**row, width + i: den}, den)
                  for i, (row, den) in enumerate(rows[f] for f in free))))
        pivots = stacked.pivot_columns()
        # the pivots are the leftmost independent columns, so those inside
        # the boundary block count its rank; column width + i is the kernel
        # vector at free[i]
        b_dim = sum(1 for c in pivots if c < width)
        return len(free), b_dim, total.kernel_basis(
            [free[c - width] for c in pivots if c >= width])

    def apply_partial(self, tc: TotalCochain) -> TotalCochain:
        """The total differential applied to tc, as a degree-(q+1) cochain."""
        self._check_spaces(tc)
        image = self.partial_matrix(tc.degree).apply(tc.stacked())
        return TotalCochain.from_stacked(tc.degree + 1, self.md.n, self.rep.m, image)

    def _check_spaces(self, tc: TotalCochain):
        if (tc.f.n, tc.f.m) != (self.md.n, self.rep.m):
            raise InputError("cochain does not live over this complex")
