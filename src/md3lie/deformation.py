"""Linear deformations and the operators that generate or trivialize them.

Deformed structures are the truncated polynomials nu_t = nu0 + t nu1 + t^2 nu2
and d_t = d0 + t d1; every identity is enforced coefficient by coefficient at
all t-orders the polynomial data can produce (bracket orders 0..4, the
deformed-pair compatibility orders 0..3, equivalence orders 0..5 and 0..2).

Trivial deformations carry d1 = 0: the trivializing family intertwines the
undeformed differential on both sides, which forces the linear part of d_t to
vanish.

Every bracket with an operator N in some of its slots is read from the sums
S_0..S_3 of :func:`_slot_sums` (the brackets of a basis triple with N in 0..3
of the slots), summed over nonzero items by SkewTernaryTensor.sparse_call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product

from .cohomology import ComplexAssembly, TotalCochain
from .errors import InputError
from .exactnum import Matrix, sparse_combination, vec_from_sparse
from .multilin import (
    CochainCoordinates, SkewTernaryTensor, embed_skew_trilinear, pair_basis,
)
from .structures import (
    MD3LieAlgebra, Report, Representation, ThreeLieAlgebra, Violation,
    derivation_sides, fundamental_identity_sides,
)


@dataclass(frozen=True)
class LinearDeformation:
    """Deformation data (nu1, nu2, d1) over a fixed base."""

    base: MD3LieAlgebra
    nu1: SkewTernaryTensor
    nu2: SkewTernaryTensor
    d1: Matrix

    def __post_init__(self):
        n = self.base.n
        for t in (self.nu1, self.nu2):
            if t.dim_in != n or t.dim_out != n:
                raise InputError("deformation tensor shape mismatch")
        if self.d1.rows != n or self.d1.cols != n:
            raise InputError("deformation differential shape mismatch")

    @classmethod
    def zero(cls, base: MD3LieAlgebra) -> "LinearDeformation":
        n = base.n
        return cls(base, SkewTernaryTensor.zero(n, n),
                   SkewTernaryTensor.zero(n, n), Matrix.zeros(n, n))

    @property
    def is_zero(self) -> bool:
        return self.nu1.is_zero and self.nu2.is_zero and self.d1.is_zero


def _summed_sides(sides) -> tuple[dict, dict]:
    lhs, rhs = zip(*sides)
    return (sparse_combination((1, side.items()) for side in lhs),
            sparse_combination((1, side.items()) for side in rhs))


def verify_linear_deformation(ld: LinearDeformation) -> Report:
    """Order-by-order check of the deformed axioms on basis tuples.

    The order-k identity sums the base law's sides over the coefficient
    pairs (nu_i, nu_j) or (nu_i, d_j) with i + j = k; the weight term
    lam nu_k rides on the pair (nu_k, d_0).  Order 0 reproduces the base
    axioms, so an invalid base shows up here as order-0 violations."""
    n = ld.base.n
    nus = (ld.base.algebra.bracket, ld.nu1, ld.nu2)
    ds = (ld.base.d.column_items(), ld.d1.column_items())
    lam = ld.base.lam
    violations = []

    def record(law, args, lhs, rhs):
        if lhs != rhs:
            violations.append(Violation(law, args, vec_from_sparse(lhs, n),
                                        vec_from_sparse(rhs, n)))

    for order in range(5):
        terms = [(nus[i], nus[order - i]) for i in range(3) if 0 <= order - i <= 2]
        for i1, i2 in pair_basis(n):
            for t3 in combinations(range(n), 3):
                idx = (i1, i2) + t3
                record(f"bracket identity at order {order}", idx, *_summed_sides(
                    fundamental_identity_sides(outer, inner, idx)
                    for outer, inner in terms))

    for order in range(4):
        terms = [(i, order - i) for i in range(3) if 0 <= order - i <= 1]
        for triple in combinations(range(n), 3):
            record(f"differential rule at order {order}", triple, *_summed_sides(
                derivation_sides(nus[i], ds[j], triple, lam if j == 0 else 0)
                for i, j in terms))
    return Report.from_violations(violations)


def infinitesimal(ld: LinearDeformation) -> TotalCochain:
    """The degree-2 cochain (nu1, d1) attached to a deformation.

    For a valid deformation this is a cocycle in the complex with adjoint
    coefficients."""
    return TotalCochain(
        2, embed_skew_trilinear(ld.nu1),
        CochainCoordinates.from_linear_map(ld.d1))


def check_equivalence(ld: LinearDeformation, ld2: LinearDeformation,
                      N: Matrix) -> bool:
    """Whether id + tN intertwines the two deformed structures identically in t.

    The bracket side is compared at orders 0..5 and the differential side at
    orders 0..2: every order the polynomial data can produce."""
    if ld.base != ld2.base:
        raise InputError("deformations live over different bases")
    n = ld.base.n
    if N.rows != n or N.cols != n:
        raise InputError("equivalence map shape mismatch")
    d0 = ld.base.d
    # differential side: N_t d_t = d'_t N_t
    if N @ d0 + ld.d1 != d0 @ N + ld2.d1:
        return False
    if N @ ld.d1 != ld2.d1 @ N:
        return False

    nus = (ld.base.algebra.bracket, ld.nu1, ld.nu2)
    nus2 = (ld.base.algebra.bracket, ld2.nu1, ld2.nu2)
    ncols = N.column_items()
    for triple in combinations(range(n), 3):
        # N_t nu_t(a, b, c) and nu'_t(N_t a, N_t b, N_t c), order by order
        lhs = [[] for _ in range(6)]
        rhs = [[] for _ in range(6)]
        for j in range(3):
            value = nus[j].signed.get(triple, ())
            lhs[j].append((1, value))
            lhs[j + 1].extend(_through(ncols, value, 1))
            for s, side in enumerate(_slot_sums(nus2[j], ncols, triple)):
                rhs[j + s].append((1, side.items()))
        if any(sparse_combination(a) != sparse_combination(b)
               for a, b in zip(lhs, rhs)):
            return False
    return True


def _through(cols, items, sign):
    """Terms of sign * M v for the items of v, M given by its column items."""
    return ((sign * c, cols[r]) for r, c in items)


def _slot_sums(br: SkewTernaryTensor, ncols, triple) -> list[dict]:
    """[A a, B b, C c] on a basis triple (a, b, c), for A, B, C each the
    identity or N, summed by how many of them are N: S_0 = [a, b, c] to
    S_3 = [Na, Nb, Nc], as {index: value} dicts without zeros.  ``ncols``
    holds the column items of N."""
    one = Fraction(1)
    slots = [(((i, one),), ncols[i]) for i in triple]
    sums = [[] for _ in range(4)]
    for choice in product((0, 1), repeat=3):
        value = br.sparse_call(*(slot[c] for slot, c in zip(slots, choice)))
        sums[sum(choice)].append((1, value.items()))
    return [sparse_combination(terms) for terms in sums]


def is_nijenhuis(md: MD3LieAlgebra, N: Matrix) -> Report:
    """Differential commutation plus the cubic compatibility identity
    S_3 = N S_2 - N^2 S_1 + N^3 S_0 in the sums of :func:`_slot_sums`."""
    n = md.n
    if N.rows != n or N.cols != n:
        raise InputError("operator shape mismatch")
    violations = []
    if N @ md.d != md.d @ N:
        violations.append(Violation(
            "differential commutation", (), N @ md.d, md.d @ N))
    N2 = N @ N
    n1, n2, n3 = (P.column_items() for P in (N, N2, N2 @ N))
    for triple in combinations(range(n), 3):
        s0, s1, s2, s3 = _slot_sums(md.algebra.bracket, n1, triple)
        rhs = sparse_combination(chain(_through(n1, s2.items(), 1),
                                       _through(n2, s1.items(), -1),
                                       _through(n3, s0.items(), 1)))
        if s3 != rhs:
            violations.append(Violation("Nijenhuis identity", triple,
                                        vec_from_sparse(s3, n),
                                        vec_from_sparse(rhs, n)))
    return Report.from_violations(violations)


def nijenhuis_deformed_algebra(md: MD3LieAlgebra, N: Matrix) -> MD3LieAlgebra:
    """The deformed bracket S_2 - N S_1 + N^2 S_0 of a Nijenhuis operator,
    which is nu2 of its trivial deformation, with the same d and weight."""
    nu2 = trivial_deformation_from_nijenhuis(md, N).nu2
    return MD3LieAlgebra(ThreeLieAlgebra(md.n, nu2), md.diff)


def trivial_deformation_from_nijenhuis(md: MD3LieAlgebra, N: Matrix) -> LinearDeformation:
    """The trivial deformation generated by a Nijenhuis operator (d1 = 0).

    nu1 = S_1 - N S_0 absorbs the operator once, nu2 = S_2 - N nu1 twice;
    the cubic closure N nu2 = S_3 is re-checked here as an internal
    invariant."""
    if not is_nijenhuis(md, N).valid:
        raise InputError("operator fails the Nijenhuis conditions")
    n = md.n
    ncols = N.column_items()
    nu1, nu2 = {}, {}
    for triple in combinations(range(n), 3):
        s0, s1, s2, s3 = _slot_sums(md.algebra.bracket, ncols, triple)
        once = sparse_combination(chain([(1, s1.items())],
                                        _through(ncols, s0.items(), -1)))
        twice = sparse_combination(chain([(1, s2.items())],
                                         _through(ncols, once.items(), -1)))
        if sparse_combination(_through(ncols, twice.items(), 1)) != s3:
            raise RuntimeError("cubic closure failed for a validated operator")
        nu1[triple], nu2[triple] = once, twice
    return LinearDeformation(md, SkewTernaryTensor(n, n, nu1),
                             SkewTernaryTensor(n, n, nu2), Matrix.zeros(n, n))


@dataclass(frozen=True)
class OOperator:
    """Module-to-algebra operator satisfying the relative conditions."""

    md: MD3LieAlgebra
    rep: Representation
    R: Matrix

    def __post_init__(self):
        report = is_o_operator(self.md, self.rep, self.R)
        if not report.valid:
            raise InputError("operator fails the relative operator conditions")


def is_o_operator(md: MD3LieAlgebra, rep: Representation, R: Matrix) -> Report:
    """Relative operator conditions for a module-to-algebra map.

    [Ra, Rb, Rc] = R(rho(Ra, Rb) c + rho(Rb, Rc) a + rho(Rc, Ra) b) on module
    basis triples, summed over the column items of R and of the actions."""
    n, m = md.n, rep.m
    if R.rows != n or R.cols != m:
        raise InputError(f"operator must be {n}x{m}")
    violations = []
    if R @ rep.d_M != md.d @ R:
        violations.append(Violation(
            "differential intertwining", (), R @ rep.d_M, md.d @ R))
    br = md.algebra.bracket
    rcols = R.column_items()
    acts = {p: mat.column_items() for p, mat in rep._signed_actions.items()}

    def acting(x, y, c):
        # rho(R e_x, R e_y) e_c as terms over the nonzero actions
        return [(cp * cq, acts[p, q][c]) for p, cp in rcols[x]
                for q, cq in rcols[y] if (p, q) in acts]

    for a, b, c in combinations(range(m), 3):
        lhs = br.sparse_call(rcols[a], rcols[b], rcols[c])
        inner = sparse_combination(acting(a, b, c) + acting(b, c, a) + acting(c, a, b))
        rhs = sparse_combination(_through(rcols, inner.items(), 1))
        if lhs != rhs:
            violations.append(Violation("relative bracket condition", (a, b, c),
                                        vec_from_sparse(lhs, n), vec_from_sparse(rhs, n)))
    return Report.from_violations(violations)


def o_operator_lift(md: MD3LieAlgebra, rep: Representation, R: Matrix) -> Matrix:
    """Strictly triangular lift to the semidirect-product carrier.

    The lift squares to zero, and it is a Nijenhuis operator on the
    semidirect product exactly when R satisfies the relative conditions."""
    n, m = md.n, rep.m
    if R.rows != n or R.cols != m:
        raise InputError(f"operator must be {n}x{m}")
    return Matrix.block([
        [Matrix.zeros(n, n), R],
        [Matrix.zeros(m, n), Matrix.zeros(m, m)],
    ])


def inverse_cocycle_check(md: MD3LieAlgebra, rep: Representation,
                          R: Matrix) -> bool:
    """Whether the inverse of R is a degree-1 cocycle; matches is_o_operator.

    Requires an invertible R between spaces of equal dimension."""
    if rep.m != md.n:
        raise InputError("inverse check needs module dimension equal to the algebra")
    if R.rows != md.n or R.cols != rep.m:
        raise InputError("operator shape mismatch")
    inv = R.inverse()  # raises InputError when singular
    asm = ComplexAssembly(md, rep)
    tc = TotalCochain(1, CochainCoordinates.from_linear_map(inv), None)
    return asm.is_cocycle(tc).valid
