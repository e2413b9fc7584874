"""Linear deformations and the operators that generate or trivialize them.

Deformed structures are the truncated polynomials nu_t = nu0 + t nu1 + t^2 nu2
and d_t = d0 + t d1; every identity is enforced coefficient by coefficient at
all t-orders the polynomial data can produce (bracket orders 0..4, the
deformed-pair compatibility orders 0..3, equivalence orders 0..5 and 0..2).

Trivial deformations carry d1 = 0: the trivializing family intertwines the
undeformed differential on both sides, which forces the linear part of d_t to
vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from .cohomology import ComplexAssembly, TotalCochain
from .errors import InputError
from .exactnum import (
    Matrix, sparse_combination, unit, vec_add, vec_from_sparse, vec_sub, vec_zero,
)
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
    units = [unit(n, i) for i in range(n)]
    ncols = [N.column(i) for i in range(n)]
    for a, b, c in combinations(range(n), 3):
        lhs = [vec_zero(n) for _ in range(6)]
        v = [nus[i].basis_value(a, b, c) for i in range(3)]
        lhs[0] = v[0]
        lhs[1] = vec_add(v[1], N.apply(v[0]))
        lhs[2] = vec_add(v[2], N.apply(v[1]))
        lhs[3] = N.apply(v[2])
        rhs = [vec_zero(n) for _ in range(6)]
        args = {0: (units[a], units[b], units[c]),
                1: (ncols[a], ncols[b], ncols[c])}
        for j in range(3):
            for alpha, beta, gamma in product((0, 1), repeat=3):
                order = j + alpha + beta + gamma
                val = nus2[j](args[alpha][0], args[beta][1], args[gamma][2])
                rhs[order] = vec_add(rhs[order], val)
        if lhs != rhs:
            return False
    return True


def _n_expansions(br: SkewTernaryTensor, ncols, a: int, b: int, c: int):
    """Bracket sums on a basis triple with N applied to some arguments.

    Returns ([Na,b,c] + [a,Nb,c] + [a,b,Nc], [a,Nb,Nc] + [Na,b,Nc] + [Na,Nb,c])
    for basis vectors a, b, c, where ``ncols`` are the columns of N."""
    na, nb, nc = ncols[a], ncols[b], ncols[c]
    once = vec_add(vec_add(br.pair_value(b, c, na), br.pair_value(c, a, nb)),
                   br.pair_value(a, b, nc))
    ea, eb, ec = (unit(br.dim_in, i) for i in (a, b, c))
    twice = vec_add(vec_add(br(ea, nb, nc), br(na, eb, nc)), br(na, nb, ec))
    return once, twice


def is_nijenhuis(md: MD3LieAlgebra, N: Matrix) -> Report:
    """Differential commutation plus the cubic compatibility identity."""
    n = md.n
    if N.rows != n or N.cols != n:
        raise InputError("operator shape mismatch")
    violations = []
    if N @ md.d != md.d @ N:
        violations.append(Violation(
            "differential commutation", (), N @ md.d, md.d @ N))
    br = md.algebra.bracket
    ncols = [N.column(i) for i in range(n)]
    N2 = N @ N
    N3 = N2 @ N
    for a, b, c in combinations(range(n), 3):
        lhs = br(ncols[a], ncols[b], ncols[c])
        once, twice = _n_expansions(br, ncols, a, b, c)
        rhs = vec_add(
            vec_sub(N.apply(twice), N2.apply(once)),
            N3.apply(br.basis_value(a, b, c)))
        if lhs != rhs:
            violations.append(Violation("Nijenhuis identity", (a, b, c), lhs, rhs))
    return Report.from_violations(violations)


def _require_nijenhuis(md: MD3LieAlgebra, N: Matrix) -> None:
    if not is_nijenhuis(md, N).valid:
        raise InputError("operator fails the Nijenhuis conditions")


def nijenhuis_deformed_algebra(md: MD3LieAlgebra, N: Matrix) -> MD3LieAlgebra:
    """The deformed bracket of a Nijenhuis operator, with the same d and weight."""
    _require_nijenhuis(md, N)
    n = md.n
    br = md.algebra.bracket
    ncols = [N.column(i) for i in range(n)]
    N2 = N @ N

    def deformed(a, b, c):
        once, twice = _n_expansions(br, ncols, a, b, c)
        return vec_add(vec_sub(twice, N.apply(once)),
                       N2.apply(br.basis_value(a, b, c)))

    tensor = SkewTernaryTensor.from_function(n, n, deformed)
    return MD3LieAlgebra(ThreeLieAlgebra(n, tensor), md.diff)


def trivial_deformation_from_nijenhuis(md: MD3LieAlgebra, N: Matrix) -> LinearDeformation:
    """The trivial deformation generated by a Nijenhuis operator (d1 = 0).

    nu1 absorbs the operator once, nu2 twice; the cubic closure
    N nu2 = [N-, N-, N-] is re-checked here as an internal invariant."""
    _require_nijenhuis(md, N)
    n = md.n
    br = md.algebra.bracket
    ncols = [N.column(i) for i in range(n)]
    expansions = {t: _n_expansions(br, ncols, *t)
                  for t in combinations(range(n), 3)}
    nu1 = SkewTernaryTensor.from_function(n, n, lambda a, b, c: vec_sub(
        expansions[a, b, c][0], N.apply(br.basis_value(a, b, c))))
    nu2 = SkewTernaryTensor.from_function(n, n, lambda a, b, c: vec_sub(
        expansions[a, b, c][1], N.apply(nu1.basis_value(a, b, c))))
    for a, b, c in combinations(range(n), 3):
        if N.apply(nu2.basis_value(a, b, c)) != br(ncols[a], ncols[b], ncols[c]):
            raise RuntimeError("cubic closure failed for a validated operator")
    return LinearDeformation(md, nu1, nu2, Matrix.zeros(n, n))


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
    """Relative operator conditions for a module-to-algebra map."""
    n, m = md.n, rep.m
    if R.rows != n or R.cols != m:
        raise InputError(f"operator must be {n}x{m}")
    violations = []
    if R @ rep.d_M != md.d @ R:
        violations.append(Violation(
            "differential intertwining", (), R @ rep.d_M, md.d @ R))
    br = md.algebra.bracket
    units = [unit(m, i) for i in range(m)]
    rcols = [R.column(i) for i in range(m)]
    for a, b, c in combinations(range(m), 3):
        lhs = br(rcols[a], rcols[b], rcols[c])
        inner = vec_add(
            vec_add(rep.rho_vec(rcols[a], rcols[b]).apply(units[c]),
                    rep.rho_vec(rcols[b], rcols[c]).apply(units[a])),
            rep.rho_vec(rcols[c], rcols[a]).apply(units[b]))
        rhs = R.apply(inner)
        if lhs != rhs:
            violations.append(Violation(
                "relative bracket condition", (a, b, c), lhs, rhs))
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
