"""3-Lie algebras with a modified weighted differential, and their representations.

Houses the structure types, the axiom verifiers (which report witnesses, not
booleans alone), and the constructions that come with proofs: adjoint and dual
representations, semidirect products, and the Leibniz bracket on the pair
space of fundamental objects.

Verifiers enumerate basis tuples reduced by the skew symmetries of both sides
of each law (e.g. a_1 < a_2 and a_3 < a_4 < a_5 for the fundamental identity);
by multilinearity this decides each law on the whole space.

All operator matrices use the column convention: entry (i, j) is the
e_i-coefficient of the image of e_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .errors import InputError
from .exactnum import (
    Matrix, Vector, scal, unit, vec_add, vec_is_zero, vec_scale, vec_sub,
    vec_zero,
)
from .multilin import PairIndex, SkewTernaryTensor, pair_basis, wedge_coords


@dataclass(frozen=True)
class Violation:
    """A basis tuple where a law fails, with both sides' values."""

    law: str
    args: tuple
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Report:
    valid: bool
    violations: tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations) -> "Report":
        violations = tuple(violations)
        return cls(valid=not violations, violations=violations)


@dataclass(frozen=True)
class ThreeLieAlgebra:
    n: int
    bracket: SkewTernaryTensor

    def __post_init__(self):
        if self.bracket.dim_in != self.n or self.bracket.dim_out != self.n:
            raise InputError("bracket tensor shape does not match dimension")

    @classmethod
    def abelian(cls, n: int) -> "ThreeLieAlgebra":
        return cls(n, SkewTernaryTensor.zero(n, n))

    def bracket_basis(self, i: int, j: int, k: int) -> Vector:
        return self.bracket.basis_value(i, j, k)


@dataclass(frozen=True)
class ModifiedDifferential:
    """Weight and operator matrix of a modified weighted differential."""

    lam: Fraction
    d: Matrix

    def __post_init__(self):
        object.__setattr__(self, "lam", scal(self.lam))
        if self.d.rows != self.d.cols:
            raise InputError("differential must be square")


@dataclass(frozen=True)
class MD3LieAlgebra:
    algebra: ThreeLieAlgebra
    diff: ModifiedDifferential

    def __post_init__(self):
        if self.diff.d.rows != self.algebra.n:
            raise InputError("differential size does not match algebra dimension")

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def lam(self) -> Fraction:
        return self.diff.lam

    @property
    def d(self) -> Matrix:
        return self.diff.d


@dataclass(frozen=True)
class Representation:
    """Pair action rho on a module, with the module differential.

    ``rho`` is stored on canonical pairs i < j and extended skew on access;
    the weight is shared with the base algebra and consistency is enforced
    at verification boundaries.
    """

    n: int
    m: int
    rho: Mapping[PairIndex, Matrix]
    d_M: Matrix
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", scal(self.lam))
        full = {}
        for p in pair_basis(self.n):
            mat = self.rho.get(p, Matrix.zeros(self.m, self.m))
            if mat.rows != self.m or mat.cols != self.m:
                raise InputError(f"rho{p} is not {self.m}x{self.m}")
            full[p] = mat
        for p in self.rho:
            if p not in full:
                raise InputError(f"rho key {p} is not a canonical pair")
        object.__setattr__(self, "rho", full)
        if self.d_M.rows != self.m or self.d_M.cols != self.m:
            raise InputError("module differential shape mismatch")

    def rho_basis(self, i: int, j: int) -> Matrix:
        if i == j:
            return Matrix.zeros(self.m, self.m)
        if i < j:
            return self.rho[i, j]
        return -self.rho[j, i]

    def rho_vec(self, x, y) -> Matrix:
        """Bilinear extension of the pair action to general vectors."""
        out = Matrix.zeros(self.m, self.m)
        for i, j in pair_basis(self.n):
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                out = out + self.rho[i, j].scale(c)
        return out


@dataclass(frozen=True)
class LeibnizData:
    """Leibniz bracket and derivation induced on the pair space."""

    dim: int
    bracket_F: Mapping[tuple[int, int], Vector]
    d_F: Matrix

    def bracket_basis(self, a: int, b: int) -> Vector:
        return self.bracket_F.get((a, b), vec_zero(self.dim))

    def bracket_vec(self, x, y) -> Vector:
        out = [Fraction(0)] * self.dim
        for a, ca in enumerate(x):
            if not ca:
                continue
            for b, cb in enumerate(y):
                if not cb:
                    continue
                for r, v in enumerate(self.bracket_basis(a, b)):
                    if v:
                        out[r] += ca * cb * v
        return tuple(out)


# ---------------------------------------------------------------------------
# verifiers


def fundamental_identity_sides(outer: SkewTernaryTensor, inner: SkewTernaryTensor,
                               idx: tuple) -> tuple[Vector, Vector]:
    """Both sides of [x1, x2, {x3, x4, x5}] = {[x1, x2, x3], x4, x5} +
    {x3, [x1, x2, x4], x5} + {x3, x4, [x1, x2, x5]}, written with outer [.]
    and inner {.}, on basis indices (a1..a5).  With both brackets equal this
    is the fundamental identity."""
    i1, i2, i3, i4, i5 = idx
    lhs = outer.pair_value(i1, i2, inner.basis_value(i3, i4, i5))
    rhs = vec_add(
        vec_sub(outer.pair_value(i4, i5, inner.basis_value(i1, i2, i3)),
                outer.pair_value(i3, i5, inner.basis_value(i1, i2, i4))),
        outer.pair_value(i3, i4, inner.basis_value(i1, i2, i5)),
    )
    return lhs, rhs


def verify_3lie(alg: ThreeLieAlgebra) -> Report:
    """Check the fundamental identity on all deciding basis 5-tuples."""
    violations = []
    n = alg.n
    for i1, i2 in pair_basis(n):
        for triple in combinations(range(n), 3):
            idx = (i1, i2) + triple
            lhs, rhs = fundamental_identity_sides(alg.bracket, alg.bracket, idx)
            if lhs != rhs:
                violations.append(Violation("fundamental identity", idx, lhs, rhs))
    return Report.from_violations(violations)


def derivation_sides(br: SkewTernaryTensor, op: Matrix,
                     triple: tuple) -> tuple[Vector, Vector]:
    """Both sides of op[x, y, z] = [op x, y, z] + [x, op y, z] + [x, y, op z]
    on basis indices; the modified differential rule adds lam [x, y, z] to
    the right side."""
    i, j, k = triple
    lhs = op.apply(br.basis_value(i, j, k))
    rhs = vec_add(
        vec_sub(br.pair_value(j, k, op.column(i)), br.pair_value(i, k, op.column(j))),
        br.pair_value(i, j, op.column(k)),
    )
    return lhs, rhs


def verify_modified_differential(md: MD3LieAlgebra) -> Report:
    """Check the modified differential rule on all basis triples."""
    violations = []
    br = md.algebra.bracket
    for triple in combinations(range(md.n), 3):
        lhs, rhs = derivation_sides(br, md.d, triple)
        rhs = vec_add(rhs, vec_scale(md.lam, br.basis_value(*triple)))
        if lhs != rhs:
            violations.append(Violation("modified differential rule", triple, lhs, rhs))
    return Report.from_violations(violations)


def derivation_shift_check(md: MD3LieAlgebra) -> bool:
    """Whether d + (lam/2) id is a derivation of the bracket.

    Agrees with verify_modified_differential on every input; the two checks
    are kept as separate code paths on purpose."""
    alg = md.algebra
    br = alg.bracket
    shifted = md.d + Matrix.identity(md.n).scale(md.lam / 2)
    for i, j, k in combinations(range(md.n), 3):
        lhs = shifted.apply(alg.bracket_basis(i, j, k))
        rhs = vec_add(
            vec_sub(br.pair_value(j, k, shifted.column(i)),
                    br.pair_value(i, k, shifted.column(j))),
            br.pair_value(i, j, shifted.column(k)),
        )
        if lhs != rhs:
            return False
    return True


def verify_representation(md: MD3LieAlgebra, rep: Representation) -> Report:
    """Check the pair-action axioms and the module differential rule."""
    if rep.lam != md.lam:
        raise InputError("representation weight differs from the algebra weight")
    if rep.n != md.n:
        raise InputError("representation pair index range differs from the algebra")
    alg = md.algebra
    violations = []
    n = md.n
    for i1, i2, i3 in combinations(range(n), 3):
        for i4 in range(n):
            lhs = rep.rho_vec(alg.bracket_basis(i1, i2, i3), unit(n, i4))
            rhs = (
                rep.rho_basis(i2, i3) @ rep.rho_basis(i1, i4)
                + rep.rho_basis(i3, i1) @ rep.rho_basis(i2, i4)
                + rep.rho_basis(i1, i2) @ rep.rho_basis(i3, i4)
            )
            if lhs != rhs:
                violations.append(Violation(
                    "bracket-pair action identity", (i1, i2, i3, i4), lhs, rhs))
    for i1, i2 in pair_basis(n):
        for i3, i4 in pair_basis(n):
            lhs = rep.rho_basis(i1, i2) @ rep.rho_basis(i3, i4)
            rhs = (
                rep.rho_basis(i3, i4) @ rep.rho_basis(i1, i2)
                + rep.rho_vec(alg.bracket_basis(i1, i2, i3), unit(n, i4))
                + rep.rho_vec(unit(n, i3), alg.bracket_basis(i1, i2, i4))
            )
            if lhs != rhs:
                violations.append(Violation(
                    "pair action commutator identity", (i1, i2, i3, i4), lhs, rhs))
    d = md.d
    for i, j in pair_basis(n):
        lhs = rep.d_M @ rep.rho_basis(i, j)
        rhs = (
            rep.rho_vec(d.column(i), unit(n, j))
            + rep.rho_vec(unit(n, i), d.column(j))
            + rep.rho_basis(i, j) @ rep.d_M
            + rep.rho_basis(i, j).scale(md.lam)
        )
        if lhs != rhs:
            violations.append(Violation(
                "module differential compatibility", (i, j), lhs, rhs))
    return Report.from_violations(violations)


# ---------------------------------------------------------------------------
# constructions


def adjoint_representation(md: MD3LieAlgebra) -> Representation:
    """rho(e_i, e_j) = [e_i, e_j, -] on the algebra itself, d_M = d."""
    n = md.n
    rho = {}
    for i, j in pair_basis(n):
        cols = [md.algebra.bracket_basis(i, j, k) for k in range(n)]
        rho[i, j] = Matrix.from_columns(cols, n)
    return Representation(n=n, m=n, rho=rho, d_M=md.d, lam=md.lam)


def trivial_representation(md: MD3LieAlgebra, m: int, d_M: Matrix) -> Representation:
    return Representation(n=md.n, m=m, rho={}, d_M=d_M, lam=md.lam)


def dual_representation(rep: Representation) -> Representation:
    """Transpose-negated action and module differential on the dual module."""
    rho = {p: -mat.transpose() for p, mat in rep.rho.items()}
    return Representation(n=rep.n, m=rep.m, rho=rho,
                          d_M=-rep.d_M.transpose(), lam=rep.lam)


def coadjoint_representation(md: MD3LieAlgebra) -> Representation:
    return dual_representation(adjoint_representation(md))


def semidirect_product(md: MD3LieAlgebra, rep: Representation) -> MD3LieAlgebra:
    """Bracket and differential on the direct sum of algebra and module.

    No validity is required of ``rep``: the construction is total, and the
    result verifies exactly when the representation does."""
    n, m = md.n, rep.m
    total = n + m
    alg = md.algebra
    values = {}
    for i, j, k in combinations(range(total), 3):
        if k < n:
            v = alg.bracket_basis(i, j, k)
            values[i, j, k] = v + vec_zero(m)
        elif j < n:
            # two algebra slots, one module slot
            values[i, j, k] = vec_zero(n) + rep.rho[i, j].column(k - n)
        # one or zero algebra slots: bracket vanishes (module is abelian)
    bracket = SkewTernaryTensor(total, total, values)
    d_total = Matrix.block([
        [md.d, Matrix.zeros(n, m)],
        [Matrix.zeros(m, n), rep.d_M],
    ])
    return MD3LieAlgebra(
        ThreeLieAlgebra(total, bracket),
        ModifiedDifferential(md.lam, d_total),
    )


def leibniz_data(md: MD3LieAlgebra) -> LeibnizData:
    """Leibniz bracket and derivation on the span of fundamental objects.

    [a1^a2, b1^b2] = [a1,a2,b1]^b2 + b1^[a1,a2,b2] and
    d_F(a^b) = d(a)^b + a^d(b) + lam a^b, on the pair basis.  Nothing is
    verified: the formulas are total, so this also serves the complex
    assembly, which must accept inputs that fail the axioms."""
    n = md.n
    alg = md.algebra
    pairs = pair_basis(n)
    dim = len(pairs)
    bracket_F = {}
    for a, (a1, a2) in enumerate(pairs):
        for b, (b1, b2) in enumerate(pairs):
            v = vec_add(
                wedge_coords(alg.bracket_basis(a1, a2, b1), unit(n, b2)),
                wedge_coords(unit(n, b1), alg.bracket_basis(a1, a2, b2)),
            )
            if not vec_is_zero(v):
                bracket_F[a, b] = v
    cols = []
    for (i, j) in pairs:
        col = vec_add(
            wedge_coords(md.d.column(i), unit(n, j)),
            wedge_coords(unit(n, i), md.d.column(j)),
        )
        col = vec_add(col, vec_scale(md.lam, wedge_coords(unit(n, i), unit(n, j))))
        cols.append(col)
    return LeibnizData(dim=dim, bracket_F=bracket_F, d_F=Matrix.from_columns(cols, dim))


def fundamental_leibniz(md: MD3LieAlgebra) -> LeibnizData:
    """The verified form of :func:`leibniz_data`.

    Both Leibniz axioms are checked before returning; a failure means the
    input was not a valid modified weighted differential 3-Lie algebra."""
    data = leibniz_data(md)
    if not verify_leibniz(data).valid:
        raise InputError("input does not induce a Leibniz algebra with derivation")
    return data


def verify_leibniz(data: LeibnizData) -> Report:
    """Leibniz identity and the derivation property of d_F on the pair basis."""
    violations = []
    dim = data.dim
    basis = [unit(dim, t) for t in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                lhs = data.bracket_vec(basis[a], data.bracket_basis(b, c))
                rhs = vec_add(
                    data.bracket_vec(data.bracket_basis(a, b), basis[c]),
                    data.bracket_vec(basis[b], data.bracket_basis(a, c)),
                )
                if lhs != rhs:
                    violations.append(Violation("Leibniz identity", (a, b, c), lhs, rhs))
    for a in range(dim):
        for b in range(dim):
            lhs = data.d_F.apply(data.bracket_basis(a, b))
            rhs = vec_add(
                data.bracket_vec(data.d_F.column(a), basis[b]),
                data.bracket_vec(basis[a], data.d_F.column(b)),
            )
            if lhs != rhs:
                violations.append(Violation("derivation property", (a, b), lhs, rhs))
    return Report.from_violations(violations)


def homomorphism_check(eta: Matrix, src: MD3LieAlgebra, dst: MD3LieAlgebra) -> bool:
    """Bracket compatibility on basis triples plus intertwining with d."""
    if eta.cols != src.n or eta.rows != dst.n:
        raise InputError("homomorphism shape does not match the algebras")
    for i, j, k in combinations(range(src.n), 3):
        lhs = eta.apply(src.algebra.bracket_basis(i, j, k))
        rhs = dst.algebra.bracket(eta.column(i), eta.column(j), eta.column(k))
        if lhs != rhs:
            return False
    return eta @ src.d == dst.d @ eta


def isomorphism_check(eta: Matrix, src: MD3LieAlgebra, dst: MD3LieAlgebra) -> bool:
    """Homomorphism that is additionally invertible."""
    return homomorphism_check(eta, src, dst) and eta.rank() == src.n == dst.n
