"""Abelian extensions, their classification data, and T*-extensions.

Extensions are kept concrete on the direct-sum carrier with the canonical
inclusion and projection; an extension handed over abstractly is first split
as a vector space, which is always possible over a field.  Equivalence is
decided through cocycle classes, turning an existential over isomorphisms
into one exact linear solve.

Functionals on the dual carrier are coordinate vectors over the canonical
dual basis, in the same scalar format as everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cohomology import ComplexAssembly, TotalCochain
from .errors import InputError
from .exactnum import Matrix, unit, vec_sub, vec_zero
from .multilin import (
    CochainCoordinates, SkewTernaryTensor, embed_skew_trilinear, pair_basis,
)
from .structures import (
    MD3LieAlgebra, ModifiedDifferential, Report, Representation,
    ThreeLieAlgebra, Violation, coadjoint_representation, homomorphism_check,
    semidirect_product, verify_3lie, verify_modified_differential,
)


@dataclass(frozen=True)
class AbelianExtension:
    """Extension on the direct-sum carrier, with its construction data."""

    total: MD3LieAlgebra
    inclusion: Matrix   # module -> carrier
    projection: Matrix  # carrier -> base algebra
    cocycle_f: SkewTernaryTensor
    cocycle_g: Matrix
    base: MD3LieAlgebra
    rep: Representation

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.rep.m

    def canonical_section(self) -> Matrix:
        return Matrix.block([[Matrix.identity(self.n)],
                             [Matrix.zeros(self.m, self.n)]])

    def section_from(self, sigma: Matrix) -> Matrix:
        """The section a -> (a, sigma(a)) for any module-valued sigma."""
        if sigma.rows != self.m or sigma.cols != self.n:
            raise InputError(f"sigma must be {self.m}x{self.n}")
        return Matrix.block([[Matrix.identity(self.n)], [sigma]])

    def is_section(self, s: Matrix) -> bool:
        return (s.rows == self.n + self.m and s.cols == self.n
                and self.projection @ s == Matrix.identity(self.n))

    def cocycle_total(self) -> TotalCochain:
        return TotalCochain(
            2, embed_skew_trilinear(self.cocycle_f),
            CochainCoordinates.from_linear_map(self.cocycle_g))


@dataclass(frozen=True)
class ExtractedCocycle:
    rep: Representation
    upsilon: SkewTernaryTensor
    mu: Matrix

    def total(self) -> TotalCochain:
        return TotalCochain(
            2, embed_skew_trilinear(self.upsilon),
            CochainCoordinates.from_linear_map(self.mu))


def build_abelian_extension(md: MD3LieAlgebra, rep: Representation,
                            f: SkewTernaryTensor, g: Matrix) -> AbelianExtension:
    """Bracket and differential twisted by (f, g) on the direct sum.

    This is the semidirect product with f added to the module part of the
    bracket on algebra triples and g to the module part of the differential
    on algebra vectors; with f = 0 and g = 0 the total object is exactly
    :func:`semidirect_product`.

    The construction is total: a non-cocycle (f, g) yields an object whose
    verification report shows the failure, matching the fact that validity is
    equivalent to the cocycle property."""
    n, m = md.n, rep.m
    if f.dim_in != n or f.dim_out != m:
        raise InputError(f"f must map triples of the {n}-dim algebra into the module")
    if g.rows != m or g.cols != n:
        raise InputError(f"g must be {m}x{n}")
    split = semidirect_product(md, rep)
    values = dict(split.algebra.bracket.values)
    for key, v in f.values.items():
        values[key] = values.get(key, vec_zero(n + m))[:n] + v
    bracket = SkewTernaryTensor(n + m, n + m, values)
    d_total = split.d + Matrix.block([
        [Matrix.zeros(n, n + m)],
        [g, Matrix.zeros(m, m)],
    ])
    total = MD3LieAlgebra(ThreeLieAlgebra(n + m, bracket),
                          ModifiedDifferential(md.lam, d_total))
    inclusion = Matrix.block([[Matrix.zeros(n, m)], [Matrix.identity(m)]])
    projection = Matrix.hstack([Matrix.identity(n), Matrix.zeros(n, m)])
    return AbelianExtension(total, inclusion, projection, f, g, md, rep)


def verify_extension(ext: AbelianExtension) -> Report:
    """Axioms of the total object (valid iff the construction data is a cocycle)."""
    alg_report = verify_3lie(ext.total.algebra)
    diff_report = verify_modified_differential(ext.total)
    return Report.from_violations(alg_report.violations + diff_report.violations)


def _module_coords(ext: AbelianExtension, w) -> tuple:
    x = ext.inclusion.solve_in_image(w)
    if x is None:
        raise InputError("vector does not lie in the embedded module")
    return x


def extract_cocycle(ext: AbelianExtension, s: Matrix) -> ExtractedCocycle:
    """Representation and 2-cocycle read off a section.

    The pair action is the same for every section and must agree with the
    action used at construction time; the (upsilon, mu) part moves by exactly
    a coboundary as the section varies."""
    if not ext.is_section(s):
        raise InputError("map is not a section of the projection")
    n, m = ext.n, ext.m
    total = ext.total
    scols = [s.column(i) for i in range(n)]
    rho = {}
    for i, j in pair_basis(n):
        cols = []
        for c in range(m):
            w = total.algebra.bracket(scols[i], scols[j],
                                      ext.inclusion.column(c))
            cols.append(_module_coords(ext, w))
        rho[i, j] = Matrix.from_columns(cols, m)
        if rho[i, j] != ext.rep.rho[i, j]:
            raise InputError("extracted pair action disagrees with the construction data")
    d_M_cols = [_module_coords(ext, total.d.apply(ext.inclusion.column(c)))
                for c in range(m)]
    d_M = Matrix.from_columns(d_M_cols, m)
    if d_M != ext.rep.d_M:
        raise InputError("extracted module differential disagrees with the construction data")

    def upsilon_fn(i, j, k):
        w = vec_sub(
            total.algebra.bracket(scols[i], scols[j], scols[k]),
            s.apply(ext.base.algebra.bracket_basis(i, j, k)))
        return _module_coords(ext, w)

    upsilon = SkewTernaryTensor.from_function(n, m, upsilon_fn)
    mu_cols = [
        _module_coords(ext, vec_sub(total.d.apply(scols[i]),
                                    s.apply(ext.base.d.column(i))))
        for i in range(n)
    ]
    mu = Matrix.from_columns(mu_cols, m)
    rep = Representation(n=n, m=m, rho=rho, d_M=d_M, lam=ext.base.lam)
    return ExtractedCocycle(rep=rep, upsilon=upsilon, mu=mu)


def extensions_equivalent(ext1: AbelianExtension,
                          ext2: AbelianExtension) -> Optional[Matrix]:
    """An isomorphism fixing the module and inducing the identity downstairs.

    Decided through the cocycle classes: the extensions are equivalent
    exactly when the extracted cocycles differ by a coboundary, and the
    witness iota turns into the isomorphism (a, u) -> (a, iota(a) + u)."""
    if ext1.base != ext2.base:
        raise InputError("extensions have different base algebras")
    if ext1.m != ext2.m or ext1.rep.d_M != ext2.rep.d_M:
        raise InputError("extensions have different module data")
    ec1 = extract_cocycle(ext1, ext1.canonical_section())
    ec2 = extract_cocycle(ext2, ext2.canonical_section())
    if ec1.rep.rho != ec2.rep.rho:
        raise InputError("extensions induce different pair actions")
    asm = ComplexAssembly(ext1.base, ec1.rep)
    iota_tc = asm.is_coboundary(ec1.total() - ec2.total())
    if iota_tc is None:
        return None
    iota = iota_tc.f.to_linear_map()
    n, m = ext1.n, ext1.m
    eta = Matrix.block([
        [Matrix.identity(n), Matrix.zeros(n, m)],
        [iota, Matrix.identity(m)],
    ])
    ok = (homomorphism_check(eta, ext1.total, ext2.total)
          and eta @ ext1.inclusion == ext2.inclusion
          and ext2.projection @ eta == ext1.projection)
    if not ok:
        raise RuntimeError("coboundary witness did not produce an isomorphism")
    return eta


# ---------------------------------------------------------------------------
# T*-extensions


def tstar_abelian_extension(md: MD3LieAlgebra, f: SkewTernaryTensor,
                            g: Matrix) -> AbelianExtension:
    """Extension by the dual carrier with the coadjoint action."""
    return build_abelian_extension(md, coadjoint_representation(md), f, g)


def hyperbolic_pairing(n: int) -> Matrix:
    """Pairing of an n-dim space with its dual; symmetric of full rank."""
    return Matrix.block([
        [Matrix.zeros(n, n), Matrix.identity(n)],
        [Matrix.identity(n), Matrix.zeros(n, n)],
    ])


def is_metrised(md: MD3LieAlgebra, B: Matrix) -> Report:
    """Non-degenerate symmetric form, bracket-invariant and d-skew."""
    n = md.n
    if B.rows != n or B.cols != n:
        raise InputError(f"form must be {n}x{n}")
    violations = []
    if not B.is_symmetric:
        violations.append(Violation("symmetry", (), B, B.transpose()))
    if (rank := B.rank()) != n:
        violations.append(Violation("non-degeneracy", (), rank, n))
    units = [unit(n, i) for i in range(n)]

    def pairing(x, y):
        return sum((c * v for c, v in zip(x, B.apply(y)) if c), Fraction(0))

    br = md.algebra
    for i1, i2 in pair_basis(n):
        for i3 in range(n):
            for i4 in range(n):
                lhs = (pairing(br.bracket_basis(i1, i2, i3), units[i4])
                       + pairing(units[i3], br.bracket_basis(i1, i2, i4)))
                if lhs:
                    violations.append(Violation(
                        "bracket invariance", (i1, i2, i3, i4),
                        lhs, Fraction(0)))
    if md.d.transpose() @ B + B @ md.d != Matrix.zeros(n, n):
        violations.append(Violation(
            "differential skewness", (),
            md.d.transpose() @ B, -(B @ md.d)))
    return Report.from_violations(violations)


def tstar_cyclicity_check(f: SkewTernaryTensor, g: Matrix) -> bool:
    """Cyclic symmetry of f and antisymmetry of g against the dual pairing.

    Exactly the condition under which the hyperbolic pairing metrises the
    extension built from (f, g)."""
    n = f.dim_in
    if f.dim_out != n:
        raise InputError("f must take values in the dual of its domain")
    if g.rows != n or g.cols != n:
        raise InputError(f"g must be {n}x{n}")
    if g + g.transpose() != Matrix.zeros(n, n):
        return False
    for i, j in pair_basis(n):
        for k in range(n):
            vk = f.basis_value(i, j, k)
            for l in range(k, n):
                if vk[l] + f.basis_value(i, j, l)[k]:
                    return False
    return True
