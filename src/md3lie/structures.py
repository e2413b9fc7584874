"""3-Lie algebras with a modified weighted differential, and their representations.

Houses the structure types, the axiom verifiers (which report witnesses, not
booleans alone), and the constructions that come with proofs: adjoint and dual
representations, semidirect products, and the Leibniz bracket on the pair
space of fundamental objects.  A semidirect product is assembled from the
stored items of the bracket and the nonzero entries of the pair actions,
module indices shifted past the algebra's, so its cost follows the nonzeros
of its inputs.

Verifiers enumerate basis tuples reduced by the skew symmetries of both sides
of each law (e.g. a_1 < a_2 and a_3 < a_4 < a_5 for the fundamental identity);
by multilinearity this decides each law on the whole space.  Each side is
summed over nonzero values only: the signed structure constants of
``SkewTernaryTensor.signed``, the nonzero entries of d (or d_F), the items
of the Leibniz bracket, and the pair actions that are not zero, each product
of two actions formed once per check.  A tuple at which every term reads a
zero bracket or a zero action is skipped, since both sides vanish there.  A
dense witness (a vector, or a matrix for the action laws) is built only for
a failing tuple, from the same sums, so reports are those of a dense
evaluation: same laws, tuples, values and order.  ``homomorphism_check``
sums the same way, over the signed table and the column items of the map.

All operator matrices use the column convention: entry (i, j) is the
e_i-coefficient of the image of e_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from typing import Mapping, Sequence

from .errors import InputError
from .exactnum import (
    Matrix, Vector, scal, sparse_combination, vec_from_sparse,
)
from .multilin import (
    PairIndex, SkewTernaryTensor, SparseItems, pair_basis, pair_position, wedge_basis,
)


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

    ``rho`` lists the canonical pairs i < j whose action is not zero, in
    pair_basis order; a pair it does not list acts by zero.  The constructor
    takes any mapping on canonical pairs, checks that every matrix is m x m
    (zero ones too) and drops the zero ones.  The weight is shared with the
    base algebra and consistency is enforced at verification boundaries.

    ``_adjoint_of`` is the algebra object that adjoint_representation built
    this on, directly or through dual_representation, and None otherwise.
    Only those two constructors set it (it is not an __init__ argument, so
    dataclasses.replace and literal construction leave it None), and it
    takes no part in equality.  Such a representation passes
    verify_representation whenever that algebra passes verify_3lie and
    verify_modified_differential: the action laws of the adjoint are the
    fundamental identity, its module differential rule is the modified
    differential rule, and both laws transpose into themselves under the
    dual.  implied_by_algebra is the one place that reads ``_adjoint_of``
    for this lemma; the verify command and cohomology both call it.
    """

    n: int
    m: int
    rho: Mapping[PairIndex, Matrix]
    d_M: Matrix
    lam: Fraction
    _adjoint_of: MD3LieAlgebra | None = field(default=None, init=False,
                                              compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", scal(self.lam))
        for p, mat in self.rho.items():
            if p not in pair_position(self.n):
                raise InputError(f"rho key {p} is not a canonical pair")
            if mat.rows != self.m or mat.cols != self.m:
                raise InputError(f"rho{p} is not {self.m}x{self.m}")
        object.__setattr__(self, "rho", {
            p: self.rho[p] for p in sorted(self.rho) if not self.rho[p].is_zero})
        if self.d_M.rows != self.m or self.d_M.cols != self.m:
            raise InputError("module differential shape mismatch")

    @cached_property
    def _signed_actions(self) -> Mapping[PairIndex, Matrix]:
        """rho(e_i, e_j) on every ordered pair (i, j) whose action is
        nonzero; every other pair acts by zero."""
        out = {}
        for (i, j), mat in self.rho.items():
            out[i, j] = mat
            out[j, i] = -mat
        return out

    @cached_property
    def _action_items(self) -> Mapping[PairIndex, tuple]:
        """The nonzero ((row, column), entry) items of each signed action."""
        return {p: mat.entry_items() for p, mat in self._signed_actions.items()}


def implied_by_algebra(md: MD3LieAlgebra, rep: Representation) -> bool:
    """Whether rep is the adjoint of this md object, or a dual of it, and so
    passes verify_representation whenever md passes verify_3lie and
    verify_modified_differential (see Representation).  The provenance is
    compared by identity: a representation file, a dataclasses.replace copy
    or an adjoint built on another, even equal, algebra object is not
    implied."""
    return rep._adjoint_of is md


@dataclass(frozen=True)
class LeibnizData:
    """Leibniz bracket and derivation induced on the pair space.

    ``bracket_F`` maps a pair (a, b) of basis indices to the nonzero
    (index, value) items of [X_a, X_b]_F, in ascending index order; a pair
    it does not list brackets to zero."""

    dim: int
    bracket_F: Mapping[tuple[int, int], SparseItems]
    d_F: Matrix

    def bracket_basis(self, a: int, b: int) -> Vector:
        return vec_from_sparse(dict(self.bracket_F.get((a, b), ())), self.dim)


# ---------------------------------------------------------------------------
# verifiers


def fundamental_identity_sides(outer: SkewTernaryTensor, inner: SkewTernaryTensor,
                               idx: tuple) -> tuple[dict, dict]:
    """Both sides of [x1, x2, {x3, x4, x5}] = [{x1, x2, x3}, x4, x5] +
    [x3, {x1, x2, x4}, x5] + [x3, x4, {x1, x2, x5}], written with outer [.]
    and inner {.}, on basis indices (a1..a5), as {index: value} dicts
    without zeros.  With both brackets equal this is the fundamental
    identity."""
    i1, i2, i3, i4, i5 = idx
    o, s = outer.signed, inner.signed
    lhs = sparse_combination(
        (c, o.get((i1, i2, k), ())) for k, c in s.get((i3, i4, i5), ()))
    rhs = sparse_combination(chain(
        ((c, o.get((k, i4, i5), ())) for k, c in s.get((i1, i2, i3), ())),
        ((c, o.get((i3, k, i5), ())) for k, c in s.get((i1, i2, i4), ())),
        ((c, o.get((i3, i4, k), ())) for k, c in s.get((i1, i2, i5), ())),
    ))
    return lhs, rhs


def verify_3lie(alg: ThreeLieAlgebra) -> Report:
    """Check the fundamental identity on all deciding basis 5-tuples, in the
    order of (pair, triple).  A pair (a1, a2) with [x_a1, x_a2, -] = 0 zeroes
    both sides and is skipped.  For an acting pair, the left side of a triple
    reads its bracket and the right side the brackets [x_a1, x_a2, x_k] of
    its indices k, so only the stored triples and those holding such a k
    are visited."""
    violations = []
    n = alg.n
    stored = alg.bracket.values
    thirds = {}  # acting pair (i, j) -> the k with [x_i, x_j, x_k] != 0
    for a, b, c in stored:
        for pair, k in (((a, b), c), ((a, c), b), ((b, c), a)):
            thirds.setdefault(pair, set()).add(k)
    for (i1, i2), ks in sorted(thirds.items()):
        triples = set(stored)
        for k in ks:
            triples.update(tuple(sorted((k, *pair))) for pair in combinations(
                [r for r in range(n) if r != k], 2))
        for triple in sorted(triples):
            idx = (i1, i2) + triple
            lhs, rhs = fundamental_identity_sides(alg.bracket, alg.bracket, idx)
            if lhs != rhs:
                violations.append(Violation("fundamental identity", idx,
                                            vec_from_sparse(lhs, n),
                                            vec_from_sparse(rhs, n)))
    return Report.from_violations(violations)


def derivation_sides(br: SkewTernaryTensor, cols: Sequence[SparseItems],
                     triple: tuple, lam=0) -> tuple[dict, dict]:
    """Both sides of op[x, y, z] = [op x, y, z] + [x, op y, z] + [x, y, op z]
    + lam [x, y, z] on basis indices, as {index: value} dicts without zeros.
    ``cols`` holds the columns of op as ``Matrix.column_items`` gives them."""
    i, j, k = triple
    s = br.signed
    value = s.get(triple, ())
    lhs = sparse_combination((c, cols[r]) for r, c in value)
    rhs = sparse_combination(chain(
        ((c, s.get((r, j, k), ())) for r, c in cols[i]),
        ((c, s.get((i, r, k), ())) for r, c in cols[j]),
        ((c, s.get((i, j, r), ())) for r, c in cols[k]),
        [(lam, value)] if lam else (),
    ))
    return lhs, rhs


def verify_modified_differential(md: MD3LieAlgebra) -> Report:
    """Check the modified differential rule on all basis triples; every term
    reads the bracket of a pair of the triple, so a triple whose pairs all
    bracket to zero is skipped."""
    violations = []
    n = md.n
    cols = md.d.column_items()
    active = set(md.algebra.bracket.acting_pairs())
    for triple in combinations(range(n), 3):
        if active.isdisjoint(combinations(triple, 2)):
            continue
        lhs, rhs = derivation_sides(md.algebra.bracket, cols, triple, md.lam)
        if lhs != rhs:
            violations.append(Violation("modified differential rule", triple,
                                        vec_from_sparse(lhs, n),
                                        vec_from_sparse(rhs, n)))
    return Report.from_violations(violations)


def derivation_shift_check(md: MD3LieAlgebra) -> bool:
    """Whether d + (lam/2) id is a derivation of the bracket.

    Agrees with verify_modified_differential on every input; the two checks
    are kept as separate code paths on purpose."""
    br = md.algebra.bracket
    n = md.n
    ident = Matrix.identity(n)
    shifted = md.d + ident.scale(md.lam / 2)
    e = [ident.column(i) for i in range(n)]
    for i, j, k in combinations(range(n), 3):
        lhs = shifted.apply(br.basis_value(i, j, k))
        rhs = tuple(a + b + c for a, b, c in zip(
            br(shifted.column(i), e[j], e[k]),
            br(e[i], shifted.column(j), e[k]),
            br(e[i], e[j], shifted.column(k)), strict=True))
        if lhs != rhs:
            return False
    return True


def verify_representation(md: MD3LieAlgebra, rep: Representation) -> Report:
    """Check the pair-action axioms and the module differential rule.

    Each side is a sum of products of two actions, of actions scaled by
    structure constants or entries of d, and of d_M products, summed over
    the nonzero ones only; a product is formed once for both action laws.
    Skipped, as every term vanishes: an i4 with rho(-, e_i4) = 0 in the
    bracket-pair identity, a p with rho(p) = 0 and [p, -] = 0 in the other."""
    if rep.lam != md.lam:
        raise InputError("representation weight differs from the algebra weight")
    if rep.n != md.n:
        raise InputError("representation pair index range differs from the algebra")
    n, m = md.n, rep.m
    br = md.algebra.bracket.signed
    mats, act = rep._signed_actions, rep._action_items
    products = {}

    def product(p, q):
        # rho(p) rho(q) as entry items; () when either action is zero
        if (p, q) not in products:
            a, b = mats.get(p), mats.get(q)
            products[p, q] = () if a is None or b is None else (a @ b).entry_items()
        return products[p, q]

    def acting(value, j):
        # rho(value, e_j) for the items of a vector
        return [(c, act[k, j]) for k, c in value if (k, j) in act]

    def acted_on(i, value):
        # rho(e_i, value)
        return [(c, act[i, k]) for k, c in value if (i, k) in act]

    violations = []

    def check(law, args, lhs_terms, rhs_terms):
        lhs, rhs = sparse_combination(lhs_terms), sparse_combination(rhs_terms)
        if lhs != rhs:
            violations.append(Violation(law, args, Matrix.from_entries(m, m, lhs),
                                        Matrix.from_entries(m, m, rhs)))

    acted = sorted({j for _, j in mats})
    for i1, i2, i3 in combinations(range(n), 3):
        value = br.get((i1, i2, i3), ())
        for i4 in acted:
            check("bracket-pair action identity", (i1, i2, i3, i4),
                  acting(value, i4),
                  [(1, product((i2, i3), (i1, i4))), (1, product((i3, i1), (i2, i4))),
                   (1, product((i1, i2), (i3, i4)))])
    pairs = pair_basis(n)
    bracketing = set(md.algebra.bracket.acting_pairs())
    for p in pairs:
        if p not in mats and p not in bracketing:
            continue
        for q in pairs:
            i3, i4 = q
            check("pair action commutator identity", p + q,
                  [(1, product(p, q))],
                  [(1, product(q, p))] + acting(br.get(p + (i3,), ()), i4)
                  + acted_on(i3, br.get(p + (i4,), ())))
    cols = md.d.column_items()
    for i, j in pairs:
        a = mats.get((i, j))
        check("module differential compatibility", (i, j),
              [] if a is None else [(1, (rep.d_M @ a).entry_items())],
              acting(cols[i], j) + acted_on(i, cols[j])
              + ([] if a is None else [(1, (a @ rep.d_M).entry_items()),
                                        (md.lam, act[i, j])]))
    return Report.from_violations(violations)


# ---------------------------------------------------------------------------
# constructions


def adjoint_representation(md: MD3LieAlgebra) -> Representation:
    """rho(e_i, e_j) = [e_i, e_j, -] on the algebra itself, d_M = d."""
    br = md.algebra.bracket
    rho = {p: br.pair_action(*p) for p in br.acting_pairs()}
    rep = Representation(n=md.n, m=md.n, rho=rho, d_M=md.d, lam=md.lam)
    object.__setattr__(rep, "_adjoint_of", md)
    return rep


def trivial_representation(md: MD3LieAlgebra, m: int, d_M: Matrix) -> Representation:
    return Representation(n=md.n, m=m, rho={}, d_M=d_M, lam=md.lam)


def dual_representation(rep: Representation) -> Representation:
    """Transpose-negated action and module differential on the dual module."""
    rho = {p: -mat.transpose() for p, mat in rep.rho.items()}
    dual = Representation(n=rep.n, m=rep.m, rho=rho,
                          d_M=-rep.d_M.transpose(), lam=rep.lam)
    object.__setattr__(dual, "_adjoint_of", rep._adjoint_of)
    return dual


def coadjoint_representation(md: MD3LieAlgebra) -> Representation:
    return dual_representation(adjoint_representation(md))


def semidirect_product(md: MD3LieAlgebra, rep: Representation) -> MD3LieAlgebra:
    """Bracket and differential on the direct sum of algebra and module.

    No validity is required of ``rep``: the construction is total, and the
    result verifies exactly when the representation does."""
    n, m = md.n, rep.m
    total = n + m
    values = {key: dict(items) for key, items in md.algebra.bracket.values.items()}
    # two algebra slots, one module slot: the entries of the action, module
    # indices shifted by n; one or zero algebra slots: the bracket vanishes
    # (the module is abelian)
    for (i, j), mat in rep.rho.items():
        for (r, c), v in mat.entry_items():
            values.setdefault((i, j, n + c), {})[n + r] = v
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
    d_F(a^b) = d(a)^b + a^d(b) + lam a^b, on the pair basis, summed over the
    nonzero structure constants and entries of d.  Nothing is verified: the
    formulas are total, so this also serves the complex assembly, which must
    accept inputs that fail the axioms."""
    n = md.n
    br = md.algebra.bracket.signed
    wedge = wedge_basis(n)
    pairs = pair_basis(n)
    dim = len(pairs)
    bracket_F = {}
    for a, (a1, a2) in enumerate(pairs):
        ad = {k: br[a1, a2, k] for k in range(n) if (a1, a2, k) in br}
        for b, (b1, b2) in enumerate(pairs):
            if b1 in ad or b2 in ad:
                v = sparse_combination(chain(
                    ((c, wedge.get((r, b2), ())) for r, c in ad.get(b1, ())),
                    ((c, wedge.get((b1, r), ())) for r, c in ad.get(b2, ()))))
                if v:
                    bracket_F[a, b] = tuple(sorted(v.items()))
    d = md.d.column_items()
    d_F = {}
    for t, (i, j) in enumerate(pairs):
        col = sparse_combination(chain(
            ((c, wedge.get((r, j), ())) for r, c in d[i]),
            ((c, wedge.get((i, r), ())) for r, c in d[j]),
            [(md.lam, wedge[i, j])]))
        d_F.update(((r, t), c) for r, c in col.items())
    return LeibnizData(dim=dim, bracket_F=bracket_F,
                       d_F=Matrix.from_entries(dim, dim, d_F))


def fundamental_leibniz(md: MD3LieAlgebra) -> LeibnizData:
    """The verified form of :func:`leibniz_data`.

    Both Leibniz axioms are checked before returning; a failure means the
    input was not a valid modified weighted differential 3-Lie algebra."""
    data = leibniz_data(md)
    if not verify_leibniz(data).valid:
        raise InputError("input does not induce a Leibniz algebra with derivation")
    return data


def verify_leibniz(data: LeibnizData) -> Report:
    """Leibniz identity and the derivation property of d_F on the pair basis,
    each side summed over the nonzero items of the bracket and of d_F."""
    violations = []
    dim, br = data.dim, data.bracket_F

    def record(law, args, lhs, rhs):
        if lhs != rhs:
            violations.append(Violation(law, args, vec_from_sparse(lhs, dim),
                                        vec_from_sparse(rhs, dim)))

    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                record("Leibniz identity", (a, b, c), sparse_combination(
                    (v, br.get((a, r), ())) for r, v in br.get((b, c), ())),
                    sparse_combination(chain(
                        ((v, br.get((r, c), ())) for r, v in br.get((a, b), ())),
                        ((v, br.get((b, r), ())) for r, v in br.get((a, c), ())))))
    cols = data.d_F.column_items()
    for a in range(dim):
        for b in range(dim):
            record("derivation property", (a, b), sparse_combination(
                (v, cols[r]) for r, v in br.get((a, b), ())),
                sparse_combination(chain(
                    ((v, br.get((r, b), ())) for r, v in cols[a]),
                    ((v, br.get((a, r), ())) for r, v in cols[b]))))
    return Report.from_violations(violations)


def homomorphism_check(eta: Matrix, src: MD3LieAlgebra, dst: MD3LieAlgebra) -> bool:
    """Bracket compatibility on basis triples plus intertwining with d."""
    if eta.cols != src.n or eta.rows != dst.n:
        raise InputError("homomorphism shape does not match the algebras")
    cols = eta.column_items()
    src_signed, dst_bracket = src.algebra.bracket.signed, dst.algebra.bracket
    for i, j, k in combinations(range(src.n), 3):
        lhs = sparse_combination((c, cols[r]) for r, c in src_signed.get((i, j, k), ()))
        if lhs != dst_bracket.sparse_call(cols[i], cols[j], cols[k]):
            return False
    return eta @ src.d == dst.d @ eta


def isomorphism_check(eta: Matrix, src: MD3LieAlgebra, dst: MD3LieAlgebra) -> bool:
    """Homomorphism that is additionally invertible."""
    return homomorphism_check(eta, src, dst) and eta.rank() == src.n == dst.n
