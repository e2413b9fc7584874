"""Rank, pivot columns, kernel, solve and inverse against two references.

All five share one sparse fraction-free engine in ``md3lie.exactnum``: it
takes columns left to right, picks the active row with the fewest nonzeros
as pivot, and divides the content out of every updated row.  Two
implementations that share none of that check it:

- ``dense_bareiss`` below, the dense one-step Bareiss elimination the engine
  replaced: every row below the pivot is rewritten and the pivot is the
  first row with a nonzero.  It is pure Python and always runs; rank, pivot
  columns and kernel basis must be equal to the engine's exactly.
- sympy's exact linear algebra over QQ, when sympy is installed.

The engine files rows by their leading column; ``oracles.scan_eliminate``,
the engine as it was before, scans every active row at every column.  On
random sparse integer rows (rows of equal length, empty and duplicated
rows, rows that span a small space) and on every dims-only total both must
return identical echelon rows and pivot columns.

The free-coordinate quotient that ``cohomology`` pivots for representatives
is checked on random integer pairs (T, B), with T B = 0 and without:
[B | K], K the kernel basis of T, and [[T B, 0], [B|_F, I_z]], F the free
columns of T, have the same pivot columns.

Besides random matrices and low-rank products of two random factors, the
strategies draw the shapes on which the fewest-nonzeros choice takes a
different pivot row than the dense path: mostly-zero matrices, matrices
with zero rows and columns, matrices with duplicated rows, and Kronecker
sums shaped like the cochain map Phi (one factor per argument slot).  The
engine's rows must also stay primitive and within the Hadamard bound of the
input.
"""

from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import oracles
from md3lie.cohomology import ComplexAssembly
from md3lie.errors import InputError
from md3lie.exactnum import Matrix, _content_free, _eliminate
from test_cohomology import dims_only_cases

try:
    import sympy
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
except ImportError:  # the dense reference still runs
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")

scalars = st.fractions(min_value=-4, max_value=4, max_denominator=5)
small_ints = st.integers(-3, 3).map(Fraction)
zero = st.just(Fraction(0))
sparse_scalars = st.one_of(zero, zero, zero, scalars)


def entries(draw, count, elements=scalars):
    return draw(st.lists(elements, min_size=count, max_size=count))


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        return Matrix(rows, cols, entries(draw, rows * cols))
    inner = draw(st.integers(0, max_dim))
    a = Matrix(rows, inner, entries(draw, rows * inner))
    b = Matrix(inner, cols, entries(draw, inner * cols))
    return a @ b


@st.composite
def square_matrices(draw, max_dim=4):
    n = draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        return Matrix(n, n, entries(draw, n * n))
    inner = draw(st.integers(0, n))
    a = Matrix(n, inner, entries(draw, n * inner))
    b = Matrix(inner, n, entries(draw, inner * n))
    return a @ b


@st.composite
def sparse_matrices(draw, max_rows=10, max_cols=12):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return Matrix(rows, cols, entries(draw, rows * cols, sparse_scalars))


@st.composite
def sparse_square_matrices(draw, max_dim=6):
    n = draw(st.integers(1, max_dim))
    return Matrix(n, n, entries(draw, n * n, sparse_scalars))


@st.composite
def with_zero_lines(draw):
    m = draw(sparse_matrices(max_rows=7, max_cols=9))
    rows = [list(m.row(i)) for i in range(m.rows)]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, [Fraction(0)] * m.cols)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(rows[0])))
        for row in rows:
            row.insert(at, Fraction(0))
    return Matrix.from_rows(rows)


@st.composite
def with_duplicated_rows(draw):
    m = draw(sparse_matrices(max_rows=6))
    rows = [list(m.row(i)) for i in range(m.rows)]
    for _ in range(draw(st.integers(1, 4))):
        source = rows[draw(st.integers(0, len(rows) - 1))]
        factor = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
        rows.insert(draw(st.integers(0, len(rows))),
                    [factor * e for e in source])
    return Matrix.from_rows(rows)


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    return Matrix.from_rows([
        [a[i, j] * b[k, l] for j in range(a.cols) for l in range(b.cols)]
        for i in range(a.rows) for k in range(b.rows)])


@st.composite
def kronecker_sums(draw):
    """sum_s I x ... x A_s x ... x I plus a weight times I, square, size <= 9.

    Phi_q has this shape: d on each argument slot, -d_M on the values and
    (q - 1) * lambda on the diagonal."""
    dims = draw(st.sampled_from([(2, 2), (3, 3), (2, 2, 2), (3, 2), (2, 4)]))
    factors = [Matrix(k, k, entries(draw, k * k, st.one_of(zero, small_ints)))
               for k in dims]
    total = Matrix.zeros(prod(dims), prod(dims))
    for s, a in enumerate(factors):
        term = Matrix.identity(1)
        for t, k in enumerate(dims):
            term = kronecker(term, a if t == s else Matrix.identity(k))
        total = total + term
    return total + Matrix.identity(total.rows).scale(draw(small_ints))


@st.composite
def kronecker_blocks(draw):
    """A Kronecker sum, sometimes with a sparse block beside or below it."""
    k = draw(kronecker_sums())
    side = draw(st.sampled_from(["none", "right", "below"]))
    if side == "right":
        cols = draw(st.integers(1, 12 - k.cols))
        extra = Matrix(k.rows, cols, entries(draw, k.rows * cols, sparse_scalars))
        return Matrix.hstack([k, extra])
    if side == "below":
        rows = draw(st.integers(1, 10 - k.rows))
        extra = Matrix(rows, k.cols, entries(draw, rows * k.cols, sparse_scalars))
        return Matrix.vstack([k, extra])
    return k


reordering_matrices = st.one_of(sparse_matrices(), with_zero_lines(),
                                with_duplicated_rows(), kronecker_blocks())
all_matrices = st.one_of(matrices(), reordering_matrices)
all_square_matrices = st.one_of(square_matrices(), sparse_square_matrices(),
                                kronecker_sums())


# ---------------------------------------------------------------------------
# the dense reference


def integer_rows(m: Matrix) -> list[list[int]]:
    """Each row scaled by the lcm of its denominators."""
    rows = []
    for i in range(m.rows):
        row = m.row(i)
        scale = lcm(*(e.denominator for e in row)) if row else 1
        rows.append([int(e * scale) for e in row])
    return rows


def dense_bareiss(m: Matrix):
    """Dense one-step Bareiss: integer echelon rows and pivot columns.

    Every update divides by the previous pivot, and the division is exact by
    Sylvester's identity."""
    rows = integer_rows(m)
    nrows, ncols = m.rows, m.cols
    pivots = []
    denom = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(r + 1, nrows):
            ri = rows[i]
            h = ri[c]
            for j in range(c + 1, ncols):
                ri[j] = (pv * ri[j] - h * prow[j]) // denom
            ri[c] = 0
        denom = pv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def primitive(values) -> tuple:
    """The primitive integer vector on the line of a rational vector."""
    values = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values)) if values else 1
    ints = [int(v * scale) for v in values]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g if g > 1 else v for v in ints)


def dense_kernel(m: Matrix) -> list[tuple]:
    """One primitive vector per free column, positive there (the normal form)."""
    rows, pivots = dense_bareiss(m)
    basis = []
    for fc in sorted(set(range(m.cols)) - set(pivots)):
        x = [Fraction(0)] * m.cols
        x[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc, row = pivots[r], rows[r]
            s = -sum((row[j] * x[j] for j in range(pc + 1, m.cols)), Fraction(0))
            x[pc] = s / row[pc]
        basis.append(primitive(x))
    return basis


def first_pivot_reordered(m: Matrix) -> bool:
    """Whether the engine's first pivot row is not the dense path's.

    At the first nonzero column nothing has been eliminated yet, so the
    engine takes the sparsest row with a nonzero there and the dense path
    the first one."""
    rows = [m.row(i) for i in range(m.rows)]
    for c in range(m.cols):
        hits = [r for r in rows if r[c]]
        if hits:
            counts = [sum(1 for e in r if e) for r in hits]
            return counts[0] > min(counts)
    return False


@given(all_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_and_pivot_columns_match_dense_bareiss(m):
    _, pivots = dense_bareiss(m)
    assert m.pivot_columns() == pivots
    assert m.rank() == len(pivots)


@given(all_matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_basis_matches_dense_bareiss(m):
    assert [tuple(v) for v in m.kernel_basis()] == dense_kernel(m)


@given(all_matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_vectors_at_chosen_free_columns_match_the_kernel_basis(m, data):
    """Back-substituting any free columns, in any order, gives the
    kernel_basis vectors at those columns, with or without the echelon
    memo filled first."""
    basis = m.kernel_basis()
    pivots = set(m.pivot_columns())
    free = [c for c in range(m.cols) if c not in pivots]
    chosen = data.draw(st.lists(st.sampled_from(range(len(free))), unique=True)
                       if free else st.just([]))
    want = [basis[i] for i in chosen]
    assert m.kernel_basis([free[i] for i in chosen]) == want
    fresh = Matrix._raw(m.rows, m.cols, m.sparse_rows)
    assert fresh.kernel_basis([free[i] for i in chosen]) == want


@given(all_matrices, all_matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_memo_is_read_by_its_own_matrix_only(a, b, data):
    """Each matrix answers from its own echelon, whichever matrices were
    eliminated before it; an augmented elimination is not memoized, and
    mutating a returned pivot list changes nothing."""
    rhs = data.draw(st.lists(sparse_scalars, min_size=a.rows, max_size=a.rows))
    a.solve_in_image(rhs)
    a.pivot_columns().append(a.cols)
    for m in (a, b, a.transpose(), b, a):
        _, pivots = dense_bareiss(m)
        assert m.pivot_columns() == pivots
        assert m.rank() == len(pivots)
        assert [tuple(v) for v in m.kernel_basis()] == dense_kernel(m)


@pytest.mark.parametrize("strategy", [
    sparse_matrices(), with_zero_lines(), with_duplicated_rows(),
    kronecker_blocks()], ids=["sparse", "zero-lines", "duplicated", "kronecker"])
def test_strategies_reach_a_reordered_pivot(strategy):
    m = find(strategy, first_pivot_reordered,
             settings=settings(database=None, phases=[Phase.generate]))
    assert first_pivot_reordered(m)


def test_pivot_row_is_the_sparsest():
    m = Matrix.from_rows([[1, 1, 1], [2, 0, 0], [0, 1, 2]])
    rows, pivots = m._echelon()
    assert pivots == [0, 1, 2] and rows[0] == {0: 1}
    assert first_pivot_reordered(m)
    assert m.kernel_basis() == [] and dense_kernel(m) == []


@given(st.one_of(all_matrices, all_square_matrices), st.integers(0, 2), st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_rows_are_primitive_and_within_hadamard_bound(m, extra, data):
    """Every echelon row has content 1, and no entry exceeds the product
    over the nonzero input rows of max(1, |row|_2) (compared squared), with
    each row denominator-cleared and any augmented columns included."""
    columns = [tuple(data.draw(st.lists(sparse_scalars, min_size=m.rows,
                                        max_size=m.rows)))
               for _ in range(extra)]
    augmented = Matrix.hstack([m] + [Matrix.from_columns([c], m.rows)
                                     for c in columns])
    bound_sq = prod(max(1, sum(v * v for v in row))
                    for row in integer_rows(augmented) if any(row))
    rows, pivots = augmented._echelon()
    assert len(rows) == len(pivots)
    for row, pc in zip(rows, pivots):
        assert min(row) == pc and all(row.values())
        assert gcd(*row.values()) == 1
        assert all(v * v <= bound_sq for v in row.values())


# ---------------------------------------------------------------------------
# the engine filed by leading column against the scan


nonzero_ints = st.integers(-3, 3).filter(bool)


@st.composite
def sparse_integer_rows(draw):
    """(rows, ncols): sparse integer rows, random, of one length, or integer
    combinations of a few rows; with empty and duplicated rows inserted."""
    ncols = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "one length", "low rank"]))
    count = draw(st.integers(0, 10))
    if kind == "one length":
        length = draw(st.integers(1, ncols))
        rows = [dict(zip(draw(st.permutations(range(ncols)))[:length],
                         draw(st.lists(nonzero_ints, min_size=length,
                                       max_size=length))))
                for _ in range(count)]
    else:
        rows = [draw(st.dictionaries(st.integers(0, ncols - 1), nonzero_ints,
                                     max_size=ncols)) for _ in range(count)]
    if kind == "low rank" and rows:
        base = rows[:draw(st.integers(1, 3))]
        rows = []
        for _ in range(count):
            row = {}
            for b in base:
                c = draw(st.integers(-2, 2))
                for j, v in b.items():
                    row[j] = row.get(j, 0) + c * v
            rows.append({j: v for j, v in row.items() if v})
    for _ in range(draw(st.integers(0, 3))):
        source = draw(st.sampled_from(rows)) if rows and draw(st.booleans()) else {}
        rows.insert(draw(st.integers(0, len(rows))), dict(source))
    return rows, ncols


@given(sparse_integer_rows())
@settings(max_examples=400, deadline=None)
def test_filed_engine_matches_the_scan(case):
    rows, ncols = case
    want = oracles.scan_eliminate([dict(r) for r in rows], ncols)
    assert _eliminate([dict(r) for r in rows]) == want


def test_a_refiled_row_wins_a_tie_by_input_position():
    """Row 1 loses its column-0 entry against row 0 and is filed again under
    column 1, after row 2; both then hold two nonzeros, and the earlier
    input row is the pivot, as the scan takes it."""
    rows = [{0: 1}, {0: 1, 1: 1, 2: 1}, {1: 1, 2: 2}]
    want = ([{0: 1}, {1: 1, 2: 1}, {2: 1}], [0, 1, 2])
    assert oracles.scan_eliminate([dict(r) for r in rows], 3) == want
    assert _eliminate([dict(r) for r in rows]) == want


def test_filed_engine_matches_the_scan_on_the_totals():
    """Every dims-only total, eliminated from its primitive integer rows."""
    checked = 0
    for md, rep, degrees in dims_only_cases():
        asm = ComplexAssembly(md, rep)
        for q in degrees:
            total = asm.partial_matrix(q)
            rows = [_content_free(r) for r, _ in total._integer_rows() if r]
            assert (_eliminate(list(rows))
                    == oracles.scan_eliminate(list(rows), total.cols)), (md, rep, q)
            checked += 1
    assert checked == 92


# ---------------------------------------------------------------------------
# the free-coordinate quotient of the kernel


sparse_ints = st.one_of(zero, zero, small_ints)


@st.composite
def quotient_pairs(draw):
    """(T, B), integer matrices with B of T.cols rows: B arbitrary, or its
    columns integer combinations of T's kernel basis, so that T @ B = 0."""
    rows, cols, inner = (draw(st.integers(0, 5)) for _ in range(3))
    t = Matrix(rows, cols, entries(draw, rows * cols, sparse_ints))
    if draw(st.booleans()):  # rank at most inner
        t = (Matrix(rows, inner, entries(draw, rows * inner, sparse_ints))
             @ Matrix(inner, cols, entries(draw, inner * cols, sparse_ints)))
    width = draw(st.integers(0, 5))
    if draw(st.booleans()):
        kernel = t.kernel_basis()
        c = Matrix(len(kernel), width, entries(draw, len(kernel) * width, sparse_ints))
        return t, Matrix.from_columns(kernel, cols) @ c
    return t, Matrix(cols, width, entries(draw, cols * width, sparse_ints))


def free_quotient(t: Matrix, b: Matrix) -> Matrix:
    """[[T B, 0], [B|_F, I_z]], F the z free columns of T."""
    pivots = set(t.pivot_columns())
    free = [c for c in range(t.cols) if c not in pivots]
    tb = t @ b
    rows = ([list(tb.row(i)) + [0] * len(free) for i in range(tb.rows)]
            + [list(b.row(f)) + [int(i == j) for j in range(len(free))]
               for i, f in enumerate(free)])
    return Matrix(len(rows), b.cols + len(free), [e for row in rows for e in row])


@given(quotient_pairs())
@settings(max_examples=200, deadline=None)
def test_the_quotient_has_the_pivots_of_the_boundary_beside_the_kernel(case):
    """B y + K w = 0 exactly when T B y = 0 and B|_F y + K|_F w = 0, K the
    kernel basis of T, whose rows F are a positive diagonal; so both
    matrices have the same pivot columns, whether or not T B = 0."""
    t, b = case
    kernel = Matrix.from_columns(t.kernel_basis(), t.cols)
    assert (Matrix.hstack([b, kernel]).pivot_columns()
            == free_quotient(t, b).pivot_columns())


@pytest.mark.parametrize("zero_product", [True, False])
def test_quotient_pairs_reach_both_products(zero_product):
    def wanted(case):
        t, b = case
        return (t @ b).is_zero is zero_product and not b.is_zero and t.rank() > 0

    t, b = find(quotient_pairs(), wanted,
                settings=settings(database=None, phases=[Phase.generate]))
    assert wanted((t, b))


# ---------------------------------------------------------------------------
# sympy


def rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def to_sympy(m: Matrix):
    return sympy.Matrix(m.rows, m.cols, [rational(e) for e in m.entries])


def to_domain(m: Matrix):
    rows = [[QQ(e.numerator, e.denominator) for e in m.row(i)]
            for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), QQ)


def column(values):
    return sympy.Matrix(len(values), 1, [rational(Fraction(v)) for v in values])


@needs_sympy
@given(all_matrices)
@settings(max_examples=80, deadline=None)
def test_rank_matches_sympy(m):
    assert m.rank() == to_domain(m).rank()


@needs_sympy
@given(all_matrices)
@settings(max_examples=80, deadline=None)
def test_kernel_basis_matches_sympy(m):
    basis = m.kernel_basis()
    rank = to_domain(m).rank()
    assert len(basis) == m.cols - rank
    sm = to_sympy(m)
    for v in basis:
        assert sm * column(v) == sympy.zeros(m.rows, 1)
    # sympy's nullspace has one vector per free column of the rref, with 1
    # there and 0 at the other free columns: the documented normal form
    # up to primitive integer scaling
    assert [tuple(int(c) for c in v) for v in basis] == [
        primitive(Fraction(int(c.p), int(c.q)) for c in v)
        for v in sm.nullspace()]


@needs_sympy
@given(all_matrices, st.data())
@settings(max_examples=80, deadline=None)
def test_solve_in_image_matches_sympy(m, data):
    sm = to_sympy(m)
    x0 = data.draw(st.lists(scalars, min_size=m.cols, max_size=m.cols))
    in_image = m.apply(tuple(x0))
    b = tuple(data.draw(st.lists(scalars, min_size=m.rows, max_size=m.rows)))
    for rhs in (in_image, b):
        got = m.solve_in_image(rhs)
        solvable = sm.row_join(column(rhs)).rank() == sm.rank()
        assert (got is not None) == solvable
        if got is not None:
            assert sm * column(got) == column(rhs)


@needs_sympy
@given(all_square_matrices)
@settings(max_examples=80, deadline=None)
def test_inverse_matches_sympy(m):
    dm = to_domain(m)
    if m.rows and dm.det() == 0:
        with pytest.raises(InputError):
            m.inverse()
        return
    got = m.inverse()
    if m.rows:
        assert to_sympy(got) == to_sympy(m).inv()
    assert m @ got == Matrix.identity(m.rows)


def test_inverse_rejects_rectangular():
    with pytest.raises(InputError):
        Matrix.zeros(2, 3).inverse()
