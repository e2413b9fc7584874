import copy
import pickle
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from md3lie import exactnum
from md3lie.cohomology import MAX_DENSE_ENTRIES
from md3lie.errors import InputError
from md3lie.exactnum import (
    Matrix, PhiDeterminant, _resultant_mod, charpoly_mod_p,
    kronecker_sum_charpoly_mod_p, kronecker_sum_det_from_halves,
    kronecker_sum_spectrum, rational_spectrum, spectrum_det_mod_p,
    wedge_charpoly_mod_p, wedge_spectrum,
)
from md3lie.structures import (MD3LieAlgebra, ModifiedDifferential, ThreeLieAlgebra,
                               leibniz_data)

import oracles
from conftest import det_mod_p

scalars = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(st.lists(scalars, min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, entries)


def mul_vec(m, v):
    return m.apply(v)


def test_rank_examples():
    assert Matrix.identity(3).rank() == 3
    assert Matrix.zeros(3, 3).rank() == 0
    assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_examples():
    assert Matrix.identity(2).kernel_basis() == []
    assert len(Matrix.zeros(2, 3).kernel_basis()) == 3
    (v,) = Matrix.from_rows([[1, 1]]).kernel_basis()
    # proportional to (1, -1)
    assert v[0] * (-1) == v[1] and v[0] != 0


def test_kernel_basis_at_chosen_free_columns():
    m = Matrix.from_rows([[1, 2, 0, 3], [0, 0, 1, 4]])  # pivots 0 and 2
    basis = m.kernel_basis()
    assert m.kernel_basis([3, 1]) == [basis[1], basis[0]]
    assert m.kernel_basis([]) == []
    for free in ([0], [1, 2], [4], [-1], [3, 9]):
        with pytest.raises(InputError):
            m.kernel_basis(free)


def test_solve_examples():
    b = (Fraction(3), Fraction(-1, 2))
    assert Matrix.identity(2).solve_in_image(b) == b
    assert Matrix.zeros(2, 2).solve_in_image([0, 0]) == (0, 0)
    assert Matrix.zeros(2, 2).solve_in_image([1, 0]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        Matrix.identity(2).solve_in_image([1, 2, 3])


def test_inverse():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m @ m.inverse() == Matrix.identity(2)
    with pytest.raises(InputError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_scale_and_negation_are_entrywise():
    m = Matrix.from_rows([[0, Fraction(1, 2)], [-3, 0]])
    assert (-m).entries == tuple(-e for e in m.entries)
    for s in (0, -1, Fraction(2, 3)):
        assert m.scale(s).entries == tuple(s * e for e in m.entries)
    assert -(-m) == m and (-m).scale(-1) == m


def test_scalar_field_is_exact():
    a = Fraction(1, 3)
    assert a * 3 == 1
    assert (Fraction(2, 7) / Fraction(2, 7)) == 1


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    basis = m.kernel_basis()
    assert m.rank() + len(basis) == m.cols
    zero = (Fraction(0),) * m.rows
    for v in basis:
        assert mul_vec(m, v) == zero


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_in_image_contract(m, data):
    x = data.draw(st.lists(scalars, min_size=m.cols, max_size=m.cols))
    b = mul_vec(m, tuple(x))
    got = m.solve_in_image(b)
    assert got is not None and mul_vec(m, got) == b
    # arbitrary right-hand side: solvable iff the rank does not grow
    b2 = tuple(data.draw(st.lists(scalars, min_size=m.rows, max_size=m.rows)))
    augmented = Matrix.hstack([m, Matrix.from_columns([b2], m.rows)])
    got2 = m.solve_in_image(b2)
    if got2 is None:
        assert augmented.rank() == m.rank() + 1
    else:
        assert mul_vec(m, got2) == b2


@given(matrices(max_dim=4))
@settings(max_examples=40, deadline=None)
def test_pivot_columns_are_independent(m):
    pivots = m.pivot_columns()
    assert len(pivots) == m.rank()
    if pivots:
        sub = Matrix.from_columns([m.column(c) for c in pivots], m.rows)
        assert sub.rank() == len(pivots)


def test_zero_dimension_edge_cases():
    assert Matrix.zeros(0, 3).rank() == 0
    assert len(Matrix.zeros(0, 3).kernel_basis()) == 3
    assert Matrix.zeros(3, 0).kernel_basis() == []
    assert Matrix.zeros(0, 2).solve_in_image([]) == (0, 0)


# ---------------------------------------------------------------------------
# the sparse rows against a dense list-of-lists reference

cancelling = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]).map(
    Fraction)


def dense(rows, cols):
    return st.lists(st.lists(cancelling, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))


def check(m, ref, rows, cols):
    """m holds exactly ref, in canonical form, through every view."""
    assert (m.rows, m.cols) == (rows, cols)
    assert len(m.sparse_rows) == rows
    for r in m.sparse_rows:
        assert all(0 <= j < cols for j in r)
        assert all(isinstance(v, Fraction) and v for v in r.values())
    assert m.entries == tuple(x for row in ref for x in row)
    for i in range(rows):
        assert m.row(i) == tuple(ref[i])
        for j in range(cols):
            assert m[i, j] == ref[i][j]
    for j in range(cols):
        assert m.column(j) == tuple(row[j] for row in ref)


def ref_transpose(a, rows, cols):
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def ref_matmul(a, b, inner, cols):
    return [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for row in a]


@given(shapes, st.data())
@settings(max_examples=150, deadline=None)
def test_constructors_match_dense_reference(shape, data):
    rows, cols = shape
    a = data.draw(dense(rows, cols))
    check(Matrix(rows, cols, [x for row in a for x in row]), a, rows, cols)
    if rows:
        check(Matrix.from_rows(a), a, rows, cols)
    check(Matrix.from_columns(ref_transpose(a, rows, cols), rows), a, rows, cols)
    check(Matrix.zeros(rows, cols), [[Fraction(0)] * cols for _ in range(rows)],
          rows, cols)
    identity = [[Fraction(int(i == j)) for j in range(rows)] for i in range(rows)]
    check(Matrix.identity(rows), identity, rows, rows)
    diag = [a[i][0] if cols else Fraction(0) for i in range(rows)]
    check(Matrix.diagonal(diag),
          [[diag[i] if i == j else Fraction(0) for j in range(rows)]
           for i in range(rows)], rows, rows)


@given(shapes, st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_operations_match_dense_reference(shape, inner, data):
    rows, cols = shape
    a_ref, b_ref = data.draw(dense(rows, cols)), data.draw(dense(rows, cols))
    a = Matrix(rows, cols, [x for row in a_ref for x in row])
    b = Matrix.from_columns(ref_transpose(b_ref, rows, cols), rows)
    check(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(a_ref, b_ref)],
          rows, cols)
    check(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(a_ref, b_ref)],
          rows, cols)
    check(-a, [[-x for x in r] for r in a_ref], rows, cols)
    for s in (Fraction(0), Fraction(-1), data.draw(cancelling)):
        check(a.scale(s), [[s * x for x in r] for r in a_ref], rows, cols)
    check(a.transpose(), ref_transpose(a_ref, rows, cols), cols, rows)
    c_ref = data.draw(dense(cols, inner))
    c = Matrix(cols, inner, [x for row in c_ref for x in row])
    check(a @ c, ref_matmul(a_ref, c_ref, cols, inner), rows, inner)
    # a product whose terms cancel: a @ [c; -c] over the doubled inner space
    doubled = Matrix.hstack([a, a]) @ Matrix.vstack([c, -c])
    check(doubled, [[Fraction(0)] * inner for _ in range(rows)], rows, inner)
    v = data.draw(st.lists(cancelling, min_size=cols, max_size=cols))
    assert a.apply(v) == tuple(sum((x * y for x, y in zip(r, v)), Fraction(0))
                               for r in a_ref)
    assert all(isinstance(x, Fraction) for x in a.apply(v))
    d_ref = data.draw(dense(rows, inner))
    d = Matrix(rows, inner, [x for row in d_ref for x in row])
    check(Matrix.hstack([a, d, b]),
          [r + s + t for r, s, t in zip(a_ref, d_ref, b_ref)], rows, 2 * cols + inner)
    check(Matrix.vstack([a, b]), a_ref + b_ref, 2 * rows, cols)
    check(Matrix.block([[a, b], [b, a]]),
          [r + s for r, s in zip(a_ref + b_ref, b_ref + a_ref)], 2 * rows, 2 * cols)


@given(shapes, st.data())
@settings(max_examples=150, deadline=None)
def test_equality_and_hash_follow_the_entries(shape, data):
    rows, cols = shape
    a_ref, b_ref = data.draw(dense(rows, cols)), data.draw(dense(rows, cols))
    a = Matrix(rows, cols, [x for row in a_ref for x in row])
    b = Matrix(rows, cols, [x for row in b_ref for x in row])
    # a zero sum stores nothing, so it equals the zero matrix
    assert not any((a + (-a)).sparse_rows)
    assert a + (-a) == Matrix.zeros(rows, cols) == a.scale(0)
    # the same entries reached by other routes compare and hash equal
    for other in (a + b - b, a.transpose().transpose(), -(-a),
                  Matrix.from_columns([a.column(j) for j in range(cols)], rows)):
        assert other == a and hash(other) == hash(a)
    assert (a == b) == (a_ref == b_ref)
    if a_ref != b_ref:
        assert a != b


def test_copy_and_pickle_keep_both_row_forms():
    m = Matrix.from_rows([[Fraction(1, 2), 0, 3], [0, Fraction(-2, 3), 1]])
    assert m.rank() == 2  # fills the integer rows and the echelon memo
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin._fraction_rows == m._fraction_rows
        assert twin._int_rows == m._int_rows == (({0: 1, 2: 6}, 2), ({1: -2, 2: 3}, 3))
        assert twin == m and twin.kernel_basis() == m.kernel_basis()


@st.composite
def integer_rows(draw, shape=shapes):
    """(rows, cols, int_rows): sparse integer rows, each over a denominator
    in {1, 2, 3, 6}.  No Matrix is drawn, so printing an example builds no
    Fraction view."""
    rows, cols = draw(shape)
    return rows, cols, [(draw(st.dictionaries(st.integers(0, cols - 1),
                                              st.integers(-4, 4).filter(bool),
                                              max_size=cols)) if cols else {},
                         draw(st.sampled_from([1, 2, 3, 6]))) for _ in range(rows)]


def fraction_view_built(m):
    return m._fraction_rows is not None


@given(integer_rows(), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_integer_and_fraction_forms_agree(drawn, inner, data):
    """An integer-built matrix tests for zero, eliminates, applies, negates
    and stacks without its Fraction rows, and agrees with the Fraction-built
    matrix of the same quotients in every view, in products, in stacks with
    Fraction-built parts and in its echelon form; a Fraction-built matrix
    tests for zero without integer rows and fills them on its first apply."""
    rows, cols, int_rows = drawn
    m = Matrix._raw(rows, cols, int_rows=int_rows)
    ref = Matrix(rows, cols, [Fraction(r.get(j, 0), den) for r, den in int_rows
                              for j in range(cols)])
    v = data.draw(st.lists(cancelling, min_size=cols, max_size=cols))
    # is_zero reads the row form each matrix holds, and builds no other
    assert m.is_zero == ref.is_zero == (not any(r for r, _ in int_rows))
    assert ref._int_rows is None and not fraction_view_built(m)
    assert m.apply(v) == ref.apply(v)
    assert all(isinstance(x, Fraction) for x in m.apply(v))
    assert m._echelon() == ref._echelon()
    assert ref._int_rows is not None
    rhs = data.draw(st.lists(cancelling, min_size=rows, max_size=rows))
    assert m.solve_in_image(rhs) == ref.solve_in_image(rhs)
    assert m.kernel_basis() == ref.kernel_basis()
    def fractions(r, c):
        return Matrix(r, c, data.draw(st.lists(cancelling, min_size=r * c,
                                               max_size=r * c)))

    a, c = fractions(rows, inner), fractions(inner, cols)
    stacks = [(Matrix.hstack([m, a, -m]), Matrix.hstack([ref, a, -ref])),
              (Matrix.vstack([-m, c, m]), Matrix.vstack([-ref, c, ref])),
              (Matrix.block([[m, a], [-m, a]]), Matrix.block([[ref, a], [-ref, a]]))]
    for got, want in stacks:
        assert got._int_rows is not None
        assert got._echelon() == want._echelon()
        w = data.draw(st.lists(cancelling, min_size=got.cols, max_size=got.cols))
        assert got.apply(w) == want.apply(w)
    # parts without integer rows stack their Fraction rows
    fresh = Matrix(rows, cols, ref.entries)
    assert Matrix.hstack([fresh, fresh])._int_rows is None
    assert Matrix.vstack([fresh, fresh])._int_rows is None
    assert not any(fraction_view_built(x) for x in [m] + [got for got, _ in stacks])
    for got, want in stacks:
        assert got == want and hash(got) == hash(want)
    check(m, [list(ref.row(i)) for i in range(rows)], rows, cols)
    assert fraction_view_built(m)
    assert m == ref and ref == m and hash(m) == hash(ref)
    # negation keeps each row form that the matrix holds, and builds no other
    assert fraction_view_built(-m) and (-m)._int_rows is not None
    assert (-fresh)._int_rows is None
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == ref and twin._int_rows == m._int_rows
        assert twin._fraction_rows == m._fraction_rows
    b = fractions(cols, inner)
    assert m @ b == ref @ b and a.transpose() @ m == a.transpose() @ ref
    assert -m == -ref and m - ref == Matrix.zeros(rows, cols)


@given(shapes, st.integers(0, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_product_is_zero_matches_the_fraction_product(shape, inner, data):
    """oracles.product_is_zero(a, b) is (a @ b).is_zero.  Each row of a is
    scaled by its own rational, and some columns of b are combinations of
    a's kernel vectors scaled by their own rational, so denominators differ
    by row and by column and many products vanish; a zero scale or an empty
    kernel draws zero rows and columns, and every shape may be empty."""
    rows, cols = shape
    row_scales = data.draw(st.lists(scalars, min_size=rows, max_size=rows))
    a = Matrix(rows, inner, [s * x for s, row in zip(row_scales, data.draw(
        dense(rows, inner))) for x in row])
    kernel = a.kernel_basis()
    columns = []
    for _ in range(cols):
        if data.draw(st.booleans()):
            coeffs = data.draw(st.lists(scalars, min_size=len(kernel),
                                        max_size=len(kernel)))
            columns.append([sum((c * v[i] for c, v in zip(coeffs, kernel)), Fraction(0))
                            for i in range(inner)])
        else:
            columns.append(data.draw(st.lists(cancelling, min_size=inner,
                                              max_size=inner)))
    b = Matrix.from_columns(columns, inner)
    assert oracles.product_is_zero(a, b) == (a @ b).is_zero


def test_product_is_zero_examples():
    a = Matrix.from_rows([[1, Fraction(1, 2)], [Fraction(2, 3), Fraction(1, 3)]])
    zero = oracles.product_is_zero
    assert zero(a, Matrix.from_rows([[Fraction(-1, 5)], [Fraction(2, 5)]]))
    assert not zero(a, Matrix.from_rows([[Fraction(-1, 5)], [Fraction(2, 7)]]))
    assert zero(Matrix.zeros(0, 3), Matrix.identity(3))
    assert zero(Matrix.zeros(2, 0), Matrix.zeros(0, 4))
    # a shape mismatch raises the InputError of @
    with pytest.raises(InputError) as product:
        a @ Matrix.identity(3)
    with pytest.raises(InputError) as mismatch:
        zero(a, Matrix.identity(3))
    assert str(mismatch.value) == str(product.value) == "cannot multiply 2x2 by 3x3"


# ---------------------------------------------------------------------------
# determinant of a Kronecker sum modulo a prime


def kronecker_sum_dense(factors):
    """sum_i I (x) ... (x) F_i (x) ... (x) I as a list of rows."""
    dims = [f.rows for f in factors]
    size = 1
    for d in dims:
        size *= d

    def digits(x):  # index into each factor, the last one fastest
        out = []
        for d in reversed(dims):
            x, r = divmod(x, d)
            out.append(r)
        return out[::-1]

    rows = [[Fraction(0)] * size for _ in range(size)]
    for x in range(size):
        dx = digits(x)
        for y in range(size):
            dy = digits(y)
            for i, f in enumerate(factors):
                if all(a == b for k, (a, b) in enumerate(zip(dx, dy)) if k != i):
                    rows[x][y] += f[dx[i], dy[i]]
    return rows


@st.composite
def kronecker_factors(draw):
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 3))
        entries = draw(st.lists(st.sampled_from(
            [Fraction(0)] * 3 + [Fraction(1), Fraction(-1), Fraction(2, 3)]),
            min_size=n * n, max_size=n * n))
        factors.append(Matrix(n, n, entries))
    if draw(st.booleans()):  # eigenvalues that cancel: F (+) -F is singular
        factors += [factors[0], -factors[0]]
    return factors


#: The characteristic polynomial of the empty Kronecker sum, the 1 x 1 zero
#: matrix.
EMPTY_SUM_POLY = [1, 0]


def det_by_halves(factors):
    """det of the Kronecker sum of the factors mod p as PhiDeterminant takes
    it: one resultant of the head (all factors but the last two) and the
    tail (the last two), each composed from its factors' polynomials."""
    polys = [charpoly_mod_p(f) for f in factors]
    head = reduce(kronecker_sum_charpoly_mod_p, polys[:-2], EMPTY_SUM_POLY)
    tail = reduce(kronecker_sum_charpoly_mod_p, polys[-2:], EMPTY_SUM_POLY)
    return kronecker_sum_det_from_halves(head, tail)


@pytest.mark.parametrize("prime", [exactnum.CERTIFICATE_PRIME, 257])
@given(factors=kronecker_factors())
@settings(max_examples=60, deadline=None)
def test_kronecker_sum_det_matches_the_assembled_sum(prime, factors):
    # a small prime wraps the intermediate values; 257 exceeds every N here,
    # at most 3 * 3 * 3 * 3 * 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "CERTIFICATE_PRIME", prime)
        got = det_by_halves(factors)
    assert got == det_mod_p(kronecker_sum_dense(factors), prime)
    assert got == oracles.kronecker_sum_det_mod_p(factors, prime)


def test_kronecker_sum_det_takes_the_last_two_factors_apart():
    """The head (all factors but the last two) and the tail (the last two)
    give the determinant of the assembled sum, whichever factors land in
    each half, empty factors and a singular tail included."""
    a = Matrix.from_rows([[1, 2, 0], [0, -1, 1], [3, 0, Fraction(2, 3)]])
    b = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    c = Matrix.from_rows([[2, 1], [-1, 0]])
    empty = Matrix.zeros(0, 0)
    cases = [[a], [c], [a, b, c], [c, b, a], [b, a, b, c], [c, c, a, -a],
             [a, c, b], [a, -a], [empty], [empty, empty], [empty, a], [a, empty, c]]
    for factors in cases:
        got = det_by_halves(factors)
        assert got == det_mod_p(kronecker_sum_dense(factors),
                                exactnum.CERTIFICATE_PRIME), factors
        assert got == oracles.kronecker_sum_det_mod_p(
            factors, exactnum.CERTIFICATE_PRIME), factors
    # eigenvalues cancel
    assert kronecker_sum_det_from_halves(charpoly_mod_p(a), charpoly_mod_p(-a)) == 0


@pytest.mark.parametrize("prime", [exactnum.CERTIFICATE_PRIME, 257])
@given(factors=kronecker_factors())
@settings(max_examples=60, deadline=None)
def test_kronecker_sum_halves_are_those_of_the_assembled_sum(prime, factors):
    """The composed polynomial of two factors is that of their assembled
    Kronecker sum, and the determinant of head (+) tail is one resultant
    of the two halves' polynomials."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "CERTIFICATE_PRIME", prime)
        head, tail = factors[:-1], factors[-1:]
        head_poly = EMPTY_SUM_POLY
        for f in head:
            head_poly = kronecker_sum_charpoly_mod_p(head_poly, charpoly_mod_p(f))
        assert head_poly == (charpoly_mod_p(Matrix.from_rows(kronecker_sum_dense(head)))
                             if head else EMPTY_SUM_POLY)
        got = kronecker_sum_det_from_halves(head_poly, charpoly_mod_p(tail[0]))
    assert got == det_mod_p(kronecker_sum_dense(factors), prime)


def block_triangular(blocks, coupling, order):
    """The matrix with the square blocks on its diagonal, the coupling
    entries above them, and rows and columns permuted by order."""
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(b)] = row
        at += len(b)
    for (i, j), c in coupling.items():
        rows[min(i, j)][max(i, j)] += c
    return Matrix.from_rows([[rows[order[i]][order[j]] for j in range(n)]
                             for i in range(n)])


@st.composite
def block_triangular_operators(draw):
    """A permuted block triangular operator with blocks of size 1 and 2; a
    2 x 2 block has a rational spectrum {r, s} when drawn so, and arbitrary
    entries (most often an irrational one) otherwise."""
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            blocks.append([[draw(scalars)]])
            continue
        a, b = draw(scalars), draw(scalars.filter(bool))
        if draw(st.booleans()):
            r, s = draw(scalars), draw(scalars)
            e = r + s - a
            blocks.append([[a, b], [(a * e - r * s) / b, e]])
        else:
            blocks.append([[a, b], [draw(scalars), draw(scalars)]])
    n = sum(len(b) for b in blocks)
    cells = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    coupling = draw(st.dictionaries(cells, scalars, max_size=4)) if n else {}
    return block_triangular(blocks, coupling, draw(st.permutations(range(n))))


def spectrum_poly(spectrum, p):
    """prod (x - v)^k mod p over the {v: k} spectrum, highest degree first."""
    out = [1]
    for v, k in spectrum.items():
        v = Fraction(v)
        root = v.numerator * pow(v.denominator, -1, p) % p
        for _ in range(k):
            out = [(x - root * y) % p for x, y in zip(out + [0], [0] + out)]
    return out


@given(f=block_triangular_operators())
@settings(max_examples=120, deadline=None)
def test_rational_spectrum_has_the_characteristic_polynomial(f):
    """Where rational_spectrum answers, its eigenvalues are the roots of f's
    characteristic polynomial with their multiplicities; it declines only a
    2 x 2 component with an irrational spectrum."""
    p = exactnum.CERTIFICATE_PRIME
    spectrum = rational_spectrum(f)
    if spectrum is not None:
        assert len(spectrum) == f.rows
        assert spectrum_poly(Counter(spectrum), p) == charpoly_mod_p(f)


def test_rational_spectrum_examples():
    half, third = Fraction(1, 2), Fraction(1, 3)
    # 2 x 2 blocks: discriminants 16, 1 and 0 are squares; 33, 8 and -4 not
    assert rational_spectrum(Matrix.from_rows([[1, 2], [2, 1]])) == [3, -1]
    assert rational_spectrum(Matrix.from_rows(
        [[half, Fraction(3, 4)], [third, half]])) == [1, 0]
    assert rational_spectrum(Matrix.from_rows([[2, 1], [-1, 0]])) == [1, 1]
    for block in ([[1, 2], [3, 4]], [[half, 3], [third, Fraction(5, 2)]], [[0, 1], [-1, 0]]):
        assert rational_spectrum(Matrix.from_rows(block)) is None
    # triangular after a permutation, with a rational 2 x 2 block
    f = block_triangular([[[1, 2], [2, 1]], [[5]]], {(0, 2): 7, (1, 2): -1}, [2, 0, 1])
    assert sorted(rational_spectrum(f)) == [-1, 3, 5]
    # a 3-cycle is one component of three indices, whatever its spectrum
    assert rational_spectrum(Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) is None
    assert rational_spectrum(Matrix.zeros(0, 0)) == []


def test_spectra_compose_as_the_polynomials_do():
    """The exact spectra of d_F and of a Kronecker sum, and the product of
    a scaled spectrum, agree with the polynomial route on d = diag(1, 2, 3)
    plus a 2 x 2 block."""
    p = exactnum.CERTIFICATE_PRIME
    d = block_triangular([[[1]], [[Fraction(1, 2), Fraction(3, 4)], [Fraction(1, 3), Fraction(1, 2)]]],
                         {(0, 1): 1}, [0, 1, 2])
    mu, lam = Counter(rational_spectrum(d)), Fraction(-5, 3)
    pair = wedge_spectrum(mu, lam)
    assert spectrum_poly(pair, p) == wedge_charpoly_mod_p(charpoly_mod_p(d), lam)
    total = kronecker_sum_spectrum(pair, mu)
    assert spectrum_poly(total, p) == kronecker_sum_charpoly_mod_p(
        wedge_charpoly_mod_p(charpoly_mod_p(d), lam), charpoly_mod_p(d))
    scale = 6
    scaled = {int(v * scale): k for v, k in total.items()}
    assert spectrum_det_mod_p(scaled, scale) == det_by_halves([pair_map(d, lam), d])


@given(f=block_triangular_operators(), lam=scalars)
@settings(max_examples=60, deadline=None)
def test_wedge_spectrum_lists_the_pair_sums(f, lam):
    """wedge_spectrum, read off the spectrum of A (+) A, holds mu_i + mu_j
    + lam once for each i < j, repeated eigenvalues included."""
    mu = rational_spectrum(f)
    if mu is not None:
        want = Counter(x + y + lam for i, x in enumerate(mu) for y in mu[i + 1:])
        assert wedge_spectrum(Counter(mu), lam) == want
    assert wedge_spectrum({2: 3}, 1) == {5: 3}


def sylvester(a, b):
    """Sylvester matrix of two coefficient lists, highest degree first."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
    return [[Fraction(x) for x in row] for row in rows]


def test_resultant_examples():
    p = 257
    # b = x (x - 1)(x + 1) is a multiple of a = x^2 - 1: zero remainder
    assert _resultant_mod([1, 0, p - 1], [1, 0, p - 1, 0], p) == 0
    # x^2 + 1 mod (x - 3) is the constant 10 = b(3)
    assert _resultant_mod([1, p - 3], [1, 0, 1], p) == 10
    # a = x^3 - x against b = x + 2: 2 * 3 * 1, where one Euclid step flips
    # the sign (deg a = 3, deg b = 1) and a(-2) = -6
    assert _resultant_mod([1, 0, p - 1, 0], [1, 2], p) == 6
    # a constant monic a has no roots: the empty product
    assert _resultant_mod([1], [5, 0, 1], p) == 1
    # a constant b is taken deg a times
    assert _resultant_mod([1, 4, 1], [3], p) == 9


@pytest.mark.parametrize("p", [7, 257])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_resultant_matches_the_sylvester_determinant(p, data):
    coefficients = st.lists(st.integers(0, p - 1), max_size=6)
    a = [1] + data.draw(coefficients)
    b = data.draw(coefficients.filter(bool))
    assert _resultant_mod(a, b, p) == det_mod_p(sylvester(a, b), p)


def test_kronecker_sum_det_declines_what_it_cannot_decide(monkeypatch):
    a = Matrix.from_rows([[1, Fraction(1, 7)], [0, 2]])
    b = Matrix.from_rows([[3]])
    monkeypatch.setattr(exactnum, "CERTIFICATE_PRIME", 7)
    c_b = charpoly_mod_p(b)
    assert kronecker_sum_det_from_halves(c_b, c_b) == 6  # 3 + 3
    # 7 divides a denominator
    assert charpoly_mod_p(a) is None
    assert kronecker_sum_charpoly_mod_p(None, c_b) is None
    assert kronecker_sum_det_from_halves(None, c_b) is None
    # p <= N
    seven, six = charpoly_mod_p(Matrix.identity(7)), charpoly_mod_p(Matrix.identity(6))
    assert kronecker_sum_charpoly_mod_p(seven, EMPTY_SUM_POLY) is None
    assert kronecker_sum_det_from_halves(seven, EMPTY_SUM_POLY) is None
    assert kronecker_sum_det_from_halves(six, EMPTY_SUM_POLY) == 1


def test_the_certificate_prime_is_one_digit_and_above_every_admitted_size():
    """CERTIFICATE_PRIME is a prime (trial division) below 2^30, so each
    residue is one 30-bit digit of a CPython int, and above
    isqrt(MAX_DENSE_ENTRIES), which bounds dim C^q = N on every degree the
    entry budget admits: the p <= N decline never fires on such a request."""
    p = exactnum.CERTIFICATE_PRIME
    assert p > 1 and all(p % k for k in range(2, isqrt(p) + 1))
    assert isqrt(MAX_DENSE_ENTRIES) < p < 2 ** 30


def forced_polynomials(phi):
    """phi with its exact spectra withheld: the polynomial path."""
    phi._spectra = None
    return phi


def test_phi_determinant_declines_what_it_cannot_decide(monkeypatch):
    """On both paths mod_p declines (None) where p divides a denominator of
    d or d_M, and where p <= N = C(n, 2)^(q - 1) n m; a p that is at most
    max(C(n, 2), 2) leaves the answer to the polynomials."""
    a = Matrix.from_rows([[1, Fraction(1, 7)], [0, 2]])
    three = Matrix.from_rows([[3]])
    monkeypatch.setattr(exactnum, "CERTIFICATE_PRIME", 7)
    for make in (PhiDeterminant, lambda *args: forced_polynomials(PhiDeterminant(*args))):
        # 7 divides a denominator of d, then of d_M
        assert [make(a, three, 1).mod_p(q) for q in (1, 2, 3)] == [None] * 3
        assert [make(three, a, 1).mod_p(q) for q in (1, 2)] == [None] * 2
        # d = I_3, d_M = I_2: N = 6 < 7 at q = 1 and 18 at q = 2
        phi = make(Matrix.identity(3), Matrix.identity(2), 1)
        assert phi.mod_p(2) is None and phi.mod_p(1) == 0  # eigenvalue 1 - 1
        assert make(three, three.scale(2), 0).mod_p(1) == 7 - 3  # 3 - 6
    # the exact path, chosen only where p > max(C(n, 2), 2)
    assert PhiDeterminant(three, three.scale(2), 0)._spectra is not None
    monkeypatch.setattr(exactnum, "CERTIFICATE_PRIME", 2)
    assert PhiDeterminant(three, three, 0)._spectra is None
    monkeypatch.setattr(exactnum, "CERTIFICATE_PRIME", 3)
    assert PhiDeterminant(Matrix.identity(3), three, 0)._spectra is None
    monkeypatch.setattr(exactnum, "CERTIFICATE_PRIME", 5)
    assert PhiDeterminant(Matrix.identity(3), three, 0)._spectra is not None


def test_phi_determinant_of_the_adjoint_in_degree_one_is_zero(monkeypatch):
    """Where d_M is d, Phi_1 = d^T (+) -d has the eigenvalue 0: mod_p(1) is
    0 without a spectrum or a polynomial, even where p divides a
    denominator; an equal d_M that is another object computes it."""
    def refuse(*args):
        raise AssertionError("a spectrum or a polynomial was computed")

    d = Matrix.from_rows([[1, Fraction(1, 7)], [0, 2]])
    monkeypatch.setattr(exactnum, "rational_spectrum", refuse)
    monkeypatch.setattr(exactnum, "_charpoly_mod", refuse)
    assert PhiDeterminant(d, d, 3).mod_p(1) == 0
    monkeypatch.setattr(exactnum, "CERTIFICATE_PRIME", 7)
    assert PhiDeterminant(d, d, 3).mod_p(1) == 0
    # the size check comes first: p <= N = 9
    i3 = Matrix.identity(3)
    assert PhiDeterminant(i3, i3, 3).mod_p(1) is None
    monkeypatch.undo()
    assert PhiDeterminant(d, d.scale(1), 3).mod_p(1) == 0
    empty = Matrix.zeros(0, 0)
    assert PhiDeterminant(empty, empty, 3).mod_p(1) == 1  # det of a 0 x 0 map


@st.composite
def phi_inputs(draw):
    """(d, d_M, lam): permuted block triangular operators, whose 2 x 2
    blocks have a rational spectrum or not, or d_M the very object d."""
    d = draw(block_triangular_operators())
    d_M = d if draw(st.booleans()) else draw(block_triangular_operators())
    return d, d_M, draw(scalars)


@given(phi_inputs())
@settings(max_examples=60, deadline=None)
def test_phi_determinant_is_that_of_the_kronecker_sum(inputs):
    """mod_p(q), on the path the input takes and on the polynomial path,
    is det Phi_q mod p by the oracle's power sums of the whole Kronecker sum
    (q - 1 copies of d_F, d and -d_M), in increasing and decreasing order
    of degree, up to N = 400."""
    d, d_M, lam = inputs
    pairs = d.rows * (d.rows - 1) // 2
    degrees = [q for q in (1, 2, 3) if pairs ** (q - 1) * d.rows * d_M.rows <= 400]
    want = [oracles.kronecker_sum_det_mod_p([pair_map(d, lam)] * (q - 1) + [d, -d_M],
                                            exactnum.CERTIFICATE_PRIME)
            for q in degrees]
    for phi in (PhiDeterminant(d, d_M, lam), forced_polynomials(PhiDeterminant(d, d_M, lam))):
        assert [phi.mod_p(q) for q in degrees] == want
    phi = PhiDeterminant(d, d_M, lam)
    assert [phi.mod_p(q) for q in reversed(degrees)] == want[::-1]


# ---------------------------------------------------------------------------
# the characteristic polynomial of the pair map, from the operator's


def pair_map(d, lam):
    """d_F = d ^ 1 + 1 ^ d + lam on the pairs, as leibniz_data builds it."""
    return leibniz_data(MD3LieAlgebra(ThreeLieAlgebra.abelian(d.rows),
                                      ModifiedDifferential(lam, d))).d_F


@st.composite
def operators(draw):
    """A square operator up to 6 x 6: random entries, or a Jordan block (one
    eigenvalue, ones above the diagonal: not diagonalizable from 2 x 2 on)
    conjugated by an elementary matrix I + c E_ij, whose inverse is
    I - c E_ij."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return Matrix(n, n, draw(st.lists(scalars, min_size=n * n, max_size=n * n)))
    a = draw(scalars)
    jordan = Matrix(n, n, [a if j == i else 1 if j == i + 1 else 0
                           for i in range(n) for j in range(n)])
    if n < 2:
        return jordan
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    c = draw(scalars.filter(bool))
    e = Matrix.from_entries(n, n, {(i, j): c})
    return (Matrix.identity(n) + e) @ jordan @ (Matrix.identity(n) - e)


@given(st.one_of(phi_inputs(), operators().map(lambda d: (d, d, 0))))
@settings(max_examples=60, deadline=None)
def test_distinct_eigenvalues_of_d_on_both_paths(inputs):
    """d_has_distinct_eigenvalues() is oracles.has_distinct_eigenvalues(d)
    on the path the input takes and on the polynomial path, whatever d_M
    is: block triangular operators, and Jordan blocks conjugated off their
    pattern."""
    d, d_M, lam = inputs
    want = oracles.has_distinct_eigenvalues(d)
    for phi in (PhiDeterminant(d, d_M, lam), forced_polynomials(PhiDeterminant(d, d_M, lam))):
        assert phi.d_has_distinct_eigenvalues() == want


def test_distinct_eigenvalues_mod_a_small_prime_are_only_ever_declined(monkeypatch):
    """With p = 7: where p divides a denominator of d, or two eigenvalues
    of d are distinct but congruent mod p, the polynomials say False; the
    exact spectra still see 1 and 8 apart.  Neither path says True for a
    repeated eigenvalue."""
    monkeypatch.setattr(exactnum, "CERTIFICATE_PRIME", 7)
    sevenths = Matrix.from_rows([[1, Fraction(1, 7)], [0, 2]])
    apart, repeated = Matrix.diagonal([1, 8]), Matrix.from_rows([[1, 1], [0, 1]])
    for d, exact in ((sevenths, False), (apart, True), (repeated, False)):
        assert PhiDeterminant(d, d, 0).d_has_distinct_eigenvalues() == exact, d
        assert not forced_polynomials(PhiDeterminant(d, d, 0)).d_has_distinct_eigenvalues()


def test_wedge_charpoly_examples():
    # d = diag(1, 2, 3) at weight -5: pair eigenvalues -2, -1, 0
    p = exactnum.CERTIFICATE_PRIME
    c = charpoly_mod_p(Matrix.diagonal([1, 2, 3]))
    assert wedge_charpoly_mod_p(c, -5) == [1, 3, 2, 0]
    # a 2 x 2 Jordan block at a: the one pair has 2a + lam
    c = charpoly_mod_p(Matrix.from_rows([[Fraction(1, 3), 1], [0, Fraction(1, 3)]]))
    assert wedge_charpoly_mod_p(c, Fraction(1, 2)) == [1, -7 * pow(6, -1, p) % p]
    # no pairs on a line or a point
    assert wedge_charpoly_mod_p(charpoly_mod_p(Matrix.identity(1)), 3) == [1]
    assert wedge_charpoly_mod_p(charpoly_mod_p(Matrix.zeros(0, 0)), 3) == [1]


@pytest.mark.parametrize("prime", [exactnum.CERTIFICATE_PRIME, 257])
@given(d=operators(), lam=scalars)
@settings(max_examples=80, deadline=None)
def test_wedge_charpoly_is_that_of_the_pair_map(prime, d, lam):
    # 257 wraps the intermediate values and exceeds N = C(6, 2) = 15
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "CERTIFICATE_PRIME", prime)
        got = wedge_charpoly_mod_p(charpoly_mod_p(d), lam)
        assert got == charpoly_mod_p(pair_map(d, lam))


def test_wedge_charpoly_declines_what_it_cannot_decide(monkeypatch):
    monkeypatch.setattr(exactnum, "CERTIFICATE_PRIME", 7)
    d = Matrix.from_rows([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 3, 1], [0, 0, 0, -1]])
    c = charpoly_mod_p(d)
    # N = C(4, 2) = 6 < 7 is decided
    assert wedge_charpoly_mod_p(c, Fraction(1, 2)) == charpoly_mod_p(
        pair_map(d, Fraction(1, 2))) is not None
    # 7 divides the weight's denominator; d's polynomial was declined
    assert wedge_charpoly_mod_p(c, Fraction(1, 7)) is None
    assert wedge_charpoly_mod_p(None, 1) is None
    # p <= N = 10, though d's polynomial is decided
    five = charpoly_mod_p(Matrix.identity(5))
    assert five is not None and wedge_charpoly_mod_p(five, 1) is None
    # lam / 2 has no value mod 2
    monkeypatch.setattr(exactnum, "CERTIFICATE_PRIME", 2)
    assert wedge_charpoly_mod_p(charpoly_mod_p(Matrix.identity(2)), 1) is None
