from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from md3lie.errors import InputError
from md3lie.exactnum import Matrix

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
