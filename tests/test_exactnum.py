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
