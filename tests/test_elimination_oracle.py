"""Rank, kernel, solve and inverse against sympy's exact linear algebra.

All four share one Bareiss engine in ``md3lie.exactnum``; sympy (when it is
installed) is an independent implementation over QQ.  Matrices are small,
rational, and often singular or rectangular: a product of two random factors
has rank at most the inner dimension.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from md3lie.errors import InputError
from md3lie.exactnum import Matrix

sympy = pytest.importorskip("sympy")
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

scalars = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def entries(draw, count):
    return draw(st.lists(scalars, min_size=count, max_size=count))


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


def rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def to_sympy(m: Matrix):
    return sympy.Matrix(m.rows, m.cols, [rational(e) for e in m.entries])


def to_domain(m: Matrix) -> DomainMatrix:
    rows = [[QQ(e.numerator, e.denominator) for e in m.row(i)]
            for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), QQ)


def column(values):
    return sympy.Matrix(len(values), 1, [rational(Fraction(v)) for v in values])


def primitive(values) -> tuple:
    """The primitive integer vector on the line of a rational vector."""
    values = [Fraction(int(v.p), int(v.q)) for v in values]
    scale = lcm(*(v.denominator for v in values)) if values else 1
    ints = [int(v * scale) for v in values]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g if g > 1 else v for v in ints)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_matches_sympy(m):
    assert m.rank() == to_domain(m).rank()


@given(matrices())
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
        primitive(list(v)) for v in sm.nullspace()]


@given(matrices(), st.data())
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


@given(square_matrices())
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
