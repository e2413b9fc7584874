from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from md3lie.corpus import example_algebra
from md3lie.errors import InputError
from md3lie.exactnum import unit, vec_add
from md3lie.multilin import (
    CochainCoordinates, SkewTernaryTensor, cochain_dim, embed_skew_trilinear,
    extract_skew_trilinear, pair_basis, wedge_coords,
)

scalars = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def test_pair_basis():
    assert pair_basis(3) == ((0, 1), (0, 2), (1, 2))
    assert pair_basis(2) == ((0, 1),)
    assert pair_basis(1) == ()


def test_cochain_dim():
    assert cochain_dim(1, 3, 3) == 9
    assert cochain_dim(2, 3, 3) == 27
    assert cochain_dim(2, 2, 1) == 2
    with pytest.raises(InputError):
        cochain_dim(0, 3, 3)


def test_cochain_dim_recursion():
    for n, m in [(2, 1), (3, 3), (4, 2)]:
        for q in range(1, 4):
            assert cochain_dim(q + 1, n, m) == len(pair_basis(n)) * cochain_dim(q, n, m)


def test_skew_call_on_example_bracket():
    t = example_algebra().bracket
    e = [unit(3, i) for i in range(3)]
    assert t(e[0], e[1], e[2]) == (1, 0, 0)
    assert t(e[1], e[0], e[2]) == (-1, 0, 0)
    assert t(e[0], e[0], e[2]) == (0, 0, 0)


@given(st.lists(scalars, min_size=3, max_size=3),
       st.lists(scalars, min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_skew_call_repeated_argument_vanishes(x, z):
    t = example_algebra().bracket
    assert t(x, x, z) == (0, 0, 0)


@st.composite
def tensors(draw, n=4, m=2):
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                values[i, j, k] = draw(
                    st.lists(scalars, min_size=m, max_size=m))
    return SkewTernaryTensor(n, m, values)


@given(tensors(), st.data())
@settings(max_examples=30, deadline=None)
def test_skew_call_antisymmetry(t, data):
    vecs = [tuple(data.draw(st.lists(scalars, min_size=4, max_size=4)))
            for _ in range(3)]
    base = t(*vecs)
    for perm in permutations(range(3)):
        sign = 1
        p = list(perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        got = t(vecs[perm[0]], vecs[perm[1]], vecs[perm[2]])
        expected = tuple(sign * c for c in base)
        assert got == expected


@given(tensors(), st.data())
@settings(max_examples=30, deadline=None)
def test_skew_call_linear_in_first_slot(t, data):
    draw_vec = lambda: tuple(data.draw(st.lists(scalars, min_size=4, max_size=4)))
    x1, x2, y, z = draw_vec(), draw_vec(), draw_vec(), draw_vec()
    c = data.draw(scalars)
    lhs = t(tuple(a + c * b for a, b in zip(x1, x2)), y, z)
    rhs = vec_add(t(x1, y, z), tuple(c * v for v in t(x2, y, z)))
    assert lhs == rhs


@given(tensors(), st.integers(0, 3), st.integers(0, 3),
       st.lists(scalars, min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_pair_value_is_the_call_on_two_basis_vectors(t, i, j, w):
    assert t.pair_value(i, j, w) == t(unit(4, i), unit(4, j), w)


def test_embed_zero():
    z = SkewTernaryTensor.zero(3, 2)
    assert embed_skew_trilinear(z).is_zero


def test_embed_example_bracket_coordinates():
    # nonzero block: ((1,2),3)->1, ((1,3),2)->-1, ((2,3),1)->1 in 1-based terms
    t = example_algebra().bracket
    coords = embed_skew_trilinear(t)
    expected = {(0, 2, 0): Fraction(1), (1, 1, 0): Fraction(-1),
                (2, 0, 0): Fraction(1)}
    for p in range(3):
        for k in range(3):
            for r in range(3):
                want = expected.get((p, k, r), Fraction(0))
                assert coords.coords[coords.index((p,), k, r)] == want


@given(tensors())
@settings(max_examples=20, deadline=None)
def test_embed_round_trip(t):
    coords = embed_skew_trilinear(t)
    n = t.dim_in
    for i in range(n):
        for j in range(n):
            for k in range(n):
                got = coords.evaluate([wedge_coords(unit(n, i), unit(n, j))],
                                      unit(n, k))
                assert got == t.basis_value(i, j, k)
    assert extract_skew_trilinear(coords) == t


def test_extract_rejects_non_skew():
    coords = CochainCoordinates.zero(2, 3, 1)
    bumped = list(coords.coords)
    bumped[coords.index((0,), 0, 0)] = Fraction(1)  # f(e1^e2, e1) != 0
    with pytest.raises(InputError):
        extract_skew_trilinear(CochainCoordinates(2, 3, 1, bumped))


def test_degree_one_is_linear_map():
    from md3lie.exactnum import Matrix

    mat = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    coords = CochainCoordinates.from_linear_map(mat)
    assert coords.degree == 1 and len(coords.coords) == 6
    assert coords.to_linear_map() == mat
    for k in range(3):
        assert coords.evaluate([], unit(3, k)) == mat.column(k)
