from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from md3lie.corpus import example_algebra
from md3lie.errors import InputError
from md3lie.exactnum import Matrix
from md3lie.multilin import (
    CochainCoordinates, SkewTernaryTensor, cochain_dim, embed_skew_trilinear,
    extract_skew_trilinear, pair_basis,
)

import oracles
from oracles import evaluate, unit, vec_add, wedge_coords

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


def tensor_33(values):
    return SkewTernaryTensor(3, 3, values)


def cochain_2_31(items):
    # degree 2 over n = 3, m = 1: nine coordinates
    return CochainCoordinates(2, 3, 1, items)


@pytest.mark.parametrize("build, values", [
    (tensor_33, {(0, 1, 2): (1, 0, 0)}),   # a dense value
    (tensor_33, {(0, 1, 2): [1, 0, 0]}),
    (tensor_33, {(0, 1, 2): {3: 1}}),      # index past dim_out
    (tensor_33, {(0, 1, 2): {-1: 1}}),
    (tensor_33, {(0, 1, 2): {"1": 1}}),
    (tensor_33, {(1, 0, 2): {0: 1}}),      # triples not increasing
    (tensor_33, {(0, 2, 2): {0: 1}}),
    (tensor_33, {(0, 1, 3): {0: 1}}),      # outside dim_in
    (tensor_33, {(0, 1, 2): {0: 0.5}}),    # not an exact scalar
    (cochain_2_31, (0, 1, 0, 0, 0, 0, 0, 0, 0)),  # a dense vector
    (cochain_2_31, [0, 1, 0, 0, 0, 0, 0, 0, 0]),
    (cochain_2_31, {9: 1}),                # index past the dimension
    (cochain_2_31, {-1: 1}),
    (cochain_2_31, {"1": 1}),
    (cochain_2_31, {1.0: 1}),
    (cochain_2_31, {1: 0.5}),              # not an exact scalar
    (cochain_2_31, {1: None}),
], ids=["tuple", "list", "index-high", "index-negative", "index-str",
        "unordered", "repeated", "triple-high", "value-float",
        "cochain-tuple", "cochain-list", "cochain-index-high",
        "cochain-index-negative", "cochain-index-str", "cochain-index-float",
        "cochain-value-float", "cochain-value-none"])
def test_constructor_refuses_what_is_not_sparse_items(build, values):
    with pytest.raises(InputError):
        build(values)


def test_constructor_drops_zero_entries_and_zero_triples():
    t = SkewTernaryTensor(4, 3, {(0, 1, 3): {1: 0}, (1, 2, 3): {},
                                 (0, 1, 2): {2: "1/2", 0: Fraction(0)}})
    assert t.values == {(0, 1, 2): ((2, Fraction(1, 2)),)}
    assert SkewTernaryTensor(4, 3, {(0, 1, 3): {1: 0, 2: "0"}}) == SkewTernaryTensor.zero(4, 3)
    assert SkewTernaryTensor(4, 3, {(0, 1, 3): {1: 0}}).is_zero
    c = CochainCoordinates(2, 3, 1, {7: "1/2", 4: 0, 0: Fraction(0), 8: "0"})
    assert c.items == {7: Fraction(1, 2)}
    assert c.coords == (0,) * 7 + (Fraction(1, 2), 0)
    assert CochainCoordinates(2, 3, 1, {4: 0, 8: "0"}) == CochainCoordinates.zero(2, 3, 1)
    assert CochainCoordinates(2, 3, 1, {4: 0}).is_zero and not c.is_zero


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_mappings_in_any_order_build_equal_tensors(data):
    triples = list(combinations(range(4), 3))
    entries = data.draw(st.dictionaries(
        st.tuples(st.sampled_from(triples), st.integers(0, 2)), scalars, max_size=10))
    mapping = {}
    for (triple, r), c in entries.items():
        mapping.setdefault(triple, {})[r] = c
    order = data.draw(st.permutations(list(mapping)))
    reordered = {key: dict(data.draw(st.permutations(list(mapping[key].items()))))
                 for key in order}
    a, b = SkewTernaryTensor(4, 3, mapping), SkewTernaryTensor(4, 3, reordered)
    assert a == b and hash(a) == hash(b)
    assert list(a.values) == list(b.values) == sorted(a.values)
    assert all(list(items) == sorted(items) for items in a.values.values())


cochain_items = st.dictionaries(st.integers(0, 26), scalars, max_size=12)


@given(cochain_items, st.data())
@settings(max_examples=50, deadline=None)
def test_items_in_any_order_build_equal_cochains(items, data):
    reordered = dict(data.draw(st.permutations(list(items.items()))))
    a, b = (CochainCoordinates(2, 3, 3, x) for x in (items, reordered))
    assert a == b and hash(a) == hash(b)
    assert list(a.items) == list(b.items) == sorted(i for i, c in items.items() if c)


@given(cochain_items, cochain_items)
@settings(max_examples=50, deadline=None)
def test_cochain_difference_matches_the_dense_oracle(x, y):
    a, b = (CochainCoordinates(2, 3, 3, items) for items in (x, y))
    assert (a - b).coords == oracles.vec_sub(a.coords, b.coords)
    assert (a - b).is_zero == (a == b) and (a - a).items == {}
    with pytest.raises(InputError):
        a - CochainCoordinates.zero(2, 3, 2)


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
                values[i, j, k] = dict(enumerate(draw(
                    st.lists(scalars, min_size=m, max_size=m))))
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


def vectors(n=4):
    """Dense, mostly-zero and basis vectors of length n."""
    mostly_zero = st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-5, 2)])
    sparse = st.lists(mostly_zero, min_size=n, max_size=n)
    return st.one_of(st.lists(scalars, min_size=n, max_size=n), sparse,
                     st.integers(0, n - 1).map(lambda i: unit(n, i))).map(tuple)


@given(tensors(), st.lists(vectors(), min_size=3, max_size=3),
       st.lists(st.integers(0, 2), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_call_matches_the_minors_oracle(t, vecs, picks):
    # picks repeats an argument, so a basis vector can fill two slots
    args = [vecs[p] for p in picks]
    assert t(*args) == oracles.call(t, *args)


@given(tensors())
@settings(max_examples=30, deadline=None)
def test_pair_action_columns_are_basis_values(t):
    # every ordered pair, repeated and descending ones included
    for i, j in product(range(t.dim_in), repeat=2):
        a = t.pair_action(i, j)
        assert (a.rows, a.cols) == (t.dim_out, t.dim_in)
        for k in range(t.dim_in):
            assert a.column(k) == oracles.basis_value(t, i, j, k)


def test_pair_action_of_example_bracket():
    # [e1, e2, e3] = e1: ad(e1, e2) sends e3 to e1, ad(e2, e3) sends e1 to e1
    t = example_algebra().bracket
    assert t.pair_action(0, 1) == Matrix(3, 3, [0, 0, 1, 0, 0, 0, 0, 0, 0])
    assert t.pair_action(1, 0) == Matrix(3, 3, [0, 0, -1, 0, 0, 0, 0, 0, 0])
    assert t.pair_action(1, 2) == Matrix(3, 3, [1, 0, 0, 0, 0, 0, 0, 0, 0])
    assert t.pair_action(2, 2).is_zero


@given(tensors())
@settings(max_examples=30, deadline=None)
def test_embed_matches_the_dense_oracle(t):
    assert embed_skew_trilinear(t) == oracles.embed_skew_trilinear(t)


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
                got = evaluate(coords, [wedge_coords(unit(n, i), unit(n, j))],
                               unit(n, k))
                assert got == t.basis_value(i, j, k)
    assert extract_skew_trilinear(coords) == t


def test_extract_rejects_non_skew():
    coords = CochainCoordinates.zero(2, 3, 1)
    # f(e1^e2, e1) != 0
    with pytest.raises(InputError, match="not fully skew"):
        extract_skew_trilinear(CochainCoordinates(2, 3, 1, {coords.index((0,), 0, 0): 1}))
    # the value on (e1^e2, e3) alone, without its images under permutation
    with pytest.raises(InputError, match="not fully skew"):
        extract_skew_trilinear(CochainCoordinates(2, 3, 1, {coords.index((0,), 2, 0): 1}))
    embedded = embed_skew_trilinear(SkewTernaryTensor(3, 1, {(0, 1, 2): {0: 1}}))
    for i in embedded.items:
        with pytest.raises(InputError, match="not fully skew"):
            extract_skew_trilinear(CochainCoordinates(2, 3, 1, {
                j: c for j, c in embedded.items.items() if j != i}))


def test_degree_one_is_linear_map():
    from md3lie.exactnum import Matrix

    mat = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    coords = CochainCoordinates.from_linear_map(mat)
    assert coords.degree == 1 and len(coords.coords) == 6
    assert coords.to_linear_map() == mat
    for k in range(3):
        assert evaluate(coords, [], unit(3, k)) == mat.column(k)
    # column k, row r sits at k * m + r; zeros are not stored
    sparse = Matrix.from_rows([[0, 0, "1/2"], [-1, 0, 0]])
    coords = CochainCoordinates.from_linear_map(sparse)
    assert coords.items == {1: -1, 4: Fraction(1, 2)}
    assert coords.to_linear_map() == sparse
    assert CochainCoordinates.from_linear_map(Matrix.zeros(2, 3)).is_zero


@given(cochain_items)
@settings(max_examples=30, deadline=None)
def test_linear_maps_and_degree_one_cochains_round_trip(items):
    coords = CochainCoordinates(1, 9, 3, items)
    mat = coords.to_linear_map()
    assert (mat.rows, mat.cols) == (3, 9)
    assert CochainCoordinates.from_linear_map(mat) == coords
    assert CochainCoordinates.from_linear_map(mat).to_linear_map() == mat
    with pytest.raises(InputError):
        CochainCoordinates(2, 3, 3, items).to_linear_map()
