"""Index schemes for skew tensors and coordinate bases of cochain spaces.

Basis indices are 0-based throughout the in-memory API; the 1-based numbering
of the file formats is translated at the document layer.

A degree-q cochain is a multilinear map taking q-1 arguments from the pair
space (the span of e_i ^ e_j, i < j) and one final argument from the algebra,
with values in the module.  It is skew within each pair argument but carries
no antisymmetry tying the final argument to the last pair; fully skew
trilinear maps enter this space through :func:`embed_skew_trilinear`.  Its
coordinates, as a tensor's, are stored as their nonzero items only.

A skew ternary tensor stores sparse items only, the shape of the tensor
document: the nonzero (index, value) items of each increasing triple.  Every
evaluation sums its signed table
(:attr:`SkewTernaryTensor.signed`) over the nonzero coordinates of the
arguments: :meth:`SkewTernaryTensor.sparse_call`, which the dense call wraps.
Fixing the first two arguments at basis vectors reads the same table as a
matrix, the pair action t(e_i, e_j, -) of :meth:`SkewTernaryTensor.pair_action`:
the adjoint action, the invariance of a form and the cyclicity of a dual
cocycle are identities between these matrices, read on the pairs of
:meth:`SkewTernaryTensor.acting_pairs` only (every other pair acts by zero).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .errors import InputError
from .exactnum import Matrix, Vector, scal, sparse_combination, vec_from_sparse

PairIndex = tuple[int, int]

# nonzero (index, value) items of a vector
SparseItems = tuple[tuple[int, Fraction], ...]


@lru_cache(maxsize=None)
def pair_basis(n: int) -> tuple[PairIndex, ...]:
    """All ordered pairs i < j in lexicographic order; length C(n, 2)."""
    if n < 0:
        raise InputError("negative dimension")
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def pair_position(n: int) -> Mapping[PairIndex, int]:
    return {p: t for t, p in enumerate(pair_basis(n))}


def cochain_dim(degree: int, n: int, m: int) -> int:
    """dim C^q = C(n,2)^(q-1) * n * m; the complex starts at degree 1."""
    if degree < 1:
        raise InputError("cochain degree must be >= 1")
    return comb(n, 2) ** (degree - 1) * n * m


@lru_cache(maxsize=None)
def wedge_basis(n: int) -> Mapping[PairIndex, SparseItems]:
    """e_i ^ e_j on the pair basis for every i != j, as one (position, +-1) item."""
    one = Fraction(1)
    out = {}
    for (i, j), t in pair_position(n).items():
        out[i, j] = ((t, one),)
        out[j, i] = ((t, -one),)
    return out


class SkewTernaryTensor:
    """Totally antisymmetric trilinear map, stored on triples i < j < k.

    ``values`` maps each triple i < j < k with a nonzero value, in triple
    order, to the nonzero (index, value) items of that value in index order;
    the constructor takes the same data as ``{(i, j, k): {index: value}}``
    and drops zeros.  Values on permuted or repeated basis triples are
    derived on access, so skewness is an invariant of the representation
    rather than a convention to test.  Every value, on basis triples or on
    general vectors, is read through :attr:`signed`.
    """

    __slots__ = ("dim_in", "dim_out", "values", "_signed")

    def __init__(self, dim_in: int, dim_out: int,
                 values: Mapping[tuple[int, int, int], Mapping[int, object]]):
        self.dim_in = dim_in
        self.dim_out = dim_out
        clean = []
        for key, val in values.items():
            i, j, k = key
            if not (0 <= i < j < k < dim_in):
                raise InputError(f"triple {key} not strictly increasing in range")
            if not isinstance(val, Mapping):
                raise InputError(f"value at {key} is not an {{index: value}} mapping")
            items = []
            for r, c in val.items():
                if not (isinstance(r, int) and 0 <= r < dim_out):
                    raise InputError(f"index {r!r} at {key} is not in [0, {dim_out})")
                if c := scal(c):
                    items.append((r, c))
            if items:
                items.sort()
                clean.append(((i, j, k), tuple(items)))
        clean.sort()
        self.values: dict[tuple[int, int, int], SparseItems] = dict(clean)
        self._signed = None

    @classmethod
    def zero(cls, dim_in: int, dim_out: int) -> "SkewTernaryTensor":
        return cls(dim_in, dim_out, {})

    @property
    def signed(self) -> Mapping[tuple[int, int, int], SparseItems]:
        """Nonzero (index, value) items of the value on every ordering
        (i, j, k) of a stored triple, with the permutation sign worked in.

        Built on first use.  An ordering with a repeated index, or of a
        triple whose value is zero, is absent: its value is zero."""
        if self._signed is None:
            table = {}
            for (i, j, k), even in self.values.items():
                odd = tuple((r, -c) for r, c in even)
                for key in ((i, j, k), (j, k, i), (k, i, j)):
                    table[key] = even
                for key in ((j, i, k), (i, k, j), (k, j, i)):
                    table[key] = odd
            self._signed = table
        return self._signed

    def basis_value(self, i: int, j: int, k: int) -> Vector:
        """Value on (e_i, e_j, e_k) with the permutation sign worked in."""
        return vec_from_sparse(dict(self.signed.get((i, j, k), ())), self.dim_out)

    def pair_action(self, i: int, j: int) -> Matrix:
        """The dim_out x dim_in matrix of t(e_i, e_j, -): column k is the
        value on (e_i, e_j, e_k), read from :attr:`signed`."""
        get = self.signed.get
        return Matrix.from_entries(self.dim_out, self.dim_in, {
            (r, k): c for k in range(self.dim_in) for r, c in get((i, j, k), ())})

    def acting_pairs(self) -> list[PairIndex]:
        """The pairs i < j on which t(e_i, e_j, -) is not zero, in
        :func:`pair_basis` order: the pairs of the stored triples."""
        return sorted({p for key in self.values for p in combinations(key, 2)})

    def sparse_call(self, x: SparseItems, y: SparseItems,
                    z: SparseItems) -> dict[int, Fraction]:
        """t(x, y, z) for arguments given by their nonzero (index,
        coefficient) items, as an {index: value} dict without zeros.

        Only the basis triples (i, j, k) with x_i y_j z_k != 0 are read,
        through :attr:`signed`."""
        get = self.signed.get
        return sparse_combination(
            (a * b * c, value)
            for i, a in x for j, b in y for k, c in z if (value := get((i, j, k))))

    def __call__(self, x: Sequence[Fraction], y: Sequence[Fraction],
                 z: Sequence[Fraction]) -> Vector:
        """Trilinear, totally antisymmetric evaluation on coordinate vectors."""
        if len(x) != self.dim_in or len(y) != self.dim_in or len(z) != self.dim_in:
            raise InputError("argument length does not match dim_in")
        x, y, z = ([(i, c) for i, c in enumerate(v) if c] for v in (x, y, z))
        return vec_from_sparse(self.sparse_call(x, y, z), self.dim_out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewTernaryTensor)
            and self.dim_in == other.dim_in
            and self.dim_out == other.dim_out
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.dim_in, self.dim_out, tuple(self.values.items())))

    def __add__(self, other: "SkewTernaryTensor") -> "SkewTernaryTensor":
        self._same_shape(other)
        return SkewTernaryTensor(self.dim_in, self.dim_out, {
            key: sparse_combination((1, t.values.get(key, ())) for t in (self, other))
            for key in self.values.keys() | other.values.keys()})

    def scale(self, s) -> "SkewTernaryTensor":
        s = scal(s)
        return SkewTernaryTensor(self.dim_in, self.dim_out, {
            key: {r: s * c for r, c in items} for key, items in self.values.items()
        })

    @property
    def is_zero(self) -> bool:
        return not self.values

    def _same_shape(self, other: "SkewTernaryTensor"):
        if self.dim_in != other.dim_in or self.dim_out != other.dim_out:
            raise InputError("tensor shape mismatch")


class CochainCoordinates:
    """Coordinates of a degree-q cochain, stored as their nonzero items.

    ``items`` maps the flat index of each nonzero coefficient to it, in index
    order; the constructor takes an ``{index: value}`` mapping and drops
    zeros, as the tensor's does, and :attr:`coords` is the dense view.  The
    coefficient at (P_1, ..., P_{q-1}, k, r), pair positions ordered as in
    :func:`pair_basis`, has the flat index ((...(P_1 * C(n,2) + P_2) ... ) *
    n + k) * m + r.  Degree 1 is exactly a linear map to the module."""

    __slots__ = ("degree", "n", "m", "items")

    def __init__(self, degree: int, n: int, m: int, items: Mapping[int, object]):
        dim = cochain_dim(degree, n, m)
        if not isinstance(items, Mapping):
            raise InputError("cochain coordinates are not an {index: value} mapping")
        for i in items:
            if not (isinstance(i, int) and 0 <= i < dim):
                raise InputError(f"coordinate index {i!r} is not in [0, {dim})")
        self.degree, self.n, self.m = degree, n, m
        self.items: dict[int, Fraction] = {
            i: c for i in sorted(items) if (c := scal(items[i]))}

    @classmethod
    def zero(cls, degree: int, n: int, m: int) -> "CochainCoordinates":
        return cls(degree, n, m, {})

    @property
    def coords(self) -> Vector:
        """All coordinates in flat-index order (a dense view)."""
        return vec_from_sparse(self.items, cochain_dim(self.degree, self.n, self.m))

    @classmethod
    def from_linear_map(cls, mat: Matrix) -> "CochainCoordinates":
        """Degree-1 cochain from an m x n matrix (column convention)."""
        m = mat.rows
        return cls(1, mat.cols, m, {k * m + r: c for (r, k), c in mat.entry_items()})

    def to_linear_map(self) -> Matrix:
        if self.degree != 1:
            raise InputError("only degree-1 cochains are linear maps")
        return Matrix.from_entries(self.m, self.n, {
            (i % self.m, i // self.m): c for i, c in self.items.items()})

    def index(self, pair_positions: Sequence[int], k: int, r: int) -> int:
        npairs = comb(self.n, 2)
        idx = 0
        for p in pair_positions:
            idx = idx * npairs + p
        return (idx * self.n + k) * self.m + r

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainCoordinates)
            and (self.degree, self.n, self.m) == (other.degree, other.n, other.m)
            and self.items == other.items
        )

    def __hash__(self):
        return hash((self.degree, self.n, self.m, tuple(self.items.items())))

    def __sub__(self, other: "CochainCoordinates") -> "CochainCoordinates":
        self._same_space(other)
        return CochainCoordinates(self.degree, self.n, self.m, sparse_combination(
            ((1, self.items.items()), (-1, other.items.items()))))

    @property
    def is_zero(self) -> bool:
        return not self.items

    def _same_space(self, other: "CochainCoordinates"):
        if (self.degree, self.n, self.m) != (other.degree, other.n, other.m):
            raise InputError("cochain space mismatch")


def embed_skew_trilinear(t: SkewTernaryTensor) -> CochainCoordinates:
    """Inject a fully skew trilinear map into the degree-2 cochain space.

    The coefficient at ((i,j), k, r) is the r-th coordinate of t(e_i,e_j,e_k),
    read from the signed items of (i, j, k) with i < j; evaluating the result
    on basis triples reproduces the tensor."""
    n, m = t.dim_in, t.dim_out
    pos = pair_position(n)
    return CochainCoordinates(2, n, m, {
        (pos[i, j] * n + k) * m + r: c
        for (i, j, k), items in t.signed.items() if i < j for r, c in items})


def extract_skew_trilinear(coords: CochainCoordinates) -> SkewTernaryTensor:
    """Inverse of :func:`embed_skew_trilinear` on its image.

    Reads the values on triples i < j < k off the items at ((i,j), k); raises
    InputError when the cochain is not fully skew (the embedding is then not
    invertible), which re-embedding the result and comparing items decides."""
    if coords.degree != 2:
        raise InputError("only degree-2 cochains embed skew tensors")
    n, m = coords.n, coords.m
    pairs = pair_basis(n)
    values = {}
    for idx, c in coords.items.items():
        (p, k), r = divmod(idx // m, n), idx % m
        if k > pairs[p][1]:
            values.setdefault((*pairs[p], k), {})[r] = c
    t = SkewTernaryTensor(n, m, values)
    if embed_skew_trilinear(t) != coords:
        raise InputError("degree-2 cochain is not fully skew")
    return t
