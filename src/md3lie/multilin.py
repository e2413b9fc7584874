"""Index schemes for skew tensors and coordinate bases of cochain spaces.

Basis indices are 0-based throughout the in-memory API; the 1-based numbering
of the file formats is translated at the document layer.

A degree-q cochain is a multilinear map taking q-1 arguments from the pair
space (the span of e_i ^ e_j, i < j) and one final argument from the algebra,
with values in the module.  It is skew within each pair argument but carries
no antisymmetry tying the final argument to the last pair; fully skew
trilinear maps enter this space through :func:`embed_skew_trilinear`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from typing import Callable, Mapping, Sequence

from .errors import InputError
from .exactnum import Vector, scal, vec_is_zero, vec_zero

PairIndex = tuple[int, int]

SparseVec = list[tuple[int, Fraction]]


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


def wedge_coords(x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Coordinates of x ^ y on the pair basis of a dim-len(x) space."""
    n = len(x)
    if len(y) != n:
        raise InputError("wedge of vectors of different lengths")
    return tuple(x[i] * y[j] - x[j] * y[i] for i, j in pair_basis(n))


def _sorted_triple(i: int, j: int, k: int):
    """Canonical (ascending) triple and permutation sign; None on repeats."""
    if i == j or j == k or i == k:
        return None, 0
    sign = 1
    if i > j:
        i, j = j, i
        sign = -sign
    if j > k:
        j, k = k, j
        sign = -sign
    if i > j:
        i, j = j, i
        sign = -sign
    return (i, j, k), sign


class SkewTernaryTensor:
    """Totally antisymmetric trilinear map, stored on triples i < j < k.

    Values on permuted or repeated basis triples are derived on access, so
    skewness is an invariant of the representation rather than a convention
    to test.
    """

    __slots__ = ("dim_in", "dim_out", "values")

    def __init__(self, dim_in: int, dim_out: int,
                 values: Mapping[tuple[int, int, int], Sequence]):
        self.dim_in = dim_in
        self.dim_out = dim_out
        clean: dict[tuple[int, int, int], Vector] = {}
        for key, val in values.items():
            i, j, k = key
            if not (0 <= i < j < k < dim_in):
                raise InputError(f"triple {key} not strictly increasing in range")
            v = tuple(scal(c) for c in val)
            if len(v) != dim_out:
                raise InputError(f"value length {len(v)} != dim_out {dim_out}")
            if not vec_is_zero(v):
                clean[i, j, k] = v
        self.values = clean

    @classmethod
    def zero(cls, dim_in: int, dim_out: int) -> "SkewTernaryTensor":
        return cls(dim_in, dim_out, {})

    @classmethod
    def from_function(cls, dim_in: int, dim_out: int,
                      fn: Callable[[int, int, int], Sequence]) -> "SkewTernaryTensor":
        vals = {}
        for i in range(dim_in):
            for j in range(i + 1, dim_in):
                for k in range(j + 1, dim_in):
                    vals[i, j, k] = fn(i, j, k)
        return cls(dim_in, dim_out, vals)

    def basis_value(self, i: int, j: int, k: int) -> Vector:
        """Value on (e_i, e_j, e_k) with the permutation sign worked in."""
        key, sign = _sorted_triple(i, j, k)
        if key is None:
            return vec_zero(self.dim_out)
        v = self.values.get(key)
        if v is None:
            return vec_zero(self.dim_out)
        return v if sign == 1 else tuple(-c for c in v)

    def pair_value(self, i: int, j: int, w: Sequence[Fraction]) -> Vector:
        """Value on (e_i, e_j, w) for a general vector w.

        Much cheaper than the general call when two arguments are basis
        vectors: only the basis triples (i, j, k) with w_k != 0 are read."""
        out = [Fraction(0)] * self.dim_out
        for k, c in enumerate(w):
            if c:
                v = self.basis_value(i, j, k)
                for r, a in enumerate(v):
                    if a:
                        out[r] += c * a
        return tuple(out)

    def __call__(self, x: Sequence[Fraction], y: Sequence[Fraction],
                 z: Sequence[Fraction]) -> Vector:
        """Trilinear, totally antisymmetric evaluation on coordinate vectors."""
        if len(x) != self.dim_in or len(y) != self.dim_in or len(z) != self.dim_in:
            raise InputError("argument length does not match dim_in")
        out = [Fraction(0)] * self.dim_out
        for (i, j, k), val in self.values.items():
            minor = (
                x[i] * (y[j] * z[k] - y[k] * z[j])
                - y[i] * (x[j] * z[k] - x[k] * z[j])
                + z[i] * (x[j] * y[k] - x[k] * y[j])
            )
            if minor:
                for r, c in enumerate(val):
                    if c:
                        out[r] += minor * c
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewTernaryTensor)
            and self.dim_in == other.dim_in
            and self.dim_out == other.dim_out
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.dim_in, self.dim_out, frozenset(self.values.items())))

    def __add__(self, other: "SkewTernaryTensor") -> "SkewTernaryTensor":
        self._same_shape(other)
        keys = set(self.values) | set(other.values)
        return SkewTernaryTensor(self.dim_in, self.dim_out, {
            key: tuple(a + b for a, b in zip(self._get(key), other._get(key)))
            for key in keys
        })

    def __sub__(self, other: "SkewTernaryTensor") -> "SkewTernaryTensor":
        return self + other.scale(-1)

    def __neg__(self) -> "SkewTernaryTensor":
        return self.scale(-1)

    def scale(self, s) -> "SkewTernaryTensor":
        s = scal(s)
        return SkewTernaryTensor(self.dim_in, self.dim_out, {
            key: tuple(s * c for c in val) for key, val in self.values.items()
        })

    @property
    def is_zero(self) -> bool:
        return not self.values

    def _get(self, key) -> Vector:
        return self.values.get(key, vec_zero(self.dim_out))

    def _same_shape(self, other: "SkewTernaryTensor"):
        if self.dim_in != other.dim_in or self.dim_out != other.dim_out:
            raise InputError("tensor shape mismatch")


class CochainCoordinates:
    """Coordinate vector of a degree-q cochain.

    The flat index of the coefficient at (P_1, ..., P_{q-1}, k, r) is
    ((...(P_1 * C(n,2) + P_2) ... ) * n + k) * m + r, with pair positions
    ordered as in :func:`pair_basis`.  Degree-1 coordinates are exactly a
    linear map from the algebra to the module.
    """

    __slots__ = ("degree", "n", "m", "coords")

    def __init__(self, degree: int, n: int, m: int, coords: Sequence):
        dim = cochain_dim(degree, n, m)
        coords = tuple(scal(c) for c in coords)
        if len(coords) != dim:
            raise InputError(f"coordinate length {len(coords)} != {dim}")
        self.degree = degree
        self.n = n
        self.m = m
        self.coords = coords

    @classmethod
    def zero(cls, degree: int, n: int, m: int) -> "CochainCoordinates":
        return cls(degree, n, m, vec_zero(cochain_dim(degree, n, m)))

    @classmethod
    def from_linear_map(cls, mat) -> "CochainCoordinates":
        """Degree-1 cochain from an m x n matrix (column convention)."""
        coords = [mat[r, k] for k in range(mat.cols) for r in range(mat.rows)]
        return cls(1, mat.cols, mat.rows, coords)

    def to_linear_map(self):
        from .exactnum import Matrix

        if self.degree != 1:
            raise InputError("only degree-1 cochains are linear maps")
        return Matrix(
            self.m, self.n,
            (self.coords[k * self.m + r] for r in range(self.m) for k in range(self.n)),
        )

    def index(self, pair_positions: Sequence[int], k: int, r: int) -> int:
        npairs = comb(self.n, 2)
        idx = 0
        for p in pair_positions:
            idx = idx * npairs + p
        return (idx * self.n + k) * self.m + r

    def evaluate(self, pair_args: Sequence[Sequence[Fraction]],
                 last: Sequence[Fraction]) -> Vector:
        """Multilinear evaluation; pair arguments live on the pair basis."""
        if len(pair_args) != self.degree - 1:
            raise InputError(f"expected {self.degree - 1} pair arguments")
        npairs = comb(self.n, 2)
        slots = []
        for pv in pair_args:
            if len(pv) != npairs:
                raise InputError("pair argument has wrong length")
            slots.append([(t, c) for t, c in enumerate(pv) if c])
        if len(last) != self.n:
            raise InputError("final argument has wrong length")
        last_nz = [(k, c) for k, c in enumerate(last) if c]
        out = [Fraction(0)] * self.m
        for combo in product(*slots, last_nz):
            coeff = Fraction(1)
            idx = 0
            for pos, c in combo[:-1]:
                coeff *= c
                idx = idx * npairs + pos
            k, c = combo[-1]
            coeff *= c
            base = (idx * self.n + k) * self.m
            for r in range(self.m):
                v = self.coords[base + r]
                if v:
                    out[r] += coeff * v
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainCoordinates)
            and (self.degree, self.n, self.m) == (other.degree, other.n, other.m)
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.degree, self.n, self.m, self.coords))

    def __add__(self, other: "CochainCoordinates") -> "CochainCoordinates":
        self._same_space(other)
        return CochainCoordinates(
            self.degree, self.n, self.m,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other: "CochainCoordinates") -> "CochainCoordinates":
        self._same_space(other)
        return CochainCoordinates(
            self.degree, self.n, self.m,
            tuple(a - b for a, b in zip(self.coords, other.coords)),
        )

    def __neg__(self) -> "CochainCoordinates":
        return self.scale(-1)

    def scale(self, s) -> "CochainCoordinates":
        s = scal(s)
        return CochainCoordinates(
            self.degree, self.n, self.m, tuple(s * c for c in self.coords)
        )

    @property
    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def _same_space(self, other: "CochainCoordinates"):
        if (self.degree, self.n, self.m) != (other.degree, other.n, other.m):
            raise InputError("cochain space mismatch")


def embed_skew_trilinear(t: SkewTernaryTensor) -> CochainCoordinates:
    """Inject a fully skew trilinear map into the degree-2 cochain space.

    The coefficient at ((i,j), k, r) is the r-th coordinate of t(e_i,e_j,e_k);
    evaluating the result on basis triples reproduces the tensor."""
    n, m = t.dim_in, t.dim_out
    coords = [Fraction(0)] * cochain_dim(2, n, m)
    for p, (i, j) in enumerate(pair_basis(n)):
        for k in range(n):
            val = t.basis_value(i, j, k)
            base = (p * n + k) * m
            for r, c in enumerate(val):
                coords[base + r] = c
    return CochainCoordinates(2, n, m, coords)


def extract_skew_trilinear(coords: CochainCoordinates) -> SkewTernaryTensor:
    """Inverse of :func:`embed_skew_trilinear` on its image.

    Reads values off basis triples i < j < k; raises InputError when the
    cochain is not fully skew (the embedding is then not invertible)."""
    if coords.degree != 2:
        raise InputError("only degree-2 cochains embed skew tensors")
    n, m = coords.n, coords.m
    pos = pair_position(n)
    t = SkewTernaryTensor.from_function(
        n, m,
        lambda i, j, k: coords.coords[(pos[i, j] * n + k) * m : (pos[i, j] * n + k) * m + m],
    )
    if embed_skew_trilinear(t) != coords:
        raise InputError("degree-2 cochain is not fully skew")
    return t
