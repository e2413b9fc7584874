"""Exact rational scalars and sparse exact matrices over Q.

Scalars are ``fractions.Fraction``: denominators are always positive and
fractions are kept reduced, so equality is exact and there are no tolerances
anywhere in the package.

A Matrix stores one ``{column: Fraction}`` dict per row and never stores a
zero; the dense views (``entries``, ``row``, ``column``, indexing) are
computed from the rows, and every operation works row by row.

Rank, kernel, solve and inverse share one sparse fraction-free elimination
engine.  Each nonzero row is read once into a ``{column: int}`` dict, its
denominators cleared by their lcm and its content (gcd) divided out.
Columns are eliminated left to right without column pivoting, so the pivot
columns are the leftmost independent columns whichever rows serve as pivots.
At each column only the rows with a nonzero there are updated, against the
one with the fewest nonzeros, and each updated row is made primitive again.

Growth is bounded by minors of the input.  After k pivots, an updated row
lies in the span of its original row and the k original pivot rows, and
vanishes on the k pivot columns; within that span such vectors form a
single line.  The vector of (k+1)-minors of those original rows on the
pivot columns plus column j is an integer vector on that line, and the
primitive vector on the line divides it, so every entry is at most a minor
(and at most the Hadamard bound of the denominator-cleared input).
Back-substitution is fraction-free too: it carries an integer solution and
one common denominator, and a kernel vector is the primitive integer vector
it yields.

All values are immutable after construction and every operation is a pure
function, so concurrent use on shared inputs is safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import InputError

Scalar = Fraction

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def scal(value) -> Fraction:
    """Coerce an int, an exact string like ``-3/4``, or a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise InputError(f"not an exact scalar: {value!r}")


def vec(values: Iterable) -> Vector:
    return tuple(scal(v) for v in values)


def vec_zero(n: int) -> Vector:
    return (Fraction(0),) * n


def unit(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(s: Fraction, u: Sequence[Fraction]) -> Vector:
    return tuple(s * a for a in u)


def vec_is_zero(u: Sequence[Fraction]) -> bool:
    return all(not a for a in u)


class Matrix:
    """Exact matrix stored as sparse rows, immutable after construction.

    ``sparse_rows[i]`` is the ``{column: Fraction}`` dict of row i and holds
    no zero value, so two matrices are equal exactly when their rows are.
    ``entries``, ``row``, ``column`` and indexing are dense views computed
    from the rows; every operation works row by row and never stores a
    zero."""

    __slots__ = ("rows", "cols", "sparse_rows")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise InputError(
                f"entry count {len(entries)} does not match shape {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.sparse_rows = tuple(_sparse_row(entries[i * cols:(i + 1) * cols])
                                 for i in range(rows))

    @classmethod
    def _raw(cls, rows: int, cols: int, sparse_rows) -> "Matrix":
        # Internal fast path: rows are {column: Fraction} dicts without zeros.
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.sparse_rows = tuple(sparse_rows)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(row) != ncols for row in rows):
            raise InputError("ragged rows")
        return cls._raw(nrows, ncols, (_sparse_row(row) for row in rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]], rows: int) -> "Matrix":
        if any(len(c) != rows for c in columns):
            raise InputError("column length mismatch")
        data = [{} for _ in range(rows)]
        for j, c in enumerate(columns):
            for i, e in enumerate(c):
                e = scal(e)
                if e:
                    data[i][j] = e
        return cls._raw(rows, len(columns), data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._raw(rows, cols, ({} for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, diag: Sequence) -> "Matrix":
        diag = [scal(d) for d in diag]
        return cls._raw(len(diag), len(diag),
                        ({i: d} if d else {} for i, d in enumerate(diag)))

    @property
    def entries(self) -> Vector:
        """All entries, row-major (a dense view)."""
        return tuple(e for i in range(self.rows) for e in self.row(i))

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise InputError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self.sparse_rows[i].get(j, _ZERO)

    def row(self, i: int) -> Vector:
        out = [_ZERO] * self.cols
        for j, e in self.sparse_rows[i].items():
            out[j] = e
        return tuple(out)

    def column(self, j: int) -> Vector:
        return tuple(r.get(j, _ZERO) for r in self.sparse_rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self.sparse_rows)))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        out = []
        for a, b in zip(self.sparse_rows, other.sparse_rows):
            row = dict(a)
            for j, v in b.items():
                x = row.get(j, 0) + v
                if x:
                    row[j] = x
                else:
                    del row[j]
            out.append(row)
        return Matrix._raw(self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._raw(self.rows, self.cols,
                           ({j: -v for j, v in r.items()} for r in self.sparse_rows))

    def scale(self, s) -> "Matrix":
        s = scal(s)
        if not s:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._raw(self.rows, self.cols,
                           ({j: s * v for j, v in r.items()} for r in self.sparse_rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for a in self.sparse_rows:
            row = {}
            for k, x in a.items():
                for j, y in other.sparse_rows[k].items():
                    row[j] = row.get(j, 0) + x * y
            out.append({j: v for j, v in row.items() if v})
        return Matrix._raw(self.rows, other.cols, out)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product (column convention)."""
        if len(v) != self.cols:
            raise InputError(f"vector length {len(v)} != cols {self.cols}")
        return tuple(sum((x * v[j] for j, x in r.items()), _ZERO)
                     for r in self.sparse_rows)

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.sparse_rows):
            for j, v in r.items():
                out[j][i] = v
        return Matrix._raw(self.cols, self.rows, out)

    @property
    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    @property
    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    @classmethod
    def hstack(cls, parts: Sequence["Matrix"]) -> "Matrix":
        rows = parts[0].rows
        if any(p.rows != rows for p in parts):
            raise InputError("hstack: row count mismatch")
        out = [{} for _ in range(rows)]
        offset = 0
        for p in parts:
            for row, r in zip(out, p.sparse_rows):
                for j, v in r.items():
                    row[offset + j] = v
            offset += p.cols
        return cls._raw(rows, offset, out)

    @classmethod
    def vstack(cls, parts: Sequence["Matrix"]) -> "Matrix":
        cols = parts[0].cols
        if any(p.cols != cols for p in parts):
            raise InputError("vstack: column count mismatch")
        return cls._raw(sum(p.rows for p in parts), cols,
                        (r for p in parts for r in p.sparse_rows))

    @classmethod
    def block(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        return cls.vstack([cls.hstack(row) for row in grid])

    # ---- fraction-free elimination -------------------------------------

    def _echelon(self, extra: Sequence[Sequence[Fraction]] = ()):
        """Sparse integer echelon rows and pivot columns of ``[self | extra...]``.

        ``extra`` holds augmented columns (right-hand sides).  Echelon row r
        is a primitive ``{column: int}`` dict whose first column is
        ``pivots[r]``."""
        cols = self.cols
        rows = []
        for i, row in enumerate(self.sparse_rows):
            if extra:
                row = dict(row)
                for k, col in enumerate(extra):
                    if col[i]:
                        row[cols + k] = col[i]
            if row:
                rows.append(_integer_row(row))
        return _eliminate(rows, cols + len(extra))

    def rank(self) -> int:
        """Exact rank over the rationals."""
        return len(self._echelon()[1])

    def pivot_columns(self) -> list[int]:
        """Pivot columns of the echelon form (leftmost independent columns)."""
        return self._echelon()[1]

    def kernel_basis(self) -> list[Vector]:
        """Basis of the right null space; every v satisfies self @ v = 0.

        One basis vector per free column, normalized to a primitive integer
        vector with positive entry at its free column."""
        rows, pivots = self._echelon()
        basis = []
        k = 0  # pivots left of the column; only those can be nonzero
        for fc in range(self.cols):
            if k < len(pivots) and pivots[k] == fc:
                k += 1
                continue
            x, _ = _back_substitute(rows[:k], pivots[:k], {fc: 1})
            g = gcd(*x.values())
            basis.append(_rational(x, g if x[fc] > 0 else -g, self.cols))
        return basis

    def solve_in_image(self, b: Sequence[Fraction]) -> Optional[Vector]:
        """Some x with self @ x = b when b is in the image, else None."""
        if len(b) != self.rows:
            raise InputError(f"rhs length {len(b)} != rows {self.rows}")
        rows, pivots = self._echelon([vec(b)])
        if pivots and pivots[-1] == self.cols:
            return None  # pivot in the augmented column: inconsistent
        return _rational(*_back_substitute(rows, pivots, {}, self.cols), self.cols)

    def inverse(self) -> "Matrix":
        """Exact inverse; raises InputError on non-square or singular input.

        Eliminates ``[self | I]`` once and solves for every column of the
        identity on the shared echelon form."""
        if self.rows != self.cols:
            raise InputError("inverse of a non-square matrix")
        n = self.rows
        rows, pivots = self._echelon([unit(n, j) for j in range(n)])
        if pivots and pivots[-1] >= n:
            raise InputError("matrix is singular")
        columns = [_rational(*_back_substitute(rows, pivots, {}, n + j), n)
                   for j in range(n)]
        return Matrix.from_columns(columns, n)


def _sparse_row(values: Sequence) -> dict[int, Fraction]:
    row = {}
    for j, e in enumerate(values):
        e = scal(e)
        if e:
            row[j] = e
    return row


def _integer_row(row: dict[int, Fraction]) -> dict[int, int]:
    """Clear a nonzero row's denominators by their lcm; divide out its content."""
    scale = lcm(*(e.denominator for e in row.values()))
    return _content_free(
        {j: e.numerator * (scale // e.denominator) for j, e in row.items()})


def _content_free(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _eliminate(rows: list[dict[int, int]], ncols: int):
    """Echelon rows and pivot columns of primitive sparse integer rows.

    Columns are taken left to right.  At column c the pivot is the active
    row with the fewest nonzeros (the lowest index on ties); every other
    active row with a nonzero at c becomes ``(pv/g)*row - (h/g)*pivot_row``
    with ``g = gcd(pv, h)``, its content divided out.  Rows without an
    entry at c are not touched."""
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(ncols):
        if not rows:
            break
        hits = [k for k, r in enumerate(rows) if c in r]
        if not hits:
            continue
        p = min(hits, key=lambda k: len(rows[k]))
        prow = rows[p]
        pv = prow[c]
        for k in hits:
            if k != p:
                rows[k] = _cancel(rows[k], prow, c, pv)
        echelon.append(prow)
        pivots.append(c)
        rows = [r for k, r in enumerate(rows) if k != p and r]
    return echelon, pivots


def _cancel(row: dict[int, int], prow: dict[int, int], c: int,
            pv: int) -> dict[int, int]:
    """The primitive row on the line of ``pv*row - row[c]*prow`` (maybe empty)."""
    h = row[c]
    g = gcd(pv, h)
    a, b = pv // g, h // g
    new = dict(row) if a == 1 else {j: a * v for j, v in row.items()}
    for j, v in prow.items():
        x = new.get(j, 0) - b * v
        if x:
            new[j] = x
        else:
            del new[j]
    return _content_free(new)


def _back_substitute(rows: list[dict[int, int]], pivots: list[int],
                     x: dict[int, int], rhs: Optional[int] = None):
    """Integers ``x`` and ``den != 0`` with ``x / den`` solving the echelon rows.

    Fills ``x`` at the pivot columns from the bottom row up, so that row r
    sums to its entry in augmented column ``rhs`` (to 0 when ``rhs`` is
    None); the coordinates given in ``x`` are the free ones, and the others
    are 0.  Fraction-free: when a pivot does not divide its row's sum, all
    of ``x`` and ``den`` are multiplied by the missing factor."""
    den = 1
    for r in range(len(pivots) - 1, -1, -1):
        row = rows[r]
        s = row.get(rhs, 0) * den
        for j, v in row.items():
            xj = x.get(j)  # no pivot yet at its own or an augmented column
            if xj:
                s -= v * xj
        if not s:
            continue
        pv = row[pivots[r]]
        g = gcd(s, pv)
        a = pv // g
        if a != 1:
            for j in x:
                x[j] *= a
            den *= a
        x[pivots[r]] = s // g
    return x, den


def _rational(x: dict[int, int], den: int, n: int) -> Vector:
    """The dense vector ``x / den`` of length n."""
    v = [_ZERO] * n
    for j, e in x.items():
        v[j] = Fraction(e, den)
    return tuple(v)
