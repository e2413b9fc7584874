"""Exact rational scalars and dense exact matrices over Q.

Scalars are ``fractions.Fraction``: denominators are always positive and
fractions are kept reduced, so equality is exact and there are no tolerances
anywhere in the package.

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
Back-substitution is done in exact rational arithmetic on the sparse integer
echelon rows.

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
    """Dense exact matrix, row-major, immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(scal(e) for e in entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise InputError(
                f"entry count {len(entries)} does not match shape {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _raw(cls, rows: int, cols: int, entries) -> "Matrix":
        # Internal fast path: entries are already Fractions.
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = tuple(entries)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise InputError("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, flat)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]], rows: int) -> "Matrix":
        cols = len(columns)
        flat = []
        for i in range(rows):
            for c in columns:
                if len(c) != rows:
                    raise InputError("column length mismatch")
                flat.append(c[i])
        return cls(rows, cols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._raw(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        e = [Fraction(0)] * (n * n)
        for i in range(n):
            e[i * n + i] = Fraction(1)
        return cls._raw(n, n, e)

    @classmethod
    def diagonal(cls, diag: Sequence) -> "Matrix":
        n = len(diag)
        e = [Fraction(0)] * (n * n)
        for i, d in enumerate(diag):
            e[i * n + i] = scal(d)
        return cls._raw(n, n, e)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise InputError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

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
        return Matrix._raw(
            self.rows, self.cols,
            (a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._raw(
            self.rows, self.cols,
            (a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Matrix":
        return Matrix._raw(self.rows, self.cols,
                           (-a if a else a for a in self.entries))

    def scale(self, s) -> "Matrix":
        s = scal(s)
        return Matrix._raw(self.rows, self.cols,
                           (s * a if a else a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        oc = other.cols
        out = [Fraction(0)] * (self.rows * oc)
        for i in range(self.rows):
            rbase = i * self.cols
            obase = i * oc
            for k in range(self.cols):
                a = self.entries[rbase + k]
                if not a:
                    continue
                kbase = k * oc
                for j in range(oc):
                    b = other.entries[kbase + j]
                    if b:
                        out[obase + j] += a * b
        return Matrix._raw(self.rows, oc, out)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product (column convention)."""
        if len(v) != self.cols:
            raise InputError(f"vector length {len(v)} != cols {self.cols}")
        out = [Fraction(0)] * self.rows
        for j, x in enumerate(v):
            if not x:
                continue
            for i in range(self.rows):
                a = self.entries[i * self.cols + j]
                if a:
                    out[i] += a * x
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix._raw(
            self.cols, self.rows,
            (self.entries[i * self.cols + j]
             for j in range(self.cols) for i in range(self.rows)),
        )

    @property
    def is_zero(self) -> bool:
        return all(not a for a in self.entries)

    @property
    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    @classmethod
    def hstack(cls, parts: Sequence["Matrix"]) -> "Matrix":
        rows = parts[0].rows
        if any(p.rows != rows for p in parts):
            raise InputError("hstack: row count mismatch")
        flat = []
        for i in range(rows):
            for p in parts:
                flat.extend(p.row(i))
        return cls._raw(rows, sum(p.cols for p in parts), flat)

    @classmethod
    def vstack(cls, parts: Sequence["Matrix"]) -> "Matrix":
        cols = parts[0].cols
        if any(p.cols != cols for p in parts):
            raise InputError("vstack: column count mismatch")
        flat = []
        for p in parts:
            flat.extend(p.entries)
        return cls._raw(sum(p.rows for p in parts), cols, flat)

    @classmethod
    def block(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        return cls.vstack([cls.hstack(row) for row in grid])

    # ---- fraction-free elimination -------------------------------------

    def _echelon(self, extra: Sequence[Sequence[Fraction]] = ()):
        """Sparse integer echelon rows and pivot columns of ``[self | extra...]``.

        ``extra`` holds augmented columns (right-hand sides).  Echelon row r
        is a primitive ``{column: int}`` dict whose first column is
        ``pivots[r]``."""
        cols, entries = self.cols, self.entries
        rows = []
        for i in range(self.rows):
            base = i * cols
            row = {j: e for j, e in enumerate(entries[base:base + cols]) if e}
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
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivot_set:
                continue
            x = [Fraction(0)] * self.cols
            x[fc] = Fraction(1)
            basis.append(_primitive(_back_substitute(rows, pivots, x)))
        return basis

    def solve_in_image(self, b: Sequence[Fraction]) -> Optional[Vector]:
        """Some x with self @ x = b when b is in the image, else None."""
        if len(b) != self.rows:
            raise InputError(f"rhs length {len(b)} != rows {self.rows}")
        rows, pivots = self._echelon([vec(b)])
        if pivots and pivots[-1] == self.cols:
            return None  # pivot in the augmented column: inconsistent
        x = [Fraction(0)] * self.cols
        return tuple(_back_substitute(rows, pivots, x, self.cols))

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
        columns = [_back_substitute(rows, pivots, [Fraction(0)] * n, n + j)
                   for j in range(n)]
        return Matrix.from_columns(columns, n)


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
                     x: list[Fraction], rhs: Optional[int] = None) -> list[Fraction]:
    """Fill ``x`` at the pivot columns from the bottom echelon row up.

    Row r then sums to its entry in augmented column ``rhs`` (to 0 when
    ``rhs`` is None) over the first len(x) columns; other entries of ``x``
    are kept as given."""
    ncols = len(x)
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        row = rows[r]
        s = Fraction(0 if rhs is None else row.get(rhs, 0))
        for j, v in row.items():
            if j != pc and j < ncols:
                xj = x[j]
                if xj:
                    s -= v * xj
        x[pc] = s / row[pc]
    return x


def _primitive(x: list[Fraction]) -> Vector:
    """Scale a rational vector to a primitive integer vector (same line)."""
    scale = lcm(*(e.denominator for e in x)) if x else 1
    ints = [int(e * scale) for e in x]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints)

