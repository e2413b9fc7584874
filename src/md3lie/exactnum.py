"""Exact rational scalars and sparse exact matrices over Q.

Scalars are ``fractions.Fraction``: denominators are always positive and
fractions are kept reduced, so equality is exact and there are no tolerances
anywhere in the package.

A Matrix holds its rows in one or both of two forms: ``{column: Fraction}``
dicts, or ``{column: int}`` dicts over one positive denominator per row.
Neither stores a zero, and each form is filled from the other the first time
it is read.  The dense views (``entries``, ``row``, ``column``, indexing),
products and sums read the Fraction rows; elimination, ``apply`` and the
stacks of a part that has integer rows read the integer rows.  So the complex
assembly, which builds integer rows, reaches its echelon forms without a
Fraction, and a matrix built from Fractions converts once, when it is
first read as integers.

Rank, kernel, solve and inverse share one sparse fraction-free elimination
engine, which divides the content (gcd) out of each integer row.  Columns
are eliminated left to right without column pivoting, so the pivot columns
are the leftmost independent columns whichever rows serve as pivots.  At
each column only the rows with a nonzero there are updated, against the one
with the fewest nonzeros (the earliest input row on ties), and each updated
row is made primitive again.  At column c no active row has an entry left of
c, so the rows hit are those whose leading column is c: rows are filed by
leading column, and each updated row is filed again.

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
function, so concurrent use on shared inputs is safe.  A matrix memoizes
its two row forms and its plain echelon form (no augmented columns), which
rank, pivot_columns and kernel_basis share; filling a memo twice stores
equal values.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from types import SimpleNamespace
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


def vec_is_zero(u: Sequence[Fraction]) -> bool:
    return all(not a for a in u)


def sparse_combination(terms) -> dict:
    """Sum of c * v over ``(c, items)`` terms, each item a ``(key, v)`` pair,
    as a ``{key: value}`` dict that holds no zero.  A unit c multiplies
    nothing, and keys absent from every term cost nothing."""
    out = {}
    get = out.get
    for c, items in terms:
        unit_c = c == 1
        for key, v in items:
            if not unit_c:
                v = c * v
            x = get(key)
            out[key] = v if x is None else x + v
    return {key: v for key, v in out.items() if v}


def vec_from_sparse(values, n: int) -> Vector:
    """The dense length-n vector of a ``{index: value}`` dict."""
    out = [_ZERO] * n
    for i, c in values.items():
        out[i] = c
    return tuple(out)


class Matrix:
    """Exact matrix stored as sparse rows, immutable after construction.

    ``sparse_rows[i]`` is the ``{column: Fraction}`` dict of row i and holds
    no zero value, so two matrices are equal exactly when their rows are.
    ``_integer_rows()[i]`` is the same row as a ``{column: int}`` dict over
    a positive denominator.  A matrix is built with either form (or both)
    and fills the other, once, the first time it is read.  ``entries``,
    ``row``, ``column`` and indexing are dense views computed from the rows;
    every operation works row by row and never stores a zero."""

    __slots__ = ("rows", "cols", "_fraction_rows", "_int_rows", "_plain_echelon")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise InputError(
                f"entry count {len(entries)} does not match shape {rows}x{cols}"
            )
        self.rows, self.cols = rows, cols
        self._fraction_rows = tuple(_sparse_row(entries[i * cols:(i + 1) * cols])
                                    for i in range(rows))
        self._int_rows = self._plain_echelon = None

    @classmethod
    def _raw(cls, rows: int, cols: int, sparse_rows=None, int_rows=None) -> "Matrix":
        # Internal fast path: sparse_rows are {column: Fraction} dicts and
        # int_rows ({column: int}, den > 0) pairs, neither holding a zero;
        # give at least one form
        m = object.__new__(cls)
        m.rows, m.cols, m._plain_echelon = rows, cols, None
        m._fraction_rows = None if sparse_rows is None else tuple(sparse_rows)
        m._int_rows = None if int_rows is None else tuple(int_rows)
        return m

    @property
    def sparse_rows(self) -> tuple[dict[int, Fraction], ...]:
        """The ``{column: Fraction}`` dict of each row; callers must not
        mutate them."""
        rows = self._fraction_rows
        if rows is None:
            rows = self._fraction_rows = tuple(
                {j: Fraction(v, den) for j, v in r.items()}
                for r, den in self._int_rows)
        return rows

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
    def from_entries(cls, rows: int, cols: int, entries) -> "Matrix":
        """The matrix of a ``{(row, column): value}`` dict without zeros."""
        data = [{} for _ in range(rows)]
        for (i, j), v in entries.items():
            data[i][j] = v
        return cls._raw(rows, cols, data)

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

    def column_items(self) -> list[tuple[tuple[int, Fraction], ...]]:
        """The nonzero ``(row, entry)`` items of each column."""
        return [tuple(c.items()) for c in self.transpose().sparse_rows]

    def entry_items(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """The nonzero ``((row, column), entry)`` items, row by row.

        Within a row the order is unspecified: it is the insertion order of
        the row dict, which ``@`` and ``+`` set as they meet columns.  A
        caller that reports entries must sort them, as ``is_metrised`` does."""
        return tuple(((i, j), v) for i, r in enumerate(self.sparse_rows)
                     for j, v in r.items())

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
        """Negates each row form the matrix holds, and builds no other."""
        fractions, ints = self._fraction_rows, self._int_rows
        return Matrix._raw(
            self.rows, self.cols,
            None if fractions is None else
            ({j: -v for j, v in r.items()} for r in fractions),
            None if ints is None else
            (({j: -v for j, v in r.items()}, den) for r, den in ints))

    def scale(self, s) -> "Matrix":
        s = scal(s)
        if not s:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._raw(self.rows, self.cols,
                           ({j: s * v for j, v in r.items()} for r in self.sparse_rows))

    def _check_product(self, other: "Matrix"):
        if self.cols != other.rows:
            raise InputError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_product(other)
        right = other.sparse_rows
        out = []
        for a in self.sparse_rows:
            row = {}
            for k, x in a.items():
                for j, y in right[k].items():
                    row[j] = row.get(j, 0) + x * y
            out.append({j: v for j, v in row.items() if v})
        return Matrix._raw(self.rows, other.cols, out)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product (column convention): one integer sum per
        integer row, with v over the lcm of its denominators."""
        if len(v) != self.cols:
            raise InputError(f"vector length {len(v)} != cols {self.cols}")
        scale = lcm(*(e.denominator for e in v))
        w = [e.numerator * (scale // e.denominator) for e in v]
        return tuple(Fraction(sum(x * w[j] for j, x in r.items()), den * scale)
                     for r, den in self._integer_rows())

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.sparse_rows):
            for j, v in r.items():
                out[j][i] = v
        return Matrix._raw(self.cols, self.rows, out)

    @property
    def is_zero(self) -> bool:
        """Whether no row holds an entry, read from the row form the matrix
        holds; builds no other."""
        rows = self._fraction_rows
        return not any((r for r, _ in self._int_rows) if rows is None else rows)

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
        if any(p._int_rows is not None for p in parts):
            # every row over the lcm of the parts' row denominators
            ints = [p._integer_rows() for p in parts]
            den = lcm(*{d for part in ints for r, d in part if r})
            for p, part in zip(parts, ints):
                for row, (r, d) in zip(out, part):
                    s = den // d
                    for j, v in r.items():
                        row[offset + j] = s * v
                offset += p.cols
            return cls._raw(rows, offset, int_rows=((row, den) for row in out))
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
        if any(p._int_rows is not None for p in parts):
            return cls._raw(sum(p.rows for p in parts), cols,
                            int_rows=(r for p in parts for r in p._integer_rows()))
        return cls._raw(sum(p.rows for p in parts), cols,
                        (r for p in parts for r in p.sparse_rows))

    @classmethod
    def block(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        return cls.vstack([cls.hstack(row) for row in grid])

    # ---- fraction-free elimination -------------------------------------

    def _integer_rows(self):
        """(``{column: int}`` without zeros, denominator > 0) per row, filled
        from the Fraction rows once; callers must not mutate them."""
        if self._int_rows is None:
            self._int_rows = tuple(_integer_row(r) if r else ({}, 1)
                                   for r in self._fraction_rows)
        return self._int_rows

    def _echelon(self):
        """Echelon rows (primitive ``{column: int}`` dicts, row r first at
        ``pivots[r]``) and pivot columns, memoized; callers must not mutate."""
        if self._plain_echelon is None:
            self._plain_echelon = _eliminate(
                [_content_free(r) for r, _ in self._integer_rows() if r])
        return self._plain_echelon

    def rank(self) -> int:
        """Exact rank over the rationals."""
        return len(self._echelon()[1])

    def pivot_columns(self) -> list[int]:
        """Pivot columns of the echelon form (leftmost independent columns)."""
        return list(self._echelon()[1])

    def kernel_basis(self, free: Optional[Sequence[int]] = None) -> list[Vector]:
        """Basis of the right null space; every v satisfies self @ v = 0.

        One basis vector per free column, normalized to a primitive integer
        vector with positive entry at its free column.  Given ``free``, a
        list of free columns, only the vectors at those columns are
        back-substituted and returned, in that order; a pivot column or one
        out of range raises InputError."""
        rows, pivots = self._echelon()
        pivoted = set(pivots)
        if free is None:
            free = [c for c in range(self.cols) if c not in pivoted]
        elif any(c in pivoted or not 0 <= c < self.cols for c in free):
            raise InputError(f"not free columns of this {self.rows}x{self.cols} "
                             f"matrix: {list(free)}")
        basis = []
        for fc in free:
            k = bisect_left(pivots, fc)  # only pivots left of fc can be nonzero
            x, _ = _back_substitute(rows[:k], pivots[:k], {fc: 1})
            g = gcd(*x.values())
            basis.append(_rational(x, g if x[fc] > 0 else -g, self.cols))
        return basis

    def solve_in_image(self, b: Sequence[Fraction]) -> Optional[Vector]:
        """Some x with self @ x = b when b is in the image, else None."""
        if len(b) != self.rows:
            raise InputError(f"rhs length {len(b)} != rows {self.rows}")
        augmented = Matrix.hstack([self, Matrix.from_columns([b], self.rows)])
        rows, pivots = augmented._echelon()
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
        rows, pivots = Matrix.hstack([self, Matrix.identity(n)])._echelon()
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


def _integer_row(row: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """A nonzero row as integers over the lcm of its denominators."""
    scale = lcm(*(e.denominator for e in row.values()))
    return {j: e.numerator * (scale // e.denominator) for j, e in row.items()}, scale


def _content_free(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _eliminate(rows: list[dict[int, int]]):
    """Echelon rows and pivot columns of primitive sparse integer rows.

    Columns are taken left to right.  At column c the pivot is the active
    row with the fewest nonzeros (the lowest index on ties); every other
    active row with a nonzero at c becomes ``(pv/g)*row - (h/g)*pivot_row``
    with ``g = gcd(pv, h)``, its content divided out.  Rows without an
    entry at c are not touched.  The rows hit at c are those filed under
    leading column c; an updated row is filed again."""
    filed: dict[int, list[int]] = {}
    for k, r in enumerate(rows):
        if r:
            filed.setdefault(min(r), []).append(k)
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    while filed:
        c = min(filed)
        hits = filed.pop(c)
        p = min(hits, key=lambda k: (len(rows[k]), k))
        prow = rows[p]
        pv = prow[c]
        for k in hits:
            if k != p:
                r = rows[k] = _cancel(rows[k], prow, c, pv)
                if r:
                    filed.setdefault(min(r), []).append(k)
        echelon.append(prow)
        pivots.append(c)
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


# ---- determinant of a Kronecker sum modulo a prime -------------------------

#: Modulus of PhiDeterminant: 2^30 - 35, the largest prime below 2^30, so
#: every residue is one 30-bit digit of a CPython int and products and
#: reductions mod p take the single-digit paths.  p > N = dim C^q on every
#: degree the entry budget admits: N^2 <= rows x cols of the degree-q total
#: <= cohomology.MAX_DENSE_ENTRIES, so N <= 3162.
CERTIFICATE_PRIME = 2 ** 30 - 35

class PhiDeterminant:
    """``det Phi_q mod p`` for p = CERTIFICATE_PRIME, where Phi_q is the
    Kronecker sum of q - 1 copies of d_F^T, then d^T and -d_M, of dimension
    N = C(n, 2)^(q - 1) n m for d (n x n) and d_M (m x m); ``d_F = d ^ 1 +
    1 ^ d + lam`` acts on the C(n, 2) pairs.

    The eigenvalues of a Kronecker sum are the sums of one eigenvalue of
    each factor, and d_F's are mu_i + mu_j + lam (i < j) for those mu of d,
    so the determinant reads d, d_M and lam alone: neither Phi_q nor d_F is
    built.  The head, the sum of q - 1 copies of d_F, is that of the degree
    before plus one copy, and the tail is d (+) -d_M.  mod_p(q) declines
    (None) when p <= N; past that check one of two paths answers every
    degree, chosen once:

    - exact, where the nonzero patterns of d and d_M split into strongly
      connected components of one index, or of two with a rational spectrum
      (rational_spectrum), p divides no denominator of d, d_M, lam or the
      eigenvalues, and p > max(C(n, 2), 2): the spectra are {eigenvalue:
      multiplicity} dicts over integers (every eigenvalue times one common
      scale), and det Phi_q is the product of the sums of one eigenvalue of
      the head and one of the tail, reduced mod p; no characteristic
      polynomial is computed;
    - mod p, everywhere else: det Phi_q is one resultant of the
      characteristic polynomials of the head and the tail
      (kronecker_sum_det_from_halves), d_F's from d's
      (wedge_charpoly_mod_p).

    The exact path is taken only where the polynomials answer every degree
    that passes the size check, so whichever path the input takes, the
    primes declined are those the polynomials decline.  Where d_M is d (the
    adjoint), Phi_1 = d^T (+) -d has the eigenvalue mu_i - mu_i = 0, and
    mod_p(1) is 0 with nothing computed.

    One more query reads d alone, on the same path:
    d_has_distinct_eigenvalues() is True only where d has n distinct
    eigenvalues, read from the multiplicities of d's exact spectrum, or
    from chi_d mod p coprime to its derivative; the cohomology of the
    adjoint in degree 1 then reads the commutant of d.  On the exact path
    zero_multiplicity(q) counts the eigenvalue 0 of Phi_q, against which the
    cohomology checks its weight-0 coordinates where d and d_M are
    diagonal.  The spectra of d_F and of the tail are computed only when a
    degree asks for them.

    Members are filled on first use by pure recomputation, so a racing
    first access at worst computes a value twice, and racing extensions of
    the heads store equal values under one degree."""

    def __init__(self, d: Matrix, d_M: Matrix, lam):
        self.d, self.d_M, self.lam = d, d_M, Fraction(lam)
        self._pairs = d.rows * (d.rows - 1) // 2
        self._heads = {}

    def mod_p(self, q: int) -> Optional[int]:
        """det Phi_q mod p for q >= 1, or None when p <= N."""
        n = self.d.rows
        if CERTIFICATE_PRIME <= self._pairs ** (q - 1) * n * self.d_M.rows:
            return None
        if q == 1 and self.d_M is self.d and n:
            return 0
        exact = self._spectra
        if exact is not None:
            return spectrum_det_mod_p(kronecker_sum_spectrum(
                self._head(q), self._tail) if q > 1 else self._tail, exact.scale)
        if q == 1:  # Phi_1's two factors are its halves
            return kronecker_sum_det_from_halves(*self._factors)
        return kronecker_sum_det_from_halves(self._head(q), self._tail)

    def zero_multiplicity(self, q: int) -> Optional[int]:
        """The multiplicity of the eigenvalue 0 of Phi_q for q >= 1, read from
        the exact spectra (the sums of one eigenvalue of the head and one of
        the tail that vanish), or None where the polynomials decide."""
        if self._spectra is None:
            return None
        tail = self._tail
        if q == 1:
            return tail.get(0, 0)
        return sum(k * tail.get(-x, 0) for x, k in self._head(q).items())

    def d_has_distinct_eigenvalues(self) -> bool:
        """Whether d has n distinct eigenvalues (over an algebraic closure of
        Q): on the exact path, whether each eigenvalue of d's spectrum has
        multiplicity 1; elsewhere, whether d's characteristic polynomial mod
        p is coprime to its derivative, that is disc chi_d != 0 mod p, which
        proves disc chi_d != 0 over Q.  False where p divides a denominator
        of d.  Reads d alone: no spectrum or polynomial of d_F or of Phi."""
        n, exact = self.d.rows, self._spectra
        if exact is not None and self.d_M.rows:  # d's spectrum was read
            return len(exact.d) == n
        c = self._factors[0]
        return c is not None and bool(_resultant_mod(
            c, [(n - k) * x % CERTIFICATE_PRIME for k, x in enumerate(c[:-1])],
            CERTIFICATE_PRIME))

    @cached_property
    def _spectra(self) -> Optional[SimpleNamespace]:
        """The exact spectra of d (``d``) and of -d_M (``minus_d_M``), and
        lam (``lam``), each value times ``scale``, an integer prime to p;
        None where the polynomials decide."""
        d, d_M, lam, p = self.d, self.d_M, self.lam, CERTIFICATE_PRIME
        if p <= max(self._pairs, 2):
            return None
        # on a zero module every Phi_q is empty, whatever d's spectrum; the
        # adjoint's d_M is d itself
        mu = rational_spectrum(d) if d_M.rows else []
        eta = mu if mu is None or d_M is d or not d_M.rows else rational_spectrum(d_M)
        if eta is None:
            return None
        scale = lcm(lam.denominator, *(v.denominator for v in chain(mu, eta)))
        if lcm(scale, *(c.denominator for mat in (d, d_M) for row in mat.sparse_rows
                        for c in row.values())) % p == 0:
            return None

        def scaled(v):
            return v.numerator * (scale // v.denominator)

        return SimpleNamespace(d=Counter(map(scaled, mu)), scale=scale, lam=scaled(lam),
                               minus_d_M=Counter(-scaled(v) for v in eta))

    @cached_property
    def _factors(self) -> tuple[Optional[list[int]], Optional[list[int]]]:
        # the characteristic polynomials mod p of d and -d_M (d^T has d's)
        c_d = charpoly_mod_p(self.d)
        return c_d, negated_charpoly_mod_p(
            c_d if self.d_M is self.d else charpoly_mod_p(self.d_M))

    @cached_property
    def _tail(self):
        # the spectrum or the polynomial of d (+) -d_M, on the path taken
        exact = self._spectra
        return (kronecker_sum_spectrum(exact.d, exact.minus_d_M) if exact is not None
                else kronecker_sum_charpoly_mod_p(*self._factors))

    @cached_property
    def _pair(self):
        # d_F's spectrum, or its polynomial from d's: d_F is never built
        exact = self._spectra
        return (wedge_spectrum(exact.d, exact.lam) if exact is not None
                else wedge_charpoly_mod_p(self._factors[0], self.lam))

    def _head(self, q: int):
        """The Kronecker sum of q - 1 >= 1 copies of d_F on the path taken:
        the degree before's plus one copy."""
        heads = self._heads
        if q not in heads:
            compose = (kronecker_sum_charpoly_mod_p if self._spectra is None
                       else kronecker_sum_spectrum)
            heads[q] = self._pair if q == 2 else compose(self._head(q - 1), self._pair)
        return heads[q]


def kronecker_sum_charpoly_mod_p(a: Optional[list[int]],
                                 b: Optional[list[int]]) -> Optional[list[int]]:
    """The characteristic polynomial mod p = CERTIFICATE_PRIME of ``A (+) B
    = A (x) I + I (x) B`` from those of A and B (as charpoly_mod_p gives
    them); None when one is None or p <= N = deg a * deg b.

    Its eigenvalues are the sums alpha + beta, whose power sums up to N
    _sum_power_sums gives from the factors' (_power_sums_mod), and Newton's
    identities turn them into the coefficients.  Every step divides by
    integers up to N < p only, so over the field of p elements it gives the
    reduction of the polynomial over Q.  O(N^2) operations mod p."""
    p = CERTIFICATE_PRIME
    if a is None or b is None:
        return None
    N = (len(a) - 1) * (len(b) - 1)
    if p <= N:
        return None
    return _newton_mod(_sum_power_sums(
        _power_sums_mod(a, N, p), _power_sums_mod(b, N, p), p), p)


def kronecker_sum_det_from_halves(a: Optional[list[int]],
                                  b: Optional[list[int]]) -> Optional[int]:
    """``det(A (+) B) mod p`` from the characteristic polynomials mod p =
    CERTIFICATE_PRIME of A and B; None when one is None or p <= deg a *
    deg b.

    The determinant is ``prod_(alpha, beta) (alpha + beta)``, the resultant
    of a and ``h(x) = prod_beta (x + beta) = (-1)^(deg b) b(-x)``, whose
    coefficients are b's with the odd ones negated (_resultant_mod; Bostan,
    Flajolet, Salvy and Schost, Fast computation of special resultants,
    J. Symb. Comput. 2006).  Over the integers localized at p the
    determinant commutes with reduction mod p, so a nonzero result proves
    the Kronecker sum invertible over Q.  O(deg a * deg b) operations."""
    p = CERTIFICATE_PRIME
    if a is None or b is None or p <= (len(a) - 1) * (len(b) - 1):
        return None
    return _resultant_mod(a, negated_charpoly_mod_p(b), p)


def negated_charpoly_mod_p(c: Optional[list[int]]) -> Optional[list[int]]:
    """The characteristic polynomial mod p = CERTIFICATE_PRIME of -A from
    that of A, ``(-1)^r c(-x)``: its odd coefficients negated; None for
    None."""
    if c is None:
        return None
    return [-x % CERTIFICATE_PRIME if k % 2 else x for k, x in enumerate(c)]


def rational_spectrum(f: Matrix) -> Optional[list[Fraction]]:
    """The eigenvalues of the square matrix f, each as often as its
    multiplicity, when the nonzero pattern of f (i -> j where f[i, j] != 0) has strongly
    connected components of one or two indices and each 2 x 2 one has a
    rational spectrum; None otherwise.

    Listing the components in a topological order permutes f to a block
    triangular matrix with their blocks on the diagonal, so f's eigenvalues
    are theirs: a 1 x 1 block's entry, and ``(a + e +- r) / 2`` for ``[[a,
    b], [c, e]]``, where ``r^2 = (a - e)^2 + 4 b c`` is rational exactly when
    its numerator and denominator are squares.  A transitive closure over
    bit rows finds the components in O(dim^2) operations on dim-bit
    integers."""
    rows = f.sparse_rows
    n = len(rows)
    reach = [sum(1 << j for j in row) for row in rows]  # bit j: i reaches j
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    spectrum = []
    for i, row in enumerate(rows):
        mates = [j for j in range(n)
                 if j != i and reach[i] >> j & 1 and reach[j] >> i & 1]
        if len(mates) > 1:
            return None
        if not mates:
            spectrum.append(row.get(i, _ZERO))
        elif mates[0] < i:  # the 2 x 2 block was read at its first index
            continue
        else:
            # the block [[a, b], [c, e]] times the lcm D of its denominators
            j = mates[0]
            block = (row.get(i, _ZERO), row[j], rows[j][i], rows[j].get(j, _ZERO))
            D = lcm(*(x.denominator for x in block))
            a, b, c, e = (x.numerator * (D // x.denominator) for x in block)
            disc = (a - e) ** 2 + 4 * b * c
            r = isqrt(max(disc, 0))
            if r * r != disc:
                return None
            spectrum += [Fraction(a + e + r, 2 * D), Fraction(a + e - r, 2 * D)]
    return spectrum


def wedge_spectrum(mu: dict, lam) -> dict:
    """The spectrum ``{mu_i + mu_j + lam: multiplicity}`` (i < j) of ``A ^ 1
    + 1 ^ A + lam`` on the pairs (wedge_charpoly_mod_p) from the spectrum mu
    of A: the sums of A (+) A off its diagonal 2 mu_i, each pair met twice,
    then summed with the 1 x 1 matrix [lam]."""
    ordered = kronecker_sum_spectrum(mu, mu)
    for x, i in mu.items():
        ordered[2 * x] -= i
    return kronecker_sum_spectrum({v: k // 2 for v, k in ordered.items() if k}, {lam: 1})


def kronecker_sum_spectrum(a: dict, b: dict) -> dict:
    """The spectrum ``{alpha + beta: multiplicity}`` of ``A (+) B`` from the
    spectra of A and B."""
    out = {}
    for x, i in a.items():
        for y, j in b.items():
            out[x + y] = out.get(x + y, 0) + i * j
    return out


def spectrum_det_mod_p(spectrum: dict[int, int], scale: int) -> int:
    """The product of the eigenvalues ``value / scale`` of the spectrum
    ``{value: multiplicity}`` (integer values) mod p = CERTIFICATE_PRIME,
    for a scale prime to p."""
    p = CERTIFICATE_PRIME
    out = 1
    for v, k in spectrum.items():
        out = out * pow(v, k, p) % p
    return out * pow(scale, -sum(spectrum.values()), p) % p


def charpoly_mod_p(f: Matrix) -> Optional[list[int]]:
    """The characteristic polynomial ``[1, c_1, ..., c_r]`` of the square
    matrix f mod p = CERTIFICATE_PRIME, or None when p divides the
    denominator of an entry."""
    p = CERTIFICATE_PRIME
    dense = [[0] * f.cols for _ in range(f.rows)]
    for i, row in enumerate(f.sparse_rows):
        for j, e in row.items():
            if e.denominator % p == 0:
                return None
            dense[i][j] = e.numerator * pow(e.denominator, -1, p) % p
    return _charpoly_mod(dense, p)


def wedge_charpoly_mod_p(c: Optional[list[int]], lam) -> Optional[list[int]]:
    """The characteristic polynomial mod p = CERTIFICATE_PRIME of ``A ^ 1 +
    1 ^ A + lam``, the map ``a ^ b -> A a ^ b + a ^ A b + lam a ^ b`` on the
    N = C(r, 2) pairs, from the characteristic polynomial ``c = [1, c_1,
    ..., c_r]`` of A mod p (as charpoly_mod_p gives it); None when c is
    None, when p divides the denominator of lam, or when p = 2 or p <= N.

    Over an algebraic closure A is triangular, and so is the pair map, with
    eigenvalues ``mu_i + mu_j + lam`` (i < j) for the eigenvalues mu of A:
    as in wedge_spectrum, the power sums S_k of A (+) A (_sum_power_sums of
    A's, _power_sums_mod) count each i < j twice and add ``(2 mu_i)^k`` on
    the diagonal, so ``sum_(i<j) (mu_i + mu_j)^k = (S_k - 2^k s_k) / 2``,
    and the sum with [lam] adds lam.  Newton's identities turn the power
    sums into the coefficients.  Each step is a polynomial identity in c and
    lam that divides by 2 and by integers up to N only, so over the field of
    p elements it gives the reduction of the polynomial over Q.  O(N^2)
    operations mod p, and no N x N matrix."""
    p = CERTIFICATE_PRIME
    lam = Fraction(lam)
    if c is None or lam.denominator % p == 0:
        return None
    r = len(c) - 1
    N = r * (r - 1) // 2
    if p <= max(N, 2):
        return None
    s, inv2 = _power_sums_mod(c, N, p), pow(2, -1, p)
    pairs = [(S - pow(2, k, p) * t) * inv2 % p
             for k, (S, t) in enumerate(zip(_sum_power_sums(s, s, p), s))]
    lam = lam.numerator * pow(lam.denominator, -1, p) % p
    return _newton_mod(_sum_power_sums(
        pairs, [pow(lam, k, p) for k in range(N + 1)], p), p)


def _resultant_mod(a: list[int], b: list[int], p: int) -> int:
    """``prod_(a(alpha) = 0) b(alpha) mod p`` over the roots of the monic a,
    that is Res(a, b); coefficients run from the highest degree down and
    lie in [0, p).

    Euclid: ``Res(a, b) = Res(a, b mod a)``, and a remainder R of degree r
    and leading coefficient c has ``prod_(a(alpha) = 0) R(alpha) = (-1)^(deg
    a * r) c^(deg a) prod_((R/c)(gamma) = 0) a(gamma)``.  A zero remainder
    gives 0, a constant one c gives c^(deg a)."""
    out = 1
    while len(a) > 1:  # a constant monic a has no roots
        da = len(a) - 1
        b = list(b)
        for i in range(len(b) - da):  # b mod a, in place
            q = b[i]
            if q:
                for j in range(1, da + 1):
                    b[i + j] = (b[i + j] - q * a[j]) % p
        rem = b[max(len(b) - da, 0):]
        top = next((i for i, x in enumerate(rem) if x), None)
        if top is None:
            return 0
        rem = rem[top:]
        c = rem[0]
        out = out * pow(c, da, p) % p
        if len(rem) == 1:
            break
        if da * (len(rem) - 1) % 2:
            out = -out % p
        c_inv = pow(c, -1, p)
        a, b = [x * c_inv % p for x in rem], a
    return out


def _power_sums_mod(c: list[int], count: int, p: int) -> list[int]:
    """``tr(A^j) mod p`` for j = 0..count, from the characteristic polynomial
    ``c = [1, c_1, ..., c_r]`` of A by Newton's identities
    ``s_k = -(k c_k + sum_(i<k) c_i s_(k-i))`` (c_k = 0 past r)."""
    r = len(c) - 1
    s = [r % p]
    for k in range(1, count + 1):
        tail = min(k - 1, r)
        acc = sum(map(mul, c[1:tail + 1], reversed(s[k - tail:k])))
        s.append(-(acc + (k * c[k] if k <= r else 0)) % p)
    return s


def _sum_power_sums(a: list[int], b: list[int], p: int) -> list[int]:
    """The power sums ``S_k = sum_l C(k, l) a_l b_(k-l)`` mod p (k <
    len(a)) of the sums alpha + beta, from the power sums a of the alphas
    and b of the betas: ``sum_k S_k t^k / k!`` is the product of their
    series.  p must exceed len(a) - 1."""
    N = len(a) - 1
    fact = [1]
    for k in range(1, N + 1):
        fact.append(fact[-1] * k % p)
    fact_inv = [pow(fact[N], -1, p)]
    for k in range(N, 0, -1):
        fact_inv.append(fact_inv[-1] * k % p)
    fact_inv.reverse()
    sa, sb = ([s * f % p for s, f in zip(c, fact_inv)] for c in (a, b))
    return [sum(map(mul, sa[:k + 1], reversed(sb[:k + 1]))) * fact[k] % p
            for k in range(N + 1)]


def _newton_mod(sums: list[int], p: int) -> list[int]:
    """The characteristic polynomial ``[1, c_1, ..., c_N]`` whose power sums
    are ``sums[0..N]`` mod p, by Newton's identities as in _power_sums_mod:
    ``k c_k = -(s_k + sum_(0<i<k) c_i s_(k-i))``; p must exceed N."""
    out = [1]
    for k in range(1, len(sums)):
        acc = sums[k] + sum(map(mul, out[1:], reversed(sums[1:k])))
        out.append(-acc * pow(k, -1, p) % p)
    return out


def _charpoly_mod(a: list[list[int]], p: int) -> list[int]:
    """Coefficients ``[1, c_1, ..., c_r]`` of ``det(x I - A) mod p``.

    A is reduced in place to upper Hessenberg form H by similarity
    transforms; then ``p_(k+1) = (x - h_kk) p_k - sum_(i<k) h_ik
    (h_(i+1,i) ... h_(k,k-1)) p_i`` on its leading minors.  Zero entries are
    skipped, so sparse operators cost less than O(r^3)."""
    r = len(a)
    for j in range(r - 2):
        piv = next((i for i in range(j + 1, r) if a[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            a[piv], a[j + 1] = a[j + 1], a[piv]
            for row in a:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        pinv = pow(a[j + 1][j], -1, p)
        for i in range(j + 2, r):
            f = a[i][j] * pinv % p
            if f:
                # row i -= f row (j+1), then column (j+1) += f column i
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[j + 1])]
                for row in a:
                    row[j + 1] = (row[j + 1] + f * row[i]) % p
    polys = [[1]]  # p_k, lowest degree first
    for k in range(r):
        new = [0] + polys[k]
        h = a[k][k]
        for d, x in enumerate(polys[k]):
            new[d] = (new[d] - h * x) % p
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * a[i + 1][i] % p
            if not t:
                break
            g = a[i][k] * t % p
            if g:
                for d, x in enumerate(polys[i]):
                    new[d] = (new[d] - g * x) % p
        polys.append(new)
    return polys[r][::-1]
