"""Seeded input documents for the benchmark, written in the md3lie file formats.

The generators here use only the standard library, so the inputs do not
change when the package's own test corpus changes.  Every instance has a
stable key (``tri-7``, ``ab5-3``, ...); the same key always yields the same
document, which is what lets ``expected.json`` record one answer per key.

Families, all valid by construction:

- ``example``: [e1, e2, e3] = e1, d = diag(1, 2, 3), weight -5;
- ``tri-<i>``: the example bracket with a random triangular-compatible
  differential (first column (k11, 0, 0), weight -(k22 + k33));
- ``det-<i>``: [x, y, z] = det(x, y, z) w with d = k id and weight -2k;
- ``ab<n>-<i>``: the abelian n-dim algebra with a random d and weight;
- ``sd-<key>``: the semidirect product of a dim-3 instance with its adjoint
  action (dim 6);
- ``trivial2``: abelian n = 2, d = 0, weight 0, with the 1-dim trivial module
  (the pinned H^2 = 4 complex).
"""

from __future__ import annotations

import random
from fractions import Fraction


def scalar(x) -> str:
    return str(Fraction(x))


def rational(rng: random.Random, num: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rational_nonzero(rng: random.Random) -> Fraction:
    while True:
        x = rational(rng)
        if x:
            return x


class Algebra:
    """Structure constants (0-based, i < j < k) plus differential and weight."""

    def __init__(self, n, bracket, d, lam):
        self.n = n
        self.bracket = bracket  # {(i, j, k): tuple of n Fractions}
        self.d = d              # d[i][j]: e_i-coefficient of d(e_j)
        self.lam = Fraction(lam)

    def bracket_basis(self, i, j, k):
        """[e_i, e_j, e_k] for any index order, by skew-symmetry."""
        if len({i, j, k}) < 3:
            return (Fraction(0),) * self.n
        order = sorted((i, j, k))
        sign = _permutation_sign((i, j, k), order)
        value = self.bracket.get(tuple(order), (Fraction(0),) * self.n)
        return tuple(sign * c for c in value)


def _permutation_sign(seq, order) -> int:
    perm = [order.index(x) for x in seq]
    sign = 1
    for a in range(3):
        for b in range(a + 1, 3):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def _rng(key: str) -> random.Random:
    return random.Random(f"md3lie-bench/{key}")


def example() -> Algebra:
    return Algebra(3, {(0, 1, 2): (Fraction(1), Fraction(0), Fraction(0))},
                   [[1, 0, 0], [0, 2, 0], [0, 0, 3]], -5)


def triangular(key: str) -> Algebra:
    rng = _rng(key)
    k = [[rational(rng) for _ in range(3)] for _ in range(3)]
    k[1][0] = k[2][0] = Fraction(0)
    base = example()
    return Algebra(3, base.bracket, k, -(k[1][1] + k[2][2]))


def det_bracket(key: str) -> Algebra:
    rng = _rng(key)
    while True:
        w = tuple(rational(rng) for _ in range(3))
        if any(w):
            break
    k = rational_nonzero(rng)
    d = [[k if i == j else 0 for j in range(3)] for i in range(3)]
    return Algebra(3, {(0, 1, 2): w}, d, -2 * k)


def abelian(key: str, n: int) -> Algebra:
    rng = _rng(key)
    lam = rational(rng)
    d = [[rational(rng) for _ in range(n)] for _ in range(n)]
    return Algebra(n, {}, d, lam)


def semidirect_adjoint(alg: Algebra) -> Algebra:
    """alg + alg with the adjoint action: [x, y, v] = [x, y, v] in the module."""
    n = alg.n
    zero = (Fraction(0),) * n
    bracket = {}
    for (i, j, k), v in alg.bracket.items():
        bracket[i, j, k] = tuple(v) + zero
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                v = alg.bracket_basis(i, j, k)
                if any(v):
                    bracket[i, j, n + k] = zero + v
    d = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            d[i][j] = d[n + i][n + j] = alg.d[i][j]
    return Algebra(2 * n, bracket, d, alg.lam)


def algebra(key: str) -> Algebra:
    """The algebra named by a pool key."""
    if key == "example":
        return example()
    if key == "trivial2":
        return Algebra(2, {}, [[0, 0], [0, 0]], 0)
    if key.startswith("sd-"):
        return semidirect_adjoint(algebra(key[3:]))
    family = key.split("-")[0]
    if family == "tri":
        return triangular(key)
    if family == "det":
        return det_bracket(key)
    if family.startswith("ab"):
        return abelian(key, int(family[2:]))
    raise ValueError(f"unknown instance key {key!r}")


# ---------------------------------------------------------------------------
# documents (README "File formats": 1-based indices, exact scalar strings)


def matrix_doc(rows) -> list:
    return [[scalar(c) for c in row] for row in rows]


def _triples_doc(values: dict) -> list:
    return [
        {"args": [i + 1, j + 1, k + 1],
         "value": {str(r + 1): scalar(c) for r, c in enumerate(v) if c}}
        for (i, j, k), v in sorted(values.items()) if any(v)
    ]


def algebra_doc(alg: Algebra) -> dict:
    return {"dim": alg.n, "bracket": _triples_doc(alg.bracket),
            "lambda": scalar(alg.lam), "differential": matrix_doc(alg.d)}


def adjoint_doc(alg: Algebra) -> dict:
    n = alg.n
    rho = []
    for i in range(n):
        for j in range(i + 1, n):
            cols = [alg.bracket_basis(i, j, k) for k in range(n)]
            if any(any(c) for c in cols):
                rho.append({"pair": [i + 1, j + 1],
                            "matrix": matrix_doc([[cols[k][r] for k in range(n)]
                                                  for r in range(n)])})
    return {"module_dim": n, "rho": rho, "d_M": matrix_doc(alg.d)}


def trivial_module_doc(m: int) -> dict:
    return {"module_dim": m, "rho": [], "d_M": matrix_doc([[0] * m] * m)}


def zero_tensor_doc(n: int, m: int) -> dict:
    return {"dim_in": n, "dim_out": m, "values": []}


def diagonal(values) -> list:
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def extension_doc(alg: Algebra, g) -> dict:
    """Abelian extension of alg by its adjoint module with f = 0."""
    return {"base": algebra_doc(alg), "rep": adjoint_doc(alg),
            "f": zero_tensor_doc(alg.n, alg.n), "g": matrix_doc(g)}
