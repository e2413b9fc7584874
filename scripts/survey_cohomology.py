#!/usr/bin/env python3
"""Survey cocycle/coboundary/cohomology dimensions over the test corpus.

For each instance the script runs the three axiom verifiers and re-checks the
complex identities (the squares of the differentials and the cochain-map
commutation) before printing the exact dimensions in degrees 1 to 3:
z = cols - rank partial_q and b = rank partial_(q-1), both by eliminating the
assembled totals.  Verified axioms imply the identities, so an instance that
passes the verifiers and fails an identity is a fault of the assembly.  Both
library paths, ``cohomology_dim(q)`` and ``cohomology_dim(q,
representatives=False)``, may answer from the determinant certificate, so
each is checked against those eliminated dimensions rather than against the
other.

Where d and d_M are diagonal, Phi is diagonal in cochain coordinates: the
coordinate (a_1, ..., a_(q-1), k, r) has the weight sum_s (mu_i + mu_j +
lam)_(a_s) + mu_k - eta_r, mu and eta the diagonals of d and d_M.  The C0
column prints the number of coordinates of C^q of weight 0 there (blank
elsewhere).  On such an instance that passes the verifiers, Phi delta =
delta Phi, so delta_q has no entry between coordinates of different weight;
the library's weight split rests on that, and the script checks it for q =
1 to 3 from the assembled delta_q and weights it computes itself.

Everything is rational arithmetic; rerunning with the same seed reproduces
the table bit for bit.  Exits 1, naming each failure on stderr, when the
axioms pass but an identity or the weight lemma fails or a path disagrees
with elimination, and 0 otherwise.
"""

import argparse
import random
import sys
from itertools import product

from md3lie.cohomology import ComplexAssembly
from md3lie.corpus import abelian_md, det_bracket_md, example_md
from md3lie.multilin import pair_basis
from md3lie.structures import (
    adjoint_representation, coadjoint_representation, verify_3lie,
    verify_modified_differential, verify_representation,
)


def instances(seed):
    rng = random.Random(seed)
    md = example_md()
    yield "dim3 [e1,e2,e3]=e1, adjoint", ComplexAssembly(
        md, adjoint_representation(md))
    yield "dim3 [e1,e2,e3]=e1, coadjoint", ComplexAssembly(
        md, coadjoint_representation(md))
    for n in (2, 3):
        ab = abelian_md(rng, n)
        yield f"abelian n={n}, adjoint", ComplexAssembly(
            ab, adjoint_representation(ab))
    for i in range(3):
        det = det_bracket_md(rng)
        w = det.algebra.bracket.basis_value(0, 1, 2)
        yield (f"det bracket w=({', '.join(str(c) for c in w)}), adjoint",
               ComplexAssembly(det, adjoint_representation(det)))


def axioms_hold(asm):
    md = asm.md
    return (verify_3lie(md.algebra).valid and verify_modified_differential(md).valid
            and verify_representation(md, asm.rep).valid)


def identities_hold(asm):
    d1, d2, d3 = (asm.delta_matrix(q) for q in (1, 2, 3))
    p1, p2, p3 = (asm.phi_matrix(q) for q in (1, 2, 3))
    t2t1 = asm.partial_matrix(2) @ asm.partial_matrix(1)
    t3t2 = asm.partial_matrix(3) @ asm.partial_matrix(2)
    return ((d2 @ d1).is_zero and (d3 @ d2).is_zero
            and p2 @ d1 == d1 @ p1 and p3 @ d2 == d2 @ p2
            and t2t1.is_zero and t3t2.is_zero)


def coordinate_weights(asm, q):
    """The weight of each coordinate of C^q, in flat-index order, where d and
    d_M are diagonal; None elsewhere."""
    d, d_M = asm.md.d, asm.rep.d_M
    if any(mat[i, j] for mat in (d, d_M)
           for i, j in product(range(mat.rows), repeat=2) if i != j):
        return None
    mu = [d[i, i] for i in range(d.rows)]
    eta = [d_M[r, r] for r in range(d_M.rows)]
    pair = [mu[i] + mu[j] + asm.md.lam for i, j in pair_basis(d.rows)]
    return [sum(pair[a] for a in args) + mu[k] - eta[r]
            for args in product(range(len(pair)), repeat=q - 1)
            for k in range(d.rows) for r in range(d_M.rows)]


def weight_mixing_degree(asm):
    """The first q in 1..3 where delta_q has an entry between coordinates
    of different weight, or None."""
    for q in (1, 2, 3):
        source, target = coordinate_weights(asm, q), coordinate_weights(asm, q + 1)
        if any(target[i] != source[j]
               for i, row in enumerate(asm.delta_matrix(q).sparse_rows) for j in row):
            return q
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)

    header = (f"{'instance':44s} {'axioms':6s} {'ok':3s} {'q':>2s} "
              f"{'Z':>4s} {'B':>4s} {'H':>4s} {'C0':>4s}")
    print(header)
    print("-" * len(header))
    failures = []
    for name, asm in instances(args.seed):
        axioms, holds = axioms_hold(asm), identities_hold(asm)
        if axioms and not holds:
            failures.append(f"{name}: the axioms pass but a complex identity fails")
        diagonal = coordinate_weights(asm, 1) is not None
        mixed = weight_mixing_degree(asm) if axioms and diagonal else None
        if mixed is not None:
            failures.append(f"{name}: the axioms pass but delta_{mixed} links "
                            f"coordinates of different weight")
        for q in (1, 2, 3):
            total = asm.partial_matrix(q)
            z = total.cols - total.rank()
            b = asm.partial_matrix(q - 1).rank() if q > 1 else 0
            want = (z, b, z - b)
            for path, representatives in (("representatives", True),
                                          ("dims-only", False)):
                s = asm.cohomology_dim(q, representatives=representatives)
                got = (s.z_dim, s.b_dim, s.h_dim)
                if got != want:
                    failures.append(f"{name}, q={q}: the {path} path gives "
                                    f"{got}, not {want}")
            label = name if q == 1 else ""
            verified = ("yes" if axioms else "no") if q == 1 else ""
            ok = ("yes" if holds else "NO") if q == 1 else ""
            c0 = str(coordinate_weights(asm, q).count(0)) if diagonal else ""
            print(f"{label:44s} {verified:6s} {ok:3s} {q:2d} {z:4d} {b:4d} {z - b:4d} "
                  f"{c0:>4s}".rstrip())
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
