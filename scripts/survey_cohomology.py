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
other.  Everything is rational arithmetic; rerunning with the same seed
reproduces the table bit for bit.  Exits 1, naming each failure on stderr,
when the axioms pass but an identity fails or a path disagrees with
elimination, and 0 otherwise.
"""

import argparse
import random
import sys

from md3lie.cohomology import ComplexAssembly
from md3lie.corpus import abelian_md, det_bracket_md, example_md
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)

    header = (f"{'instance':44s} {'axioms':6s} {'ok':3s} {'q':>2s} "
              f"{'Z':>4s} {'B':>4s} {'H':>4s}")
    print(header)
    print("-" * len(header))
    failures = []
    for name, asm in instances(args.seed):
        axioms, holds = axioms_hold(asm), identities_hold(asm)
        if axioms and not holds:
            failures.append(f"{name}: the axioms pass but a complex identity fails")
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
            print(f"{label:44s} {verified:6s} {ok:3s} {q:2d} {z:4d} {b:4d} {z - b:4d}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
