"""Invariance oracles for the cohomology of the total complex: two changes
of the input that leave the answer fixed whatever path computes it.

- Weight gauge.  (d, d_M, lam) -> (d + s I, d_M + s I, lam - 2s) leaves d_F
  = d ^ 1 + 1 ^ d + lam and the tail d (+) -d_M unchanged, so every Phi_q,
  every total matrix and every report is the same.  The adjoint of the
  shifted algebra is the shifted adjoint; the coadjoint of the shifted
  algebra has d_M = -(d + s I)^T, so it is not the shifted coadjoint, and
  only the adjoint is tested.  At s = lam / 2 this is the paper's lemma
  that d + (lam / 2) id is a derivation of the bracket.
- Scaling.  c (d, d_M, lam) with c != 0 scales every Phi_q to c Phi_q, and
  (f, g) -> (f, c g) conjugates the two totals, so (z, b, h) is unchanged
  for either action, and det Phi_q gains the factor c^N, N = dim Phi_q.

Both also compare det Phi_q mod p, not only the dimensions: the two sides
hand the certificate different spectra whose products are related, so a
certificate that miscounts an eigenvalue, flips the sign of the tail or
uses the head of the degree before breaks the relation."""

import random
from fractions import Fraction

import pytest

from md3lie.cli import run_command
from md3lie.cohomology import ComplexAssembly
from md3lie.corpus import example_md
from md3lie.documents import serialize_algebra
from md3lie.exactnum import CERTIFICATE_PRIME, Matrix
from md3lie.multilin import pair_basis
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, adjoint_representation,
    coadjoint_representation, verify_3lie, verify_modified_differential,
)

from conftest import bench_pool

DEGREES = (1, 2, 3)


def members():
    """The example and a seeded sample of the benchmark's DIM3_POOL, four
    triangular and four determinant-bracket members."""
    pool = dict(bench_pool("DIM3_POOL"))
    rng = random.Random("gauge")
    keys = (rng.sample(sorted(k for k in pool if k.startswith("tri")), 4)
            + rng.sample(sorted(k for k in pool if k.startswith("det")), 4))
    return [("example", example_md())] + [(key, pool[key]) for key in keys]


MEMBERS = members()
each_member = pytest.mark.parametrize(
    "md", [md for _, md in MEMBERS], ids=[key for key, _ in MEMBERS])


def with_diff(md, d, lam):
    return MD3LieAlgebra(md.algebra, ModifiedDifferential(Fraction(lam), d))


def shifted(md, s):
    return with_diff(md, md.d + Matrix.identity(md.n).scale(s), md.lam - 2 * s)


def scaled(md, c):
    return with_diff(md, md.d.scale(c), c * md.lam)


def valid(md):
    return verify_3lie(md.algebra).valid and verify_modified_differential(md).valid


def mod_p(x: Fraction) -> int:
    p = CERTIFICATE_PRIME
    return x.numerator * pow(x.denominator, -1, p) % p


@each_member
def test_the_weight_gauge_changes_no_matrix_and_no_report(md, tmp_path, capsys):
    """At s = lam / 2 and at s = 1: equal partial_matrix(q), equal det Phi_q
    mod p, and byte-equal cohomology reports with and without
    representatives, for the adjoint at q = 1..3."""
    path = tmp_path / "algebra.json"
    argvs = [["cohomology", str(path), "--rep", "adjoint", "--degree", str(q)]
             + flag for q in DEGREES for flag in ([], ["--representatives"])]

    def reports(alg):
        path.write_text(serialize_algebra(alg), encoding="utf-8")
        out = [(run_command(argv), capsys.readouterr()) for argv in argvs]
        assert all(code == 0 for code, _ in out)
        return out

    before = reports(md)
    asm = ComplexAssembly(md, adjoint_representation(md))
    for s in (md.lam / 2, Fraction(1)):
        gauged = shifted(md, s)
        assert valid(gauged) and gauged.lam == md.lam - 2 * s
        other = ComplexAssembly(gauged, adjoint_representation(gauged))
        for q in DEGREES:
            assert other.partial_matrix(q) == asm.partial_matrix(q), (s, q)
            assert other.phi_det_mod_p(q) == asm.phi_det_mod_p(q), (s, q)
        assert reports(gauged) == before, s


@each_member
def test_scaling_the_differentials_and_the_weight_keeps_the_cohomology(md):
    """c in {2, -1, -3/5}: (z, b, h) unchanged at q = 1..3 with and without
    representatives, and det Phi_q mod p multiplied by c^N, for the adjoint
    and the coadjoint (the coadjoint of the scaled algebra is the scaled
    coadjoint)."""
    for make in (adjoint_representation, coadjoint_representation):
        rep = make(md)
        asm = ComplexAssembly(md, rep)
        dims = {(q, reps): asm.cohomology_dim(q, representatives=reps)
                for q in DEGREES for reps in (False, True)}
        for c in (Fraction(2), Fraction(-1), Fraction(-3, 5)):
            alg = scaled(md, c)
            other_rep = make(alg)
            assert valid(alg) and other_rep.d_M == rep.d_M.scale(c)
            other = ComplexAssembly(alg, other_rep)
            for (q, reps), summary in dims.items():
                got = other.cohomology_dim(q, representatives=reps)
                assert ((got.z_dim, got.b_dim, got.h_dim)
                        == (summary.z_dim, summary.b_dim, summary.h_dim)), (c, q)
            for q in DEGREES:
                det, det_c = asm.phi_det_mod_p(q), other.phi_det_mod_p(q)
                size = len(pair_basis(md.n)) ** (q - 1) * md.n * rep.m
                assert det_c == det * pow(mod_p(c), size, CERTIFICATE_PRIME) % (
                    CERTIFICATE_PRIME), (make.__name__, c, q)
