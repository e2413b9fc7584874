"""Cocycle extraction, the homomorphism check and the relative operator
check against the dense oracles of ``oracles.py``.

The package reads a section, a homomorphism or a relative operator through
its column items and the signed table of a bracket; the oracles evaluate
dense vectors.  Extracted cocycles must be equal (representation, upsilon
values in triple order, mu), verdicts equal, and relative operator reports
equal in validity, law, argument tuple, both values and order."""

import random

import pytest

import oracles
from conftest import random_action
from md3lie.cohomology import ComplexAssembly, TotalCochain
from md3lie.corpus import (
    abelian_md, det_bracket_md, example_md, random_invertible, random_matrix,
    random_skew_tensor, rational, rational_nonzero, triangular_family_member,
)
from md3lie.deformation import is_o_operator
from md3lie.exactnum import Matrix
from md3lie.extension import (
    build_abelian_extension, extensions_equivalent, extract_cocycle,
    tstar_abelian_extension,
)
from md3lie.multilin import CochainCoordinates, SkewTernaryTensor, extract_skew_trilinear
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, ThreeLieAlgebra, adjoint_representation,
    coadjoint_representation, homomorphism_check, trivial_representation,
)


def coboundary(md, rep, iota):
    """(f, g) of the coboundary of the degree-1 cochain iota: a cocycle."""
    shift = ComplexAssembly(md, rep).apply_partial(
        TotalCochain(1, CochainCoordinates.from_linear_map(iota), None))
    return extract_skew_trilinear(shift.f), shift.g.to_linear_map()


def one_entry(rows, cols, i, j, value):
    return Matrix.from_entries(rows, cols, {(i, j): value})


def build_extensions():
    """Extensions of the example (adjoint and coadjoint), two determinant
    brackets, two triangular members, abelian n = 4 with a random action and
    a T* extension, each with zero, coboundary and random (f, g)."""
    rng = random.Random(1414)
    emd = example_md()
    ab4 = abelian_md(rng, 4)
    pairs = [("example/adjoint", emd, adjoint_representation(emd)),
             ("example/coadjoint", emd, coadjoint_representation(emd))]
    for t in range(2):
        md = det_bracket_md(rng)
        pairs.append((f"det{t}/adjoint", md, adjoint_representation(md)))
        md = triangular_family_member(rng)
        pairs.append((f"tri{t}/adjoint", md, adjoint_representation(md)))
    pairs.append(("ab4/random", ab4, random_action(rng, ab4, 2)))
    tstar_base = det_bracket_md(rng)
    pairs.append(("tstar-det", tstar_base, coadjoint_representation(tstar_base)))
    extensions = []
    for name, md, rep in pairs:
        n, m = md.n, rep.m
        data = {"zero": (SkewTernaryTensor.zero(n, m), Matrix.zeros(m, n)),
                "coboundary": coboundary(md, rep, random_matrix(rng, m, n)),
                "random": (random_skew_tensor(rng, n, m), random_matrix(rng, m, n))}
        for dname, (f, g) in data.items():
            if name == "tstar-det":
                ext = tstar_abelian_extension(md, f, g)
            else:
                ext = build_abelian_extension(md, rep, f, g)
            extensions.append((f"{name}/{dname}", ext))
    return extensions


EXTENSIONS = build_extensions()


def sections(ext, rng):
    n, m = ext.n, ext.m
    return [ext.canonical_section(), ext.section_from(random_matrix(rng, m, n)),
            ext.section_from(one_entry(m, n, m - 1, 0, rational_nonzero(rng)))]


@pytest.mark.parametrize("name, ext", EXTENSIONS, ids=[c[0] for c in EXTENSIONS])
def test_extract_cocycle_matches_the_dense_oracle(name, ext):
    rng = random.Random(name)
    for s in sections(ext, rng):
        got, want = extract_cocycle(ext, s), oracles.extract_cocycle(ext, s)
        assert got == want
        assert list(got.upsilon.values) == list(want.upsilon.values)


def test_the_extensions_reach_cocycles_and_non_cocycles():
    verdicts = {name.rsplit("/", 1)[1]: [] for name, _ in EXTENSIONS}
    for name, ext in EXTENSIONS:
        ec = extract_cocycle(ext, ext.canonical_section())
        verdicts[name.rsplit("/", 1)[1]].append(
            ComplexAssembly(ext.base, ec.rep).is_cocycle(ec.total()).valid)
    assert all(verdicts["zero"]) and not any(verdicts["random"])
    # a coboundary is a cocycle when the action is a representation; the
    # random action on the abelian algebra is not one
    assert verdicts["coboundary"] == [name != "ab4/random/coboundary"
                                      for name, _ in EXTENSIONS
                                      if name.endswith("/coboundary")]


def homomorphism_cases():
    rng = random.Random(1415)
    emd = example_md()
    det = det_bracket_md(rng)
    ab4 = abelian_md(rng, 4)
    ab4_zero_d = MD3LieAlgebra(ab4.algebra, ModifiedDifferential(ab4.lam, Matrix.zeros(4, 4)))
    eta4 = random_matrix(rng, 4, 4)
    cases = [("example/identity", Matrix.identity(3), emd, emd),
             ("example/zero-to-det", Matrix.zeros(3, 3), emd, det),
             ("example/random", random_matrix(rng, 3, 3), emd, emd),
             ("det/random", random_matrix(rng, 3, 3), det, det),
             # every map respects the abelian bracket; only the one with
             # d = 0 intertwines the differentials
             ("ab4/random", eta4, ab4, ab4),
             ("ab4-zero-d/random", eta4, ab4_zero_d, ab4_zero_d)]
    for name, ext in EXTENSIONS[::2]:
        module = MD3LieAlgebra(ThreeLieAlgebra.abelian(ext.m),
                               ModifiedDifferential(ext.base.lam, ext.rep.d_M))
        cases += [(f"{name}/inclusion", ext.inclusion, module, ext.total),
                  (f"{name}/projection", ext.projection, ext.total, ext.base)]
    return cases


def equivalence_cases():
    """Pairs of extensions whose (f, g) differ by a coboundary, over random
    (f, g), so ``extensions_equivalent`` returns an isomorphism."""
    rng = random.Random(1417)
    emd, det = example_md(), det_bracket_md(rng)
    cases = []
    for name, md, rep in (("example", emd, adjoint_representation(emd)),
                          ("det", det, coadjoint_representation(det))):
        f, g = coboundary(md, rep, random_matrix(rng, 3, 3))
        base_f, base_g = random_skew_tensor(rng, 3, 3), random_matrix(rng, 3, 3)
        cases.append((name, build_abelian_extension(md, rep, base_f, base_g),
                      build_abelian_extension(md, rep, base_f + f, base_g + g)))
    return cases


HOMOMORPHISMS = homomorphism_cases()
EQUIVALENCES = equivalence_cases()


@pytest.mark.parametrize("name, eta, src, dst", HOMOMORPHISMS,
                         ids=[c[0] for c in HOMOMORPHISMS])
def test_homomorphism_check_matches_the_dense_oracle(name, eta, src, dst):
    assert homomorphism_check(eta, src, dst) == oracles.homomorphism_check(eta, src, dst)


@pytest.mark.parametrize("name, ext1, ext2", EQUIVALENCES, ids=[c[0] for c in EQUIVALENCES])
def test_equivalence_witness_matches_the_dense_oracle(name, ext1, ext2):
    eta = extensions_equivalent(ext1, ext2)
    assert eta is not None
    # the witness with one entry changed is no longer a homomorphism
    bumped = eta + one_entry(6, 6, 4, 1, 1)
    verdicts = [homomorphism_check(m, ext1.total, ext2.total) for m in (eta, bumped)]
    assert verdicts == [oracles.homomorphism_check(m, ext1.total, ext2.total)
                        for m in (eta, bumped)]
    assert verdicts == [True, False]


def test_the_homomorphism_cases_reach_both_verdicts():
    verdicts = {name: homomorphism_check(eta, src, dst)
                for name, eta, src, dst in HOMOMORPHISMS}
    assert verdicts["example/identity"] and verdicts["example/zero-to-det"]
    assert not verdicts["example/random"]
    # a map that respects the bracket but not d
    assert not verdicts["ab4/random"] and verdicts["ab4-zero-d/random"]
    assert all(v for name, v in verdicts.items() if name.endswith(("inclusion", "projection")))


def o_operator_cases():
    """Zero, random and the valid relative operators of the deformation
    tests, on module dimensions 3 and 4."""
    rng = random.Random(1416)
    emd = example_md()
    adjoint = adjoint_representation(emd)
    cases = [("example/adjoint/zero", emd, adjoint, Matrix.zeros(3, 3)),
             ("example/adjoint/diag11m1", emd, adjoint, Matrix.diagonal([1, 1, -1])),
             ("example/adjoint/identity", emd, adjoint, Matrix.identity(3)),
             ("example/adjoint/random", emd, adjoint, random_matrix(rng, 3, 3))]
    ab3 = abelian_md(rng, 3)
    vacuous = MD3LieAlgebra(ab3.algebra, ModifiedDifferential(rational(rng), Matrix.zeros(3, 3)))
    cases.append(("abelian-zero-d/trivial/invertible", vacuous,
                  trivial_representation(vacuous, 3, Matrix.zeros(3, 3)),
                  random_invertible(rng, 3)))
    rep4 = random_action(rng, emd, 4)
    cases += [("example/random-m4/zero", emd, rep4, Matrix.zeros(3, 4)),
              ("example/random-m4/random", emd, rep4, random_matrix(rng, 3, 4))]
    for t in range(2):
        md = det_bracket_md(rng)
        rep = coadjoint_representation(md)
        cases.append((f"det{t}/coadjoint/random", md, rep, random_matrix(rng, 3, 3)))
        md = triangular_family_member(rng)
        rep = trivial_representation(md, 4, random_matrix(rng, 4, 4))
        cases.append((f"tri{t}/trivial-m4/random", md, rep, random_matrix(rng, 3, 4)))
    return cases


O_OPERATORS = o_operator_cases()


@pytest.mark.parametrize("name, md, rep, R", O_OPERATORS, ids=[c[0] for c in O_OPERATORS])
def test_is_o_operator_matches_the_dense_oracle(name, md, rep, R):
    assert is_o_operator(md, rep, R) == oracles.is_o_operator(md, rep, R)


def test_the_o_operator_cases_reach_both_verdicts():
    reports = {name: is_o_operator(md, rep, R) for name, md, rep, R in O_OPERATORS}
    valid = {name for name, report in reports.items() if report.valid}
    assert valid == {"example/adjoint/zero", "example/adjoint/diag11m1",
                     "abelian-zero-d/trivial/invertible", "example/random-m4/zero"}
    laws = {v.law for report in reports.values() for v in report.violations}
    assert laws == {"differential intertwining", "relative bracket condition"}
    # the module dimension 4 cases fail on more than one triple
    assert len([v for v in reports["example/random-m4/random"].violations
                if v.law == "relative bracket condition"]) == 4

