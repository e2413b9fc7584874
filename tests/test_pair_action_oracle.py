"""The pair-action constructions against the dense oracles of ``oracles.py``.

The adjoint representation, the metrised-form check, T*-cyclicity and the
semidirect product read pair-action matrices or stored values; the oracles
rebuild each one basis triple at a time from dense basis values.  Reports
must agree in validity, law, argument tuple, both values and order."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import oracles
from conftest import invalid_bracket_md, random_action, random_md
from md3lie.corpus import (
    abelian_md, det_bracket_md, example_md, random_matrix, random_skew_tensor,
    rational_nonzero, triangular_family_member,
)
from md3lie.exactnum import Matrix
from md3lie.extension import (
    hyperbolic_pairing, is_metrised, tstar_abelian_extension,
    tstar_cyclicity_check,
)
from md3lie.multilin import SkewTernaryTensor
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, ThreeLieAlgebra,
    adjoint_representation, coadjoint_representation, semidirect_product,
    trivial_representation,
)


def permutation_sign(perm):
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def cyclic_tensor(rng, n):
    """f(e_i, e_j, e_k)_l = w(e_i, e_j, e_k, e_l) for a random alternating
    4-form w, so every pair action of f is skew; zero when n < 4."""
    w = {quad: rational_nonzero(rng) for quad in combinations(range(n), 4)}
    values = {}
    for i, j, k in combinations(range(n), 3):
        val = {}
        for l in set(range(n)) - {i, j, k}:
            quad = (i, j, k, l)
            val[l] = permutation_sign(sorted(range(4), key=quad.__getitem__)) * w[
                tuple(sorted(quad))]
        values[i, j, k] = val
    return SkewTernaryTensor(n, n, values)


def build_algebras():
    rng = random.Random(1313)
    algebras = {"example": example_md()}
    for i in range(2):
        algebras[f"det{i}"] = det_bracket_md(rng)
        algebras[f"tri{i}"] = triangular_family_member(rng)
    algebras["ab4"] = abelian_md(rng, 4)
    algebras["invalid4"] = invalid_bracket_md(rng)
    algebras["random5"] = random_md(rng, 5)
    return algebras


ALGEBRAS = build_algebras()


def build_metrised_cases():
    rng = random.Random(1314)
    cases = []
    emd = ALGEBRAS["example"]
    forms = {"diag123": Matrix.diagonal([1, 2, 3]), "identity": Matrix.identity(3),
             "zero": Matrix.zeros(3, 3)}
    for t in range(3):
        a = random_matrix(rng, 3, 3)
        forms[f"symmetric{t}"] = a + a.transpose()
        forms[f"random{t}"] = random_matrix(rng, 3, 3)
    cases += [(f"example/{name}", emd, B) for name, B in forms.items()]
    for name in ("det0", "det1", "tri0", "tri1", "ab4"):
        md = ALGEBRAS[name]
        cases.append((f"{name}/identity", md, Matrix.identity(md.n)))
        for t in range(2):
            a = random_matrix(rng, md.n, md.n)
            cases += [(f"{name}/symmetric{t}", md, a + a.transpose()),
                      (f"{name}/random{t}", md, random_matrix(rng, md.n, md.n))]
    # a metrised case: any form is invariant for the abelian bracket, and a
    # skew d is skew for the identity
    a = random_matrix(rng, 4, 4)
    skew_d = MD3LieAlgebra(ThreeLieAlgebra.abelian(4),
                           ModifiedDifferential(Fraction(2), a - a.transpose()))
    cases.append(("ab4-skew-d/identity", skew_d, Matrix.identity(4)))
    return cases


def build_tstar_cases():
    """(f, g) on the example, a determinant bracket and a 4-dim algebra, so
    the total spaces have dimension 6 and 8: a cyclic and a random f, each
    with a skew and a non-skew g."""
    rng = random.Random(1315)
    cases = []
    for name in ("example", "det0", "invalid4"):
        md = ALGEBRAS[name]
        n = md.n
        a = random_matrix(rng, n, n)
        for fname, f in (("cyclic", cyclic_tensor(rng, n)),
                         ("random", random_skew_tensor(rng, n, n))):
            for gname, g in (("skew", a - a.transpose()),
                             ("nonskew", random_matrix(rng, n, n))):
                cases.append((f"{name}/{fname}-f/{gname}-g", md, f, g))
    return cases


METRISED = build_metrised_cases()
TSTAR = build_tstar_cases()


def assert_same_report(got, want):
    assert got == want
    for v in got.violations:
        if v.law == "bracket invariance":
            assert isinstance(v.lhs, Fraction) and isinstance(v.rhs, Fraction)


@pytest.mark.parametrize("md", ALGEBRAS.values(), ids=ALGEBRAS.keys())
def test_adjoint_representation_matches_the_dense_oracle(md):
    assert adjoint_representation(md) == oracles.adjoint_representation(md)


@pytest.mark.parametrize("name, md, B", METRISED, ids=[c[0] for c in METRISED])
def test_is_metrised_matches_the_dense_oracle(name, md, B):
    assert_same_report(is_metrised(md, B), oracles.is_metrised(md, B))


@pytest.mark.parametrize("name, md, f, g", TSTAR, ids=[c[0] for c in TSTAR])
def test_tstar_checks_match_the_dense_oracles(name, md, f, g):
    total = tstar_abelian_extension(md, f, g).total
    varpi = hyperbolic_pairing(md.n)
    report = is_metrised(total, varpi)
    assert_same_report(report, oracles.is_metrised(total, varpi))
    cyclic = tstar_cyclicity_check(f, g)
    assert cyclic == oracles.tstar_cyclicity_check(f, g)
    # the hyperbolic pairing metrises the extension exactly when (f, g) is cyclic
    assert cyclic == report.valid


def test_the_cases_reach_both_verdicts():
    assert {is_metrised(md, B).valid for _, md, B in METRISED} == {True, False}
    verdicts = [tstar_cyclicity_check(f, g) for _, _, f, g in TSTAR]
    assert verdicts.count(True) == 3 and verdicts.count(False) == 9
    # a nonzero cyclic f on the 4-dim algebra, whose pair actions are skew
    f = next(f for name, _, f, _ in TSTAR if name.startswith("invalid4/cyclic"))
    assert not f.is_zero
    assert all(f.pair_action(i, j) == -f.pair_action(i, j).transpose()
               for i, j in permutations(range(4), 2))


def semidirect_cases():
    rng = random.Random(1316)
    for name, md in ALGEBRAS.items():
        reps = {"adjoint": adjoint_representation(md),
                "coadjoint": coadjoint_representation(md),
                "trivial": trivial_representation(md, 2, random_matrix(rng, 2, 2)),
                "random": random_action(rng, md, 2)}
        for rname, rep in reps.items():
            yield pytest.param(md, rep, id=f"{name}/{rname}")


@pytest.mark.parametrize("md, rep", semidirect_cases())
def test_semidirect_product_matches_the_dense_oracle(md, rep):
    got, want = semidirect_product(md, rep), oracles.semidirect_product(md, rep)
    assert got == want
    # stored in the same order: documents and sums read the values in order
    assert list(got.algebra.bracket.values) == list(want.algebra.bracket.values)
