"""The sparse verifiers against the dense oracles of ``oracles.py``.

Reports must agree in validity, law, argument tuple, both witness values and
order, on valid inputs, on inputs where every tuple fails, and on inputs
where the verifiers' skips of zero brackets and zero actions apply only in
part."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from conftest import invalid_bracket_md, random_action, random_md
from md3lie.corpus import (
    abelian_md, corrupt_representation, det_bracket_md, example_algebra, example_md,
    random_matrix, triangular_family_member,
)
from md3lie.exactnum import Matrix
from md3lie.multilin import SkewTernaryTensor
from md3lie.structures import (
    MD3LieAlgebra, ModifiedDifferential, Representation, ThreeLieAlgebra,
    adjoint_representation,
    coadjoint_representation, leibniz_data, semidirect_product,
    trivial_representation, verify_3lie, verify_leibniz,
    verify_modified_differential, verify_representation,
)

LAWS = ("bracket-pair action identity", "pair action commutator identity",
        "module differential compatibility")


def standard_reps(rng, md):
    return {
        "adjoint": adjoint_representation(md),
        "coadjoint": coadjoint_representation(md),
        "trivial": trivial_representation(md, 2, random_matrix(rng, 2, 2)),
    }


def partial_action(rng, md, m, pairs):
    """Random actions on the given pairs only, zero on the others."""
    return Representation(n=md.n, m=m, rho={p: random_matrix(rng, m, m) for p in pairs},
                          d_M=random_matrix(rng, m, m), lam=md.lam)


def build_cases():
    rng = random.Random(2024)
    cases = []

    def add(name, md, reps):
        cases.extend((f"{name}/{rname}", md, rep) for rname, rep in reps.items())

    dim3 = {"example": example_md()}
    for i in range(3):
        dim3[f"tri{i}"] = triangular_family_member(rng)
        dim3[f"det{i}"] = det_bracket_md(rng)
    for name, md in dim3.items():
        add(name, md, standard_reps(rng, md))
    for name in ("tri0", "det0"):
        sd = semidirect_product(dim3[name], adjoint_representation(dim3[name]))
        add(f"sd-{name}", sd, {"adjoint": adjoint_representation(sd),
                               "coadjoint": coadjoint_representation(sd)})
    for i in range(2):
        ab = abelian_md(rng, 6)
        add(f"ab6-{i}", ab, {"adjoint": adjoint_representation(ab),
                             "random": random_action(rng, ab, 2)})
    for name in ("example", "tri1"):
        md = dim3[name]
        for base in ("adjoint", "coadjoint"):
            rep = standard_reps(rng, md)[base]
            add(f"{name}/{base}-corrupt", md, {
                law: corrupt_representation(rng, md, rep, law) for law in LAWS})
    add("example-random", dim3["example"], {
        f"m{m}": random_action(rng, dim3["example"], m) for m in (1, 3)})
    rand5 = random_md(rng, 5)
    add("random5", rand5, {"adjoint": adjoint_representation(rand5),
                           "random": random_action(rng, rand5, 2)})
    bad = invalid_bracket_md(rng)
    add("invalid4", bad, {"adjoint": adjoint_representation(bad),
                          "coadjoint": coadjoint_representation(bad)})
    wrong_d = MD3LieAlgebra(example_algebra(),
                            ModifiedDifferential(Fraction(1), random_matrix(rng, 3, 3)))
    add("example-random-d", wrong_d, {"adjoint": adjoint_representation(wrong_d)})
    add("module-dim-0", dim3["example"], {
        "trivial": trivial_representation(dim3["example"], 0, Matrix.zeros(0, 0)),
        "random": random_action(rng, dim3["example"], 0)})
    for n in (1, 2):
        ab = abelian_md(rng, n)
        add(f"ab{n}", ab, {"adjoint": adjoint_representation(ab),
                           "random": random_action(rng, ab, 2)})
    # the skips apply in part: a zero bracket under a nonzero, invalid
    # action, on every pair or on two pairs that leave e_3 unacted on
    ab4 = abelian_md(rng, 4)
    add("ab4-partial", ab4, {"random": random_action(rng, ab4, 2),
                             "two-pairs": partial_action(rng, ab4, 2, [(0, 1), (1, 2)])})
    # exactly one nonzero triple, so three pairs of the 3-Lie check and of
    # the commutator identity are not skipped, and the triple (0, 1, 2) of
    # the differential rule reads its bracket through the pair (1, 2) alone
    one = MD3LieAlgebra(ThreeLieAlgebra(4, SkewTernaryTensor(4, 4, {
        (1, 2, 3): {0: Fraction(1), 2: Fraction(-2), 3: Fraction(1, 3)}})),
        ModifiedDifferential(Fraction(1, 2), random_matrix(rng, 4, 4)))
    add("one-triple", one, {"adjoint": adjoint_representation(one),
                            "coadjoint": coadjoint_representation(one),
                            "two-pairs": partial_action(rng, one, 2, [(0, 3), (2, 3)])})
    # d = 0: the rule reads lam [x, y, z] alone, which holds only at weight 0
    for lam in (0, 1):
        zero_d = MD3LieAlgebra(example_algebra(),
                               ModifiedDifferential(Fraction(lam), Matrix.zeros(3, 3)))
        add(f"example-d0-lam{lam}", zero_d, {
            "adjoint": adjoint_representation(zero_d),
            "random": random_action(rng, zero_d, 2)})
    return cases


CASES = build_cases()
IDS = [name for name, _, _ in CASES]
ALGEBRAS = {}
for _name, _md, _ in CASES:
    if all(md is not _md for md in ALGEBRAS.values()):
        ALGEBRAS[_name.split("/")[0]] = _md


def assert_same_report(got, want):
    assert got == want
    # witnesses keep their types: Fraction vectors or matrices
    for v in got.violations:
        for side in (v.lhs, v.rhs):
            assert isinstance(side, Matrix) or all(
                isinstance(c, Fraction) for c in side)


@pytest.mark.parametrize("name, md, rep", CASES, ids=IDS)
def test_verify_representation_matches_the_dense_oracle(name, md, rep):
    assert_same_report(verify_representation(md, rep),
                       oracles.verify_representation(md, rep))


@pytest.mark.parametrize("md", ALGEBRAS.values(), ids=ALGEBRAS.keys())
def test_algebra_verifiers_match_the_dense_oracle(md):
    assert_same_report(verify_3lie(md.algebra), oracles.verify_3lie(md.algebra))
    assert_same_report(verify_modified_differential(md),
                       oracles.verify_modified_differential(md))


@pytest.mark.parametrize("md", ALGEBRAS.values(), ids=ALGEBRAS.keys())
def test_leibniz_data_matches_the_dense_oracle(md):
    assert leibniz_data(md) == oracles.leibniz_data(md)


def broken_leibniz():
    """Leibniz data of the example with one bracket entry changed ([X_0, X_0]_F
    gets an X_0 coefficient of 1), and with d_F + I."""
    data = leibniz_data(ALGEBRAS["example"])
    bracket = {**data.bracket_F, (0, 0): ((0, Fraction(1)),)}
    return {"bracket-entry": replace(data, bracket_F=bracket),
            "d_F-plus-identity": replace(data, d_F=data.d_F + Matrix.identity(data.dim))}


@pytest.mark.parametrize("data", [leibniz_data(md) for md in ALGEBRAS.values()]
                         + list(broken_leibniz().values()),
                         ids=list(ALGEBRAS) + list(broken_leibniz()))
def test_verify_leibniz_matches_the_dense_oracle(data):
    assert_same_report(verify_leibniz(data), oracles.verify_leibniz(data))


def test_broken_leibniz_data_fails_its_law():
    laws = {name: {v.law for v in verify_leibniz(data).violations}
            for name, data in broken_leibniz().items()}
    assert laws == {"bracket-entry": {"Leibniz identity", "derivation property"},
                    "d_F-plus-identity": {"derivation property"}}


def test_the_cases_reach_every_law_and_both_verdicts():
    laws = {v.law for _, md, rep in CASES
            for v in verify_representation(md, rep).violations}
    assert laws == set(LAWS)
    assert any(verify_representation(md, rep).valid for _, md, rep in CASES)
    assert any(not verify_3lie(md.algebra).valid for md in ALGEBRAS.values())
    assert any(not verify_modified_differential(md).valid for md in ALGEBRAS.values())
    # on a random dense bracket every tuple fails except the 30 whose pair
    # lies inside the triple, where skewness alone gives the identity
    rand5 = ALGEBRAS["random5"]
    assert len(verify_3lie(rand5.algebra).violations) == 70


@pytest.mark.parametrize("name, md, rep", CASES[::3], ids=IDS[::3])
def test_rho_basis_matches_the_dense_oracle(name, md, rep):
    # _signed_actions lists rho(e_i, e_j) on exactly the ordered pairs whose
    # action is nonzero
    for i in range(md.n):
        for j in range(md.n):
            want = oracles.rho_basis(rep, i, j)
            assert rep._signed_actions.get((i, j)) == (None if want.is_zero else want)
