import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import md3lie
from md3lie import cli, cohomology, documents as docs, extension
from md3lie.cli import run_command
from md3lie.corpus import abelian_md, example_md
from md3lie.errors import InputError, ParseError
from md3lie.exactnum import Matrix
from md3lie.extension import tstar_abelian_extension
from md3lie.multilin import SkewTernaryTensor
from md3lie.structures import (
    adjoint_representation, trivial_representation, verify_3lie,
    verify_modified_differential,
)


@pytest.fixture()
def workspace(tmp_path):
    md = example_md()
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        docs.dump_json(str(p), doc)
        paths[name] = str(p)
        return str(p)

    write("example.json", docs.algebra_to_doc(md))
    write("adjoint.json", docs.representation_to_doc(adjoint_representation(md)))
    write("e13.json", docs.matrix_to_doc(
        Matrix(3, 3, [0, 0, 1, 0, 0, 0, 0, 0, 0])))
    write("diag011m1.json", docs.matrix_to_doc(Matrix.diagonal([0, 1, -1])))
    write("zeros.json", docs.matrix_to_doc(Matrix.zeros(3, 3)))
    write("zero_tensor.json", docs.tensor_to_doc(SkewTernaryTensor.zero(3, 3)))
    return tmp_path, paths


def run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


# ---------------------------------------------------------------------------
# documents


def test_scalar_strings():
    assert docs.parse_scalar("-3/6", "x") == Fraction(-1, 2)
    assert docs.scalar_str(Fraction(2, 4)) == "1/2"
    for bad in ["", "1.5", "1/-2", "a", "1/0", 3, "1\n", "\u0661", "1/\u0662"]:
        with pytest.raises(ParseError):
            docs.parse_scalar(bad, "x")


@given(st.fractions(min_value=-100, max_value=100, max_denominator=97))
@settings(max_examples=50, deadline=None)
def test_scalar_round_trip(x):
    assert docs.parse_scalar(docs.scalar_str(x), "x") == x


def chunked_scalar_str(x):
    """scalar_str as it printed every scalar before its short-integer path:
    Fraction(x) rebuilt, then every integer through 600-digit chunks."""
    def int_str(k):
        rest, chunks = abs(k), []
        while rest >= docs._CHUNK:
            rest, low = divmod(rest, docs._CHUNK)
            chunks.append(f"{low:0{docs._CHUNK_DIGITS}d}")
        return ("-" if k < 0 else "") + str(rest) + "".join(reversed(chunks))

    x = Fraction(x)
    den = "" if x.denominator == 1 else "/" + int_str(x.denominator)
    return int_str(x.numerator) + den


def test_scalar_strings_are_the_chunked_ones():
    """The same bytes as the chunked printer on random fractions and ints,
    at the chunk boundary, and past the 4,300 digits str() prints."""
    rng = random.Random(17)
    chunk = docs._CHUNK
    values = [0, 1, -1, chunk - 1, chunk, chunk + 1, -chunk, Fraction(1, chunk),
              Fraction(-(chunk - 1), chunk + 1), True]
    for digits in (1, 5, 40, 599, 600, 601, 1200, 4300, 5000, 9001):
        for _ in range(4):
            num = rng.randrange(10 ** digits) * rng.choice((1, -1))
            den = rng.randrange(1, 10 ** rng.choice((1, digits)))
            values += [num, Fraction(num, den)]
    for x in values:
        assert docs.scalar_str(x) == chunked_scalar_str(x), x


def test_algebra_round_trip():
    md = example_md()
    doc = docs.algebra_to_doc(md)
    assert docs.algebra_from_doc(doc) == md
    # canonicalization: serialize(parse(doc)) is stable
    assert docs.algebra_to_doc(docs.algebra_from_doc(doc)) == doc


def test_text_level_parse_and_serialize():
    md = example_md()
    text = docs.serialize_algebra(md)
    assert docs.parse_algebra(text) == md
    with pytest.raises(ParseError):
        docs.parse_algebra("{oops")


def test_serialize_canonicalizes():
    doc = {"dim": 4,
           "bracket": [
               {"args": [2, 3, 4], "value": {"1": "2/4"}},
               {"args": [1, 2, 3], "value": {"2": "3", "1": "0"}},
           ],
           "lambda": "-2/6",
           "differential": [["0"] * 4] * 4}
    out = docs.algebra_to_doc(docs.algebra_from_doc(doc))
    assert [e["args"] for e in out["bracket"]] == [[1, 2, 3], [2, 3, 4]]
    assert out["bracket"][1]["value"] == {"1": "1/2"}  # reduced scalar
    assert out["bracket"][0]["value"] == {"2": "3"}    # zero entry dropped
    assert out["lambda"] == "-1/3"


def test_empty_bracket_is_abelian():
    doc = {"dim": 2, "bracket": [], "lambda": "1/3",
           "differential": [["1", "0"], ["0", "1"]]}
    md = docs.algebra_from_doc(doc)
    assert md.algebra.bracket.is_zero and md.lam == Fraction(1, 3)


def test_parse_errors_carry_location():
    base = {"dim": 3, "bracket": [], "lambda": "0",
            "differential": [["0"] * 3] * 3}
    bad_scalar = dict(base, **{"lambda": "0.5"})
    with pytest.raises(ParseError, match="lambda"):
        docs.algebra_from_doc(bad_scalar)
    bad_index = dict(base, bracket=[{"args": [1, 2, 4], "value": {"1": "1"}}])
    with pytest.raises(ParseError, match="out of range"):
        docs.algebra_from_doc(bad_index)
    unordered = dict(base, bracket=[{"args": [2, 1, 3], "value": {"1": "1"}}])
    with pytest.raises(ParseError, match="strictly increasing"):
        docs.algebra_from_doc(unordered)
    duplicate = dict(base, bracket=[
        {"args": [1, 2, 3], "value": {"1": "1"}},
        {"args": [1, 2, 3], "value": {"1": "2"}},
    ])
    with pytest.raises(ParseError, match="duplicate"):
        docs.algebra_from_doc(duplicate)


def test_parsing_does_not_verify_axioms():
    # an invalid weight parses fine; verification is a separate command
    doc = docs.algebra_to_doc(example_md())
    doc["lambda"] = "0"
    md = docs.algebra_from_doc(doc)
    assert md.lam == 0


# ---------------------------------------------------------------------------
# commands


def test_verify_command(workspace, capsys):
    tmp, paths = workspace
    code, report = run(capsys, ["verify", paths["example.json"]])
    assert code == 0 and report["valid"] is True
    assert report["schema"] == "md3lie-report/1"
    code, report = run(capsys, ["verify", paths["example.json"],
                                "--rep", "adjoint"])
    assert code == 0 and report["checks"]["representation"] is True
    code, report = run(capsys, ["verify", paths["example.json"],
                                "--rep", paths["adjoint.json"]])
    assert code == 0


def test_verify_invalid_exits_one(workspace, capsys):
    tmp, paths = workspace
    doc = docs.load_json(paths["example.json"])
    doc["lambda"] = "0"
    bad = tmp / "bad.json"
    docs.dump_json(str(bad), doc)
    code, report = run(capsys, ["verify", str(bad)])
    assert code == 1 and report["valid"] is False
    assert report["witnesses"][0]["law"] == "modified differential rule"
    assert report["witnesses"][0]["args"] == [1, 2, 3]


def test_cohomology_command(workspace, capsys):
    tmp, paths = workspace
    code, report = run(capsys, ["cohomology", paths["example.json"],
                                "--rep", "adjoint", "--degree", "1"])
    assert code == 0
    assert (report["z_dim"], report["b_dim"], report["h_dim"]) == (2, 0, 2)
    code, report = run(capsys, ["cohomology", paths["example.json"],
                                "--rep", "adjoint", "--degree", "1",
                                "--representatives"])
    assert len(report["representatives"]) == 2
    assert report["representatives"][0]["g"] is None


def test_dims_only_report_matches_the_representatives_report(workspace, capsys):
    """Without --representatives the report is the --representatives report
    minus its argv and representatives, byte for byte."""
    tmp, paths = workspace
    ab4 = tmp / "ab4.json"
    docs.dump_json(str(ab4), docs.algebra_to_doc(abelian_md(random.Random(5), 4)))
    runs = [(paths["example.json"], rep, q)
            for rep in ("adjoint", "coadjoint") for q in (1, 2, 3)]
    runs.append((str(ab4), "adjoint", 2))
    for path, rep, q in runs:
        argv = ["cohomology", path, "--rep", rep, "--degree", str(q)]
        texts = []
        for extra in ([], ["--representatives"]):
            assert run_command(argv + extra) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            doc = json.loads(captured.out)
            assert doc.pop("argv") == argv + extra
            doc.pop("representatives", None)
            texts.append(json.dumps(doc, indent=2))
        assert texts[0] == texts[1], (path, rep, q)


def test_one_parser_serves_every_call(workspace, capsys, monkeypatch):
    tmp, paths = workspace
    argv = ["cohomology", paths["example.json"], "--rep", "adjoint", "--degree", "1"]
    assert run_command(argv + ["--representatives"]) == 0
    assert "representatives" in json.loads(capsys.readouterr().out)
    monkeypatch.setattr(cli, "build_parser", None)  # no second build
    assert run_command(argv) == 0
    assert "representatives" not in json.loads(capsys.readouterr().out)
    for bad in (["cohomology", paths["example.json"], "--degree", "1"],
                argv[:-1] + ["x"], ["no-such-command"]):
        assert run_command(bad) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
    assert run_command(argv) == 0
    assert "representatives" not in json.loads(capsys.readouterr().out)


def test_nijenhuis_check_command(workspace, capsys):
    tmp, paths = workspace
    code, report = run(capsys, ["nijenhuis-check", paths["example.json"],
                                "--op", paths["e13.json"]])
    assert code == 1 and not report["valid"]
    assert report["witnesses"][0]["law"] == "differential commutation"


def test_o_operator_check_command(workspace, capsys):
    tmp, paths = workspace
    good = tmp / "r.json"
    docs.dump_json(str(good), docs.matrix_to_doc(Matrix.diagonal([1, 1, -1])))
    code, report = run(capsys, ["o-operator-check", paths["example.json"],
                                "--rep", "adjoint", "--op", str(good)])
    assert code == 0 and report["valid"]


def test_deform_check_command(workspace, capsys):
    tmp, paths = workspace
    d1 = tmp / "d1.json"
    docs.dump_json(str(d1), docs.matrix_to_doc(Matrix.diagonal([1, 0, 0])))
    code, report = run(capsys, ["deform-check", paths["example.json"],
                                "--nu1", paths["zero_tensor.json"],
                                "--d1", str(d1)])
    assert code == 0 and report["valid"]
    e21 = tmp / "e21.json"
    docs.dump_json(str(e21), docs.matrix_to_doc(
        Matrix(3, 3, [0, 0, 0, 1, 0, 0, 0, 0, 0])))
    code, report = run(capsys, ["deform-check", paths["example.json"],
                                "--nu1", paths["zero_tensor.json"],
                                "--d1", str(e21)])
    assert code == 1
    assert report["witnesses"][0]["law"] == "differential rule at order 1"


def test_extend_extract_equiv_pipeline(workspace, capsys):
    tmp, paths = workspace
    code, ext_report = run(capsys, ["extend", paths["example.json"],
                                    "--rep", "adjoint",
                                    "--f", paths["zero_tensor.json"],
                                    "--g", paths["diag011m1.json"]])
    assert code == 0 and ext_report["valid"]
    ext1 = tmp / "ext1.json"
    docs.dump_json(str(ext1), ext_report["extension"])

    section = tmp / "section.json"
    canonical = Matrix.block([[Matrix.identity(3)], [Matrix.zeros(3, 3)]])
    docs.dump_json(str(section), docs.matrix_to_doc(canonical))
    code, report = run(capsys, ["extract-cocycle", str(ext1),
                                "--section", str(section)])
    assert code == 0 and report["is_cocycle"]
    assert report["mu"] == docs.matrix_to_doc(Matrix.diagonal([0, 1, -1]))

    code, ext0_report = run(capsys, ["extend", paths["example.json"],
                                     "--rep", "adjoint",
                                     "--f", paths["zero_tensor.json"],
                                     "--g", paths["zeros.json"]])
    ext0 = tmp / "ext0.json"
    docs.dump_json(str(ext0), ext0_report["extension"])
    code, report = run(capsys, ["equiv-check", str(ext1), str(ext0)])
    assert code == 1 and report["equivalent"] is False
    code, report = run(capsys, ["equiv-check", str(ext1), str(ext1)])
    assert code == 0 and report["isomorphism"] == docs.matrix_to_doc(
        Matrix.identity(6))


def test_extract_cocycle_refuses_a_map_that_is_not_a_section(workspace, capsys):
    tmp, paths = workspace
    code, ext_report = run(capsys, ["extend", paths["example.json"],
                                    "--rep", "adjoint",
                                    "--f", paths["zero_tensor.json"],
                                    "--g", paths["diag011m1.json"]])
    assert code == 0
    ext = tmp / "ext.json"
    docs.dump_json(str(ext), ext_report["extension"])
    # a 6x3 matrix that projects to diag(1, 1, 0)
    section = tmp / "not_a_section.json"
    docs.dump_json(str(section), docs.matrix_to_doc(Matrix.block(
        [[Matrix.diagonal([1, 1, 0])], [Matrix.identity(3)]])))
    assert run_command(["extract-cocycle", str(ext), "--section", str(section)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "map is not a section of the projection" in captured.err


def test_tstar_and_metrised_commands(workspace, capsys):
    tmp, paths = workspace
    code, report = run(capsys, ["tstar", paths["example.json"]])
    assert code == 0 and report["valid"]
    total = tmp / "tstar.json"
    docs.dump_json(str(total), report["algebra"])
    varpi = tmp / "varpi.json"
    docs.dump_json(str(varpi), report["varpi"])
    code, report = run(capsys, ["metrised-check", str(total),
                                "--form", str(varpi)])
    assert code == 0 and report["valid"]
    ident = tmp / "ident.json"
    docs.dump_json(str(ident), docs.matrix_to_doc(Matrix.identity(3)))
    code, report = run(capsys, ["metrised-check", paths["example.json"],
                                "--form", str(ident)])
    assert code == 1 and not report["valid"]


def test_usage_and_input_errors_exit_two(workspace, capsys, tmp_path):
    tmp, paths = workspace
    assert run_command(["no-such-command"]) == 2
    capsys.readouterr()
    assert run_command(["verify", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert run_command(["verify", str(broken)]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    docs.dump_json(str(bad), {"dim": 3, "bracket": [
        {"args": [1, 2, 3], "value": {"1": "0.25"}}],
        "lambda": "0", "differential": [["0"] * 3] * 3})
    assert run_command(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed scalar" in err
    invalid_utf8 = tmp_path / "invalid_utf8.json"
    invalid_utf8.write_bytes(b'{"dim": 3, "lambda": "\xff\xfe"}')
    assert run_command(["verify", str(invalid_utf8)]) == 2
    assert "error" in capsys.readouterr().err
    # deeper than the JSON decoder recurses
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert run_command(["verify", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err

    # dimension 1, so a boolean true would otherwise read as a matching 1
    line = {"dim": 1, "bracket": [], "lambda": "0", "differential": [["0"]]}
    line_path = tmp_path / "line.json"
    docs.dump_json(str(line_path), line)
    malformed = {
        "dim_true.json": (["verify"], dict(line, dim=True)),
        "module_dim_true.json": (
            ["verify", str(line_path), "--rep"],
            {"module_dim": True, "rho": [], "d_M": [["0"]]}),
        "dim_in_true.json": (
            ["deform-check", str(line_path), "--nu1"],
            {"dim_in": True, "dim_out": 1, "values": []}),
        "dim_out_true.json": (
            ["deform-check", str(line_path), "--nu1"],
            {"dim_in": 1, "dim_out": True, "values": []}),
    }
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # without a limit every length reads and prints
        malformed["long_scalar.json"] = (
            ["verify"], dict(line, **{"lambda": "1" * (limit + 1)}))
    # "01" would name the same index as "1", and one value would be lost
    for key in ["+1", " 1", "0_1", "1_0", "01"]:
        malformed[f"key_{key!r}.json"] = (["verify"], {
            "dim": 3, "bracket": [{"args": [1, 2, 3], "value": {key: "1"}}],
            "lambda": "0", "differential": [["0"] * 3] * 3})
    for name, (argv, doc) in malformed.items():
        path = tmp_path / name
        docs.dump_json(str(path), doc)
        assert run_command(argv + [str(path)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err, name


def _parse_long_scalar(text):
    """The scalar a report string names, read in pieces short enough for
    int(), so the interpreter's limit on digits does not apply."""
    def parse_int(digits):
        sign = -1 if digits.startswith("-") else 1
        digits = digits.lstrip("-")
        value = 0
        for i in range(0, len(digits), 100):
            piece = digits[i:i + 100]
            value = value * 10 ** len(piece) + int(piece)
        return sign * value

    num, _, den = text.partition("/")
    return Fraction(parse_int(num), parse_int(den or "1"))


def test_long_witnesses_print_in_full(tmp_path, capsys):
    # entries that parse, but whose squares in the witnesses are longer than
    # str() prints under the interpreter's limit on digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    big = str(10 ** (2 * limit // 3))
    doc = {"dim": 4, "bracket": [
        {"args": [1, 2, 3], "value": {"1": big}},
        {"args": [1, 2, 4], "value": {"4": big}}],
        "lambda": "0", "differential": [["0"] * 4] * 4}
    path = tmp_path / "long_witness.json"
    docs.dump_json(str(path), doc)
    code, report = run(capsys, ["verify", str(path)])
    assert code == 1 and not report["valid"]
    md = docs.algebra_from_doc(doc, "long_witness")
    expected = (verify_3lie(md.algebra).violations
                + verify_modified_differential(md).violations)
    assert len(report["witnesses"]) == len(expected) > 0
    longest = 0
    for w, v in zip(report["witnesses"], expected):
        assert (w["law"], w["args"]) == (v.law, [a + 1 for a in v.args])
        for side, value in ((w["lhs"], v.lhs), (w["rhs"], v.rhs)):
            assert [_parse_long_scalar(c) for c in side] == list(value)
            longest = max(longest, *(len(c) for c in side))
    assert longest > limit


def test_oversized_matrix_is_refused_before_assembly(workspace, capsys,
                                                    monkeypatch):
    tmp, paths = workspace
    # the dim-3 adjoint complex: 36 x 9 in degree 1, 108 x 36 in degree 2
    monkeypatch.setattr(cohomology, "MAX_DENSE_ENTRIES", 1000)
    argv = ["cohomology", paths["example.json"], "--rep", "adjoint", "--degree"]
    assert run_command(argv + ["1"]) == 0
    capsys.readouterr()
    assert run_command(argv + ["2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget" in captured.err
    asm = cohomology.ComplexAssembly(example_md(), adjoint_representation(example_md()))
    with pytest.raises(InputError, match="budget"):
        asm.delta_matrix(2)  # 81 x 27
    # a degree past the cap is refused before any dimension is computed
    monkeypatch.setattr(cohomology, "cochain_dim", None)
    for q in (cohomology.MAX_DEGREE + 1, 10 ** 12):
        for method in (asm.delta_matrix, asm.phi_matrix, asm.partial_matrix):
            with pytest.raises(InputError, match="maximum"):
                method(q)
        assert run_command(argv + [str(q)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "maximum" in captured.err


def test_abelian_five_in_degree_three_is_refused_by_the_budget(tmp_path, capsys):
    # det Phi_3 is certified without building Phi_3, but the 27500 x 2750
    # total differential is still refused before it is assembled
    path = tmp_path / "ab5.json"
    md = abelian_md(random.Random("md3lie-bench/ab5-0"), 5)
    docs.dump_json(str(path), docs.algebra_to_doc(md))
    argv = ["cohomology", str(path), "--rep", "adjoint", "--degree", "3"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "md3lie: error: a 27500 x 2750 matrix exceeds the assembly budget of "
        "10000000 dense entries; ask for a lower degree\n")


def test_cohomology_degree_zero_is_usage_error(workspace, capsys):
    tmp, paths = workspace
    assert run_command(["cohomology", paths["example.json"],
                        "--rep", "adjoint", "--degree", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_reports_are_deterministic(workspace, capsys):
    tmp, paths = workspace
    code, ext_report = run(capsys, ["extend", paths["example.json"],
                                    "--rep", "adjoint",
                                    "--f", paths["zero_tensor.json"],
                                    "--g", paths["diag011m1.json"]])
    ext = tmp / "det_ext.json"
    docs.dump_json(str(ext), ext_report["extension"])
    section = tmp / "det_section.json"
    docs.dump_json(str(section), docs.matrix_to_doc(
        Matrix.block([[Matrix.identity(3)], [Matrix.zeros(3, 3)]])))
    form = tmp / "det_form.json"
    docs.dump_json(str(form), docs.matrix_to_doc(Matrix.identity(3)))
    commands = [
        ["verify", paths["example.json"], "--rep", "adjoint"],
        ["cohomology", paths["example.json"], "--rep", "adjoint",
         "--degree", "2", "--representatives"],
        ["deform-check", paths["example.json"],
         "--nu1", paths["zero_tensor.json"]],
        ["nijenhuis-check", paths["example.json"], "--op", paths["e13.json"]],
        ["o-operator-check", paths["example.json"], "--rep", "adjoint",
         "--op", paths["diag011m1.json"]],
        ["extend", paths["example.json"], "--rep", "adjoint",
         "--f", paths["zero_tensor.json"], "--g", paths["diag011m1.json"]],
        ["extract-cocycle", str(ext), "--section", str(section)],
        ["equiv-check", str(ext), str(ext)],
        ["tstar", paths["example.json"]],
        ["metrised-check", paths["example.json"], "--form", str(form)],
    ]
    for argv in commands:
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        assert first == second and first


def test_extension_document_round_trip(workspace):
    """parse(serialize(x)) is the identity, also for an extension by the zero
    module: its 0 x 3 g serializes as [], which shows no column count, and
    parsing takes the expected one."""
    md = example_md()
    zero_module = trivial_representation(md, 0, Matrix.zeros(0, 0))
    for ext in (tstar_abelian_extension(md, SkewTernaryTensor.zero(3, 3),
                                        Matrix.zeros(3, 3)),
                extension.build_abelian_extension(
                    md, zero_module, SkewTernaryTensor.zero(3, 0), Matrix.zeros(0, 3))):
        doc = docs.extension_to_doc(ext)
        back = docs.extension_from_doc(doc)
        assert back.total == ext.total
        assert back.cocycle_f == ext.cocycle_f and back.cocycle_g == ext.cocycle_g
        assert docs.extension_to_doc(back) == doc
    assert doc["g"] == []
    assert docs.matrix_from_doc([], "g") == Matrix.zeros(0, 0)
    with pytest.raises(ParseError, match="expected 2 rows, found 0"):
        docs.matrix_from_doc([], "g", rows=2, cols=3)


def test_extend_takes_a_zero_module(workspace, capsys):
    tmp, paths = workspace
    md = example_md()
    rep = docs.representation_to_doc(
        trivial_representation(md, 0, Matrix.zeros(0, 0)))
    rep_path = str(tmp / "zero_module.json")
    f_path, g_path = str(tmp / "f0.json"), str(tmp / "g0.json")
    docs.dump_json(rep_path, rep)
    docs.dump_json(f_path, docs.tensor_to_doc(SkewTernaryTensor.zero(3, 0)))
    docs.dump_json(g_path, docs.matrix_to_doc(Matrix.zeros(0, 3)))
    code, report = run(capsys, ["extend", paths["example.json"], "--rep", rep_path,
                                "--f", f_path, "--g", g_path])
    assert code == 0 and report["valid"]
    assert report["extension"]["g"] == []
    ext_path = str(tmp / "ext0.json")
    docs.dump_json(ext_path, report["extension"])
    code, report = run(capsys, ["equiv-check", ext_path, ext_path])
    assert code == 0 and report["equivalent"]


def test_python_dash_m_runs_the_cli(workspace):
    tmp, paths = workspace
    src = Path(md3lie.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "md3lie", "verify", paths["example.json"]],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "verify" and report["valid"] is True


def test_internal_error_exits_three(workspace, capsys, monkeypatch):
    tmp, paths = workspace
    code, ext_report = run(capsys, ["extend", paths["example.json"],
                                    "--rep", "adjoint",
                                    "--f", paths["zero_tensor.json"],
                                    "--g", paths["diag011m1.json"]])
    assert code == 0
    ext = tmp / "ext.json"
    docs.dump_json(str(ext), ext_report["extension"])
    argv = ["equiv-check", str(ext), str(ext)]
    # an extension is equivalent to itself; a witness that fails the
    # homomorphism check is an internal error, not a verdict
    monkeypatch.setattr(extension, "homomorphism_check", lambda *args: False)
    assert run_command(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("md3lie: internal error: ")
    assert captured.err.count("\n") == 1
    assert "coboundary witness did not produce an isomorphism" in captured.err

    def out_of_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(extension, "homomorphism_check", out_of_memory)
    assert run_command(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "md3lie: internal error: MemoryError\n")


# ---------------------------------------------------------------------------
# the exit-code contract under malformed documents

# JSON text put in place of a marker leaf after serialization: nesting
# deeper than the decoder recurses, a number longer than int() reads, floats
_RAW = ["[" * 100_000 + "]" * 100_000, "9" * 5000, "1e999", "NaN", "-0"]
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(-2, 2),
    st.sampled_from(["", "0", "-1/2", "1/0", "1.5", "x", "01", "true"]),
    st.integers(4000, 5000).map(lambda k: "7" * k),
    st.sampled_from([f"\x00raw{i}" for i in range(len(_RAW))]),
    st.lists(st.integers(-1, 5), max_size=4),
    st.dictionaries(st.sampled_from(["1", "3", "4", "01"]),
                    st.sampled_from(["1", "-2/3", "0"]), max_size=3),
)
_TARGETS = [("verify", "algebra"), ("verify", "rep"),
            ("deform-check", "algebra"), ("deform-check", "tensor"),
            ("cohomology", "algebra"), ("cohomology", "rep"),
            ("extend", "tensor"), ("tstar", "tensor"),
            ("extract-cocycle", "extension"), ("equiv-check", "extension")]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = data.draw(st.sampled_from(["delete", "replace", "duplicate"]))
    if kind == "delete":
        del parent[key]
    elif kind == "replace":
        parent[key] = data.draw(_LEAVES)
    elif isinstance(parent, list):  # a duplicate entry or index
        parent.append(copy.deepcopy(parent[key]))
    else:  # a field given twice, as JSON has no repeated keys
        parent[key] = [parent[key], parent[key]]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_malformed_documents_keep_the_exit_contract(data):
    md = example_md()
    tensor = SkewTernaryTensor(3, 3, {(0, 1, 2): {0: 1, 1: 2}})
    g = Matrix.diagonal([0, 1, -1])
    ext = docs.extension_to_doc(extension.build_abelian_extension(
        md, adjoint_representation(md), tensor, g))
    documents = {"algebra": docs.algebra_to_doc(md),
                 "rep": docs.representation_to_doc(adjoint_representation(md)),
                 "tensor": docs.tensor_to_doc(tensor), "g": docs.matrix_to_doc(g),
                 "extension": ext, "reference": copy.deepcopy(ext),
                 "section": docs.matrix_to_doc(Matrix.block(
                     [[Matrix.identity(3)], [Matrix.zeros(3, 3)]]))}
    command, target = data.draw(st.sampled_from(_TARGETS))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(documents[target], data)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in documents.items():
            text = json.dumps(doc)
            for i, raw in enumerate(_RAW):
                text = text.replace(json.dumps(f"\x00raw{i}"), raw)
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = {
            "verify": ["verify", paths["algebra"], "--rep", paths["rep"]],
            "deform-check": ["deform-check", paths["algebra"],
                             "--nu1", paths["tensor"]],
            "cohomology": ["cohomology", paths["algebra"], "--rep", paths["rep"],
                           "--degree", "1"],
            "extend": ["extend", paths["algebra"], "--rep", paths["rep"],
                       "--f", paths["tensor"], "--g", paths["g"]],
            "tstar": ["tstar", paths["algebra"], "--f", paths["tensor"],
                      "--g", paths["g"]],
            "extract-cocycle": ["extract-cocycle", paths["extension"],
                                "--section", paths["section"]],
            "equiv-check": ["equiv-check", paths["extension"], paths["reference"]],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_command(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("md3lie: error: ")
    else:
        assert json.loads(out)["schema"] == docs.REPORT_SCHEMA
