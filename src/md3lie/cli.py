"""Batch command-line interface producing machine-readable JSON reports.

Every invocation writes exactly one JSON report to standard output and
diagnostics to standard error.  Exit codes: 0 for valid/true results, 1 for a
check that ran and failed (the report carries witnesses), 2 for input or
usage errors, 3 for an internal error (an exact cross-check that disagreed,
or memory exhausted): then stdout stays empty and stderr carries one line.
Reports contain no timestamps, so identical inputs produce byte-identical
output.

``--rep adjoint`` (or ``coadjoint``) is accepted wherever a representation
file is, generating the action from the algebra itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import documents as docs
from .cohomology import ComplexAssembly
from .deformation import (
    LinearDeformation, is_nijenhuis, is_o_operator, verify_linear_deformation,
)
from .errors import InputError, ParseError
from .exactnum import Matrix
from .extension import (
    build_abelian_extension, extensions_equivalent, extract_cocycle,
    hyperbolic_pairing, is_metrised, tstar_abelian_extension, verify_extension,
)
from .multilin import SkewTernaryTensor
from .structures import (
    MD3LieAlgebra, Report, Representation, adjoint_representation,
    coadjoint_representation, verify_3lie, verify_modified_differential,
    verify_representation,
)


def _value_doc(value):
    if isinstance(value, Matrix):
        return docs.matrix_to_doc(value)
    if isinstance(value, tuple):
        return [docs.scalar_str(c) for c in value]
    if isinstance(value, Fraction):
        return docs.scalar_str(value)
    return value


def _witness_docs(report: Report) -> list:
    return [
        {
            "law": v.law,
            "args": [a + 1 for a in v.args],
            "lhs": _value_doc(v.lhs),
            "rhs": _value_doc(v.rhs),
        }
        for v in report.violations
    ]


def _report_doc(command: str, **fields) -> dict:
    doc = {"schema": docs.REPORT_SCHEMA, "command": command}
    doc.update(fields)
    return doc


def _load_algebra(path: str) -> MD3LieAlgebra:
    return docs.algebra_from_doc(docs.load_json(path), path)


def _load_representation(md: MD3LieAlgebra, value: str) -> Representation:
    if value == "adjoint":
        return adjoint_representation(md)
    if value == "coadjoint":
        return coadjoint_representation(md)
    return docs.representation_from_doc(docs.load_json(value), md, value)


def _load_matrix(path: str, rows: int | None = None,
                 cols: int | None = None) -> Matrix:
    return docs.matrix_from_doc(docs.load_json(path), path, rows, cols)


def _load_tensor(path: str, dim_in: int, dim_out: int) -> SkewTernaryTensor:
    return docs.tensor_from_doc(docs.load_json(path), path, dim_in, dim_out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args):
    md = _load_algebra(args.algebra)
    reports = {
        "fundamental identity": verify_3lie(md.algebra),
        "modified differential rule": verify_modified_differential(md),
    }
    if args.rep is not None:
        rep = _load_representation(md, args.rep)
        reports["representation"] = verify_representation(md, rep)
    valid = all(r.valid for r in reports.values())
    witnesses = [w for r in reports.values() for w in _witness_docs(r)]
    doc = _report_doc(
        "verify",
        valid=valid,
        checks={name: r.valid for name, r in reports.items()},
        witnesses=witnesses,
    )
    return (0 if valid else 1), doc


def _cmd_cohomology(args):
    md = _load_algebra(args.algebra)
    rep = _load_representation(md, args.rep)
    asm = ComplexAssembly(md, rep)
    summary = asm.cohomology_dim(args.degree)
    doc = _report_doc(
        "cohomology",
        degree=args.degree,
        z_dim=summary.z_dim,
        b_dim=summary.b_dim,
        h_dim=summary.h_dim,
    )
    if args.representatives:
        doc["representatives"] = [
            {
                "f": [docs.scalar_str(c) for c in tc.f.coords],
                "g": None if tc.g is None
                     else [docs.scalar_str(c) for c in tc.g.coords],
            }
            for tc in summary.representatives
        ]
    return 0, doc


def _cmd_deform_check(args):
    md = _load_algebra(args.algebra)
    n = md.n
    nu1 = _load_tensor(args.nu1, n, n)
    nu2 = (_load_tensor(args.nu2, n, n) if args.nu2 is not None
           else SkewTernaryTensor.zero(n, n))
    d1 = (_load_matrix(args.d1, n, n) if args.d1 is not None
          else Matrix.zeros(n, n))
    report = verify_linear_deformation(LinearDeformation(md, nu1, nu2, d1))
    doc = _report_doc("deform-check", valid=report.valid,
                      witnesses=_witness_docs(report))
    return (0 if report.valid else 1), doc


def _cmd_nijenhuis_check(args):
    md = _load_algebra(args.algebra)
    op = _load_matrix(args.op, md.n, md.n)
    report = is_nijenhuis(md, op)
    doc = _report_doc("nijenhuis-check", valid=report.valid,
                      witnesses=_witness_docs(report))
    return (0 if report.valid else 1), doc


def _cmd_o_operator_check(args):
    md = _load_algebra(args.algebra)
    rep = _load_representation(md, args.rep)
    op = _load_matrix(args.op, md.n, rep.m)
    report = is_o_operator(md, rep, op)
    doc = _report_doc("o-operator-check", valid=report.valid,
                      witnesses=_witness_docs(report))
    return (0 if report.valid else 1), doc


def _cmd_extend(args):
    md = _load_algebra(args.algebra)
    rep = _load_representation(md, args.rep)
    f = _load_tensor(args.f, md.n, rep.m)
    g = _load_matrix(args.g, rep.m, md.n)
    ext = build_abelian_extension(md, rep, f, g)
    report = verify_extension(ext)
    doc = _report_doc(
        "extend",
        valid=report.valid,
        witnesses=_witness_docs(report),
        extension=docs.extension_to_doc(ext),
    )
    return (0 if report.valid else 1), doc


def _cmd_extract_cocycle(args):
    ext = docs.extension_from_doc(docs.load_json(args.extension), args.extension)
    section = _load_matrix(args.section, ext.n + ext.m, ext.n)
    extracted = extract_cocycle(ext, section)
    asm = ComplexAssembly(ext.base, extracted.rep)
    doc = _report_doc(
        "extract-cocycle",
        valid=True,
        is_cocycle=asm.is_cocycle(extracted.total()).valid,
        rho=docs.representation_to_doc(extracted.rep),
        upsilon=docs.tensor_to_doc(extracted.upsilon),
        mu=docs.matrix_to_doc(extracted.mu),
    )
    return 0, doc


def _cmd_equiv_check(args):
    ext1 = docs.extension_from_doc(docs.load_json(args.ext1), args.ext1)
    ext2 = docs.extension_from_doc(docs.load_json(args.ext2), args.ext2)
    eta = extensions_equivalent(ext1, ext2)
    doc = _report_doc(
        "equiv-check",
        valid=eta is not None,
        equivalent=eta is not None,
        isomorphism=None if eta is None else docs.matrix_to_doc(eta),
    )
    return (0 if eta is not None else 1), doc


def _cmd_tstar(args):
    md = _load_algebra(args.algebra)
    n = md.n
    if (args.f is None) != (args.g is None):
        raise InputError("--f and --g must be given together")
    f = (_load_tensor(args.f, n, n) if args.f is not None
         else SkewTernaryTensor.zero(n, n))
    g = (_load_matrix(args.g, n, n) if args.g is not None
         else Matrix.zeros(n, n))
    ext = tstar_abelian_extension(md, f, g)
    report = verify_extension(ext)
    doc = _report_doc(
        "tstar",
        valid=report.valid,
        witnesses=_witness_docs(report),
        algebra=docs.algebra_to_doc(ext.total),
        varpi=docs.matrix_to_doc(hyperbolic_pairing(n)),
        extension=docs.extension_to_doc(ext),
    )
    return (0 if report.valid else 1), doc


def _cmd_metrised_check(args):
    md = _load_algebra(args.algebra)
    form = _load_matrix(args.form, md.n, md.n)
    report = is_metrised(md, form)
    doc = _report_doc("metrised-check", valid=report.valid,
                      witnesses=_witness_docs(report))
    return (0 if report.valid else 1), doc


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="md3lie",
        description="Exact verifiers and cohomology for modified "
                    "weighted-differential 3-Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the algebra axioms")
    p.add_argument("algebra")
    p.add_argument("--rep", help="representation file, or adjoint/coadjoint")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cohomology", help="cocycle/coboundary/cohomology dimensions")
    p.add_argument("algebra")
    p.add_argument("--rep", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--representatives", action="store_true")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("deform-check", help="order-by-order deformation check")
    p.add_argument("algebra")
    p.add_argument("--nu1", required=True)
    p.add_argument("--nu2")
    p.add_argument("--d1")
    p.set_defaults(fn=_cmd_deform_check)

    p = sub.add_parser("nijenhuis-check", help="Nijenhuis operator check")
    p.add_argument("algebra")
    p.add_argument("--op", required=True)
    p.set_defaults(fn=_cmd_nijenhuis_check)

    p = sub.add_parser("o-operator-check", help="relative operator check")
    p.add_argument("algebra")
    p.add_argument("--rep", required=True)
    p.add_argument("--op", required=True)
    p.set_defaults(fn=_cmd_o_operator_check)

    p = sub.add_parser("extend", help="build and verify an abelian extension")
    p.add_argument("algebra")
    p.add_argument("--rep", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("extract-cocycle", help="cocycle data of a section")
    p.add_argument("extension")
    p.add_argument("--section", required=True)
    p.set_defaults(fn=_cmd_extract_cocycle)

    p = sub.add_parser("equiv-check", help="decide equivalence of two extensions")
    p.add_argument("ext1")
    p.add_argument("ext2")
    p.set_defaults(fn=_cmd_equiv_check)

    p = sub.add_parser("tstar", help="build the dual extension with its pairing")
    p.add_argument("algebra")
    p.add_argument("--f")
    p.add_argument("--g")
    p.set_defaults(fn=_cmd_tstar)

    p = sub.add_parser("metrised-check", help="invariant bilinear form check")
    p.add_argument("algebra")
    p.add_argument("--form", required=True)
    p.set_defaults(fn=_cmd_metrised_check)

    return parser


def run_command(argv) -> int:
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code, doc = args.fn(args)
    except (ParseError, InputError, OSError) as exc:
        print(f"md3lie: error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:
        detail = str(exc) or type(exc).__name__  # MemoryError() has no message
        print(f"md3lie: internal error: {detail}", file=sys.stderr)
        return 3
    # echo the full invocation right after the command name
    ordered = {"schema": doc["schema"], "command": doc["command"], "argv": argv}
    ordered.update({k: v for k, v in doc.items() if k not in ordered})
    print(json.dumps(ordered, indent=2))
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
