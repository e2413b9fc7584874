"""JSON interchange for algebras, representations, tensors and matrices.

Scalars travel as strings "p" or "p/q" (decimal integers, optional leading
minus, positive denominator): the bit-exact format shared by every document.
Indices are 1-based on disk and 0-based in memory.  Zero entries are omitted
from bracket and action lists, so documents double as readable fixtures.

Parsing never verifies algebraic axioms; verification is an explicit command.
Serialization is canonical (sorted triples, reduced scalars), so
serialize(parse(doc)) canonicalizes and parse(serialize(x)) is the identity.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ParseError
from .exactnum import Matrix
from .extension import AbelianExtension, build_abelian_extension
from .multilin import SkewTernaryTensor
from .structures import (
    MD3LieAlgebra, ModifiedDifferential, Representation, ThreeLieAlgebra,
)

ALGEBRA_SCHEMA = "md3lie-algebra/1"
REPRESENTATION_SCHEMA = "md3lie-representation/1"
TENSOR_SCHEMA = "md3lie-tensor/1"
EXTENSION_SCHEMA = "md3lie-extension/1"
REPORT_SCHEMA = "md3lie-report/1"

# ASCII digits only: \d also matches other scripts' digits, which int() and
# Fraction() accept, and $ would let a trailing newline through
_SCALAR_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
# the form JSON numbers and the serializer use, so no two keys name one index
_INDEX_KEY_RE = re.compile(r"[1-9][0-9]*")


def parse_scalar(text, where: str) -> Fraction:
    if not isinstance(text, str) or not _SCALAR_RE.fullmatch(text):
        raise ParseError(f"{where}: malformed scalar {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"{where}: zero denominator in {text!r}") from None
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise ParseError(f"{where}: scalar has too many digits") from None


# digits per chunk; sys.set_int_max_str_digits takes no limit below 640
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


def _int_str(k: int) -> str:
    """str(k) for any length: str() stops at sys.get_int_max_str_digits(),
    so the digits are printed in chunks below it."""
    rest, chunks = abs(k), []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    return ("-" if k < 0 else "") + str(rest) + "".join(reversed(chunks))


def scalar_str(x: Fraction) -> str:
    x = Fraction(x)
    den = "" if x.denominator == 1 else "/" + _int_str(x.denominator)
    return _int_str(x.numerator) + den


def _parse_index(value, bound: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}: index {value!r} is not an integer")
    if not 1 <= value <= bound:
        raise ParseError(f"{where}: index {value} out of range 1..{bound}")
    return value - 1


def _require(doc, key, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    return doc[key]


def _require_dim(doc, key, where: str) -> int:
    value = _require(doc, key, where)
    # bool is an int subclass, but true/false are not dimensions
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"{where}.{key}: expected a nonnegative integer")
    return value


# ---------------------------------------------------------------------------
# matrices and coordinate maps


def matrix_to_doc(mat: Matrix) -> list:
    return [[scalar_str(mat[i, j]) for j in range(mat.cols)]
            for i in range(mat.rows)]


def matrix_from_doc(obj, where: str, rows: int | None = None,
                    cols: int | None = None) -> Matrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ParseError(f"{where}: expected an array of rows")
    nrows = len(obj)
    ncols = len(obj[0]) if obj else 0
    if any(len(r) != ncols for r in obj):
        raise ParseError(f"{where}: ragged rows")
    if rows is not None and nrows != rows:
        raise ParseError(f"{where}: expected {rows} rows, found {nrows}")
    if cols is not None and ncols != cols:
        raise ParseError(f"{where}: expected {cols} columns, found {ncols}")
    flat = [parse_scalar(obj[i][j], f"{where}[{i}][{j}]")
            for i in range(nrows) for j in range(ncols)]
    return Matrix(nrows, ncols, flat)


def _value_map_to_doc(val) -> dict:
    return {str(r + 1): scalar_str(c) for r, c in enumerate(val) if c}


def _value_map_from_doc(obj, dim_out: int, where: str) -> tuple:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object of coefficients")
    out = [Fraction(0)] * dim_out
    for key, text in obj.items():
        if not isinstance(key, str) or not _INDEX_KEY_RE.fullmatch(key):
            raise ParseError(f"{where}: bad basis index {key!r}")
        idx = int(key)
        if not 1 <= idx <= dim_out:
            raise ParseError(f"{where}: basis index {idx} out of range 1..{dim_out}")
        out[idx - 1] = parse_scalar(text, f"{where}.{key}")
    return tuple(out)


def _triple_list_to_doc(tensor: SkewTernaryTensor) -> list:
    return [
        {"args": [i + 1, j + 1, k + 1], "value": _value_map_to_doc(val)}
        for (i, j, k), val in sorted(tensor.values.items())
    ]


def _triple_list_from_doc(obj, dim_in: int, dim_out: int, where: str) -> dict:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of entries")
    values = {}
    for t, entry in enumerate(obj):
        here = f"{where}[{t}]"
        args = _require(entry, "args", here)
        if not isinstance(args, list) or len(args) != 3:
            raise ParseError(f"{here}.args: expected three indices")
        i, j, k = (_parse_index(a, dim_in, f"{here}.args") for a in args)
        if not i < j < k:
            raise ParseError(f"{here}.args: triple must be strictly increasing")
        if (i, j, k) in values:
            raise ParseError(f"{here}.args: duplicate triple {args}")
        values[i, j, k] = _value_map_from_doc(
            _require(entry, "value", here), dim_out, f"{here}.value")
    return values


def tensor_to_doc(tensor: SkewTernaryTensor) -> dict:
    return {
        "schema": TENSOR_SCHEMA,
        "dim_in": tensor.dim_in,
        "dim_out": tensor.dim_out,
        "values": _triple_list_to_doc(tensor),
    }


def tensor_from_doc(doc, where: str = "tensor", dim_in: int | None = None,
                    dim_out: int | None = None) -> SkewTernaryTensor:
    n = _require_dim(doc, "dim_in", where)
    m = _require_dim(doc, "dim_out", where)
    if dim_in is not None and n != dim_in:
        raise ParseError(f"{where}: expected dim_in {dim_in}, found {n}")
    if dim_out is not None and m != dim_out:
        raise ParseError(f"{where}: expected dim_out {dim_out}, found {m}")
    values = _triple_list_from_doc(_require(doc, "values", where), n, m,
                                   f"{where}.values")
    return SkewTernaryTensor(n, m, values)


# ---------------------------------------------------------------------------
# algebras and representations


def algebra_to_doc(md: MD3LieAlgebra) -> dict:
    return {
        "schema": ALGEBRA_SCHEMA,
        "dim": md.n,
        "bracket": _triple_list_to_doc(md.algebra.bracket),
        "lambda": scalar_str(md.lam),
        "differential": matrix_to_doc(md.d),
    }


def parse_algebra(text: str) -> MD3LieAlgebra:
    """Parse an algebra document from JSON text; axioms are not verified."""
    return algebra_from_doc(_decode(text, "algebra"))


def serialize_algebra(md: MD3LieAlgebra) -> str:
    return json.dumps(algebra_to_doc(md), indent=2)


def algebra_from_doc(doc, where: str = "algebra") -> MD3LieAlgebra:
    dim = _require_dim(doc, "dim", where)
    # the differential first: its dim x dim entries must be in the document,
    # so a false dim fails before the bracket allocates values of that length
    d = matrix_from_doc(_require(doc, "differential", where),
                        f"{where}.differential", rows=dim, cols=dim)
    values = _triple_list_from_doc(_require(doc, "bracket", where), dim, dim,
                                   f"{where}.bracket")
    lam = parse_scalar(_require(doc, "lambda", where), f"{where}.lambda")
    return MD3LieAlgebra(
        ThreeLieAlgebra(dim, SkewTernaryTensor(dim, dim, values)),
        ModifiedDifferential(lam, d))


def representation_to_doc(rep: Representation) -> dict:
    rho = [
        {"pair": [i + 1, j + 1], "matrix": matrix_to_doc(mat)}
        for (i, j), mat in sorted(rep.rho.items())
        if not mat.is_zero
    ]
    return {
        "schema": REPRESENTATION_SCHEMA,
        "module_dim": rep.m,
        "rho": rho,
        "d_M": matrix_to_doc(rep.d_M),
    }


def representation_from_doc(doc, md: MD3LieAlgebra,
                            where: str = "representation") -> Representation:
    """The weight is copied from the base algebra; omitted pairs are zero."""
    m = _require_dim(doc, "module_dim", where)
    rho = {}
    entries = _require(doc, "rho", where)
    if not isinstance(entries, list):
        raise ParseError(f"{where}.rho: expected a list")
    for t, entry in enumerate(entries):
        here = f"{where}.rho[{t}]"
        pair = _require(entry, "pair", here)
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{here}.pair: expected two indices")
        i, j = (_parse_index(a, md.n, f"{here}.pair") for a in pair)
        if not i < j:
            raise ParseError(f"{here}.pair: pair must be strictly increasing")
        if (i, j) in rho:
            raise ParseError(f"{here}.pair: duplicate pair {pair}")
        rho[i, j] = matrix_from_doc(_require(entry, "matrix", here),
                                    f"{here}.matrix", rows=m, cols=m)
    d_M = matrix_from_doc(_require(doc, "d_M", where), f"{where}.d_M",
                          rows=m, cols=m)
    return Representation(n=md.n, m=m, rho=rho, d_M=d_M, lam=md.lam)


# ---------------------------------------------------------------------------
# extensions


def extension_to_doc(ext: AbelianExtension) -> dict:
    return {
        "schema": EXTENSION_SCHEMA,
        "base": algebra_to_doc(ext.base),
        "rep": representation_to_doc(ext.rep),
        "f": tensor_to_doc(ext.cocycle_f),
        "g": matrix_to_doc(ext.cocycle_g),
    }


def extension_from_doc(doc, where: str = "extension") -> AbelianExtension:
    base = algebra_from_doc(_require(doc, "base", where), f"{where}.base")
    rep = representation_from_doc(_require(doc, "rep", where), base,
                                  f"{where}.rep")
    f = tensor_from_doc(_require(doc, "f", where), f"{where}.f",
                        dim_in=base.n, dim_out=rep.m)
    g = matrix_from_doc(_require(doc, "g", where), f"{where}.g",
                        rows=rep.m, cols=base.n)
    return build_abelian_extension(base, rep, f, g)


# ---------------------------------------------------------------------------
# files


def _decode(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON ({exc})") from None
    except (ValueError, RecursionError):
        # a number longer than int() reads, or nesting deeper than the
        # decoder recurses
        raise ParseError(f"{where}: JSON number or nesting too large") from None


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 ({exc})") from None
    return _decode(text, path)


def dump_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
