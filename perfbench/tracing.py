"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` replaces the layers' public entry points with wrappers at
run time, and ``uninstall`` puts the originals back, so ``src/`` is never
edited.  A module-level function is replaced everywhere it is bound: where it
is defined and in every ``md3lie`` module that imported it by name (``cli``
imports from ``structures``, ``extension`` and ``deformation``; ``documents``
imports from ``extension``).  A method is replaced on its class.

Each span records name, start, end, parent span and job id; spans stay in
memory until ``metrics`` reduces them.  A time metric is a self time: the
span's duration minus the time covered by its child spans.  Counting work
(matrix sizes, nonzeros, bit lengths) happens after a span ends and is
recorded as a ``trace.count`` child of the caller, so it adds to no layer.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from collections import defaultdict

clock = time.perf_counter

# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "exactnum.elim": ("exactnum.elim_s", "exactnum.elim_calls"),
    "cohomology.assemble": ("cohomology.assemble_s", "cohomology.assemble_calls"),
    "cohomology.dims": ("cohomology.dims_s", None),
    "cohomology.membership": ("cohomology.membership_s", "cohomology.membership_calls"),
    "structures.verify": ("structures.verify_s", "structures.verify_calls"),
    "structures.build": ("structures.build_s", None),
    "deformation.check": ("deformation.check_s", "deformation.calls"),
    "extension.build": ("extension.build_s", "extension.calls"),
    "extension.classify": ("extension.classify_s", "extension.calls"),
    "documents.parse": ("documents.parse_s", None),
    "documents.serialize": ("documents.serialize_s", None),
    "cli": ("cli.self_s", None),
}

# span name, defining module, wrapped names ("Class.method" for methods)
TARGETS = [
    ("exactnum.elim", "md3lie.exactnum",
     ["Matrix.rank", "Matrix.pivot_columns", "Matrix.kernel_basis",
      "Matrix.solve_in_image", "Matrix.inverse"]),
    ("cohomology.assemble", "md3lie.cohomology",
     ["ComplexAssembly.delta_matrix", "ComplexAssembly.phi_matrix",
      "ComplexAssembly.partial_matrix"]),
    ("cohomology.dims", "md3lie.cohomology", ["ComplexAssembly.cohomology_dim"]),
    ("cohomology.membership", "md3lie.cohomology",
     ["ComplexAssembly.is_cocycle", "ComplexAssembly.is_coboundary",
      "ComplexAssembly.apply_partial"]),
    ("structures.verify", "md3lie.structures",
     ["verify_3lie", "verify_modified_differential", "verify_representation"]),
    ("structures.build", "md3lie.structures",
     ["adjoint_representation", "coadjoint_representation", "dual_representation",
      "semidirect_product"]),
    ("deformation.check", "md3lie.deformation",
     ["verify_linear_deformation", "is_nijenhuis", "is_o_operator",
      "inverse_cocycle_check"]),
    ("extension.build", "md3lie.extension",
     ["build_abelian_extension", "tstar_abelian_extension"]),
    ("extension.classify", "md3lie.extension",
     ["extract_cocycle", "extensions_equivalent", "verify_extension", "is_metrised"]),
    ("documents.parse", "md3lie.documents",
     ["load_json", "parse_algebra", "algebra_from_doc", "representation_from_doc",
      "tensor_from_doc", "matrix_from_doc", "extension_from_doc"]),
    ("documents.serialize", "md3lie.documents",
     ["serialize_algebra", "algebra_to_doc", "representation_to_doc", "tensor_to_doc",
      "matrix_to_doc", "extension_to_doc"]),
    ("cli", "md3lie.cli", ["run_command"]),
]

COUNTERS = [
    "exactnum.elim_entries", "exactnum.elim_nonzeros", "exactnum.kernel_vectors",
    "cohomology.assemble_cache_hits", "cohomology.assembled_entries",
    "cohomology.assembled_nonzeros", "structures.witnesses", "documents.bytes_in",
    "cli.report_bytes",
]


def _shape_and_nonzeros(mat) -> tuple[int, int]:
    nonzeros = sum(1 for i in range(mat.rows) for c in mat.row(i) if c)
    return mat.rows * mat.cols, nonzeros


def _bits(values) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in values), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.job = None
        self.counts: dict[str, int] = defaultdict(int)
        self.max_bits = 0  # largest entry bit length returned by elimination
        # (kind, q) already assembled, per live ComplexAssembly
        self.assembled = weakref.WeakKeyDictionary()
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, clock(), 0.0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self.stack.pop()

    def clear(self) -> None:
        """Drop recorded spans and counts; keep what has been assembled."""
        self.spans.clear()
        self.counts.clear()
        self.max_bits = 0

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                c0 = clock()
                counter(tracer, args, kwargs, result)
                tracer.spans.append(["trace.count", c0, clock(),
                                     tracer.spans[idx][3], tracer.job])
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "md3lie" or n.startswith("md3lie."))]
        for name, module_name, attrs in TARGETS:
            module = sys.modules.get(module_name)
            for attr in attrs:
                owner_name, _, member = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = (owner.__dict__.get(member) if owner is not None
                            and hasattr(owner, "__dict__") else None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(name, original, _COUNTERS.get(member))
                if owner_name:
                    self._saved.append((owner, member, original))
                    setattr(owner, member, wrapper)
                    continue
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, member, original in reversed(self._saved):
            setattr(owner, member, original)
        self._saved.clear()

    # -- reduction --------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass self times and counts of the spans recorded so far."""
        child = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {metric: 0.0 for pair in SPAN_METRICS.values() for metric in pair if metric}
        job_time = 0.0
        for idx, (name, start, end, parent, job) in enumerate(self.spans):
            if name == "job":
                job_time += end - start
            if name not in SPAN_METRICS:
                continue
            time_metric, call_metric = SPAN_METRICS[name]
            out[time_metric] += end - start - child[idx]
            if call_metric:
                out[call_metric] += 1
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        out = {k: v / passes for k, v in out.items()}
        out["exactnum.max_output_bits"] = self.max_bits
        out["trace.job_s"] = job_time / passes
        out["exactnum.elim_share"] = (out["exactnum.elim_s"] / out["trace.job_s"]
                                      if job_time else 0.0)
        return out


# ---------------------------------------------------------------------------
# counters, called after each wrapped call returns


def _count_elim(tracer, args, kwargs, result):
    entries, nonzeros = _shape_and_nonzeros(args[0])
    tracer.counts["exactnum.elim_entries"] += entries
    tracer.counts["exactnum.elim_nonzeros"] += nonzeros
    if isinstance(result, list) and result and isinstance(result[0], tuple):
        tracer.counts["exactnum.kernel_vectors"] += len(result)
        bits = max(_bits(v) for v in result)
    elif isinstance(result, tuple):
        bits = _bits(result)
    elif hasattr(result, "row"):
        bits = max((_bits(result.row(i)) for i in range(result.rows)), default=0)
    else:
        return
    tracer.max_bits = max(tracer.max_bits, bits)


def _assemble_counter(kind):
    # The wrapped call never re-enters itself for the same (assembly, kind,
    # q), so looking the key up after the call still tells a repeat call.
    def count(tracer, args, kwargs, result):
        q = args[1] if len(args) > 1 else kwargs.get("q")
        seen = tracer.assembled.setdefault(args[0], set())
        if (kind, q) in seen:
            tracer.counts["cohomology.assemble_cache_hits"] += 1
            return
        seen.add((kind, q))
        entries, nonzeros = _shape_and_nonzeros(result)
        tracer.counts["cohomology.assembled_entries"] += entries
        tracer.counts["cohomology.assembled_nonzeros"] += nonzeros

    return count


def _count_witnesses(tracer, args, kwargs, result):
    tracer.counts["structures.witnesses"] += len(result.violations)


def _count_bytes_in(tracer, args, kwargs, result):
    tracer.counts["documents.bytes_in"] += os.path.getsize(args[0])


_COUNTERS = {
    "rank": _count_elim,
    "pivot_columns": _count_elim,
    "kernel_basis": _count_elim,
    "solve_in_image": _count_elim,
    "inverse": _count_elim,
    "delta_matrix": _assemble_counter("delta"),
    "phi_matrix": _assemble_counter("phi"),
    "partial_matrix": _assemble_counter("partial"),
    "verify_3lie": _count_witnesses,
    "verify_modified_differential": _count_witnesses,
    "verify_representation": _count_witnesses,
    "load_json": _count_bytes_in,
}
