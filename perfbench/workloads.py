"""Jobs, the three workloads, and the check of every answer against the record.

A job is one in-process ``md3lie.cli.run_command(argv)`` with stdout and
stderr captured, or one public library call on a ``ComplexAssembly`` built
during set-up.  Each job has a key into ``expected.json``; ``check`` compares
the job's outcome with the recorded answer.

Workload inputs come from pools of instances keyed by name (see
``instances.py``).  ``--seed`` picks pool members and the job order, so the
same seed gives the same inputs and every answer a seed can ask for is
recorded.  The pools are listed here, and ``record.py`` records all of them.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import instances as inst

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

REPORT_SCHEMA = "md3lie-report/1"

# instance pools; a seed draws from these, and record.py records all of them
DIM3_POOL = [f"tri-{i}" for i in range(32)] + [f"det-{i}" for i in range(32)]
# ab5-0 .. ab5-31 all give a 2750 x 275 matrix but differ by up to 1.3x in
# elimination time (intermediate bit growth), and a run has room for two
# jobs.  The pool keeps the 16 whose mean of two host-scaled timings (one
# pass over the 32 in order, one in reverse; Python 3.11, x86-64) was within
# 5% of the median, dropping the 8 cheapest and the 8 costliest.
AB5_POOL = [f"ab5-{i}" for i in (0, 2, 4, 8, 9, 11, 12, 13, 17, 19, 20, 23, 28, 29, 30, 31)]
AB3_POOL = [f"ab3-{i}" for i in range(16)]  # --tiny stand-in for AB5_POOL
DIM6_POOL = ([f"sd-tri-{i}" for i in range(32)] + [f"sd-det-{i}" for i in range(32)]
             + [f"ab6-{i}" for i in range(64)])
QUERY_POOL = ["example"] + [f"tri-{i}" for i in range(8)] + [f"det-{i}" for i in range(8)]
REPS = ("adjoint", "coadjoint")
DEGREES = (1, 2, 3)


def cohomology_key(alg: str, rep: str, q: int) -> str:
    return f"cohomology/{alg}/{rep}/{q}"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Outcome:
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    verdict: bool | None = None
    error: str | None = None


@dataclass
class CliJob:
    key: str
    argv: list

    def run(self) -> Outcome:
        # looked up on each call, so the traced run sees the wrapped function
        from md3lie import cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run_command(self.argv)
        except Exception as exc:  # a contract breach, counted as a failure
            return Outcome(stdout=out.getvalue(), error=f"{type(exc).__name__}: {exc}")
        return Outcome(code=code, stdout=out.getvalue(), stderr=err.getvalue())


@dataclass
class LibJob:
    key: str
    asm: object
    call: str  # "is_cocycle" or "is_coboundary"
    cochain: object

    def run(self) -> Outcome:
        try:
            result = getattr(self.asm, self.call)(self.cochain)
        except Exception as exc:
            return Outcome(error=f"{type(exc).__name__}: {exc}")
        verdict = result.valid if self.call == "is_cocycle" else result is not None
        return Outcome(verdict=verdict)


def _one_report(stdout: str):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        return None
    return doc


def check(job, outcome: Outcome, expected: dict) -> str | None:
    """None when the outcome matches the recorded answer, else the reason."""
    want = expected.get(job.key)
    if want is None:
        return f"{job.key}: no recorded answer"
    if outcome.error is not None:
        return f"{job.key}: raised {outcome.error}"
    if isinstance(job, LibJob):
        if outcome.verdict != want["verdict"]:
            return f"{job.key}: verdict {outcome.verdict}, expected {want['verdict']}"
        return None
    if outcome.code != want["exit"]:
        return f"{job.key}: exit {outcome.code}, expected {want['exit']}"
    if want["exit"] == 2:
        # README contract for input errors: a diagnostic on stderr, and
        # stdout either empty or one JSON report
        if outcome.stdout.strip() and _one_report(outcome.stdout) is None:
            return f"{job.key}: stdout is not one JSON report"
        if not outcome.stderr.strip():
            return f"{job.key}: no diagnostic on stderr"
        return None
    report = _one_report(outcome.stdout)
    if report is None:
        return f"{job.key}: stdout is not exactly one JSON report"
    for name, value in want.items():
        if name == "exit":
            continue
        if name == "dims":
            got = [report.get("z_dim"), report.get("b_dim"), report.get("h_dim")]
            if got != value:
                return f"{job.key}: (z, b, h) = {got}, expected {value}"
        elif name == "representatives":
            if report.get(name) != value:
                return f"{job.key}: representatives differ from the recorded ones"
        elif report.get(name) != value:
            return f"{job.key}: {name} = {report.get(name)!r}, expected {value!r}"
    return None


# ---------------------------------------------------------------------------
# documents


def _write(workdir: Path, name: str, doc) -> str:
    with open(workdir / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return name


def write_algebra(workdir: Path, key: str) -> str:
    return _write(workdir, f"{key}.json", inst.algebra_doc(inst.algebra(key)))


def write_fixtures(workdir: Path) -> None:
    """The dim-3 fixture set used by the ``queries`` command jobs."""
    ex = inst.example()
    _write(workdir, "example.json", inst.algebra_doc(ex))
    _write(workdir, "adjoint.json", inst.adjoint_doc(ex))
    bad = inst.algebra_doc(ex)
    bad["lambda"] = "0"
    _write(workdir, "example_lambda0.json", bad)
    matrices = {
        "op_e13": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        "e21": [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
        "op_diag123": inst.diagonal([1, 2, 3]),
        "op_diag11m1": inst.diagonal([1, 1, -1]),
        "g_diag01m1": inst.diagonal([0, 1, -1]),
        "diag100": inst.diagonal([1, 0, 0]),
        "identity3": inst.diagonal([1, 1, 1]),
        "zeros3": inst.diagonal([0, 0, 0]),
        "section_canonical": inst.diagonal([1, 1, 1]) + [[0, 0, 0]] * 3,
        "op_2x3": [[1, 0, 0], [0, 1, 0]],
    }
    for name, rows in matrices.items():
        _write(workdir, f"{name}.json", inst.matrix_doc(rows))
    _write(workdir, "zero_tensor3.json", inst.zero_tensor_doc(3, 3))
    _write(workdir, "ext1.json", inst.extension_doc(ex, inst.diagonal([0, 1, -1])))
    _write(workdir, "ext0.json", inst.extension_doc(ex, inst.diagonal([0, 0, 0])))
    # malformed inputs that the README contract turns into exit 2
    (workdir / "broken.json").write_text("{not json", encoding="utf-8")
    scalar = inst.algebra_doc(ex)
    scalar["bracket"][0]["value"] = {"1": "0.25"}
    _write(workdir, "bad_scalar.json", scalar)
    index = inst.algebra_doc(ex)
    index["bracket"][0]["args"] = [1, 2, 4]
    _write(workdir, "bad_index.json", index)
    missing = inst.algebra_doc(ex)
    del missing["differential"]
    _write(workdir, "missing_field.json", missing)
    # inputs the README contract also turns into exit 2, which the program
    # does not yet do (see PROBES)
    (workdir / "invalid_utf8.json").write_bytes(b'{"dim": 3, "bracket": [], "lambda": "\xff\xfe"}')
    dim_true = inst.algebra_doc(inst.Algebra(1, {}, [[0]], 0))
    dim_true["dim"] = True
    _write(workdir, "dim_true.json", dim_true)


FIXTURE_JOBS = {
    "verify": ["verify", "example.json"],
    "verify-adjoint": ["verify", "example.json", "--rep", "adjoint"],
    "verify-adjoint-file": ["verify", "example.json", "--rep", "adjoint.json"],
    "verify-coadjoint": ["verify", "example.json", "--rep", "coadjoint"],
    "verify-lambda0": ["verify", "example_lambda0.json"],
    "deform-zero": ["deform-check", "example.json", "--nu1", "zero_tensor3.json"],
    "deform-d1-diag100": ["deform-check", "example.json", "--nu1", "zero_tensor3.json",
                          "--d1", "diag100.json"],
    "deform-d1-e21": ["deform-check", "example.json", "--nu1", "zero_tensor3.json",
                      "--d1", "e21.json"],
    "nijenhuis-e13": ["nijenhuis-check", "example.json", "--op", "op_e13.json"],
    "nijenhuis-diag123": ["nijenhuis-check", "example.json", "--op", "op_diag123.json"],
    "o-operator-diag11m1": ["o-operator-check", "example.json", "--rep", "adjoint",
                            "--op", "op_diag11m1.json"],
    "extend": ["extend", "example.json", "--rep", "adjoint", "--f", "zero_tensor3.json",
               "--g", "g_diag01m1.json"],
    "extend-zero": ["extend", "example.json", "--rep", "adjoint", "--f", "zero_tensor3.json",
                    "--g", "zeros3.json"],
    "extract-cocycle": ["extract-cocycle", "ext1.json", "--section", "section_canonical.json"],
    "equiv-different": ["equiv-check", "ext1.json", "ext0.json"],
    "equiv-same": ["equiv-check", "ext1.json", "ext1.json"],
    "tstar": ["tstar", "example.json"],
    "metrised-diag123": ["metrised-check", "example.json", "--form", "op_diag123.json"],
    "metrised-identity": ["metrised-check", "example.json", "--form", "identity3.json"],
}

MALFORMED_JOBS = {
    "missing-file": ["verify", "no_such_file.json"],
    "not-json": ["verify", "broken.json"],
    "bad-scalar": ["verify", "bad_scalar.json"],
    "bad-index": ["verify", "bad_index.json"],
    "missing-field": ["verify", "missing_field.json"],
    "degree-zero": ["cohomology", "example.json", "--rep", "adjoint", "--degree", "0"],
    "wrong-shape": ["nijenhuis-check", "example.json", "--op", "op_2x3.json"],
    "unknown-command": ["no-such-command"],
}

# Inputs on which the program broke the README contract (exit 2 and a
# diagnostic) when this benchmark was written: invalid UTF-8 raises
# UnicodeDecodeError out of run_command, and "dim": true is read as dim 1 and
# exits 0.  They run once per ``queries`` run, outside the timed loop, and are
# reported as contract violations rather than failed jobs, so the workload's
# own jobs all succeed.
PROBES = {
    "invalid-utf8": ["verify", "invalid_utf8.json"],
    "dim-true": ["verify", "dim_true.json"],
}


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Plan:
    """The jobs of a run, cut into passes.

    The closed loop runs whole passes, cycling through ``passes``; the traced
    run repeats ``passes[0]``.  Each pass has the same mix of job kinds, so a
    per-pass rate is comparable from pass to pass and from seed to seed."""

    passes: list
    probes: list = field(default_factory=list)


def _draw(rng: random.Random, pool: list, prefix: str, count: int) -> list:
    return rng.sample([key for key in pool if key.startswith(prefix)], count)


def _rep_file(workdir: Path, rep: str) -> str:
    if rep == "trivial1":
        return _write(workdir, "trivial1.json", inst.trivial_module_doc(1))
    return rep


def _cohomology_group(workdir: Path, alg: str, rep: str) -> list:
    path = write_algebra(workdir, alg)
    rep_arg = _rep_file(workdir, rep)
    return [CliJob(cohomology_key(alg, rep, q),
                   ["cohomology", path, "--rep", rep_arg, "--degree", str(q),
                    "--representatives"])
            for q in DEGREES]


def plan_dim3(seed: int, workdir: Path, tiny: bool) -> Plan:
    """Pinned complexes plus one seeded instance per family and action."""
    rng = random.Random(f"cohomology-dim3/{seed}")
    if tiny:
        pairs = [("example", "adjoint"), ("trivial2", "trivial1"),
                 (_draw(rng, DIM3_POOL, "tri-", 1)[0], "adjoint")]
    else:
        pairs = [("example", "adjoint"), ("example", "coadjoint"),
                 ("trivial2", "trivial1")]
        for prefix in ("tri-", "det-"):
            pairs += [(alg, rep) for alg, rep in
                      zip(_draw(rng, DIM3_POOL, prefix, len(REPS)), REPS)]
    jobs = [job for alg, rep in pairs for job in _cohomology_group(workdir, alg, rep)]
    return Plan([jobs])


def plan_abelian5(seed: int, workdir: Path, tiny: bool) -> Plan:
    """Degree-2 cohomology of abelian n = 5 instances in a seeded order.

    A pass is one job: a run has room for about two."""
    rng = random.Random(f"cohomology-abelian5/{seed}")
    pool = AB3_POOL if tiny else AB5_POOL
    passes = []
    for alg in rng.sample(pool, len(pool)):
        path = write_algebra(workdir, alg)
        passes.append([CliJob(cohomology_key(alg, "adjoint", 2),
                              ["cohomology", path, "--rep", "adjoint", "--degree", "2"])])
    return Plan(passes)


def query_jobs(workdir: Path, alg: str, expected: dict) -> list:
    """Library membership queries on a warm assembly of alg's adjoint complex."""
    from md3lie import documents
    from md3lie.cohomology import ComplexAssembly, TotalCochain
    from md3lie.structures import adjoint_representation

    md = documents.algebra_from_doc(documents.load_json(write_algebra(workdir, alg)))
    asm = ComplexAssembly(md, adjoint_representation(md))
    for q in DEGREES:
        asm.partial_matrix(q)  # every query below is a cache hit
    jobs = []
    t = 0
    while f"query/{alg}/{t}" in expected:
        key = f"query/{alg}/{t}"
        want = expected[key]
        tc = TotalCochain.from_stacked(want["q"], md.n, md.n,
                                       [Fraction(c) for c in want["coords"]])
        jobs.append(LibJob(key, asm, want["call"], tc))
        t += 1
    return jobs


def plan_queries(seed: int, workdir: Path, tiny: bool, expected: dict) -> Plan:
    """A seeded shuffle of small command jobs, dim-6 verifies and queries.

    About a fifth of the jobs are the dim-6 verifies, so job_p90_s falls
    inside that group rather than on its edge."""
    rng = random.Random(f"queries/{seed}")
    write_fixtures(workdir)
    jobs = [CliJob(f"fixture/{name}", argv) for name, argv in FIXTURE_JOBS.items()]
    jobs += [CliJob(f"malformed/{name}", argv) for name, argv in MALFORMED_JOBS.items()]
    per_family = 1 if tiny else 2
    dim6 = (_draw(rng, DIM6_POOL, "sd-tri-", per_family)
            + _draw(rng, DIM6_POOL, "sd-det-", per_family)
            + _draw(rng, DIM6_POOL, "ab6-", 2 * per_family))
    for alg in dim6:
        jobs.append(CliJob(f"verify6/{alg}",
                           ["verify", write_algebra(workdir, alg), "--rep", "adjoint"]))
    jobs += query_jobs(workdir, rng.choice(QUERY_POOL), expected)
    rng.shuffle(jobs)
    probes = [CliJob(f"probe/{name}", argv) for name, argv in PROBES.items()]
    return Plan([jobs], probes)


def make_plan(workload: str, seed: int, workdir: Path, tiny: bool, expected: dict) -> Plan:
    if workload == "cohomology-dim3":
        return plan_dim3(seed, workdir, tiny)
    if workload == "cohomology-abelian5":
        return plan_abelian5(seed, workdir, tiny)
    if workload == "queries":
        return plan_queries(seed, workdir, tiny, expected)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cohomology-dim3", "cohomology-abelian5", "queries")
