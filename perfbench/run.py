#!/usr/bin/env python3
"""md3lie benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload cohomology-dim3 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in this process as a closed
loop with one client: the next job starts only when the previous one has
returned.  A job is one in-process ``md3lie.cli.run_command(argv)`` or one
library call on a ``ComplexAssembly`` (see ``workloads.py``).  Every answer is
checked against ``expected.json``.

Workloads:

- ``cohomology-dim3``: ``cohomology --degree q --representatives``, q = 1, 2, 3,
  on the pinned dim-3 and trivial complexes and four seeded dim-3 instances
  (a triangular and a determinant-bracket algebra, each action once);
- ``cohomology-abelian5``: ``cohomology --degree 2`` on seeded abelian n = 5
  algebras with the adjoint action (2750 x 275 total matrix);
- ``queries``: every non-cohomology subcommand on the dim-3 fixtures,
  malformed inputs, ``verify --rep adjoint`` on seeded dim-6 algebras, and
  library ``is_cocycle`` / ``is_coboundary`` queries on warm assemblies.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  The run
cycles over passes (a pass is a fixed mix of jobs) for ``--seconds``.
``jobs_per_s``, ``job_p50_s`` and ``job_p90_s`` cover every job of the run,
each latency scaled to a reference host speed by the probe of
``hostspeed.py`` taken around it; ``peak_rss_mb`` is the process's peak RSS,
and ``setup_s`` is the median of several set-ups spread over the run, each
scaled by the probe taken just before it.  The unscaled figures are printed
too, on lines of their own.
``--trace 1`` alternates one untraced and one traced pass over the workload's
jobs and reports per-layer self times and counts per pass, plus the tracing
overhead.  ``--tiny`` shrinks every workload for the self-tests.

Stdout carries one line per metric (name, value, unit) and, last, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 8

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import md3lie.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Import time of md3lie.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


class Run:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.expected = workloads.load_expected()
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.raw_setups: list[float] = []

    def setup(self):
        """Import, write the seeded documents, build library assemblies."""
        seconds = import_seconds()
        t0 = time.perf_counter()
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        os.chdir(self.workdir)
        plan = workloads.make_plan(self.args.workload, self.args.seed, self.workdir,
                                 self.args.tiny, self.expected)
        return seconds + time.perf_counter() - t0, plan

    def run_job(self, job, tracer=None) -> tuple[float, float]:
        """Run and check one job; returns its start and end."""
        if tracer is not None:
            tracer.job = self.attempted
            root = tracer.open("job")
        t0 = time.perf_counter()
        outcome = job.run()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(root)
            tracer.counts["cli.report_bytes"] += len(outcome.stdout.encode())
        self.attempted += 1
        reason = workloads.check(job, outcome, self.expected)
        if reason is not None:
            self.failures.append(reason)
        return t0, t1

    def timed_setup(self, sampler):
        """One set-up between two probes, scaled by them."""
        sampler.sample()
        t0 = time.perf_counter()
        seconds, plan = self.setup()
        t1 = time.perf_counter()
        sampler.sample()
        self.setups.append(sampler.scale(t0, t1, seconds))
        self.raw_setups.append(seconds)
        return plan

    def closed_loop(self) -> tuple[list[float], list[float]]:
        """Whole passes until --seconds have passed.

        Returns every job's latency, without the probes' time, unscaled and
        scaled to the reference host speed.  The set-ups are spread over
        the run, so that one slow spell of the machine does not set their
        median."""
        sampler = hostspeed.Sampler()
        plan = self.timed_setup(sampler)
        spans = []
        passes = 0
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < self.args.seconds:
            with sampler:
                for job in plan.passes[passes % len(plan.passes)]:
                    spans.append(self.run_job(job))
            passes += 1
            due = SETUP_REPEATS * min(1.0, (time.perf_counter() - start) / self.args.seconds)
            while len(self.setups) < due:
                plan = self.timed_setup(sampler)
        while len(self.setups) < SETUP_REPEATS:
            plan = self.timed_setup(sampler)
        self.plan, self.passes = plan, passes
        raw = [t1 - t0 - sampler.busy(t0, t1) for t0, t1 in spans]
        scaled = [sampler.scale(t0, t1, lat) for (t0, t1), lat in zip(spans, raw)]
        return raw, scaled

    def traced(self, plan, tracer) -> dict:
        """Alternate untraced and traced runs of the first pass."""
        one_pass = plan.passes[0]
        untraced = traced = 0.0
        passes = 0
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < self.args.seconds:
            t0 = time.perf_counter()
            for job in one_pass:
                self.run_job(job)
            untraced += time.perf_counter() - t0
            tracer.install()
            try:
                t0 = time.perf_counter()
                for job in one_pass:
                    self.run_job(job, tracer)
                traced += time.perf_counter() - t0
            finally:
                tracer.uninstall()
            passes += 1
        metrics = tracer.metrics(passes)
        metrics["trace.jobs_per_s"] = passes * len(one_pass) / traced
        metrics["trace.overhead_ratio"] = traced / untraced
        for name in sorted(set(tracer.missing)):
            print(f"trace: {name} not found, not wrapped", file=sys.stderr)
        print(f"trace: {passes} traced passes of {len(one_pass)} jobs", file=sys.stderr)
        return metrics

    def probes(self, plan) -> int:
        violations = 0
        for job in plan.probes:
            reason = workloads.check(job, job.run(), self.expected)
            if reason is not None:
                violations += 1
                print(f"contract violation (not counted as failed): {reason}")
        return violations


def percentile_90(latencies: list[float]) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles over every job of the run."""
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": percentile_90(latencies),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cohomology-dim3", "cohomology-abelian5", "queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small instances, for the self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "md3lie" / "cli.py").is_file():
        print(f"perfbench: no md3lie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import md3lie.cli  # noqa: F401  (every layer module is loaded before wrapping)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    cwd = os.getcwd()
    run = Run(args, workdir)
    try:
        if args.trace:
            # wrapped during set-up, so the tracer sees every assembly the
            # library queries will reuse; set-up spans are then dropped
            tracer = Tracer()
            tracer.install()
            try:
                _, plan = run.setup()
            finally:
                tracer.uninstall()
            tracer.clear()
            metrics = run.traced(plan, tracer)
            units = {name: _unit(name) for name in metrics}
        else:
            raw, scaled = run.closed_loop()
            plan = run.plan
            metrics = {
                **latency_metrics(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(run.setups),
            }
            units = END_TO_END_UNITS
            print(f"samples {len(raw)} jobs in {run.passes} passes, "
                  f"{len(run.setups)} set-ups")
            for name, value in latency_metrics(raw).items():
                print(f"unscaled {name} {value:.6g} {units[name]}")
            print(f"unscaled setup_s {statistics.median(run.raw_setups):.6g} s")
        violations = run.probes(plan)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    for reason in run.failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    failed = len(run.failures)
    print(f"failed_share {failed / run.attempted:.6f} ratio ({failed} of {run.attempted})")
    if plan.probes:
        print(f"contract_violations {violations} count (of {len(plan.probes)} probes)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes") or name.endswith("bytes_in"):
        return "bytes"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
