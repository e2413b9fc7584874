"""Self-tests of the benchmark: smoke runs, a failing check, trace coverage.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_TABLE = json.loads((BENCH / "baseline.json").read_text())["layer_table"]


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_and_metrics_the_code_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert set(LAYER_TABLE) == {m["name"] for m in SPEC["per_layer"]}
    for metric, row in LAYER_TABLE.items():
        assert set(row["on"]) <= set(wl.WORKLOADS), metric


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--tiny"))
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = out["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_covers_every_layer_it_should(workload):
    """A layer the table says a workload exercises must not read zero.

    This is what catches a wrapper that missed a name imported elsewhere."""
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--tiny")
    out = result(done)
    assert "not wrapped" not in done.stderr
    assert out["correct"] is True
    for metric in SPEC["per_layer"]:
        got = out["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        if workload in LAYER_TABLE[metric["name"]]["on"]:
            assert got["value"] > 0, f"{metric['name']} is zero on {workload}"


def _plan(tmp_path, workload, expected, tracer=None):
    args = argparse.Namespace(
        workload=workload, seed=5, seconds=1, trace=0, tiny=True)
    run = bench_run.Run(args, tmp_path / "work")
    run.expected = expected
    cwd = os.getcwd()
    try:
        if tracer is not None:
            tracer.install()
        _, plan = run.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(cwd)
    return run, plan


def test_a_wrong_expected_answer_counts_as_failed(tmp_path):
    expected = wl.load_expected()
    run, plan = _plan(tmp_path, "cohomology-dim3", expected)
    job = plan.passes[0][1]  # example, adjoint complex, degree 2
    want = expected[job.key]
    z, b, h = want["dims"]
    swapped = want["representatives"][::-1]
    assert swapped != want["representatives"]
    cwd = os.getcwd()
    os.chdir(run.workdir)
    try:
        run.run_job(job)
        assert run.failures == []
        for wrong in ({"dims": [z, b, h + 1]}, {"exit": 1}, {"representatives": swapped}):
            run.expected = dict(expected, **{job.key: dict(want, **wrong)})
            run.run_job(job)
    finally:
        os.chdir(cwd)
    assert len(run.failures) == 3
    assert "(z, b, h)" in run.failures[0] and "exit 0" in run.failures[1]
    assert "representatives" in run.failures[2]


def test_a_wrong_membership_verdict_counts_as_failed(tmp_path):
    expected = wl.load_expected()
    run, plan = _plan(tmp_path, "queries", expected)
    job = next(j for j in plan.passes[0] if isinstance(j, wl.LibJob))
    run.expected = dict(expected, **{job.key: dict(expected[job.key],
                                                   verdict=not expected[job.key]["verdict"])})
    run.run_job(job)
    assert len(run.failures) == 1 and "verdict" in run.failures[0]


def test_library_queries_only_hit_the_assembly_cache(tmp_path):
    tracer = Tracer()
    run, plan = _plan(tmp_path, "queries", wl.load_expected(), tracer)
    tracer.clear()
    lib_jobs = [j for j in plan.passes[0] if isinstance(j, wl.LibJob)]
    assert lib_jobs
    tracer.install()
    try:
        for job in lib_jobs:
            run.run_job(job, tracer)
    finally:
        tracer.uninstall()
    assert run.failures == []
    assembles = sum(1 for s in tracer.spans if s[0] == "cohomology.assemble")
    assert assembles >= len(lib_jobs)
    assert tracer.counts["cohomology.assemble_cache_hits"] == assembles
    assert tracer.counts["cohomology.assembled_entries"] == 0


def test_sampler_removes_probe_time_and_scales_by_nearby_probes():
    sampler = hostspeed.Sampler()
    # probes at 0.0-0.1 (speed 2 ms) and 1.0-1.1 (speed 4 ms)
    sampler.starts, sampler.ends, sampler.speeds = [0.0, 1.0], [0.1, 1.1], [0.002, 0.004]
    assert sampler.busy(0.05, 1.05) == pytest.approx(0.1)
    assert sampler.busy(0.2, 0.9) == 0.0
    ref = hostspeed.REFERENCE_S
    # a span near the first probe only, then one that takes both
    assert sampler.scale(0.2, 0.3, 1.0) == pytest.approx(ref / 0.002)
    assert sampler.scale(0.2, 0.9, 1.0) == pytest.approx(ref / 0.003)
    # no probe within PROBE_EVERY_S: the nearest one
    assert sampler.scale(5.0, 6.0, 1.0) == pytest.approx(ref / 0.004)
    assert sampler.scale(0.4, 0.45, 1.0) == pytest.approx(ref / 0.002)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "queries", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
