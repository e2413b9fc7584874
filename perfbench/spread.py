#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads queries --seeds 1-10 --out spread.json

For every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile spread as a share
of the median, next to the metric's bound from BENCHMARK.json.  Runs are
sequential, from the repository root, with the spec's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        attempted = []
        for seed in args.seeds:
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect answers", file=sys.stderr)
                return 1
            attempted.append(result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {"seeds": args.seeds, "jobs_per_run": attempted, "metrics": {}}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            summary[workload]["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + (
                "  OVER A THIRD" if spread > bound / 3 else "")
            print(f"{workload:20s} {name:32s} median {median:.6g}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
