#!/usr/bin/env python3
"""Run perfbench/run.py on every workload and write one BENCH_*.json file.

    python3 scripts/bench.py BENCH_<label>.json [--seed 1]

Each workload runs REPS times at --trace 0, at BENCHMARK.json's run_seconds,
with seeds seed, seed + 1, ..., then once at --trace 1. The file holds the
command line, the environment block of the first run, the tracked files that
differ from its commit (so a file measured on an uncommitted tree says so),
and for each workload the median, min and max of every end-to-end metric over
the repetitions, the operation counts and the per-layer metrics of the traced
run. It imports nothing from the package: every number is read from the
harness's own output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPS = 5


def harness(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(environment block, JSON result line) of one run of the harness."""
    lines = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(lines[0].removeprefix("env ")), json.loads(lines[-1])


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    changed = subprocess.run(["git", "diff", "HEAD", "--name-only"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.splitlines()
    doc = {"command": sys.argv, "environment": None, "workloads": {},
           "modified": [f for f in changed if not f.startswith("BENCH_")]}
    for workload in WORKLOADS:
        runs = [harness(workload, args.seed + r, 0) for r in range(REPS)]
        doc["environment"] = doc["environment"] or runs[0][0]
        results = [res for _, res in runs]
        end_to_end = {}
        for name, first in results[0]["metrics"].items():
            values = [res["metrics"][name]["value"] for res in results]
            end_to_end[name] = {"unit": first["unit"], "median": statistics.median(values),
                                "min": min(values), "max": max(values)}
        _, traced = harness(workload, args.seed, 1)
        doc["workloads"][workload] = {
            "seeds": [args.seed + r for r in range(REPS)],
            "attempted": sum(res["attempted"] for res in results),
            "failed": sum(res["failed"] for res in results),
            "end_to_end": end_to_end, "per_layer": traced["metrics"]}
        print(workload, json.dumps({k: v["median"] for k, v in end_to_end.items()}), flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
