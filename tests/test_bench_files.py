"""Every committed BENCH_*.json (written by scripts/bench.py) parses and holds
each workload of BENCHMARK.json with each of its end-to-end metrics. No
benchmark runs here."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_files_hold_every_workload_and_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json is committed"
    for path in paths:
        doc = json.loads(path.read_text())
        assert isinstance(doc["modified"], list), path.name  # files that differ from the commit
        assert set(doc["workloads"]) == workloads, path.name
        for name, entry in doc["workloads"].items():
            assert set(entry["end_to_end"]) == metrics, (path.name, name)
            for stats in entry["end_to_end"].values():
                assert stats["min"] <= stats["median"] <= stats["max"], (path.name, name)
