"""Tests of the benchmark's own code: tracer, output checks, metric names."""

from __future__ import annotations

import csv
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, per_layer_metrics, root_total, self_times, share  # noqa: E402
from trotter_shuffle import experiments  # noqa: E402

SMALL = {
    "converge": {"kind": "converge", "n_list": [64, 256], "trials": 2,
                 "generator": {"name": "two_letter", "b": "e12", "c": "e21"}},
    "regime": {"kind": "regime", "n_list": [400], "d": 3, "trials": 2,
               "generator": {"name": "spiked", "regimes": [
                   {"regime": "large_linf", "delta": 1.0},
                   {"regime": "intermediate", "alpha": 0.5}]}},
    "tail": {"kind": "tail", "n_list": [400], "trials": 30,
             "generator": {"name": "two_letter", "b": "e12", "c": "e21", "a": 20}},
    "words": {"kind": "words", "trials": 3,
              "generator": {"name": "multiset", "a": 4, "b": 6}},
    "evolution": {"kind": "evolution", "n_list": [64, 256], "trials": 2,
                  "generator": {"name": "family", "fn": "step", "b": "e12", "c": "e21",
                                "s": 0.0, "t": 1.0, "mode": "permuted"}},
}


def _doc(kind: str, tmp_path: Path, seed: int = 3) -> dict:
    return {**json.loads(json.dumps(SMALL[kind])), "seed": seed,
            "out_path": str(tmp_path / f"{kind}.csv")}


def _emit(doc: dict) -> Path:
    cfg = experiments.ExperimentConfig.from_dict(doc)
    return experiments.emit(experiments.run(cfg), cfg.out_path)


def _package_functions() -> dict[tuple[str, str], int]:
    return {(name, attr): id(obj)
            for name, mod in list(sys.modules.items())
            if name == "trotter_shuffle" or name.startswith("trotter_shuffle.")
            for attr, obj in vars(mod).items() if inspect.isfunction(obj)}


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = _package_functions()
    original_run = experiments.run
    with Tracer() as tracer:
        assert experiments.run is not original_run
        assert len(tracer._patched) > 20
        _emit(_doc("converge", tmp_path))
    assert experiments.run is original_run
    assert _package_functions() == before
    assert tracer.spans and all(span is not None for span in tracer.spans)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_self_times_sum_to_traced_total(kind, tmp_path):
    tracer = Tracer()
    for seed in (1, 2):
        with tracer:
            _emit(_doc(kind, tmp_path, seed))
    spans = tracer.spans
    assert {name for name, _, _, parent in spans if parent < 0} == {
        "experiments.run", "experiments.emit"}
    own = self_times(spans)
    assert min(own) >= 0
    assert sum(own) == root_total(spans)
    metrics = per_layer_metrics(tracer, reps=2)
    shares = [v for k, v in metrics.items() if k.startswith("layer.")]
    assert sum(shares) == pytest.approx(1.0)
    assert share(spans, ["experiments", "rows", "products", "tails", "words",
                         "evolution", "linalg"]) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_clean_output_passes_every_check(kind, tmp_path):
    doc = _doc(kind, tmp_path)
    path = _emit(doc)
    errors, recs = check.check_output(doc, path)
    assert errors == []
    assert check.recompute(doc, path) == []
    assert check.check_pooled(kind, recs) == []


def _perturb(path: Path, column: str, value) -> None:
    """Replace the first non-blank cell of `column`."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    target = next(r for r in rows[1:] if r[col] != "")
    target[col] = value(target[col])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(",".join(r) + "\n" for r in rows))


@pytest.mark.parametrize("kind, column, value", [
    ("converge", "deviation", lambda v: repr(float(v) + 1e-3)),
    ("converge", "sup_dev", lambda v: "nan"),
    ("regime", "sup_dev", lambda v: repr(float(v) * 0.999)),
    ("tail", "empirical_freq", lambda v: repr(1.0 - float(v))),
    ("tail", "bernstein_bound", lambda v: repr(float(v) * 1.01)),
    ("words", "distance", lambda v: str(int(v) + 1)),
    ("words", "tau", lambda v: "inf"),
    ("evolution", "deviation", lambda v: repr(float(v) * 1.001)),
])
def test_perturbed_cell_is_caught(kind, column, value, tmp_path):
    doc = _doc(kind, tmp_path)
    path = _emit(doc)
    _perturb(path, column, value)
    errors, _ = check.check_output(doc, path)
    if not errors:
        errors = check.recompute(doc, path)
    assert errors


def test_dropped_row_is_caught(tmp_path):
    doc = _doc("words", tmp_path)
    path = _emit(doc)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert check.check_output(doc, path)[0]


def test_perturbed_repetition_counts_in_ops_failed(tmp_path, monkeypatch):
    emitted = []
    emit = experiments.emit

    def perturbing_emit(report, out_path):
        path = emit(report, out_path)
        emitted.append(path)
        if len(emitted) == 2:
            _perturb(path, "distance", lambda v: "1000000000")
        return path

    monkeypatch.setattr(experiments, "emit", perturbing_emit)
    res = run.measure("words_small", 0, 0.0, traced=False,
                      docs=lambda rep: _doc("words", tmp_path, seed=rep))
    assert res["attempted"] == len(emitted) == run.MIN_REPS
    assert res["failed"] == 1
    assert len(res["rates"]) == run.MIN_REPS - 2  # warm-up and the failed one dropped


def test_pooled_check_catches_deviation_growing_with_n():
    recs = [{"n": 64.0, "k": None, "sup_dev": 0.1}, {"n": 256.0, "k": None, "sup_dev": 0.2}]
    assert check.check_pooled("converge", recs)
    recs[1]["sup_dev"] = 0.05
    assert check.check_pooled("converge", recs) == []


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "words_long", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert any(line.startswith(name + " ") for line in proc.stdout.splitlines())
    assert proc.stdout.splitlines()[0].startswith("env ")
