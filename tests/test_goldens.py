"""Golden SHA-256s of the CSV and JSON sidecar for one small config per kind.

Any change that moves a byte of an experiment's output fails here. A change
that alters the numerics on purpose regenerates these hashes once and says
so in CHANGES.md.

Recorded with Python 3.11.7, numpy 2.4.6 and scipy-openblas (OpenBLAS
0.3.31) as BLAS/LAPACK. Another BLAS build may round differently in the last
bit, which changes the hashes but not the science.

The sidecar echoes out_path, so every config writes to a relative path inside
a temporary working directory.

The hashes show that a byte moved, not that the bytes are right: oracles.recompute
recomputes every column of every record of each golden with independent kernels, within a
stated tolerance, and the benchmark's oracle, perfbench/check.py, also checks each golden
output's shape and invariants and recomputes one trial of it.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trotter_shuffle
from trotter_shuffle.experiments import ExperimentConfig, emit, run

from oracles import recompute

GOLDENS = {
    "converge": (
        dict(kind="converge", n_list=[40, 100], trials=2, seed=11),
        "2e6d1ce7613db4afd0148a7b1ae5c5b54b40400945eeaf2799935877ec326d01",
        "d3488dacba0b45d957ea174f5e87bc5c1ed2ca4912a8e5511a5beb891a3edf66"),
    "converge_target": (
        dict(kind="converge", n_list=[60], trials=2, seed=12,
             target=[[0, 0.6], [0.4, 0]]),
        "c532afd0170cc11e3b0e24b8350b5c6bfc669c1543911e9f8c10b380b4b2ab5e",
        "03348eeb7573aafa08d4ca6269604fffa96b5461b664ca5066aacc0b24a199e3"),
    "tail": (
        dict(kind="tail", n_list=[400], trials=30, seed=13,
             generator={"name": "two_letter", "b": "e12", "c": "e21", "a": 20}),
        "fec4e563827a100e0fa2aafdd8af263cf26e1ebd356dd73395b15cba07bb8ec2",
        "0a888441388b027d74fe49411e1ae1ed60ff6bd0be6ca4942b658ea14e5c22c1"),
    "tail_probability": (
        dict(kind="tail", n_list=[200, 300], trials=25, seed=14,
             block_mode="probability"),
        "e053850d4bf3d53470b8ea82adf9203ba571f2e8975183b662ed5430555ba485",
        "caa49cd3e36c6c5278b3a0ef6f043217c9a5e800ef7f959a1b104e09031cb83e"),
    "regime": (
        dict(kind="regime", n_list=[400], trials=2, seed=15, d=3,
             generator={"name": "spiked", "regimes": [
                 {"regime": "intermediate", "alpha": 0.5, "beta": 0.0, "t": 1.0},
                 {"regime": "large_linf", "delta": 1.0}]}),
        "605a5b4ae1ac1103dee1b1991b953078830fbcb13feb3b4880dff8b186763be8",
        "fea5ff740a1da3f1d2b7558332f8327d09489e00fbd4b57d0e846232ce423128"),
    "words": (
        dict(kind="words", trials=6, seed=16,
             generator={"name": "multiset", "a": 4, "b": 7}),
        "cc3077ff1481bab2b9f769bacbb991b40830fc048ca1d3c5e0537b5e4b7fcd09",
        "1dda528605704b1b9fe6bdb9527495d2dbaa195d937ebcb34effe4e155bf5da0"),
    "evolution": (
        dict(kind="evolution", n_list=[40, 100], trials=3, seed=17,
             generator={"name": "family", "fn": "step", "b": "e12", "c": "e21",
                        "s": 0.25, "t": 0.75, "mode": "permuted"}),
        "c76476b4a135e4cd1a7c1ed5aad207b16e331bf0d73dd5b2b2152424b2d6b9eb",
        "9e056127936f23103f492cef20fff50a832d2f644719014e67b4fa64828092c0"),
    # real rows with generic entries, which the e12/e21 rows above are not: an
    # interleaved two-letter row against a complex target, and a d = 3 periodic row
    # with its zero fill. n is no power of two, so A / n rounds, and the reference
    # paths of their real row means round differently if exp_stack divides by k
    "converge_real_target": (
        dict(kind="converge", n_list=[70, 150], trials=2, seed=18,
             generator={"name": "two_letter", "b": [[-0.1, -0.5], [-0.2, -0.8]],
                        "c": [[0.95, -0.55], [0.35, -0.4]], "order": "interleaved"},
             target=[[[0.1, 0.2], [0.5, 0]], [[-0.3, 0], [0.05, -0.4]]]),
        "279ced38b9867df89e9832031b6731ddf091fc988a53ba387fcd1893a0550405",
        "4b259f719a643a82118b56d805cb2a8e14da0b31eabe13fd61c521eff888a289"),
    "converge_repeated_d3": (
        dict(kind="converge", n_list=[50, 121], trials=2, seed=19, d=3,
             generator={"name": "repeated", "letters": [
                 [[0.8, 0.75, -0.95], [0.4, -1.0, 0.0], [-0.15, -0.6, -0.35]],
                 [[0.6, -0.35, -0.7], [0.4, -0.1, 0.6], [-0.55, -0.35, 0.6]],
                 [[0.0, 0.0, -0.55], [-0.95, 0.85, -0.85], [0.7, -0.25, 0.9]]]}),
        "6d5ef2656308a696c40422a4925e9cc736209eb6f2ad5680fd0964695762c3d2",
        "760a5a8c60bedaf4c8d14af1092f9fe60f7b6261f7efb1d05f30c8ddb47fb523"),
    # generic real letters on a split of no grid point, over a proper slice: the 4n-point
    # reference sum rounds, so the order in which it adds the grid moves these bytes,
    # where the evolution golden's e12/e21 sum is exact in any order
    "evolution_generic": (
        dict(kind="evolution", n_list=[37, 101], trials=3, seed=20,
             generator={"name": "family", "fn": "step",
                        "b": [[[0.3, -0.2], [0.7, 0.1]], [[-0.45, 0], [0.15, 0.6]]],
                        "c": [[0.8, -0.35], [0.55, -0.9]], "split": 0.37,
                        "s": 0.1, "t": 0.85, "mode": "permuted"}),
        "0bc6b46996cc9941f0767f557a46e57eeed62b149f655fe9d0ce7d2e19020f61",
        "feea17cdd8558516b877482a4a21c964db3de04ccc57577f59af292075579d7b"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_output_hashes(name, tmp_path, monkeypatch):
    fields, csv_sha, sidecar_sha = GOLDENS[name]
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(**fields, out_path=f"{name}.csv")
    path = emit(run(cfg), cfg.out_path)
    assert _sha256(path) == csv_sha
    assert _sha256(path.with_suffix(".json")) == sidecar_sha


# A child interpreter that writes every golden config read from stdin into its working
# directory and prints linalg's core count and the hashes; "one-cpu" pins it to one CPU
# before the package is imported, so linalg runs every d >= 3 stack inline.
_CHILD = """
import hashlib, json, os, sys
if sys.argv[1:] == ["one-cpu"]:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from trotter_shuffle import linalg
from trotter_shuffle.experiments import ExperimentConfig, emit, run
hashes = {}
for name, fields in json.load(sys.stdin).items():
    path = emit(run(ExperimentConfig(**fields, out_path=f"{name}.csv")), f"{name}.csv")
    hashes[name] = [hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (path, path.with_suffix(".json"))]
print(json.dumps({"cores": linalg._CORES, "hashes": hashes}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_golden_output_hashes_with_one_blas_thread_and_on_one_cpu(tmp_path):
    # the same bytes whether BLAS and linalg split their work over threads or not
    src = str(Path(trotter_shuffle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    configs = json.dumps({name: fields for name, (fields, _, _) in GOLDENS.items()})
    pinned = {name: [csv_sha, sidecar_sha] for name, (_, csv_sha, sidecar_sha) in GOLDENS.items()}
    for mode, extra in (("one-blas-thread", {"OPENBLAS_NUM_THREADS": "1"}), ("one-cpu", {})):
        (tmp_path / mode).mkdir()
        child = subprocess.run([sys.executable, "-c", _CHILD, mode], input=configs,
                               capture_output=True, text=True, cwd=tmp_path / mode,
                               env={**env, **extra})
        assert child.returncode == 0, child.stderr
        got = json.loads(child.stdout)
        assert got["hashes"] == pinned, mode
        if mode == "one-cpu":
            assert got["cores"] == 1


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_outputs_match_an_independent_recompute(name):
    cfg = ExperimentConfig(**GOLDENS[name][0])
    assert recompute(cfg, run(cfg)) == []


def _oracle():
    """perfbench/check.py, loaded from its path as test_experiments loads workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "bench_check", Path(__file__).resolve().parents[1] / "perfbench" / "check.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# The oracle's recompute is at fault on these three, not the package, so only its
# shape and invariant checks run on them: converge_real_target (it builds a
# first_half_b row and ignores the interleaved order), converge_repeated_d3 (it
# knows two-letter rows only) and tail_probability (it assumes generator.a).
_NO_RECOMPUTE = {"converge_real_target", "converge_repeated_d3", "tail_probability"}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_outputs_pass_the_benchmark_oracle(name, tmp_path, monkeypatch):
    check = _oracle()
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(**GOLDENS[name][0], out_path=f"{name}.csv")
    path = emit(run(cfg), cfg.out_path)
    doc = cfg.to_dict()  # the config as the sidecar echoes it, defaults filled in
    assert check.check_output(doc, path)[0] == []
    if name not in _NO_RECOMPUTE:
        assert check.recompute(doc, path) == []
