"""Golden SHA-256s of the CSV and JSON sidecar for one small config per kind.

Any change that moves a byte of an experiment's output fails here. A change
that alters the numerics on purpose regenerates these hashes once and says
so in CHANGES.md.

Recorded with Python 3.11.7, numpy 2.4.6 and scipy-openblas (OpenBLAS
0.3.31) as BLAS/LAPACK. Another BLAS build may round differently in the last
bit, which changes the hashes but not the science.

The sidecar echoes out_path, so every config writes to a relative path inside
a temporary working directory.
"""

import hashlib

import pytest

from trotter_shuffle.experiments import ExperimentConfig, emit, run

GOLDENS = {
    "converge": (
        dict(kind="converge", n_list=[40, 100], trials=2, seed=11),
        "657b6e663f30b1e5c972cbc9985ed2b314154b3b29100db27385d461ce9d2f47",
        "45ef68339a78f79923649e980500f80f8e2e59a69a01dfd204a1fcbc4ec89f22"),
    "converge_target": (
        dict(kind="converge", n_list=[60], trials=2, seed=12,
             target=[[0, 0.6], [0.4, 0]]),
        "cfcab00c48371cc0bfc4549daa5b3aed21030fa4812df4c0f83c457c5c7c8ad4",
        "b47cb8e5825fb00b5856c21ac21b2c30e79371be7a0e05f5a7f32eca35f0b3a2"),
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
        "18b2825f7d42aacde9fa0bc60cc38705ad15f1b5c19b7ce8772bd6818f9f08c8",
        "a38d4a3ff876bb5504c8dca9345e2043398662065deb631ce8299c117e613e25"),
    "words": (
        dict(kind="words", trials=6, seed=16,
             generator={"name": "multiset", "a": 4, "b": 7}),
        "cc3077ff1481bab2b9f769bacbb991b40830fc048ca1d3c5e0537b5e4b7fcd09",
        "1dda528605704b1b9fe6bdb9527495d2dbaa195d937ebcb34effe4e155bf5da0"),
    "evolution": (
        dict(kind="evolution", n_list=[40, 100], trials=3, seed=17,
             generator={"name": "family", "fn": "step", "b": "e12", "c": "e21",
                        "s": 0.25, "t": 0.75, "mode": "permuted"}),
        "f2d80ea709ec78107e29b183ad02f93085272bcb50ec020443da96c01af62e04",
        "c8c1910433a8b3124cfc8164011191eb26ab74eb3feb77a9f5bce0a76ad3bba3"),
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
