import csv
import dataclasses
import importlib.util
import inspect
import json
import math
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from trotter_shuffle import evolution, experiments, linalg, products, rows, tails
from trotter_shuffle.cli import build_parser, load_config, main
from trotter_shuffle.experiments import (COLUMNS, FAMILY_DEFAULTS, GENERATOR_DEFAULTS,
                                         ConfigError, ExperimentConfig, ExperimentReport,
                                         emit, parse_matrix, run)
from trotter_shuffle.rows import InfeasibleRegimeError, RegimeSpec, spiked_parameters

V_STAR = 0.1293935159197811


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="n_list"):
        ExperimentConfig(kind="converge", n_list=[])
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig(kind="converge", trials=0)
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig(kind="nope")
    with pytest.raises(ConfigError, match="sigma_mode"):
        ExperimentConfig(kind="converge", sigma_mode="sometimes")
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(kind="converge", seed=-1)
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict({"kind": "converge", "bogus": 1})
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_dict({"n_list": [10]})
    with pytest.raises(ConfigError, match="config: expected a JSON object"):
        ExperimentConfig.from_dict([{"kind": "converge"}])
    with pytest.raises(ConfigError, match="kind: \\['converge'\\] is not one of"):
        ExperimentConfig.from_dict({"kind": ["converge"]})


def test_parse_matrix():
    assert np.array_equal(parse_matrix("e12", "x"), [[0, 1], [0, 0]])
    got = parse_matrix([[[0, 0], [1, 2]], [[0, 0], [0, 0]]], "x")
    assert got[0, 1] == 1 + 2j
    assert np.array_equal(parse_matrix([[1, 0], [0, -1]], "x"), np.diag([1.0, -1.0]))
    with pytest.raises(ConfigError, match="x"):
        parse_matrix("no_such", "x")
    with pytest.raises(ConfigError):
        parse_matrix([[1, 2, 3]], "x")
    # entries are numbers, not strings or booleans, and each one fits a float
    for spec in ([["1", 0], [0, 1]], [[True, 0], [0, 1]], [[[0, 0], [0, True]], [[0, 0], [0, 0]]],
                 [[10**400, 0], [0, 1]]):
        with pytest.raises(ConfigError, match="x: cannot parse matrix"):
            parse_matrix(spec, "x")


def test_config_json_round_trip():
    cfg = ExperimentConfig(kind="tail", n_list=[100, 200], trials=7, seed=3, eps=0.1)
    doc = json.loads(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.from_dict(doc)
    assert again == cfg


def test_converge_two_letter_identity_matches_oracle():
    cfg = ExperimentConfig(kind="converge", n_list=[2000], trials=1, seed=1,
                           sigma_mode="identity")
    report = run(cfg)
    median = report.summary["2000"]["final_dev"]["median"]
    assert abs(median - V_STAR) < 1e-3


def test_converge_with_user_target():
    cfg = ExperimentConfig(kind="converge", n_list=[100], trials=2, seed=5,
                           target=[[0, 0.5], [0.5, 0]])
    report = run(cfg)
    grid = [r for r in report.records if r["k"] is not None]
    assert len(grid) == 2 * 101
    assert all(isinstance(r["deviation_target"], float) for r in grid)


def test_record_count_invariant():
    cfg = ExperimentConfig(kind="converge", n_list=[50, 100], trials=4, seed=2)
    assert sum(r["sup_dev"] is not None for r in run(cfg).records) == 8
    cfg = ExperimentConfig(kind="words", trials=6, seed=2)
    assert len(run(cfg).records) == 6
    cfg = ExperimentConfig(kind="evolution", n_list=[50], trials=5, seed=2)
    assert len(run(cfg).records) == 5


def test_emit_byte_identical_and_sidecar(tmp_path):
    cfg = ExperimentConfig(kind="converge", n_list=[128], trials=2, seed=9,
                           out_path=str(tmp_path / "a.csv"))
    emit(run(cfg), cfg.out_path)
    first = (tmp_path / "a.csv").read_bytes()
    side_first = (tmp_path / "a.json").read_bytes()
    emit(run(cfg), cfg.out_path)
    assert (tmp_path / "a.csv").read_bytes() == first
    assert (tmp_path / "a.json").read_bytes() == side_first
    # header row matches the documented schema, LF endings
    text = first.decode("utf-8")
    assert text.splitlines()[0] == ",".join(COLUMNS["converge"])
    assert b"\r" not in first
    # sidecar reloads and revalidates as a config
    doc = json.loads(side_first)
    again = ExperimentConfig.from_dict(doc["config"])
    assert again.n_list == [128]
    assert doc["schema_version"] == 1


def test_emit_cell_formats(tmp_path):
    """None is an empty cell, ints and strings are written with str, and floats,
    numpy float scalars among them, as repr: the shortest round-trip decimal."""
    cells = [None, 7, -0.0, 5e-324, 1e16, float("nan"), "large_linf", np.float64(0.1), 2 / 3]
    report = ExperimentReport(ExperimentConfig(kind="regime", n_list=[400]),
                              [dict(zip(COLUMNS["regime"], cells))], {})
    emit(report, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == (
        ",".join(COLUMNS["regime"]) + "\n"
        ",7,-0.0,5e-324,1e+16,nan,large_linf,0.1,0.6666666666666666\n").encode()


def test_out_path_may_be_a_path_object(tmp_path):
    # the sidecar echoes it as the string it stands for
    cfg = ExperimentConfig(kind="words", trials=2, seed=1, out_path=tmp_path / "w.csv")
    emit(run(cfg), cfg.out_path)
    sidecar = json.loads((tmp_path / "w.json").read_text())
    assert sidecar["config"]["out_path"] == str(tmp_path / "w.csv")


@pytest.mark.parametrize("name", ["t.json", "t.JSON"])
def test_json_out_path_is_a_config_error(tmp_path, capsys, monkeypatch, name):
    # the CSV would be its own sidecar: refused before any cell runs or any file is written
    monkeypatch.chdir(tmp_path)
    calls = Counter()
    _counting(monkeypatch, calls, ((experiments, tails), "block_gaps"))
    assert main(["tail", "--n", "40", "--out", name]) == 2
    assert f"config error: out_path: {name!r} ends in .json" in capsys.readouterr().err
    report = run(ExperimentConfig(kind="words", trials=2, seed=1))
    with pytest.raises(ConfigError, match="out_path"):
        emit(report, name)
    assert not calls and not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", [".", "/", ".."])
def test_out_path_without_a_file_name_is_a_config_error(tmp_path, capsys, monkeypatch, name):
    # "." and "/" have an empty name, and ".." would be replaced by the CSV after the
    # whole run: refused before any cell runs or any file is written
    monkeypatch.chdir(tmp_path)
    calls = Counter()
    _counting(monkeypatch, calls, ((experiments, tails), "block_gaps"))
    assert main(["tail", "--n", "40", "--out", name]) == 2
    assert capsys.readouterr().err.startswith("config error: out_path")
    report = run(ExperimentConfig(kind="words", trials=2, seed=1))
    with pytest.raises(ConfigError, match="out_path"):
        emit(report, name)
    assert not calls and not list(tmp_path.iterdir())


@pytest.mark.parametrize("out, present", [("adir", "adir"), ("side.csv", "side.json"),
                                          ("nodir/x.csv", None)],
                         ids=["csv_is_a_directory", "sidecar_is_a_directory", "no_such_directory"])
def test_out_path_that_cannot_be_written_is_a_config_error(tmp_path, capsys, monkeypatch, out,
                                                          present):
    # each would run every cell and only then fail to write: refused before any cell runs
    monkeypatch.chdir(tmp_path)
    if present:
        (tmp_path / present).mkdir()
    calls = Counter()
    _counting(monkeypatch, calls, ((experiments, tails), "block_gaps"))
    assert main(["tail", "--n", "40", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: out_path")
    assert not calls
    assert [p.name for p in tmp_path.rglob("*")] == ([present] if present else [])


@pytest.mark.parametrize("out", ["x" * 100_000 + ".csv", "x" * 100_000 + "/w.csv"],
                         ids=["file_name", "directory_name"])
def test_out_path_past_the_file_name_limit_is_a_brief_config_error(tmp_path, capsys, monkeypatch,
                                                                  out):
    # Path.is_dir raises OSError (file name too long) on such a name: a config error, not exit 3
    monkeypatch.chdir(tmp_path)
    assert main(["words", "--trials", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out_path: cannot check 'xxx") and len(err) < 200
    assert not list(tmp_path.iterdir())


def test_emit_over_a_directory_sidecar_leaves_previous_report_intact(tmp_path):
    # os.replace would put the new CSV over the old one, then fail on the sidecar
    emit(run(ExperimentConfig(kind="words", trials=8, seed=1)), tmp_path / "w.csv")
    (tmp_path / "w.json").unlink()
    (tmp_path / "w.json").mkdir()
    before = (tmp_path / "w.csv").read_bytes()
    with pytest.raises(OSError, match="directory"):
        emit(run(ExperimentConfig(kind="words", trials=5, seed=2)), tmp_path / "w.csv")
    assert (tmp_path / "w.csv").read_bytes() == before
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["w.csv", "w.json"]


def _defaults(builder) -> dict:
    """The default of each argument of a function, or of each field of a dataclass."""
    if dataclasses.is_dataclass(builder):
        return {f.name: f.default for f in dataclasses.fields(builder)
                if f.default is not dataclasses.MISSING}
    return {name: p.default for name, p in inspect.signature(builder).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_config_defaults_match_the_library_defaults():
    # a config that leaves a key out gets what a library call that leaves it out gets,
    # except where the config kind deliberately differs: an evolution run permutes
    builders = {"two_letter": [rows.gen_two_letter], "repeated": [rows.gen_repeated],
                "spiked": [rows.gen_spiked, RegimeSpec], "riemann": [rows.gen_riemann],
                "family": [evolution.propagators]}
    pairs = [(f"{name}.{key}", GENERATOR_DEFAULTS[name][key], default)
             for name, fns in builders.items() for fn in fns
             for key, default in _defaults(fn).items() if key in GENERATOR_DEFAULTS[name]]
    pairs += [(f"family.{fn}.{key}", FAMILY_DEFAULTS[fn][key], default)
              for fn, factory in evolution.FAMILIES.items()
              for key, default in _defaults(factory).items() if key in FAMILY_DEFAULTS[fn]]
    differ = {key for key, config, library in pairs if config != library}
    assert differ == {"family.mode"}
    assert {key for key, _, _ in pairs} == {
        "two_letter.order", "spiked.delta", "spiked.alpha", "spiked.beta", "spiked.t",
        "spiked.linf", "riemann.mode", "family.s", "family.t", "family.mode",
        "family.step.split", "family.rotation.scale"}


@pytest.mark.parametrize("stage", ["csv", "sidecar"])
def test_emit_failure_leaves_previous_report_intact(tmp_path, monkeypatch, stage):
    cfg = ExperimentConfig(kind="words", trials=8, seed=1, out_path="w.csv")
    monkeypatch.chdir(tmp_path)
    emit(run(cfg), cfg.out_path)
    assert json.loads((tmp_path / "w.json").read_text())["config"]["out_path"] == "w.csv"
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["w.csv", "w.json"]

    def failing(real, after):
        calls = Counter()

        def fn(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > after:
                raise OSError("disk full")
            return real(*args, **kwargs)
        return fn

    if stage == "csv":  # fail after a few rows have been written
        writer = csv.writer
        monkeypatch.setattr(experiments.csv, "writer", lambda fh, **kwargs: writer(
            SimpleNamespace(write=failing(fh.write, 3)), **kwargs))
    else:
        monkeypatch.setattr(experiments.json, "dump", failing(json.dump, 0))
    other = ExperimentConfig(kind="words", trials=5, seed=2, out_path="w.csv")
    with pytest.raises(OSError, match="disk full"):
        emit(run(other), other.out_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _pinned(cases):
    """The cases (id, *values) as pytest params, each with its id written out:
    a case added or removed anywhere in a table renames no other."""
    return [pytest.param(*values, id=case_id) for case_id, *values in cases]


def _counting(monkeypatch, calls, *targets):
    """Count calls of each (module, name), patched in every module given."""
    for mods, name in targets:
        real = getattr(mods[0], name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        for mod in mods:
            monkeypatch.setattr(mod, name, wrapper)


def test_per_row_work_runs_once_per_row(monkeypatch):
    calls = Counter()
    _counting(monkeypatch, calls, ((products,), "exp_factors"),
              ((products,), "reference_path"))
    run(ExperimentConfig(kind="converge", n_list=[40, 60], trials=5, seed=1,
                         target="pauli_x"))
    assert calls == {"exp_factors": 2, "reference_path": 4}  # 2 rows x 2 targets
    calls.clear()
    # the row statistics (one op_norms call in rows) are computed once per row
    _counting(monkeypatch, calls, ((rows,), "op_norms"), ((tails,), "variance_proxy"))
    run(ExperimentConfig(kind="tail", n_list=[200, 300], trials=5, seed=1))
    assert calls == {"op_norms": 2, "variance_proxy": 2}


def test_reference_path_one_exp_stack_call(monkeypatch):
    calls = Counter()
    _counting(monkeypatch, calls, ((products, linalg), "exp_stack"))
    for n in (1, 50, 8000):
        products.reference_path(np.array([[0, 0.6], [0.4, 0]]), n)
    assert calls == {"exp_stack": 3}


@pytest.mark.parametrize("mode", ["ordered", "permuted"])
def test_evolution_factor_grid_built_once_per_n(monkeypatch, mode):
    calls = Counter()
    _counting(monkeypatch, calls, ((evolution,), "exp_factors"))
    # an ordered evolution repeats one computation, so it takes one trial
    run(ExperimentConfig(kind="evolution", n_list=[40, 60], seed=1,
                         trials=1 if mode == "ordered" else 5,
                         generator={"name": "family", "fn": "step", "mode": mode}))
    assert calls == {"exp_factors": 2}


def test_tail_kind_schema(tmp_path):
    cfg = ExperimentConfig(kind="tail", n_list=[200], trials=20, seed=4,
                           generator={"name": "two_letter", "a": 20},
                           out_path=str(tmp_path / "t.csv"))
    report = run(cfg)
    emit(report, cfg.out_path)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "n,eps,empirical_freq,bernstein_bound,lemma_bound,trials"
    assert len(lines) == 1 + 12  # 12-point eps grid
    for rec in report.records:
        assert 0.0 <= rec["empirical_freq"] <= 1.0


def test_regime_kind_runs_all_default_regimes():
    regimes = [
        {"regime": "intermediate", "alpha": 0.5, "beta": 0.0, "t": 1.0},
        {"regime": "large_linf", "delta": 1.0},
    ]
    cfg = ExperimentConfig(kind="regime", n_list=[3000], trials=2, seed=6,
                           generator={"name": "spiked", "regimes": regimes})
    report = run(cfg)
    assert len(report.records) == 4
    assert {r["regime"] for r in report.records} == {"intermediate", "large_linf"}
    for rec in report.records:
        assert rec["k_n"] >= 1
        assert rec["sup_dev"] > 0


def test_summary_is_the_summary_of_the_records():
    """Each runner's sidecar summary holds the quantiles of its own CSV rows;
    regimes that share a name pool their trials under one key."""
    def by(records, column, *keys):
        groups = {}
        for rec in records:
            if rec[column] is not None:
                groups.setdefault(":".join(str(rec[k]) for k in keys), []).append(rec[column])
        return {k: experiments._quantiles(v) for k, v in groups.items()}

    report = run(ExperimentConfig(kind="converge", n_list=[40, 60], trials=3, seed=1))
    finals = by([r for r in report.records if r["k"] == r["n"]], "deviation", "n")
    assert report.summary == {n: {"sup_dev": q, "final_dev": finals[n]}
                              for n, q in by(report.records, "sup_dev", "n").items()}
    regimes = [{"regime": "large_linf", "delta": 1.0}, {"regime": "intermediate"},
               {"regime": "large_linf", "delta": 2.0}]
    report = run(ExperimentConfig(kind="regime", n_list=[400, 600], trials=2, seed=2,
                                  generator={"name": "spiked", "regimes": regimes}))
    assert report.summary == by(report.records, "sup_dev", "n", "regime")
    assert sorted(report.summary) == ["400:intermediate", "400:large_linf",
                                      "600:intermediate", "600:large_linf"]
    report = run(ExperimentConfig(kind="evolution", n_list=[40, 60], trials=3, seed=3))
    assert report.summary == by(report.records, "deviation", "n")
    report = run(ExperimentConfig(kind="words", trials=5, seed=4))
    assert report.summary == {"tau": by(report.records, "tau")[""], "a": 5, "b": 8}


BAD_REGIMES = [{"regime": "large_linf", "delta": 1.0}, {"regime": "intermediate", "alpha": 1.5}]


@pytest.mark.parametrize("kind, generator, key", _pinned([
    ("regime-generator0-generator.regimes[1]: intermediate regime needs",
     "regime", {"name": "spiked", "regimes": BAD_REGIMES},
     "generator.regimes[1]: intermediate regime needs"),
    ("regime-generator1-generator: delta must be positive",
     "regime", {"name": "spiked", "delta": -1}, "generator: delta must be positive"),
    ("regime-generator2-generator: linf must be positive",
     "regime", {"name": "spiked", "linf": -2.0}, "generator: linf must be positive"),
    ("regime-generator3-generator.regimes[0]: delta must be positive",
     "regime", {"name": "spiked", "delta": -1, "regimes": [{"regime": "large_linf"},
                                                         {"regime": "as_regime", "delta": 1}]},
     "generator.regimes[0]: delta must be positive"),
    ("converge-generator4-generator: delta must be positive",
     "converge", {"name": "spiked", "delta": -1}, "generator: delta must be positive"),
]))
def test_regime_spec_checked_before_any_cell_runs(tmp_path, capsys, monkeypatch, kind,
                                                  generator, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        ExperimentConfig(kind=kind, n_list=[400], generator=generator)
    calls = Counter()
    _counting(monkeypatch, calls, ((experiments, products), "path_deviations"))
    cfg = tmp_path / "spec.json"
    out = tmp_path / "s.csv"
    cfg.write_text(json.dumps({"kind": kind, "n_list": [400, 800], "trials": 2,
                               "generator": generator, "out_path": str(out)}))
    assert main([kind, "--config", str(cfg)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists() and not calls


def test_regime_infeasible_surfaces_error():
    cfg = ExperimentConfig(kind="regime", n_list=[10**6], trials=1, seed=6,
                           generator={"name": "spiked", "regime": "bounded_log",
                                      "delta": 1.0})
    with pytest.raises(Exception, match="bounded_log"):
        run(cfg)


def test_regime_infeasible_pair_raises_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    # large_linf is feasible at n = 400 and comes first; bounded_log is not
    with pytest.raises(InfeasibleRegimeError) as exc:
        spiked_parameters(400, RegimeSpec(regime="bounded_log", delta=1.0))
    calls = Counter()
    _counting(monkeypatch, calls, ((experiments, products), "path_deviations"))
    cfg = tmp_path / "reg.json"
    out = tmp_path / "r.csv"
    cfg.write_text(json.dumps({
        "kind": "regime", "n_list": [400], "trials": 2, "out_path": str(out),
        "generator": {"name": "spiked", "regimes": [{"regime": "large_linf", "delta": 1.0},
                                                    {"regime": "bounded_log", "delta": 1.0}]},
    }))
    assert main(["regime", "--config", str(cfg)]) == 3
    assert f"error: {exc.value}" in capsys.readouterr().err
    assert not out.exists() and not calls


@pytest.mark.parametrize("kind", ["converge", "tail"], ids=["converge", "tail"])
def test_spiked_infeasible_n_raises_before_any_cell_runs(tmp_path, capsys, monkeypatch, kind):
    # the spike count of this regime fits in n = 200, which comes first, but not in n = 40
    spec = RegimeSpec(regime="intermediate", alpha=0.5, beta=2.0)
    spiked_parameters(200, spec)
    with pytest.raises(InfeasibleRegimeError) as exc:
        spiked_parameters(40, spec)
    calls = Counter()
    _counting(monkeypatch, calls, ((experiments, products), "path_deviations"),
              ((experiments, tails), "block_gaps"))
    cfg = tmp_path / "spiked.json"
    out = tmp_path / "s.csv"
    cfg.write_text(json.dumps({
        "kind": kind, "n_list": [200, 40], "trials": 2, "out_path": str(out),
        "generator": {"name": "spiked", "regime": "intermediate", "alpha": 0.5, "beta": 2.0},
    }))
    assert main([kind, "--config", str(cfg)]) == 3
    assert f"error: {exc.value}" in capsys.readouterr().err
    assert not out.exists() and not calls


def test_words_kind_records():
    cfg = ExperimentConfig(kind="words", trials=25, seed=8,
                           generator={"name": "multiset", "a": 3, "b": 4})
    report = run(cfg)
    for rec in report.records:
        assert rec["distance"] <= rec["bound"]


def test_evolution_kind_deviation_small():
    cfg = ExperimentConfig(kind="evolution", n_list=[2000], trials=5, seed=10)
    report = run(cfg)
    assert report.summary["2000"]["median"] < 0.1


# -- CLI ----------------------------------------------------------------------

def test_cli_success_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    args = ["converge", "--n", "100", "--trials", "2", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    captured = capsys.readouterr()
    assert "wrote" in captured.out


def test_cli_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "words", "trials": 10, "seed": 1,
        "generator": {"name": "multiset", "a": 2, "b": 3},
        "out_path": str(tmp_path / "w.csv"),
    }))
    assert main(["words", "--config", str(cfg_path), "--trials", "4"]) == 0
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # override applied


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["converge", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"kind": "converge", "trials": 0}))
    assert main(["converge", "--config", str(invalid)]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"kind": "converge", "frobnicate": 1}))
    assert main(["converge", "--config", str(unknown)]) == 2

    other = tmp_path / "other.json"
    other.write_text(json.dumps({"kind": "converge", "n_list": [100],
                                 "out_path": str(tmp_path / "k.csv")}))
    assert main(["tail", "--config", str(other)]) == 2
    assert "config error: kind" in capsys.readouterr().err
    assert not (tmp_path / "k.csv").exists()

    own = tmp_path / "own.json"
    own.write_text(json.dumps({"kind": "converge", "n_list": [100],
                               "out_path": str(tmp_path / "own.csv")}))
    assert main(["converge", "--config", str(own)]) == 2
    assert "config error: out_path" in capsys.readouterr().err
    assert json.loads(own.read_text())["kind"] == "converge"


def test_cli_out_path_that_is_the_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(json.dumps({"kind": "converge", "n_list": [100]}))
    before = cfg.read_bytes()
    assert main(["converge", "--config", str(cfg), "--out", str(cfg)]) == 2
    assert "config error: out_path" in capsys.readouterr().err
    assert cfg.read_bytes() == before
    assert not (tmp_path / "run.json").exists()


MATRIX_3X3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


@pytest.mark.parametrize("kind, fields, key", _pinned([
    ("converge-fields0-out_path",
     "converge", {"out_path": 5}, "out_path"),
    ("converge-fields1-generator.b, generator.c",
     "converge", {"generator": {"name": "two_letter", "b": MATRIX_3X3, "c": "e21"}},
     "generator.b, generator.c"),
    ("evolution-fields2-generator.b, generator.c",
     "evolution", {"generator": {"name": "family", "fn": "step", "b": MATRIX_3X3}},
     "generator.b, generator.c"),
    ("tail-fields3-generator.letters[0], generator.letters[1]",
     "tail", {"generator": {"name": "repeated", "letters": ["e12", MATRIX_3X3]}},
     "generator.letters[0], generator.letters[1]"),
    ("converge-fields4-target, generator.b, generator.c",
     "converge", {"target": MATRIX_3X3}, "target, generator.b, generator.c"),
    ("converge-fields5-target",
     "converge", {"target": [[0, float("inf")], [0, 0]]}, "target"),
    # d is the dimension of every matrix too, not only of spiked rows
    ("converge-fields6-generator.b, generator.c, d",
     "converge", {"d": 3}, "generator.b, generator.c, d"),
    ("converge-fields7-target, d",
     "converge", {"generator": {"name": "spiked"}, "target": MATRIX_3X3}, "target, d"),
    ("converge-fields8-target, generator.fn, d",
     "converge", {"generator": {"name": "riemann", "fn": "linear_diagonal", "diag": [1, 2, 3]},
                  "target": "e12"}, "target, generator.fn, d"),
    # the rotation family is 2x2 though no key of it names a matrix
    ("converge-fields9-target, generator.fn, d",
     "converge", {"d": 3, "generator": {"name": "riemann", "fn": "rotation"},
                  "target": MATRIX_3X3}, "target, generator.fn, d"),
    ("evolution-fields10-generator.fn, d",
     "evolution", {"d": 3, "generator": {"name": "family", "fn": "rotation"}},
     "generator.fn, d"),
    # without generator.a the tail kind picks a block size, which needs n >= 4
    ("tail-fields11-n_list",
     "tail", {"n_list": [2]}, "n_list"),
    # a top-level field the kind never reads must keep its default
    ("tail-fields12-sigma_mode",
     "tail", {"sigma_mode": "identity"}, "sigma_mode"),
    ("converge-fields13-eps",
     "converge", {"eps": 5}, "eps"),
    ("regime-fields14-block_mode",
     "regime", {"block_mode": "probability"}, "block_mode"),
    ("evolution-fields15-target",
     "evolution", {"target": "e12"}, "target"),
    ("words-four-unread-fields",
     "words", {"target": "e12", "block_mode": "probability", "sigma_mode": "identity",
               "eps": 0.1},
     "eps: the words kind does not read it, got 0.1; sigma_mode: the words kind "
     "does not read it, got 'identity'; block_mode: the words kind does not read it, "
     "got 'probability'; target: the words kind does not read it, got 'e12'"),
    # words takes its size from the generator
    ("words-fields17-n_list: the words kind does not read it, got [7]",
     "words", {"n_list": [7]}, "n_list: the words kind does not read it, got [7]"),
    ("words-fields18-d: the words kind does not read it, got 5",
     "words", {"d": 5}, "d: the words kind does not read it, got 5"),
    # a tail with a fixed block size never chooses one
    ("tail-fields19-block_mode",
     "tail", {"block_mode": "probability", "generator": {"name": "two_letter", "a": 20}},
     "block_mode"),
    ("tail-fields20-block_mode: unknown mode 'sqrt'",
     "tail", {"block_mode": "sqrt"}, "block_mode: 'sqrt' is not one of"),
    ("converge-fields21-target: cannot parse matrix",
     "converge", {"target": [["x"]]}, "target: cannot parse matrix"),
    # copies of an n would draw the same streams and repeat the same cells
    ("converge-fields22-n_list: entries must be distinct",
     "converge", {"n_list": [40, 40]}, "n_list: entries must be distinct"),
    ("evolution-fields23-n_list: entries must be distinct",
     "evolution", {"n_list": [40, 60, 40]}, "n_list: entries must be distinct"),
    # a multiset has no matrices, so a target is unread, not of the wrong dimension
    ("words-fields24-target: the words kind does not read it",
     "words", {"target": MATRIX_3X3}, "target: the words kind does not read it"),
    # trials that cannot differ: every one would be the same computation
    ("converge-fields25-trials: every trial of an identity sigma_mode",
     "converge", {"sigma_mode": "identity"}, "trials: every trial of an identity sigma_mode"),
    ("regime-fields26-trials",
     "regime", {"sigma_mode": "identity"}, "trials"),
    ("evolution-fields27-trials",
     "evolution", {"generator": {"name": "family", "mode": "ordered"}}, "trials"),
    # a matrix entry is a number that fits a float, as every other number field
    ("converge-target-string-entry",
     "converge", {"target": [["1", 0], [0, 0]]}, "target: cannot parse matrix"),
    ("converge-target-boolean-entry",
     "converge", {"target": [[True, 0], [0, 0]]}, "target: cannot parse matrix"),
    ("converge-target-400-digit-entry",
     "converge", {"target": [[10**400, 0], [0, 0]]}, "target: cannot parse matrix"),
    ("tail-eps-400-digits",
     "tail", {"eps": 10**400}, "eps: must be a positive number"),
    # a size past sys.maxsize, which numpy cannot take
    ("regime-d-401-digits",
     "regime", {"d": 10**400},
     "d: 100000000000000000...0000000000000000000 is not a positive integer"),
]))
def test_cli_invalid_field_exit_2(tmp_path, capsys, kind, fields, key):
    cfg = tmp_path / "cfg.json"
    sized = {} if kind == "words" else {"n_list": [400]}
    cfg.write_text(json.dumps({"kind": kind, **sized, "trials": 2,
                               "out_path": str(tmp_path / "f.csv"), **fields}))
    assert main([kind, "--config", str(cfg)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("args, key", _pinned([
    ("args0-config: cannot read missing.json",
     ["--config", "missing.json"], "config: cannot read missing.json"),
    ("args1-config: expected a JSON object",
     ["--config", "list.json"], "config: expected a JSON object"),
    ("args2---n: expected comma-separated integers",
     ["--n", "1,x"], "--n: expected comma-separated integers"),
    ("args3-n_list: entries must be distinct positive integers, got [40, 40]",
     ["--n", "40,40"], "n_list: entries must be distinct positive integers, got [40, 40]"),
    ("args4-n_list: must be a non-empty list", ["--n", ""], "n_list: must be a non-empty list"),
    ("config-5000-digit-integer",
     ["--config", "digits.json"], "config: invalid JSON in digits.json"),
    ("config-not-utf-8",
     ["--config", "latin1.json"], "config: invalid JSON in latin1.json"),
    ("n-401-digits",
     ["--n", "1" + "0" * 400], "n_list: entries must be distinct positive integers"),
]))
def test_cli_bad_input_exit_2(tmp_path, capsys, monkeypatch, args, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text(json.dumps([{"kind": "converge"}]))
    # json.dumps cannot write an int past 4,300 digits, and json.load cannot read one
    (tmp_path / "digits.json").write_text('{"kind": "converge", "seed": ' + "7" * 5000 + "}")
    (tmp_path / "latin1.json").write_bytes('{"kind": "converge", "out_path": "é.csv"}'
                                           .encode("latin-1"))
    assert main(["converge", *args, "--out", "c.csv"]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("option, value, key", [("--n", "7", "n_list"), ("--d", "5", "d")])
def test_cli_words_rejects_size_options(tmp_path, capsys, option, value, key):
    out = tmp_path / "w.csv"
    assert main(["words", option, value, "--out", str(out)]) == 2
    assert f"config error: {key}: the words kind does not read it" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("n_list", [True, 100]), ("trials", True),
                                          ("seed", False), ("d", True), ("eps", True),
                                          ("eps", "abc")])
def test_cli_rejects_booleans_as_integers(tmp_path, capsys, field, value):
    cfg = tmp_path / "bool.json"
    cfg.write_text(json.dumps({"kind": "converge", "n_list": [100], field: value,
                               "out_path": str(tmp_path / "b.csv")}))
    assert main(["converge", "--config", str(cfg)]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("a", [0, -3, 201, 2.5, "20", True])
def test_cli_tail_block_size_out_of_range_exit_2(tmp_path, capsys, a):
    cfg = tmp_path / "tail.json"
    cfg.write_text(json.dumps({"kind": "tail", "n_list": [400, 200], "trials": 3,
                               "generator": {"name": "two_letter", "a": a},
                               "out_path": str(tmp_path / "t.csv")}))
    assert main(["tail", "--config", str(cfg)]) == 2
    assert "generator.a" in capsys.readouterr().err


def test_seed_of_any_size_runs(tmp_path):
    # default_rng takes a key of any size: only sizes and counts are bounded
    out = tmp_path / "w.csv"
    assert main(["words", "--trials", "2", "--seed", "1" + "0" * 400, "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["seed"] == 10**400


@pytest.mark.parametrize("fields", [{"eps": 10**5000}, {"n_list": [10**5000]}],
                         ids=["eps", "n_list"])
def test_int_past_4300_digits_is_a_config_error(fields):
    # a message cannot show it, and only a library call can pass it
    with pytest.raises(ConfigError):
        ExperimentConfig(**{"kind": "tail", "n_list": [40], **fields})


def test_int_past_4300_digits_is_shown_by_its_digit_count():
    # reprlib cannot show such an int, so the message names the field and the int's size
    with pytest.raises(ConfigError, match=r"^eps: must be a positive number when given, "
                                          r"got <an int of about 5001 digits>$"):
        ExperimentConfig(kind="tail", n_list=[40], eps=10**5000)


_HUGE, _LONG = 10**5000, "x" * 100_000


def _load_config(path, doc):
    path.write_text(json.dumps(doc))
    return load_config(build_parser().parse_args(["words", "--config", str(path)]))


@pytest.mark.parametrize("make, field", _pinned([
    ("name-int", lambda _: ExperimentConfig(kind="converge", generator={"name": _HUGE}),
     "generator.name"),
    ("name-str", lambda _: ExperimentConfig(kind="converge", generator={"name": _LONG}),
     "generator.name"),
    ("key-int", lambda _: ExperimentConfig(kind="converge",
                                           generator={"name": "two_letter", _HUGE: 1}),
     "generator: unknown keys"),
    ("key-str", lambda _: ExperimentConfig(kind="converge",
                                           generator={"name": "two_letter", _LONG: 1}),
     "generator: unknown keys"),
    ("named-matrix", lambda _: ExperimentConfig(kind="converge", target=_LONG), "target"),
    ("out_path-json", lambda _: ExperimentConfig(kind="words", out_path=_LONG + ".json"),
     "out_path"),
    ("out_path-no-file", lambda _: ExperimentConfig(kind="words", out_path=_LONG + "/.."),
     "out_path"),
    ("config-field", lambda _: ExperimentConfig.from_dict({"kind": "words", _LONG: 1}),
     "unknown config fields"),
    ("cli-kind", lambda tmp: _load_config(tmp / "c.json", {"kind": _LONG}), "kind"),
]))
def test_config_error_names_the_field_and_shows_a_value_briefly(tmp_path, make, field):
    # a library call may pass any value: the message stays short and still says where
    with pytest.raises(ConfigError) as exc:
        make(tmp_path)
    assert str(exc.value).startswith(field) and len(str(exc.value)) < 200, str(exc.value)


@pytest.mark.parametrize("generator", [False, 0, "", [], None],
                         ids=["false", "zero", "empty_string", "empty_list", "null"])
def test_cli_generator_that_is_not_an_object_exit_2(tmp_path, capsys, generator):
    # only a config that gives no generator runs the kind's default one
    cfg, out = tmp_path / "cfg.json", tmp_path / "gen.csv"
    cfg.write_text(json.dumps({"kind": "converge", "n_list": [40], "generator": generator,
                               "out_path": str(out)}))
    assert main(["converge", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: generator: must be an object with a 'name' field"), err
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_config_error_abbreviates_a_long_value(tmp_path, capsys):
    cfg = tmp_path / "eps.json"
    cfg.write_text(json.dumps({"kind": "tail", "n_list": [40], "eps": 10**400,
                               "out_path": str(tmp_path / "t.csv")}))
    assert main(["tail", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: eps") and len(err.rstrip("\n")) < 120, err


def test_tail_block_size_may_equal_smallest_n():
    report = run(ExperimentConfig(kind="tail", n_list=[400, 200], trials=3, seed=1,
                                  generator={"name": "two_letter", "a": 200}))
    assert report.summary["200"]["b"] == 1


def test_cli_runtime_error_exit_3(tmp_path, capsys):
    cfg = tmp_path / "reg.json"
    cfg.write_text(json.dumps({
        "kind": "regime", "n_list": [10**6], "trials": 1,
        "generator": {"name": "spiked", "regime": "bounded_log", "delta": 1.0},
        "out_path": str(tmp_path / "r.csv"),
    }))
    assert main(["regime", "--config", str(cfg)]) == 3
    assert "error" in capsys.readouterr().err


# Norms past the largest float make a record nan or inf, or overflow the path slack or a
# formula: a runtime error that names the quantity and n, with no report written.
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("fields, message", _pinned([
    ("tail-two_letter-1e300",
     {"kind": "tail", "generator": {"name": "two_letter", "b": [[1e300, 0], [0, 0]]}},
     "error: tail: bernstein_bound is nan at n = 40"),
    ("evolution-rotation-1e300",
     {"kind": "evolution", "generator": {"name": "family", "fn": "rotation", "scale": 1e300}},
     "error: evolution: deviation is nan at n = 40"),
    # a row mean of norm 705: ||A|| e^||A|| is past the largest float, e^||A|| is not
    ("converge-mean-705",
     {"kind": "converge", "generator": {"name": "two_letter", "b": [[1410, 0], [0, 0]]}},
     "error: converge: sup_dev is inf at n = 40"),
    ("converge-target-800",
     {"kind": "converge", "target": [[800, 0], [0, 0]]},
     "error: converge: path slack ||A|| e^||A|| / n overflows a float at target norm ||A|| = 800"
     " at n = 40"),
    # d = 3: the deviation's norm goes through LAPACK, which fails on a non-finite matrix
    ("evolution-step-d3-1e300",
     {"kind": "evolution", "d": 3, "generator": {
         "name": "family", "fn": "step", "b": [[0.5, -1, -3], [-0.5, 0.25, -0.5], [0, 800, -1e300]],
         "c": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
     "error: evolution: deviation is nan at n = 40"),
    # entries near the largest double: the time average of the family overflows to inf
    ("evolution-step-1.7e308",
     {"kind": "evolution", "generator": {"name": "family", "fn": "step",
                                         "b": [[0, 1.7e308], [0, 0]]}},
     "error: evolution: deviation is nan at n = 40"),
    ("evolution-linear_diagonal-1e308",
     {"kind": "evolution", "generator": {"name": "family", "fn": "linear_diagonal",
                                         "diag": [1e308, -1e308]}},
     "error: evolution: deviation is nan at n = 40"),
    # the row's L1 is inf, so the eps grid is past any float
    ("tail-two_letter-1.7e308",
     {"kind": "tail", "generator": {"name": "two_letter", "b": [[0, 1.7e308], [0, 0]]}},
     "error: tail: 3 L1 = inf overflows a float (the row's L1 is inf) at n = 40"),
    # the spike count formula overflows to -inf, before any cell runs
    ("regime-as_regime-1.7e308",
     {"kind": "regime", "generator": {"name": "spiked", "regime": "as_regime",
                                      "delta": 1.7e308}},
     "error: as_regime spike count formula gives -inf at n = 40"),
]))
def test_cli_non_finite_output_exit_3(tmp_path, capsys, fields, message):
    cfg = tmp_path / "big.json"
    out = tmp_path / "b.csv"
    cfg.write_text(json.dumps({"n_list": [40], "trials": 2, "out_path": str(out), **fields}))
    assert main([fields["kind"], "--config", str(cfg)]) == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_cli_tail_eps_past_3_l1_exit_3(tmp_path, capsys):
    # the e12/e21 row has L1 = 1, and the eps grid covers [eps, 3 L1)
    cfg = tmp_path / "tail.json"
    out = tmp_path / "t.csv"
    cfg.write_text(json.dumps({"kind": "tail", "n_list": [40], "trials": 2, "eps": 4.0,
                               "out_path": str(out)}))
    assert main(["tail", "--config", str(cfg)]) == 3
    assert "error: tail: eps = 4.0 must be below 3 L1 = 3.0 at n = 40" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


# Requests past what the machine can map: numpy refuses each at once and touches nothing.
def test_cli_row_past_memory_exit_3(tmp_path, capsys):
    out = tmp_path / "c.csv"  # a 582 TiB row, past the 128 TiB address space
    assert main(["converge", "--n", "10000000000000", "--out", str(out)]) == 3
    err = capsys.readouterr().err.rstrip("\n")
    assert err.startswith("error: converge: Unable to allocate"), err
    assert err.endswith("at n = 10000000000000"), err
    assert list(tmp_path.iterdir()) == []


def test_cli_words_past_memory_exit_3(tmp_path, capsys):
    cfg = tmp_path / "words.json"  # 72.8 TiB for the draw of one word of 10^13 letters
    cfg.write_text(json.dumps({"kind": "words", "out_path": str(tmp_path / "w.csv"),
                               "generator": {"name": "multiset", "a": 10**13, "b": 1}}))
    assert main(["words", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("error: words: Unable to allocate")
    assert list(tmp_path.iterdir()) == [cfg]


def _shift_family(scale: float = 1.0):
    """A 3x3 family that names no matrix: only its value shows its size."""
    m = scale * np.eye(3, k=1)
    return lambda xs: np.multiply.outer(xs, m)


@pytest.mark.parametrize("kind, name", [("evolution", "family"), ("converge", "riemann")])
def test_a_family_is_sized_by_its_value(tmp_path, capsys, monkeypatch, kind, name):
    fns = (*experiments.GENERATOR_VALUES["fn"], "shift")
    monkeypatch.setitem(evolution.FAMILIES, "shift", _shift_family)
    monkeypatch.setitem(FAMILY_DEFAULTS, "shift", {"scale": 1.0})
    monkeypatch.setitem(experiments.GENERATOR_VALUES, "fn", fns)
    monkeypatch.setitem(experiments._VALUES, "fn", fns)
    cfg, out = tmp_path / "shift.json", tmp_path / "s.csv"
    cfg.write_text(json.dumps({"kind": kind, "n_list": [40], "out_path": str(out),
                               "generator": {"name": name, "fn": "shift"}}))
    assert main([kind, "--config", str(cfg)]) == 2  # d = 2, the default
    assert ("config error: generator.fn, d: matrices must have the same dimension, got "
            "{'generator.fn': 3, 'd': 2}") in capsys.readouterr().err
    assert not out.exists()
    assert main([kind, "--config", str(cfg), "--d", "3"]) == 0
    assert out.exists()


def test_emit_refuses_a_non_finite_summary(tmp_path):
    report = run(ExperimentConfig(kind="words", trials=2, seed=1))
    report.summary["a"] = math.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit(report, tmp_path / "w.csv")
    assert list(tmp_path.iterdir()) == []


# A 250-byte CSV name, 251 with the sidecar's suffix: both fit the usual 255-byte limit,
# and the temporaries emit writes first are named apart from them.
_LONG_NAME = "x" * 246 + ".csv"


def test_cli_out_path_near_the_file_name_limit_writes_its_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["words", "--trials", "1", "--out", _LONG_NAME]) == 0
    assert sorted(p.name for p in tmp_path.rglob("*")) == [_LONG_NAME, "x" * 246 + ".json"]


def test_emit_near_the_file_name_limit_leaves_only_the_report(tmp_path):
    report = run(ExperimentConfig(kind="words", trials=2, seed=1))
    assert emit(report, tmp_path / _LONG_NAME) == tmp_path / _LONG_NAME
    assert sorted(p.name for p in tmp_path.rglob("*")) == [_LONG_NAME, "x" * 246 + ".json"]


def test_failed_emit_names_the_report_and_its_cause_and_leaves_nothing(tmp_path, monkeypatch):
    cause = OSError("disk full")

    def failing(*args, **kwargs):
        raise cause
    monkeypatch.setattr(experiments.json, "dump", failing)
    with pytest.raises(OSError) as info:
        emit(run(ExperimentConfig(kind="words", trials=2, seed=1)), tmp_path / "w.csv")
    assert str(info.value) == f"cannot write report to {tmp_path / 'w.csv'}: disk full"
    assert info.value.__cause__ is cause
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, n", [("converge", "101"), ("tail", "3"), ("converge", "2,1")])
def test_cli_two_letter_odd_n_exit_2(tmp_path, capsys, kind, n):
    out = tmp_path / "o.csv"
    assert main([kind, "--n", n, "--trials", "2", "--out", str(out)]) == 2
    assert "config error: n_list: the two_letter generator needs even n" in capsys.readouterr().err
    assert not out.exists()


def test_cli_repeated_letters_above_n_exit_2(tmp_path, capsys, monkeypatch):
    # a repeated row holds each of its letters at least once, at every n
    calls = Counter()
    _counting(monkeypatch, calls, ((experiments, products), "path_deviations"))
    cfg = tmp_path / "rep.json"
    out = tmp_path / "r.csv"
    cfg.write_text(json.dumps({"kind": "converge", "n_list": [40, 2], "out_path": str(out),
                               "generator": {"name": "repeated",
                                             "letters": ["e12", "e21", "pauli_x"]}}))
    assert main(["converge", "--config", str(cfg)]) == 2
    assert ("config error: n_list: the repeated generator needs every n >= its 3 letters, "
            "got [40, 2]") in capsys.readouterr().err
    assert not out.exists() and not calls


@pytest.mark.parametrize("kind, generator, key", _pinned([
    # a removed option is an unknown key like any other
    ("converge-generator0-oder",
     "converge", {"name": "two_letter", "oder": "interleaved", "unit_bound": True},
     "unknown keys ['oder', 'unit_bound']"),
    ("converge-generator1-a",
     "converge", {"name": "two_letter", "a": 20}, "a"),
    ("tail-generator2-tial",
     "tail", {"name": "repeated", "letters": ["e12"], "tial": "repeat_first"}, "tial"),
    ("regime-generator3-detla",
     "regime", {"name": "spiked", "regime": "large_linf", "detla": 1.0}, "detla"),
    ("regime-generator4-generator.regimes",
     "regime", {"name": "spiked", "regimes": [{"regime": "large_linf", "detla": 1.0}]},
     "generator.regimes"),
    ("words-generator5-bb",
     "words", {"name": "multiset", "a": 2, "bb": 3}, "bb"),
    ("evolution-generator6-mdoe",
     "evolution", {"name": "family", "fn": "step", "mdoe": "iid"}, "mdoe"),
    ("evolution-generator7-generator.name",
     "evolution", {"name": "riemann", "fn": "step"}, "generator.name"),
    ("converge-generator8-generator.name",
     "converge", {"name": "family"}, "generator.name"),
    ("evolution-generator9-['b']",
     "evolution", {"name": "family", "fn": "constant", "b": "e12"}, "['b']"),
    ("converge-generator10-['b']",
     "converge", {"name": "riemann", "fn": "constant", "b": "e12"}, "['b']"),
]))
def test_cli_unknown_generator_key_exit_2(tmp_path, capsys, kind, generator, key):
    cfg = tmp_path / "gen.json"
    sized = {} if kind == "words" else {"n_list": [400]}
    cfg.write_text(json.dumps({"kind": kind, **sized, "trials": 2,
                               "generator": generator, "out_path": str(tmp_path / "g.csv")}))
    assert main([kind, "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("kind, generator, key", _pinned([
    ("evolution-generator0-generator.mode",
     "evolution", {"name": "family", "fn": "step", "mode": "shuffled"}, "generator.mode"),
    ("evolution-generator1-generator.fn",
     "evolution", {"name": "family", "fn": "sine"}, "generator.fn"),
    ("converge-generator2-generator.order",
     "converge", {"name": "two_letter", "order": "interleave"}, "generator.order"),
    ("converge-generator3-generator.mode",
     "converge", {"name": "riemann", "fn": "step", "mode": "random"}, "generator.mode"),
    ("regime-generator8-generator.regime",
     "regime", {"name": "spiked", "regime": "large"}, "generator.regime"),
    ("words-generator11-generator.a",
     "words", {"name": "multiset", "a": 2.7, "b": 3}, "generator.a"),
    ("words-generator12-generator.b",
     "words", {"name": "multiset", "a": 2, "b": "3"}, "generator.b"),
    ("words-generator13-generator.a",
     "words", {"name": "multiset", "a": 0}, "generator.a"),
    ("words-generator14-generator.b",
     "words", {"name": "multiset", "b": True}, "generator.b"),
    ("evolution-generator15-generator.split",
     "evolution", {"name": "family", "fn": "step", "split": "x"}, "generator.split"),
    ("evolution-generator16-generator.diag",
     "evolution", {"name": "family", "fn": "linear_diagonal", "diag": "ab"}, "generator.diag"),
    ("evolution-generator17-generator.s, generator.t",
     "evolution", {"name": "family", "s": 0.8, "t": 0.2}, "generator.s, generator.t"),
    ("converge-generator18-generator.letters",
     "converge", {"name": "repeated", "letters": []}, "generator.letters"),
    ("regime-delta-400-digits",
     "regime", {"name": "spiked", "delta": 10**400}, "generator.delta"),
    ("words-a-401-digits",
     "words", {"name": "multiset", "a": 10**400}, "generator.a"),
]))
def test_cli_bad_generator_value_exit_2(tmp_path, capsys, kind, generator, key):
    cfg = tmp_path / "gen.json"
    sized = {} if kind == "words" else {"n_list": [400]}
    cfg.write_text(json.dumps({"kind": kind, **sized, "trials": 2,
                               "generator": generator, "out_path": str(tmp_path / "g.csv")}))
    assert main([kind, "--config", str(cfg)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_every_accepted_generator_value_validates():
    kinds = {"order": ("converge", "two_letter"), "mode": ("evolution", "family"),
             "regime": ("regime", "spiked"), "fn": ("evolution", "family")}
    for key, (kind, name) in kinds.items():
        for value in experiments.GENERATOR_VALUES[key]:
            ExperimentConfig(kind=kind, n_list=[40], generator={"name": name, key: value})
    ExperimentConfig(kind="converge", n_list=[40], generator={"name": "riemann", "mode": "iid"})


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, fn", [
    (name, fn) for name, keys in experiments.GENERATOR_DEFAULTS.items()
    for fn in (experiments.FAMILY_DEFAULTS if "fn" in keys else [None])])
def test_generator_defaults_validate_and_match_omitted_keys(name, fn):
    kind = next(k for k, (names, _, _) in experiments._KINDS.items() if name in names)
    given = {"name": name, **({"fn": fn} if fn else {})}
    full = {**experiments.GENERATOR_DEFAULTS[name], **experiments.FAMILY_DEFAULTS.get(fn, {}),
            **given}
    sized = {} if kind == "words" else {"n_list": [40]}  # words reads no n_list
    reports = [run(ExperimentConfig(kind=kind, trials=2, seed=3, generator=gen, **sized))
               for gen in (given, full)]
    assert reports[0].records == reports[1].records
    assert reports[0].summary == reports[1].summary


def _readme_section(start: str, end: str) -> str:
    text = (ROOT / "README.md").read_text()
    return text[text.index(start):text.index(end)]


def _bullets(section: str) -> list[str]:
    """The bullet items of a README section, each joined onto one line."""
    return [" ".join(item.split()) for item in section.split("\n- ")[1:]]


def test_readme_generators_match_the_table():
    section = _readme_section("Generators, with the kinds", "Tail configs may fix")
    documented = {}
    for item in _bullets(section):
        name, kinds, keys = re.fullmatch(r"`(\w+)` \(([^)]*)\): (.*)", item).groups()
        keys = keys.split(". ")[0]  # the first sentence lists the keys
        documented[name] = (set(re.findall(r"`(\w+)`", kinds)), set(re.findall(r"`(\w+)`", keys)))
    assert documented == {
        name: ({k for k, (names, _, _) in experiments._KINDS.items() if name in names},
               set(keys)) for name, keys in experiments.GENERATOR_DEFAULTS.items()}

    section = _readme_section("The families `fn` names", "Values are checked")
    families = dict(re.fullmatch(r"`(\w+)`: (.*)\.", item).groups() for item in _bullets(section))
    assert {fn: set(re.findall(r"`(\w+)`", keys)) for fn, keys in families.items()} == {
        fn: set(keys) for fn, keys in experiments.FAMILY_DEFAULTS.items()}
    assert tuple(experiments.FAMILY_DEFAULTS) == experiments.GENERATOR_VALUES["fn"]

    section = " ".join(_readme_section("Named values are checked", "Matrices are").split())
    clauses = section.split("exit 2. ")[1].rstrip(". ").split("; ")
    values = {}
    for clause in clauses:
        key, rest = re.fullmatch(r"`(\w+)` is (.*)", clause).groups()
        values[key] = tuple(re.findall(r"`(\w+)`", rest))
    assert values == experiments.GENERATOR_VALUES


def _workload_configs():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {f"perfbench:{w}": dict(doc) for w, doc in mod.WORKLOADS.items()}


def _golden_configs():
    from test_goldens import GOLDENS
    return {f"golden:{name}": dict(fields) for name, (fields, _, _) in GOLDENS.items()}


CONFIG_PATHS = sorted((ROOT / "configs").glob("*.json"))


def _shipped_json_configs():
    return {f"config:{path.stem}": json.loads(path.read_text()) for path in CONFIG_PATHS}


SHIPPED_CONFIGS = {**_workload_configs(), **_golden_configs(), **_shipped_json_configs()}


def test_shipped_configs_were_found():
    sources = Counter(key.split(":")[0] for key in SHIPPED_CONFIGS)
    assert sources == {"perfbench": 5, "golden": 10, "config": 7}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_configs_validate(name):
    ExperimentConfig(**{"out_path": "x.csv", **SHIPPED_CONFIGS[name]})


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda path: path.stem)
def test_shipped_config_runs_through_cli(tmp_path, path):
    """Each shipped config runs under its own kind, its out_path named after the file."""
    doc = json.loads(path.read_text())
    assert doc["out_path"] == f"{path.stem}.csv"
    out = tmp_path / "o.csv"
    sized = [] if doc["kind"] == "words" else ["--n", "200"]  # words reads no n_list
    trials = str(min(doc["trials"], 2))  # a config of one trial may allow no more
    assert main([doc["kind"], "--config", str(path), *sized, "--trials", trials,
                 "--out", str(out)]) == 0
    assert out.exists() and out.with_suffix(".json").exists()
