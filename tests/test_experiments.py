import ast
import importlib.util
import itertools
import json
import re
import runpy
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from trotter_shuffle import evolution, experiments, linalg, products, tails
from trotter_shuffle.cli import main
from trotter_shuffle.experiments import (COLUMNS, ConfigError, ExperimentConfig,
                                         emit, parse_matrix, run)

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


def test_parse_matrix():
    assert np.array_equal(parse_matrix("e12", "x"), [[0, 1], [0, 0]])
    got = parse_matrix([[[0, 0], [1, 2]], [[0, 0], [0, 0]]], "x")
    assert got[0, 1] == 1 + 2j
    assert np.array_equal(parse_matrix([[1, 0], [0, -1]], "x"), np.diag([1.0, -1.0]))
    with pytest.raises(ConfigError, match="x"):
        parse_matrix("no_such", "x")
    with pytest.raises(ConfigError):
        parse_matrix([[1, 2, 3]], "x")


def test_config_json_round_trip():
    cfg = ExperimentConfig(kind="tail", n_list=[100, 200], trials=7, seed=3, eps=0.1)
    doc = json.loads(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.from_dict(doc)
    assert again == cfg


def test_converge_constant_row_is_flat():
    cfg = ExperimentConfig(kind="converge", n_list=[64], trials=3, seed=1,
                           generator={"name": "constant", "matrix": "pauli_x"})
    report = run(cfg)
    summaries = [r for r in report.records if r["sup_dev"] is not None]
    assert len(summaries) == 3
    for rec in summaries:
        assert rec["sup_dev"] <= rec["slack"] + 1e-8


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

    if stage == "csv":  # fail after a few cells have been written
        monkeypatch.setattr(experiments, "_cell", failing(experiments._cell, 10))
    else:
        monkeypatch.setattr(experiments.json, "dump", failing(json.dump, 0))
    other = ExperimentConfig(kind="words", trials=5, seed=2, out_path="w.csv")
    with pytest.raises(OSError, match="disk full"):
        emit(run(other), other.out_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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
    _counting(monkeypatch, calls, ((experiments, tails), "row_stats"),
              ((experiments, tails), "variance_proxy"))
    run(ExperimentConfig(kind="tail", n_list=[200, 300], trials=5, seed=1))
    assert calls == {"row_stats": 2, "variance_proxy": 2}


def test_reference_path_one_exp_stack_call(monkeypatch):
    # exp_stack counted in linalg too, so a mat_exp call would also show
    calls = Counter()
    _counting(monkeypatch, calls, ((products, linalg), "exp_stack"), ((linalg,), "mat_exp"))
    for n in (1, 50, 8000):
        products.reference_path(np.array([[0, 0.6], [0.4, 0]]), n)
    assert calls == {"exp_stack": 3}


@pytest.mark.parametrize("mode", ["ordered", "permuted"])
def test_evolution_factor_grid_built_once_per_n(monkeypatch, mode):
    calls = Counter()
    _counting(monkeypatch, calls, ((evolution,), "exp_factors"))
    run(ExperimentConfig(kind="evolution", n_list=[40, 60], trials=5, seed=1,
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


def test_regime_infeasible_surfaces_error():
    cfg = ExperimentConfig(kind="regime", n_list=[10**6], trials=1, seed=6,
                           generator={"name": "spiked", "regime": "bounded_log",
                                      "delta": 1.0})
    with pytest.raises(Exception, match="bounded_log"):
        run(cfg)


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


@pytest.mark.parametrize("kind, n", [("converge", "101"), ("tail", "3"), ("converge", "2,1")])
def test_cli_two_letter_odd_n_exit_2(tmp_path, capsys, kind, n):
    out = tmp_path / "o.csv"
    assert main([kind, "--n", n, "--trials", "2", "--out", str(out)]) == 2
    assert "config error: n_list: the two_letter generator needs even n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, generator, key", [
    ("converge", {"name": "two_letter", "oder": "interleaved"}, "oder"),
    ("converge", {"name": "two_letter", "a": 20}, "a"),
    ("tail", {"name": "repeated", "letters": ["e12"], "tial": "repeat_first"}, "tial"),
    ("regime", {"name": "spiked", "regime": "large_linf", "detla": 1.0}, "detla"),
    ("regime", {"name": "spiked", "regimes": [{"regime": "large_linf", "detla": 1.0}]},
     "generator.regimes"),
    ("words", {"name": "multiset", "a": 2, "bb": 3}, "bb"),
    ("evolution", {"name": "family", "fn": "step", "mdoe": "iid"}, "mdoe"),
    ("evolution", {"name": "riemann", "fn": "step"}, "generator.name"),
    ("converge", {"name": "family"}, "generator.name"),
    ("evolution", {"name": "family", "fn": "constant", "b": "e12"}, "['b']"),
    ("converge", {"name": "riemann", "fn": "constant", "b": "e12"}, "['b']"),
])
def test_cli_unknown_generator_key_exit_2(tmp_path, capsys, kind, generator, key):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"kind": kind, "n_list": [400], "trials": 2,
                               "generator": generator, "out_path": str(tmp_path / "g.csv")}))
    assert main([kind, "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("kind, generator, key", [
    ("evolution", {"name": "family", "fn": "step", "mode": "shuffled"}, "generator.mode"),
    ("evolution", {"name": "family", "fn": "sine"}, "generator.fn"),
    ("converge", {"name": "two_letter", "order": "interleave"}, "generator.order"),
    ("converge", {"name": "riemann", "fn": "step", "mode": "random"}, "generator.mode"),
    ("converge", {"name": "two_letter", "unit_bound": "no"}, "generator.unit_bound"),
    ("tail", {"name": "repeated", "letters": ["e12"], "tail": "zeros"}, "generator.tail"),
    ("tail", {"name": "repeated", "unit_bound": 1}, "generator.unit_bound"),
    ("regime", {"name": "spiked", "remainder": "ones"}, "generator.remainder"),
    ("regime", {"name": "spiked", "regime": "large"}, "generator.regime"),
    ("regime", {"name": "spiked", "regimes": [{"regime": "large_linf", "remainder": "ones"}]},
     "generator.remainder"),
    ("regime", {"name": "spiked", "fixed_direction": "yes"}, "generator.fixed_direction"),
    ("words", {"name": "multiset", "a": 2.7, "b": 3}, "generator.a"),
    ("words", {"name": "multiset", "a": 2, "b": "3"}, "generator.b"),
    ("words", {"name": "multiset", "a": 0}, "generator.a"),
    ("words", {"name": "multiset", "b": True}, "generator.b"),
    ("evolution", {"name": "family", "fn": "step", "split": "x"}, "generator.split"),
    ("evolution", {"name": "family", "fn": "linear_diagonal", "diag": "ab"}, "generator.diag"),
    ("evolution", {"name": "family", "s": 0.8, "t": 0.2}, "generator.s, generator.t"),
    ("converge", {"name": "repeated", "letters": []}, "generator.letters"),
])
def test_cli_bad_generator_value_exit_2(tmp_path, capsys, kind, generator, key):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"kind": kind, "n_list": [400], "trials": 2,
                               "generator": generator, "out_path": str(tmp_path / "g.csv")}))
    assert main([kind, "--config", str(cfg)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_every_accepted_generator_value_validates():
    kinds = {"order": ("converge", "two_letter"), "tail": ("converge", "repeated"),
             "mode": ("evolution", "family"), "remainder": ("regime", "spiked"),
             "regime": ("regime", "spiked"), "fn": ("evolution", "family"),
             "unit_bound": ("tail", "two_letter"), "fixed_direction": ("regime", "spiked")}
    choices = {**experiments.GENERATOR_VALUES, "unit_bound": (False, True),
               "fixed_direction": (False, True)}
    for key, (kind, name) in kinds.items():
        for value in choices[key]:
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
    reports = [run(ExperimentConfig(kind=kind, n_list=[40], trials=2, seed=3, generator=gen))
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


def _script_configs():
    """Keyword arguments of every ExperimentConfig(...) call in scripts/, read
    from the source and evaluated in the script's namespace, once per value of
    each enclosing for-loop variable."""
    out = {}
    for path in sorted((ROOT / "scripts").glob("*.py")):
        names = runpy.run_path(str(path))

        def visit(node, loops):
            if isinstance(node, ast.For):
                loops = loops + [node]
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "ExperimentConfig":
                targets = [loop.target.id for loop in loops]
                values = [eval(compile(ast.Expression(loop.iter), str(path), "eval"), names)
                          for loop in loops]
                kwargs = ast.Expression(ast.Dict([ast.Constant(k.arg) for k in node.keywords],
                                                 [k.value for k in node.keywords]))
                code = compile(ast.fix_missing_locations(kwargs), str(path), "eval")
                for combo in itertools.product(*values):
                    key = f"script:{path.stem}:{node.lineno}:{','.join(map(str, combo))}"
                    out[key] = eval(code, {**names, **dict(zip(targets, combo))})
            for child in ast.iter_child_nodes(node):
                visit(child, loops)

        visit(ast.parse(path.read_text()), [])
    return out


SHIPPED_CONFIGS = {**_workload_configs(), **_golden_configs(), **_script_configs()}


def test_shipped_configs_were_found():
    sources = Counter(key.split(":")[0] for key in SHIPPED_CONFIGS)
    assert sources == {"perfbench": 5, "golden": 7, "script": 7}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_configs_validate(name):
    ExperimentConfig(**{"out_path": "x.csv", **SHIPPED_CONFIGS[name]})
