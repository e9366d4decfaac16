"""Config-driven experiment runner with seeded, bit-reproducible output.

An ExperimentConfig (JSON-serializable dataclass) names one of five
experiment kinds; run() executes it and returns an ExperimentReport whose
records (one per CSV row) and JSON sidecar are fully determined by
(config, seed). All randomness is drawn from the streams
np.random.default_rng(key) with key a tuple such as (seed, kind, n, trial),
so cells can be evaluated in any order without changing a byte of the output.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import evolution as evo
from .linalg import as_matrix, mat_exp, op_norms
from .products import BlockScheme, block_gaps, choose_blocks, path_deviations
from .rows import (REGIMES, ArrayRow, RegimeSpec, gen_repeated, gen_riemann, gen_spiked,
                   gen_two_letter, spiked_parameters)
from .tails import block_bernstein_bound, eps_grid, lemma_random_bound
from .words import random_word, word_statistics

PACKAGE_VERSION = "0.1.0"
SCHEMA_VERSION = 1

KINDS = ("converge", "tail", "regime", "words", "evolution")
_KIND_ID = {k: i + 1 for i, k in enumerate(KINDS)}

COLUMNS = {
    "converge": ["n", "trial", "k", "deviation", "deviation_target", "sup_dev", "slack"],
    "tail": ["n", "eps", "empirical_freq", "bernstein_bound", "lemma_bound", "trials"],
    "regime": ["n", "regime", "trial", "k_n", "linf", "l1", "norm_mean", "sup_dev", "slack"],
    "words": ["trial", "tau", "distance", "bound"],
    "evolution": ["n", "seed", "deviation"],
}

_NAMED_MATRICES = {
    "e12": [[0, 1], [0, 0]],
    "e21": [[0, 0], [1, 0]],
    "pauli_x": [[0, 1], [1, 0]],
    "pauli_z": [[1, 0], [0, -1]],
    "identity": [[1, 0], [0, 1]],
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries field context."""


def _sidecar_path(out_path) -> Path:
    """The JSON sidecar of the CSV at out_path; a ConfigError if it ends in .json
    or names no file (".", "/", "..")."""
    if (path := Path(out_path)).name in ("", ".."):
        raise ConfigError(f"out_path: {str(out_path)!r} names no file")
    if path.suffix.lower() == ".json":  # in any case
        raise ConfigError(f"out_path: {str(out_path)!r} ends in .json, so it is its own sidecar")
    return path.with_suffix(".json")


def _entries(spec, what: str) -> np.ndarray:
    """The square array of finite numbers a matrix spec names: a catalog name
    or nested lists of numbers / [re, im] pairs."""
    if isinstance(spec, str):
        if spec not in _NAMED_MATRICES:
            raise ConfigError(f"{what}: unknown named matrix {spec!r}, "
                              f"expected one of {sorted(_NAMED_MATRICES)}")
        spec = _NAMED_MATRICES[spec]
    try:
        arr = np.asarray(spec, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: cannot parse matrix: {exc}") from exc
    if arr.ndim == 3 and arr.shape[-1] == 2:
        arr = arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ConfigError(f"{what}: expected a square matrix of numbers or [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{what}: has non-finite entries")
    return arr


def parse_matrix(spec, what: str) -> np.ndarray:
    """A matrix given as a catalog name or nested lists of numbers / [re, im]."""
    return as_matrix(_entries(spec, what), what)


# generator name -> each key its row builder reads, with its default. A
# generator with an "fn" key also reads the keys of that family, below.
GENERATOR_DEFAULTS = {
    "two_letter": {"b": "e12", "c": "e21", "order": "first_half_b"},
    "repeated": {"letters": ["e12", "e21"]},
    "spiked": {"regime": "large_linf", "delta": 0.1, "alpha": 0.5, "beta": 0.0, "t": 1.0,
               "linf": None},
    "riemann": {"fn": "step", "mode": "ordered"},
    "multiset": {"a": 5, "b": 8},
    "family": {"fn": "step", "s": 0.0, "t": 1.0, "mode": "permuted"},
}

# family fn -> each argument of its factory in evolution.FAMILIES, with its default
FAMILY_DEFAULTS = {
    "constant": {"matrix": "pauli_x"},
    "linear_diagonal": {"diag": [1.0, -1.0]},
    "step": {"b": "e12", "c": "e21", "split": 0.5},
    "rotation": {"scale": 1.0},
}

# family fn -> the dimension of its matrices, for a family whose keys do not set it
FAMILY_DIMS = {"rotation": 2}

# generator key -> the values its runner accepts
GENERATOR_VALUES = {
    "order": ("first_half_b", "interleaved"), "mode": ("ordered", "permuted", "iid"),
    "regime": REGIMES, "fn": tuple(evo.FAMILIES)}

_ROW_GENERATORS = ("two_letter", "repeated", "spiked", "riemann")
_TWO_LETTER = {"name": "two_letter", "b": "e12", "c": "e21", "order": "first_half_b"}

# kind -> (generator names it runs, keys it reads beyond the generator's own,
#          the generator of a config that names none, as the sidecar echoes it)
_KINDS = {
    "converge": (_ROW_GENERATORS, (), _TWO_LETTER),
    "tail": (_ROW_GENERATORS, ("a",), _TWO_LETTER),
    "regime": (("spiked",), ("regimes",), {"name": "spiked", "regime": "large_linf",
                                           "delta": 1.0}),
    "words": (("multiset",), (), {"name": "multiset", "a": 5, "b": 8}),
    "evolution": (("family",), (), {"name": "family", "fn": "step", "b": "e12", "c": "e21",
                                    "s": 0.0, "t": 1.0, "mode": "permuted"}),
}

# top-level field -> the kinds that read it; any other kind needs its default
_SIZED = ("converge", "tail", "regime", "evolution")  # the kinds with rows of n_list and d
_FIELD_KINDS = {"target": ("converge",), "eps": ("tail",), "sigma_mode": ("converge", "regime"),
                "block_mode": ("tail",), "n_list": _SIZED, "d": _SIZED}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _keys(gen: dict) -> dict:
    """Each key the builder of a generator with a valid name reads, with its
    default: its own, and those of its family when it has one."""
    keys = dict(GENERATOR_DEFAULTS[gen["name"]])
    fn = gen.get("fn", keys.get("fn"))
    if "fn" in keys and fn in GENERATOR_VALUES["fn"]:
        keys.update(FAMILY_DEFAULTS[fn])
    return keys


def _merged(gen: dict) -> dict:
    """A valid generator over the defaults of its keys, with every number
    whose default is a float made a float."""
    keys = _keys(gen)
    return {**keys, **gen,
            **{k: float(gen[k]) for k, v in keys.items() if k in gen and isinstance(v, float)}}


def _regimes(gen: dict) -> list[tuple[str, dict]]:
    """(where, merged generator) of each regime a valid spiked generator runs:
    each of its regimes over its own keys, or itself."""
    regimes = gen.get("regimes")
    return [(f"generator.regimes[{i}]" if regimes else "generator", _merged({**gen, **r}))
            for i, r in enumerate(regimes or [{}])]


def _value_error(key: str, value, default) -> str | None:
    """Why value cannot stand for a generator key with this default, or None."""
    if key in GENERATOR_VALUES:
        ok, want = value in GENERATOR_VALUES[key], f"one of {GENERATOR_VALUES[key]}"
    elif isinstance(default, int):
        ok, want = _is_int(value) and value >= 1, "a positive integer"
    elif isinstance(default, float) or default is None:
        ok, want = _is_real(value) or value is default, "a finite number"
    elif isinstance(default, list):  # letters hold matrices, diag numbers
        ok = isinstance(value, list) and value != [] and (
            isinstance(default[0], str) or all(map(_is_real, value)))
        want = "a non-empty list" + ("" if isinstance(default[0], str) else " of numbers")
    else:
        return None  # a matrix: _matrix_errors parses it
    return None if ok else f"generator.{key}: {value!r} is not {want}"


def _matrix_errors(g: dict, target, d) -> list[str]:
    """Errors in the matrices a merged generator and the target name: each must
    parse, and all must have the same dimension, which is also that of a diag
    list, a FAMILY_DIMS family and the config's d (the spiked generator's size)."""
    specs = [] if target is None else [("target", target)]
    sizes = {}
    for key, default in _keys(g).items():
        if isinstance(default, list) and isinstance(default[0], str):
            specs += [(f"generator.{key}[{i}]", m) for i, m in enumerate(g[key])]
        elif isinstance(default, list):
            sizes[f"generator.{key}"] = len(g[key])
        elif isinstance(default, str) and key not in GENERATOR_VALUES:
            specs.append((f"generator.{key}", g[key]))
    if g.get("fn") in FAMILY_DIMS:
        sizes["generator.fn"] = FAMILY_DIMS[g["fn"]]
    if _is_int(d) and d >= 1 and g["name"] != "multiset":
        sizes["d"] = d
    try:
        dims = {what: len(_entries(spec, what)) for what, spec in specs} | sizes
    except ConfigError as exc:
        return [str(exc)]
    if len(set(dims.values())) > 1:
        return [f"{', '.join(dims)}: matrices must have the same dimension, got {dims}"]
    return []


def _generator_errors(kind: str, gen: dict, ns: list, target, d) -> list[str]:
    """Errors in the generator object of a config of this kind. Builders read
    generator keys with defaults, so a misspelt key is rejected here rather
    than silently running the default."""
    names, extra, _ = _KINDS[kind]
    name = gen["name"]
    if name not in names:
        return [f"generator.name: {name!r} is not one of {names} for kind {kind!r}"]
    errors = []
    keys = _keys(gen)
    unknown = set(gen) - set(keys) - set(extra) - {"name"}
    if unknown:
        errors.append(f"generator: unknown keys {sorted(unknown)} for {name!r}, "
                      f"expected some of {sorted(set(keys) | set(extra))}")
    regimes = gen.get("regimes") or []
    if not isinstance(regimes, list) or not all(
            isinstance(r, dict) and set(r) <= set(keys) for r in regimes):
        errors.append(f"generator.regimes: must be a list of objects with keys among "
                      f"{sorted(keys)}")
        regimes = []
    for g in [gen, *regimes]:
        errors += filter(None, (_value_error(k, v, keys[k]) for k, v in g.items() if k in keys))
    if not errors:
        errors += _matrix_errors(_merged(gen), target, d)
    if name == "family" and not errors:
        g = _merged(gen)
        if not 0 <= g["s"] <= g["t"] <= 1:
            errors.append(f"generator.s, generator.t: need 0 <= s <= t <= 1, "
                          f"got s={g['s']}, t={g['t']}")
    for where, g in _regimes(gen) if name == "spiked" and not errors else ():
        try:
            _regime_spec(g)
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
    if name == "two_letter" and any(_is_int(n) and n % 2 for n in ns):
        errors.append(f"n_list: the two_letter generator needs even n, got {ns}")
    letters = gen.get("letters", keys["letters"]) if name == "repeated" else []
    if isinstance(letters, list) and any(_is_int(n) and n < len(letters) for n in ns):
        errors.append(f"n_list: the repeated generator needs every n >= its "
                      f"{len(letters)} letters, got {ns}")
    a = gen.get("a")
    if kind == "tail" and a is None and any(_is_int(n) and n < 4 for n in ns):
        errors.append(f"n_list: the tail kind needs n >= 4 without generator.a, got {ns}")
    if kind == "tail" and a is not None and (
            not _is_int(a) or a < 1 or any(_is_int(n) and a > n for n in ns)):
        errors.append(f"generator.a: block size must be an integer in "
                      f"[1, min(n_list)], got {a!r}")
    return errors


@dataclass
class ExperimentConfig:
    kind: str
    n_list: list[int] = field(default_factory=lambda: [1000])
    d: int = 2
    trials: int = 1
    seed: int = 0
    eps: float | None = None
    generator: dict = field(default_factory=dict)
    sigma_mode: str = "random"
    block_mode: str = "sqrt_default"
    out_path: str = "out.csv"
    target: Any = None

    def __post_init__(self):
        if not self.generator and self.kind in _KINDS:
            self.generator = dict(_KINDS[self.kind][2])
        self.validate()

    def validate(self) -> None:
        errors = []
        if self.kind not in KINDS:
            errors.append(f"kind: {self.kind!r} is not one of {KINDS}")
        ns = self.n_list if isinstance(self.n_list, list) else []
        if not ns:
            errors.append("n_list: must be a non-empty list")
        elif not all(_is_int(n) and n >= 1 for n in ns) or len(set(ns)) < len(ns):
            errors.append(f"n_list: entries must be distinct positive integers, got {self.n_list}")
        if not _is_int(self.trials) or self.trials < 1:
            errors.append(f"trials: must be >= 1, got {self.trials}")
        elif self.trials > 1 and (
                self.sigma_mode == "identity" and self.kind in _FIELD_KINDS["sigma_mode"]
                or self.kind == "evolution" and isinstance(self.generator, dict)
                and self.generator.get("mode") == "ordered"):
            errors.append(f"trials: every trial of an identity sigma_mode or an ordered evolution "
                          f"is the same computation, so trials must be 1, got {self.trials}")
        if not _is_int(self.seed) or self.seed < 0:
            errors.append(f"seed: must be a non-negative integer, got {self.seed}")
        if self.eps is not None and not (_is_real(self.eps) and self.eps > 0):
            errors.append(f"eps: must be a positive number when given, got {self.eps!r}")
        if self.sigma_mode not in ("random", "identity"):
            errors.append(f"sigma_mode: {self.sigma_mode!r} is not 'random' or 'identity'")
        if self.block_mode not in ("sqrt_default", "probability"):
            errors.append(f"block_mode: unknown mode {self.block_mode!r}")
        if not _is_int(self.d) or self.d < 1:
            errors.append(f"d: must be a positive integer, got {self.d}")
        if not isinstance(self.generator, dict) or "name" not in self.generator:
            errors.append("generator: must be an object with a 'name' field")
        elif self.kind in KINDS:
            errors.extend(_generator_errors(self.kind, self.generator, ns, self.target, self.d))
        if not isinstance(self.out_path, str) or not self.out_path:
            errors.append(f"out_path: must be a non-empty string, got {self.out_path!r}")
        else:
            try:
                _sidecar_path(self.out_path)
            except ConfigError as exc:
                errors.append(str(exc))
        for name, kinds in _FIELD_KINDS.items():
            value, f = getattr(self, name), self.__dataclass_fields__[name]
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            if self.kind in KINDS and self.kind not in kinds and (
                    value is not None if default is None else value != default):
                errors.append(f"{name}: the {self.kind} kind does not read it, got {value!r}")
        if self.kind == "tail" and self.block_mode != "sqrt_default" and isinstance(
                self.generator, dict) and self.generator.get("a") is not None:
            errors.append(f"block_mode: the tail kind reads it only without generator.a, "
                          f"got {self.block_mode!r}")
        if errors:
            raise ConfigError("; ".join(errors))

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "kind" not in doc:
            raise ConfigError("kind: required field is missing")
        return cls(**doc)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ExperimentReport:
    """One record per CSV row, each keyed by COLUMNS[config.kind] (None for an
    empty cell), plus the summary that goes into the sidecar."""

    config: ExperimentConfig
    records: list[dict]
    summary: dict


def _quantiles(values) -> dict:
    q = np.quantile(np.asarray(values, dtype=float), [0.05, 0.5, 0.95])
    return dict(zip(("p05", "median", "p95"), q.tolist()))


def _family(g: dict):
    """The family of a merged generator, its factory fed from FAMILY_DEFAULTS' keys."""
    fn = g["fn"]
    return evo.FAMILIES[fn](**{k: parse_matrix(g[k], f"generator.{k}") if isinstance(v, str)
                               else g[k] for k, v in FAMILY_DEFAULTS[fn].items()})


def _build_row(g: dict, n: int, rng: np.random.Generator, d: int) -> ArrayRow:
    """The row of length n of a merged generator."""
    name = g["name"]
    if name == "two_letter":
        return gen_two_letter(n, parse_matrix(g["b"], "generator.b"),
                              parse_matrix(g["c"], "generator.c"), g["order"])
    if name == "repeated":
        letters = [parse_matrix(m, f"generator.letters[{i}]") for i, m in enumerate(g["letters"])]
        return gen_repeated(letters, n)
    if name == "spiked":
        return gen_spiked(n, _regime_spec(g), rng, d)
    return gen_riemann(_family(g), n, g["mode"], seed=rng)


def _regime_spec(g: dict) -> RegimeSpec:
    return RegimeSpec(**{f.name: g[f.name] for f in dataclasses.fields(RegimeSpec)})


def _cell(cfg: ExperimentConfig, g: dict, n: int, *cell: int):
    """The row of length n of a merged generator, drawn from default_rng(key) with key =
    (seed, kind, n, *cell), and each trial's order: the identity, or uniform from (*key, trial)."""
    key = (cfg.seed, _KIND_ID[cfg.kind], n, *cell)
    row = _build_row(g, n, np.random.default_rng(key), cfg.d)
    orders = (np.arange(n) if cfg.sigma_mode == "identity"
              else np.random.default_rng((*key, trial)).permutation(n)
              for trial in range(cfg.trials))
    return row, orders


# Each runner yields the CSV rows of its kind as tuples in COLUMNS order and
# puts the sidecar summary of its kind into summary.

def _run_converge(cfg: ExperimentConfig, summary: dict):
    g = _merged(cfg.generator)
    targets = [] if cfg.target is None else [parse_matrix(cfg.target, "target")]
    for n in cfg.n_list:
        sups, finals = [], []
        row, orders = _cell(cfg, g, n)
        reports = path_deviations(row, orders, [row.stats.mean, *targets])
        for trial, (rep, *rep_t) in enumerate(reports):
            devs_t = rep_t[0].deviations.tolist() if rep_t else [None] * len(rep.ks)
            for k, dev, dev_t in zip(rep.ks.tolist(), rep.deviations.tolist(), devs_t):
                yield n, trial, k, dev, dev_t, None, None
            yield n, trial, None, None, None, rep.sup_dev, rep.slack
            sups.append(rep.sup_dev)
            finals.append(rep.deviations[-1])  # k = n, the last grid point
        summary[str(n)] = {"sup_dev": _quantiles(sups), "final_dev": _quantiles(finals)}


def _run_tail(cfg: ExperimentConfig, summary: dict):
    g = _merged(cfg.generator)
    for n in cfg.n_list:
        row, orders = _cell(cfg, g, n)
        stats = row.stats
        a = g.get("a")  # validated: None or an integer in [1, min(n_list)]
        scheme = BlockScheme(a, n // a) if a else choose_blocks(n, stats, mode=cfg.block_mode)
        grid = eps_grid(stats.l1, floor=cfg.eps if cfg.eps else 0.05).tolist()
        mean_dev, _ = block_gaps(row, orders, scheme)
        freqs = [float((mean_dev > e).mean()) for e in grid]
        for e, freq, bound in zip(grid, freqs, block_bernstein_bound(row, scheme, grid)):
            yield (n, e, freq, bound, lemma_random_bound(n, scheme.a, scheme.b, e, stats, row.d),
                   cfg.trials)
        summary[str(n)] = {"a": scheme.a, "b": scheme.b, "l1": stats.l1,
                           "linf": stats.linf, "max_freq": max(freqs)}


def _run_regime(cfg: ExperimentConfig, summary: dict):
    sups: dict = {}  # regimes that share a name pool their trials
    for n in cfg.n_list:
        for ri, (_, g) in enumerate(_regimes(cfg.generator)):
            k_n, linf = spiked_parameters(n, _regime_spec(g))
            row, orders = _cell(cfg, g, n, ri)
            reports = path_deviations(row, orders, [row.stats.mean])
            norm_mean = float(op_norms(row.stats.mean))
            for trial, (rep,) in enumerate(reports):
                yield (n, g["regime"], trial, k_n, linf, row.stats.l1, norm_mean,
                       rep.sup_dev, rep.slack)
                sups.setdefault(f"{n}:{g['regime']}", []).append(rep.sup_dev)
    summary.update((key, _quantiles(v)) for key, v in sups.items())


def _run_words(cfg: ExperimentConfig, summary: dict):
    kid = _KIND_ID[cfg.kind]
    g = _merged(cfg.generator)
    a, b = g["a"], g["b"]
    stats = [word_statistics(random_word(a, b, np.random.default_rng((cfg.seed, kid, trial))))
             for trial in range(cfg.trials)]
    yield from ((trial, tv, dist, (a * b) ** 2 * tv) for trial, (tv, dist) in enumerate(stats))
    summary.update(tau=_quantiles([tv for tv, _ in stats]), a=a, b=b)


def _run_evolution(cfg: ExperimentConfig, summary: dict):
    kid = _KIND_ID[cfg.kind]
    g = _merged(cfg.generator)
    fn = _family(g)
    for n in cfg.n_list:
        target = mat_exp((g["t"] - g["s"]) * riemann_reference(fn, n))
        spec = evo.PropagatorSpec(fn=fn, s=g["s"], t=g["t"], n=n, mode=g["mode"])
        seeds = ((cfg.seed, kid, n, trial) for trial in range(cfg.trials))
        devs = [float(op_norms(u - target)) for u in evo.propagators(spec, seeds)]
        yield from ((n, trial, dev) for trial, dev in enumerate(devs))
        summary[str(n)] = _quantiles(devs)


def riemann_reference(fn, n: int) -> np.ndarray:
    """Time-average of the family on a grid 4x finer than the propagator's:
    the left-endpoint Riemann sum, accumulated in grid order."""
    return fn(np.arange(4 * n) / (4 * n)).sum(axis=0) / (4 * n)


_RUNNERS = dict(zip(KINDS, (_run_converge, _run_tail, _run_regime, _run_words, _run_evolution)))


def run(cfg: ExperimentConfig) -> ExperimentReport:
    cfg.validate()
    for n in cfg.n_list:  # every kind: an infeasible (n, spiked regime) raises before any cell
        for _, g in _regimes(cfg.generator):
            if g["name"] == "spiked":
                spiked_parameters(n, _regime_spec(g))
    summary: dict = {}
    records = [dict(zip(COLUMNS[cfg.kind], row)) for row in _RUNNERS[cfg.kind](cfg, summary)]
    for rec in records:  # exit 0 writes only empty cells and finite numbers
        for column, value in rec.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ArithmeticError(f"{cfg.kind}: {column} is {value} at n = {rec.get('n')}")
    return ExperimentReport(config=cfg, records=records, summary=summary)


def emit(report: ExperimentReport, out_path: str | Path) -> Path:
    """Write the CSV (UTF-8, LF) and a sibling .json sidecar; returns the CSV path.

    Both files are written to temporary files in the same directory and then moved
    over the targets, both checked first: a failed write leaves any previous report intact.
    An out_path that ends in .json is a ConfigError before anything is written.
    """
    path, sidecar = Path(out_path), _sidecar_path(out_path)
    cfg = report.config
    columns = COLUMNS[cfg.kind]
    doc = {"config": cfg.to_dict(), "seed": cfg.seed, "package_version": PACKAGE_VERSION,
           "schema_version": SCHEMA_VERSION, "columns": columns, "summary": report.summary}
    temps = [p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in (path, sidecar)]
    try:
        with open(temps[0], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([rec[c] for c in columns] for rec in report.records)
        with open(temps[1], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        for final in (path, sidecar):  # os.replace cannot put a file over a directory
            if final.is_dir():
                raise IsADirectoryError(f"{final} is a directory")
        for temp, final in zip(temps, (path, sidecar)):
            os.replace(temp, final)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    return path
