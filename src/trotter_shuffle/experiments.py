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
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from reprlib import Repr
from typing import Any

import numpy as np

from . import evolution as evo
from .linalg import as_matrix, exp_stack, op_norms
from .products import path_deviations
from .rows import (REGIMES, ArrayRow, RegimeSpec, gen_repeated, gen_riemann, gen_spiked,
                   gen_two_letter, spiked_parameters)
from .tails import block_bernstein_bound, block_gaps, choose_blocks, eps_grid, lemma_random_bound
from .words import _BATCH, batch_word_statistics, random_word


class _Brief(Repr):  # a long value as about 40 characters
    def repr_int(self, x, level):  # str() refuses an int past 4,300 digits: show their count
        return (super().repr_int(x, level) if x.bit_length() < 14_000
                else f"<an int of about {math.floor(math.log10(abs(x))) + 1} digits>")


PACKAGE_VERSION = "0.1.0"
SCHEMA_VERSION = 1
_brief = _Brief().repr

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
    """The JSON sidecar of the CSV at out_path; a ConfigError if it is not a path,
    ends in .json or names no file (".", "/", "..")."""
    if not isinstance(out_path, (str, os.PathLike)):
        raise ConfigError(f"out_path: {_brief(out_path)} is not a path")
    if (path := Path(out_path)).name in ("", ".."):
        raise ConfigError(f"out_path: {_brief(str(out_path))} names no file")
    if path.suffix.lower() == ".json":  # in any case
        raise ConfigError(f"out_path: {_brief(str(out_path))} ends in .json, "
                          "so it is its own sidecar")
    return path.with_suffix(".json")


def _entries(spec, what: str) -> np.ndarray:
    """The square array of finite numbers a matrix spec names: a catalog name
    or nested lists of numbers / [re, im] pairs, each entry one that _is_real accepts."""
    if isinstance(spec, str):
        if spec not in _NAMED_MATRICES:
            raise ConfigError(f"{what}: unknown named matrix {_brief(spec)}, "
                              f"expected one of {sorted(_NAMED_MATRICES)}")
        spec = _NAMED_MATRICES[spec]
    arr = np.asarray(spec, dtype=object)
    if not all(map(_is_real, arr.ravel())):  # ravel: flat iteration stops at 32 dimensions
        raise ConfigError(f"{what}: cannot parse matrix: every entry must be a finite number")
    arr = arr.astype(np.float64)
    if arr.ndim == 3 and arr.shape[-1] == 2:
        arr = arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ConfigError(f"{what}: expected a square matrix of numbers or [re, im] pairs")
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

# generator key -> the values its runner accepts; _VALUES adds the config fields with names
GENERATOR_VALUES = {
    "order": ("first_half_b", "interleaved"), "mode": ("ordered", "permuted", "iid"),
    "regime": REGIMES, "fn": tuple(evo.FAMILIES)}
_VALUES = {**GENERATOR_VALUES, "kind": KINDS, "sigma_mode": ("random", "identity"),
           "block_mode": ("sqrt_default", "probability")}

_ROW_GENERATORS = ("two_letter", "repeated", "spiked", "riemann")

# kind -> (generator names it runs, keys it reads beyond the generator's own, the generator
#          of a config that names none as the sidecar echoes it, or None: the first name's)
_KINDS = {
    "converge": (_ROW_GENERATORS, (), None),
    "tail": (_ROW_GENERATORS, ("a",), None),
    "regime": (("spiked",), ("regimes",), {"name": "spiked", "regime": "large_linf",
                                           "delta": 1.0}),
    "words": (("multiset",), (), None),
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
    """A number that fits a float: exact for an int of any size, False for nan."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


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


def _value_error(key: str, value, default, where: str = "generator.") -> str | None:
    """Why value cannot stand for a generator key (a config field, where="") with
    this default, or None."""
    if key in _VALUES:
        ok, want = value in _VALUES[key], f"one of {_VALUES[key]}"
    elif isinstance(default, int):  # a size or a count, which numpy takes as a C ssize_t
        ok, want = _is_int(value) and 1 <= value <= sys.maxsize, "a positive integer below 2**63"
    elif isinstance(default, float) or default is None:
        ok, want = _is_real(value) or value is default, "a finite number"
    elif isinstance(default, list):  # letters hold matrices, diag numbers
        ok = isinstance(value, list) and value != [] and (
            isinstance(default[0], str) or all(map(_is_real, value)))
        want = "a non-empty list" + ("" if isinstance(default[0], str) else " of numbers")
    else:
        return None  # a matrix: _matrix_errors parses it
    return None if ok else f"{where}{key}: {_brief(value)} is not {want}"


def _matrix_errors(g: dict, target, d) -> list[str]:
    """Errors in the matrices a merged generator and the target name: each must
    parse, and all must have the same dimension, which is also the size of the
    generator's family value and the config's d (the spiked generator's size)."""
    specs = [] if target is None else [("target", target)]
    for key, default in _keys(g).items():
        if isinstance(default, list) and isinstance(default[0], str):
            specs += [(f"generator.{key}[{i}]", m) for i, m in enumerate(g[key])]
        elif isinstance(default, str) and key not in GENERATOR_VALUES:
            specs.append((f"generator.{key}", g[key]))
    try:
        dims = {what: len(_entries(spec, what)) for what, spec in specs}
    except ConfigError as exc:
        return [str(exc)]
    if "fn" in g and len(set(dims.values())) < 2:  # the family builds from matrices that agree
        dims["generator.fn"] = _family(g)(np.zeros(1)).shape[-1]
    if g["name"] != "multiset" and not _value_error("d", d, 1):
        dims["d"] = d
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
        return [f"generator.name: {_brief(name)} is not one of {names} for kind {kind!r}"]
    errors = []
    keys = _keys(gen)
    unknown = set(gen) - set(keys) - set(extra) - {"name"}
    if unknown:
        errors.append(f"generator: unknown keys {_brief(sorted(unknown, key=_brief))} "
                      f"for {name!r}, expected some of {sorted(set(keys) | set(extra))}")
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
        errors.append(f"n_list: the two_letter generator needs even n, got {_brief(ns)}")
    letters = gen.get("letters", keys["letters"]) if name == "repeated" else []
    if isinstance(letters, list) and any(_is_int(n) and n < len(letters) for n in ns):
        errors.append(f"n_list: the repeated generator needs every n >= its "
                      f"{len(letters)} letters, got {_brief(ns)}")
    a = gen.get("a")
    if kind == "tail" and a is None and any(_is_int(n) and n < 4 for n in ns):
        errors.append(f"n_list: the tail kind needs n >= 4 without generator.a, got {_brief(ns)}")
    if kind == "tail" and a is not None and (
            _value_error("a", a, 1) or any(_is_int(n) and a > n for n in ns)):
        errors.append(f"generator.a: block size must be an integer in "
                      f"[1, min(n_list)], got {_brief(a)}")
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
        if self.generator == {} and self.kind in KINDS:  # not given: the kind's default
            names, _, default = _KINDS[self.kind]
            self.generator = dict(default or {"name": names[0], **GENERATOR_DEFAULTS[names[0]]})
        try:
            self.validate()
        except ValueError as exc:  # a ConfigError, or str() on an int past 4,300 digits (!r)
            raise ConfigError(str(exc)) from exc

    def validate(self) -> None:
        # the fields with named values, and d and trials by the integer rule (default 1)
        errors = list(filter(None, (_value_error(name, getattr(self, name), 1, "") for name in
                                    ("kind", "d", "trials", "sigma_mode", "block_mode"))))
        ns = self.n_list if isinstance(self.n_list, list) else []
        gen = self.generator if isinstance(self.generator, dict) else {}
        if not ns:
            errors.append("n_list: must be a non-empty list")
        elif any(_value_error("n_list", n, 1) for n in ns) or len(set(ns)) < len(ns):
            errors.append(f"n_list: entries must be distinct positive integers, got {_brief(ns)}")
        if not _value_error("trials", self.trials, 1) and self.trials > 1 and (
                self.sigma_mode == "identity" and self.kind in _FIELD_KINDS["sigma_mode"]
                or self.kind == "evolution" and gen.get("mode") == "ordered"):
            errors.append(f"trials: every trial of an identity sigma_mode or an ordered evolution "
                          f"is the same computation, so trials must be 1, got {self.trials}")
        if not _is_int(self.seed) or self.seed < 0:
            errors.append(f"seed: must be a non-negative integer, got {_brief(self.seed)}")
        if self.eps is not None and not (_is_real(self.eps) and self.eps > 0):
            errors.append(f"eps: must be a positive number when given, got {_brief(self.eps)}")
        if "name" not in gen:
            errors.append("generator: must be an object with a 'name' field")
        elif self.kind in KINDS:
            errors.extend(_generator_errors(self.kind, gen, ns, self.target, self.d))
        try:
            _sidecar_path(self.out_path)
        except ConfigError as exc:
            errors.append(str(exc))
        for f in dataclasses.fields(self):  # a field the kind does not read keeps its default
            value, kinds = getattr(self, f.name), _FIELD_KINDS.get(f.name, KINDS)
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            unread = self.kind not in kinds or f.name == "block_mode" and gen.get("a") is not None
            if self.kind in KINDS and unread and (
                    value is not default if default is None else value != default):
                errors.append(f"{f.name}: the {self.kind} kind does not read it"
                              f"{' with generator.a' * (self.kind in kinds)}, got {_brief(value)}")
        if errors:
            raise ConfigError("; ".join(errors))

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {_brief(sorted(unknown, key=_brief))}")
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
    """The family of a merged generator, its factory fed from FAMILY_DEFAULTS' keys; matrices
    as _entries gives them (validation builds it too, and calls no public function)."""
    fn = g["fn"]
    return evo.FAMILIES[fn](**{k: _entries(g[k], f"generator.{k}") if isinstance(v, str)
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


# Each runner yields the CSV rows of one cell of its kind (one n, or the whole
# words run) as tuples in COLUMNS order and puts that cell's sidecar summary into summary.

def _run_converge(cfg: ExperimentConfig, n: int, summary: dict):
    targets = [] if cfg.target is None else [parse_matrix(cfg.target, "target")]
    sups, finals = [], []
    row, orders = _cell(cfg, _merged(cfg.generator), n)
    reports = path_deviations(row, orders, [row.stats.mean, *targets])
    for trial, (rep, *rep_t) in enumerate(reports):
        devs_t = rep_t[0].deviations.tolist() if rep_t else [None] * len(rep.ks)
        for k, dev, dev_t in zip(rep.ks.tolist(), rep.deviations.tolist(), devs_t):
            yield n, trial, k, dev, dev_t, None, None
        yield n, trial, None, None, None, rep.sup_dev, rep.slack
        sups.append(rep.sup_dev)
        finals.append(rep.deviations[-1])  # k = n, the last grid point
    summary[str(n)] = {"sup_dev": _quantiles(sups), "final_dev": _quantiles(finals)}


def _run_tail(cfg: ExperimentConfig, n: int, summary: dict):
    g = _merged(cfg.generator)
    row, orders = _cell(cfg, g, n)
    stats = row.stats
    # generator.a is validated: None or an integer in [1, min(n_list)]
    a = g.get("a") or choose_blocks(n, stats, mode=cfg.block_mode)
    grid = eps_grid(stats.l1, floor=cfg.eps or 0.05).tolist()
    mean_dev, _ = block_gaps(row, orders, a)
    freqs = [float((mean_dev > e).mean()) for e in grid]
    for e, freq, bound in zip(grid, freqs, block_bernstein_bound(row, a, grid)):
        yield n, e, freq, bound, lemma_random_bound(n, a, e, stats, row.d), cfg.trials
    summary[str(n)] = {"a": a, "b": n // a, "l1": stats.l1,
                       "linf": stats.linf, "max_freq": max(freqs)}


def _run_regime(cfg: ExperimentConfig, n: int, summary: dict):
    sups: dict = {}  # regimes that share a name pool their trials
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


def _run_words(cfg: ExperimentConfig, _n: None, summary: dict):
    g = _merged(cfg.generator)
    a, b = g["a"], g["b"]
    step, stats = max(1, _BATCH // (a * a * b)), []  # a chunk of words holds _BATCH counts
    for start in range(0, cfg.trials, step):  # each trial's word from its own keyed stream
        keys = ((cfg.seed, _KIND_ID[cfg.kind], t) for t in range(cfg.trials)[start:start + step])
        words = [random_word(a, b, np.random.default_rng(key)) for key in keys]
        stats += zip(*(s.tolist() for s in batch_word_statistics(np.stack(words), a)))
    yield from ((trial, tv, dist, (a * b) ** 2 * tv) for trial, (tv, dist) in enumerate(stats))
    summary.update(tau=_quantiles([tv for tv, _ in stats]), a=a, b=b)


def _run_evolution(cfg: ExperimentConfig, n: int, summary: dict):
    g = _merged(cfg.generator)
    fn = _family(g)
    target = exp_stack(((g["t"] - g["s"]) * riemann_reference(fn, n))[None], 1e-12)[0]
    seeds = ((cfg.seed, _KIND_ID[cfg.kind], n, trial) for trial in range(cfg.trials))
    devs = [float(op_norms(u - target))
            for u in evo.propagators(fn, n, seeds, g["s"], g["t"], g["mode"])]
    yield from ((n, trial, dev) for trial, dev in enumerate(devs))
    summary[str(n)] = _quantiles(devs)


def riemann_reference(fn, n: int) -> np.ndarray:
    """Time-average of the family on a grid 4x finer than the propagator's: the
    left-endpoint Riemann sum, accumulated in grid order at d >= 2. einsum's strided
    loop adds in grid order, as numpy's axis-0 sum does; at d = 1 that axis is
    contiguous, so numpy sums it pairwise, and einsum's unrolled loop would not match."""
    v = fn(np.arange(4 * n) / (4 * n))
    return (v.sum(axis=0) if v.shape[-1] == 1 else np.einsum("i...->...", v)) / (4 * n)


_RUNNERS = dict(zip(KINDS, (_run_converge, _run_tail, _run_regime, _run_words, _run_evolution)))


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the cells of the config in order: each n of n_list, or the one cell of words.
    Every exception a cell raises (a record that holds nan or inf is an ArithmeticError)
    is raised again as the same type, its message naming the kind and the cell's n; numpy's
    _ArrayMemoryError, which no message alone builds, as a MemoryError."""
    cfg.validate()
    for n in cfg.n_list:  # every kind: an infeasible (n, spiked regime) raises before any cell
        for _, g in _regimes(cfg.generator):
            if g["name"] == "spiked":
                spiked_parameters(n, _regime_spec(g))
    records, summary = [], {}
    for n in cfg.n_list if cfg.kind in _SIZED else [None]:
        try:
            for row in _RUNNERS[cfg.kind](cfg, n, summary):
                records.append(rec := dict(zip(COLUMNS[cfg.kind], row)))
                for column, value in rec.items():
                    if isinstance(value, float) and not math.isfinite(value):
                        raise ArithmeticError(f"{column} is {value}")
        except Exception as exc:  # noqa: BLE001 - every failure of a cell names the cell
            raise (MemoryError if isinstance(exc, MemoryError) else type(exc))(
                f"{cfg.kind}: {exc}{'' if n is None else f' at n = {n}'}") from exc
    return ExperimentReport(config=cfg, records=records, summary=summary)


def emit(report: ExperimentReport, out_path: str | Path) -> Path:
    """Write the CSV (UTF-8, LF) and a sibling .json sidecar; returns the CSV path.

    Both files are written into one hidden temporary directory beside the targets, then moved
    over them, both checked first: a failed write leaves any previous report intact.
    An out_path that ends in .json is a ConfigError before anything is written.
    """
    path, sidecar = Path(out_path), _sidecar_path(out_path)
    cfg = report.config
    columns = COLUMNS[cfg.kind]
    doc = {"config": cfg.to_dict(), "seed": cfg.seed, "package_version": PACKAGE_VERSION,
           "schema_version": SCHEMA_VERSION, "columns": columns, "summary": report.summary}
    try:
        with tempfile.TemporaryDirectory(prefix=".", dir=path.parent,
                                         ignore_cleanup_errors=True) as tmp:
            with open(Path(tmp, "csv"), "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows([rec[c] for c in columns] for rec in report.records)
            with open(Path(tmp, "json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False, default=os.fspath)
                fh.write("\n")
            for final in (path, sidecar):  # os.replace cannot put a file over a directory
                if final.is_dir():
                    raise IsADirectoryError(f"{final} is a directory")
            for name, final in (("csv", path), ("json", sidecar)):
                os.replace(Path(tmp, name), final)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return path
