"""Config-driven experiment runner with seeded, bit-reproducible output.

An ExperimentConfig (JSON-serializable dataclass) names one of five
experiment kinds; run() executes it and returns an ExperimentReport whose
records (one per CSV row) and JSON sidecar are fully determined by
(config, seed). All randomness is drawn from streams keyed by
(seed, kind, n, trial), so cells can be evaluated in any order without
changing a byte of the output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import evolution as evo
from .linalg import as_matrix, mat_exp, op_norm
from .products import (BlockScheme, Permutation, choose_blocks, path_deviations,
                       uniform_permutation)
from .rows import (REGIMES, ArrayRow, RegimeSpec, gen_repeated, gen_riemann, gen_spiked,
                   gen_two_letter, row_stats, spiked_parameters)
from .tails import (block_bernstein_bound, block_deviation_samples, eps_grid,
                    lemma_random_bound, variance_proxy)
from .words import random_word, tau, transposition_distance

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


def parse_matrix(spec, what: str) -> np.ndarray:
    """A matrix given as a catalog name or nested lists of numbers / [re, im]."""
    if isinstance(spec, str):
        if spec not in _NAMED_MATRICES:
            raise ConfigError(f"{what}: unknown named matrix {spec!r}, "
                              f"expected one of {sorted(_NAMED_MATRICES)}")
        return as_matrix(_NAMED_MATRICES[spec], what)
    try:
        arr = np.asarray(spec, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: cannot parse matrix: {exc}") from exc
    if arr.ndim == 3 and arr.shape[-1] == 2 and arr.shape[0] == arr.shape[1]:
        return as_matrix(arr[..., 0] + 1j * arr[..., 1], what)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return as_matrix(arr, what)
    raise ConfigError(f"{what}: expected a square matrix of numbers or [re, im] pairs")


# generator name -> each key its row builder reads, with its default. A
# generator with an "fn" key also reads the keys of that family, below.
GENERATOR_DEFAULTS = {
    "two_letter": {"b": "e12", "c": "e21", "order": "first_half_b", "unit_bound": False},
    "repeated": {"letters": ["e12", "e21"], "tail": "identity_fill", "unit_bound": False},
    "constant": {"matrix": "pauli_x"},
    "spiked": {"regime": "large_linf", "delta": 0.1, "alpha": 0.5, "beta": 0.0, "t": 1.0,
               "linf": None, "remainder": "random_unit", "fixed_direction": False},
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

# generator key -> the values its runner accepts
GENERATOR_VALUES = {
    "order": ("first_half_b", "interleaved"), "tail": ("identity_fill", "repeat_first"),
    "mode": ("ordered", "permuted", "iid"), "remainder": ("random_unit", "zero"),
    "regime": REGIMES, "fn": tuple(evo.FAMILIES)}

_ROW_GENERATORS = ("two_letter", "repeated", "constant", "spiked", "riemann")
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


def _value_error(key: str, value, default) -> str | None:
    """Why value cannot stand for a generator key with this default, or None."""
    if key in GENERATOR_VALUES:
        ok, want = value in GENERATOR_VALUES[key], f"one of {GENERATOR_VALUES[key]}"
    elif isinstance(default, bool):
        ok, want = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, want = _is_int(value) and value >= 1, "a positive integer"
    elif isinstance(default, float) or default is None:
        ok, want = _is_real(value) or value is default, "a finite number"
    elif isinstance(default, list):  # letters hold matrices, diag numbers
        ok = isinstance(value, list) and value != [] and (
            isinstance(default[0], str) or all(map(_is_real, value)))
        want = "a non-empty list" + ("" if isinstance(default[0], str) else " of numbers")
    else:
        return None  # a matrix: parse_matrix checks it when the row is built
    return None if ok else f"generator.{key}: {value!r} is not {want}"


def _generator_errors(kind: str, gen: dict, ns: list) -> list[str]:
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
    if name == "family" and not errors:
        g = _merged(gen)
        if not 0 <= g["s"] <= g["t"] <= 1:
            errors.append(f"generator.s, generator.t: need 0 <= s <= t <= 1, "
                          f"got s={g['s']}, t={g['t']}")
    if name == "two_letter" and any(_is_int(n) and n % 2 for n in ns):
        errors.append(f"n_list: the two_letter generator needs even n, got {ns}")
    a = gen.get("a")
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
        elif not all(_is_int(n) and n >= 1 for n in ns):
            errors.append(f"n_list: entries must be positive integers, got {self.n_list}")
        if not _is_int(self.trials) or self.trials < 1:
            errors.append(f"trials: must be >= 1, got {self.trials}")
        if not _is_int(self.seed) or self.seed < 0:
            errors.append(f"seed: must be a non-negative integer, got {self.seed}")
        if self.eps is not None and not (_is_real(self.eps) and self.eps > 0):
            errors.append(f"eps: must be a positive number when given, got {self.eps!r}")
        if self.sigma_mode not in ("random", "identity"):
            errors.append(f"sigma_mode: {self.sigma_mode!r} is not 'random' or 'identity'")
        if self.block_mode not in ("sqrt_default", "probability", "almost_sure"):
            errors.append(f"block_mode: unknown mode {self.block_mode!r}")
        if not _is_int(self.d) or self.d < 1:
            errors.append(f"d: must be a positive integer, got {self.d}")
        if not isinstance(self.generator, dict) or "name" not in self.generator:
            errors.append("generator: must be an object with a 'name' field")
        elif self.kind in KINDS:
            errors.extend(_generator_errors(self.kind, self.generator, ns))
        if not self.out_path:
            errors.append("out_path: must be non-empty")
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


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _quantiles(values) -> dict:
    arr = np.asarray(values, dtype=float)
    return {"p05": float(np.quantile(arr, 0.05)),
            "median": float(np.quantile(arr, 0.5)),
            "p95": float(np.quantile(arr, 0.95))}


def _matrix(g: dict, key: str) -> np.ndarray:
    return parse_matrix(g[key], f"generator.{key}")


def _family(g: dict):
    """The family of a merged generator, its factory fed from FAMILY_DEFAULTS' keys."""
    fn = g["fn"]
    return evo.FAMILIES[fn](**{k: _matrix(g, k) if isinstance(v, str) else g[k]
                               for k, v in FAMILY_DEFAULTS[fn].items()})


def _build_row(g: dict, n: int, rng: np.random.Generator, d: int) -> ArrayRow:
    """The row of length n of a merged generator."""
    name = g["name"]
    if name == "two_letter":
        return gen_two_letter(n, _matrix(g, "b"), _matrix(g, "c"), g["order"], g["unit_bound"])
    if name == "repeated":
        letters = [parse_matrix(m, f"generator.letters[{i}]") for i, m in enumerate(g["letters"])]
        return gen_repeated(letters, n, g["tail"], g["unit_bound"])
    if name == "constant":
        return gen_repeated([_matrix(g, "matrix")], n)
    if name == "spiked":
        return gen_spiked(n, _regime_spec(g), rng, d, g["remainder"], g["fixed_direction"])
    return gen_riemann(_family(g), n, g["mode"], seed=rng)


def _regime_spec(g: dict) -> RegimeSpec:
    try:
        return RegimeSpec(**{f.name: g[f.name] for f in dataclasses.fields(RegimeSpec)})
    except ValueError as exc:
        raise ConfigError(f"generator: {exc}") from exc


def _sigma(cfg: ExperimentConfig, n: int, rng: np.random.Generator) -> Permutation:
    if cfg.sigma_mode == "identity":
        return Permutation.identity(n)
    return uniform_permutation(n, rng)


def _grid_ks(n: int) -> list[int]:
    return sorted({round(m * n / 100) for m in range(101)})


# Each runner yields the CSV rows of its kind as tuples in COLUMNS order.

def _run_converge(cfg: ExperimentConfig, blocks: dict):
    kid = _KIND_ID[cfg.kind]
    g = _merged(cfg.generator)
    target_user = parse_matrix(cfg.target, "target") if cfg.target is not None else None
    for n in cfg.n_list:
        row = _build_row(g, n, _stream(cfg.seed, kid, n), cfg.d)
        targets = [row_stats(row).mean] + ([target_user] if target_user is not None else [])
        sigmas = (_sigma(cfg, n, _stream(cfg.seed, kid, n, trial)) for trial in range(cfg.trials))
        ks = _grid_ks(n)
        for trial, (rep, *rep_t) in enumerate(path_deviations(row, sigmas, targets)):
            for k in ks:
                dev_t = float(rep_t[0].deviations[k]) if rep_t else None
                yield n, trial, k, float(rep.deviations[k]), dev_t, None, None
            yield n, trial, None, None, None, rep.sup_dev, rep.slack


def _run_tail(cfg: ExperimentConfig, blocks: dict):
    """Also puts the per-n block summary into blocks."""
    kid = _KIND_ID[cfg.kind]
    g = _merged(cfg.generator)
    for n in cfg.n_list:
        row = _build_row(g, n, _stream(cfg.seed, kid, n), cfg.d)
        stats = row_stats(row)
        a = g.get("a")  # validated: None or an integer in [1, min(n_list)]
        scheme = BlockScheme(a, n // a) if a else choose_blocks(n, stats, mode=cfg.block_mode)
        grid = eps_grid(stats.l1, floor=cfg.eps if cfg.eps else 0.05)
        mean_dev, _ = block_deviation_samples(row, scheme, cfg.trials, (cfg.seed, kid, n), stats)
        v = variance_proxy(row, scheme.a, stats)
        freqs = [float((mean_dev > e).mean()) for e in grid]
        for e, freq in zip(grid.tolist(), freqs):
            yield (n, e, freq, block_bernstein_bound(row, scheme, e, stats=stats, v=v),
                   lemma_random_bound(n, scheme.a, scheme.b, e, stats, row.d), cfg.trials)
        blocks[str(n)] = {"a": scheme.a, "b": scheme.b, "l1": stats.l1,
                          "linf": stats.linf, "max_freq": max(freqs)}


def _run_regime(cfg: ExperimentConfig, blocks: dict):
    kid = _KIND_ID[cfg.kind]
    gen = cfg.generator
    for n in cfg.n_list:
        for ri, rgen in enumerate(gen.get("regimes") or [gen]):
            g = _merged({**gen, **rgen})
            spec = _regime_spec(g)
            k_n, linf = spiked_parameters(n, spec)
            row = _build_row(g, n, _stream(cfg.seed, kid, n, ri), cfg.d)
            stats = row_stats(row)
            norm_mean = op_norm(stats.mean)
            sigmas = (_sigma(cfg, n, _stream(cfg.seed, kid, n, ri, trial))
                      for trial in range(cfg.trials))
            for trial, (rep,) in enumerate(path_deviations(row, sigmas, [stats.mean])):
                yield (n, spec.regime, trial, k_n, linf, stats.l1, norm_mean,
                       rep.sup_dev, rep.slack)


def _run_words(cfg: ExperimentConfig, blocks: dict):
    kid = _KIND_ID[cfg.kind]
    g = _merged(cfg.generator)
    a, b = g["a"], g["b"]
    for trial in range(cfg.trials):
        w = random_word(a, b, _stream(cfg.seed, kid, trial))
        tv = tau(w)
        yield trial, tv, transposition_distance(w), (a * b) ** 2 * tv


def _run_evolution(cfg: ExperimentConfig, blocks: dict):
    kid = _KIND_ID[cfg.kind]
    g = _merged(cfg.generator)
    fn = _family(g)
    for n in cfg.n_list:
        target = mat_exp((g["t"] - g["s"]) * riemann_reference(fn, n))
        spec = evo.PropagatorSpec(fn=fn, s=g["s"], t=g["t"], n=n, mode=g["mode"])
        seeds = ((cfg.seed, kid, n, trial) for trial in range(cfg.trials))
        for trial, u in enumerate(evo.propagators(spec, seeds)):
            yield n, trial, float(op_norm(u - target))


def riemann_reference(fn, n: int) -> np.ndarray:
    """Time-average of the family on a grid 4x finer than the propagator's:
    the left-endpoint Riemann sum, accumulated in grid order."""
    return fn(np.arange(4 * n) / (4 * n)).sum(axis=0) / (4 * n)


_RUNNERS = {
    "converge": _run_converge,
    "tail": _run_tail,
    "regime": _run_regime,
    "words": _run_words,
    "evolution": _run_evolution,
}


def _quantiles_by(records: list[dict], column: str, *keys: str) -> dict:
    """Quantiles of the filled cells of a column per value of the key columns,
    joined by ":", in order of first appearance."""
    groups: dict = {}
    for rec in records:
        if rec[column] is not None:
            groups.setdefault(":".join(str(rec[k]) for k in keys), []).append(rec[column])
    return {k: _quantiles(v) for k, v in groups.items()}


def _summary(cfg: ExperimentConfig, records: list[dict], blocks: dict) -> dict:
    """The sidecar summary, read off the records; tail's is its block summary."""
    if cfg.kind == "tail":
        return blocks
    if cfg.kind == "words":
        g = _merged(cfg.generator)
        return {"tau": _quantiles([rec["tau"] for rec in records]), "a": g["a"], "b": g["b"]}
    if cfg.kind == "regime":
        return _quantiles_by(records, "sup_dev", "n", "regime")
    if cfg.kind == "evolution":
        return _quantiles_by(records, "deviation", "n")
    sups = _quantiles_by(records, "sup_dev", "n")
    finals = _quantiles_by([rec for rec in records if rec["k"] == rec["n"]], "deviation", "n")
    return {n: {"sup_dev": sups[n], "final_dev": finals[n]} for n in sups}


def run(cfg: ExperimentConfig) -> ExperimentReport:
    cfg.validate()
    blocks: dict = {}
    records = [dict(zip(COLUMNS[cfg.kind], row)) for row in _RUNNERS[cfg.kind](cfg, blocks)]
    return ExperimentReport(config=cfg, records=records, summary=_summary(cfg, records, blocks))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def emit(report: ExperimentReport, out_path: str | Path) -> Path:
    """Write the CSV (UTF-8, LF) and a sibling .json sidecar; returns the CSV path.

    Both files are written to temporary files in the same directory and then
    moved over the targets, so a failed write leaves any previous report intact.
    """
    path = Path(out_path)
    cfg = report.config
    columns = COLUMNS[cfg.kind]
    sidecar = path.with_suffix(".json")
    doc = {"config": cfg.to_dict(), "seed": cfg.seed, "package_version": PACKAGE_VERSION,
           "schema_version": SCHEMA_VERSION, "columns": columns, "summary": report.summary}
    temps = [p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in (path, sidecar)]
    try:
        with open(temps[0], "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for rec in report.records:
                fh.write(",".join(_cell(rec[c]) for c in columns) + "\n")
        with open(temps[1], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for temp, final in zip(temps, (path, sidecar)):
            os.replace(temp, final)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    return path
