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


def _default_generator(kind: str) -> dict:
    if kind == "regime":
        return {"name": "spiked", "regime": "large_linf", "delta": 1.0}
    if kind == "words":
        return {"name": "multiset", "a": 5, "b": 8}
    if kind == "evolution":
        return {"name": "family", "fn": "step", "b": "e12", "c": "e21",
                "s": 0.0, "t": 1.0, "mode": "permuted"}
    return {"name": "two_letter", "b": "e12", "c": "e21", "order": "first_half_b"}


_FAMILY_KEYS = {"fn", "matrix", "diag", "b", "c", "split", "scale"}

# generator name -> the keys its runner reads besides "name"
GENERATOR_KEYS = {
    "two_letter": {"b", "c", "order", "unit_bound"},
    "repeated": {"letters", "tail", "unit_bound"},
    "constant": {"matrix"},
    "spiked": {"regime", "delta", "alpha", "beta", "t", "linf", "remainder",
               "fixed_direction"},
    "riemann": _FAMILY_KEYS | {"mode"},
    "multiset": {"a", "b"},
    "family": _FAMILY_KEYS | {"s", "t", "mode"},
}

# generator key -> the values its runner accepts
GENERATOR_VALUES = {
    "order": ("first_half_b", "interleaved"), "tail": ("identity_fill", "repeat_first"),
    "mode": ("ordered", "permuted", "iid"), "remainder": ("random_unit", "zero"),
    "regime": REGIMES, "fn": tuple(evo.FAMILIES)}

_ROW_GENERATORS = ("two_letter", "repeated", "constant", "spiked", "riemann")

# kind -> (generator names it runs, keys it reads beyond the generator's own)
_KIND_GENERATORS = {
    "converge": (_ROW_GENERATORS, set()),
    "tail": (_ROW_GENERATORS, {"a"}),
    "regime": (("spiked",), {"regimes"}),
    "words": (("multiset",), set()),
    "evolution": (("family",), set()),
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _generator_errors(kind: str, gen: dict, ns: list) -> list[str]:
    """Errors in the generator object of a config of this kind. Runners read
    generator keys with defaults, so a misspelt key is rejected here rather
    than silently running the default."""
    names, extra = _KIND_GENERATORS[kind]
    name = gen["name"]
    if name not in names:
        return [f"generator.name: {name!r} is not one of {names} for kind {kind!r}"]
    errors = []
    allowed = GENERATOR_KEYS[name] | extra
    unknown = set(gen) - allowed - {"name"}
    if unknown:
        errors.append(f"generator: unknown keys {sorted(unknown)} for {name!r}, "
                      f"expected some of {sorted(allowed)}")
    regimes = gen.get("regimes") or []
    if not isinstance(regimes, list) or not all(
            isinstance(r, dict) and set(r) <= GENERATOR_KEYS["spiked"] for r in regimes):
        errors.append(f"generator.regimes: must be a list of objects with keys among "
                      f"{sorted(GENERATOR_KEYS['spiked'])}")
        regimes = []
    for key, value in ((k, v) for g in [gen, *regimes] for k, v in g.items()):
        if key in GENERATOR_VALUES and value not in GENERATOR_VALUES[key]:
            errors.append(f"generator.{key}: {value!r} is not one of {GENERATOR_VALUES[key]}")
        elif key in ("unit_bound", "fixed_direction") and not isinstance(value, bool):
            errors.append(f"generator.{key}: must be true or false, got {value!r}")
    if name == "multiset" and not all(_is_int(gen.get(k, 1)) and gen.get(k, 1) >= 1 for k in "ab"):
        errors.append(f"generator.a, generator.b: word shape must be positive integers, "
                      f"got a={gen.get('a', 5)!r}, b={gen.get('b', 8)!r}")
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
        if not self.generator:
            self.generator = _default_generator(self.kind)
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
        if self.eps is not None and not self.eps > 0:
            errors.append(f"eps: must be positive when given, got {self.eps}")
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


def _build_family(gen: dict):
    name = gen.get("fn", "step")
    if name == "constant":
        return evo.constant_family(parse_matrix(gen.get("matrix", "pauli_x"), "generator.matrix"))
    if name == "linear_diagonal":
        return evo.linear_diagonal_family(gen.get("diag", [1.0, -1.0]))
    if name == "step":
        return evo.step_family(parse_matrix(gen.get("b", "e12"), "generator.b"),
                               parse_matrix(gen.get("c", "e21"), "generator.c"),
                               split=float(gen.get("split", 0.5)))
    if name == "rotation":
        return evo.rotation_family(scale=float(gen.get("scale", 1.0)))
    raise ConfigError(f"generator.fn: unknown family {name!r}, "
                      f"expected one of {sorted(evo.FAMILIES)}")


def _build_row(cfg: ExperimentConfig, n: int, rng: np.random.Generator) -> ArrayRow:
    gen = cfg.generator
    name = gen.get("name")
    if name == "two_letter":
        return gen_two_letter(n, parse_matrix(gen.get("b", "e12"), "generator.b"),
                              parse_matrix(gen.get("c", "e21"), "generator.c"),
                              order=gen.get("order", "first_half_b"),
                              unit_bound=bool(gen.get("unit_bound", False)))
    if name == "repeated":
        letters = [parse_matrix(m, f"generator.letters[{i}]")
                   for i, m in enumerate(gen.get("letters", ["e12", "e21"]))]
        return gen_repeated(letters, n, tail=gen.get("tail", "identity_fill"),
                            unit_bound=bool(gen.get("unit_bound", False)))
    if name == "constant":
        m = parse_matrix(gen.get("matrix", "pauli_x"), "generator.matrix")
        return gen_repeated([m], n)
    if name == "spiked":
        spec = _regime_spec(gen)
        return gen_spiked(n, spec, rng, d=cfg.d,
                          remainder=gen.get("remainder", "random_unit"),
                          fixed_direction=bool(gen.get("fixed_direction", False)))
    if name == "riemann":
        return gen_riemann(_build_family(gen), n, mode=gen.get("mode", "ordered"), seed=rng)
    raise ConfigError(f"generator.name: unknown generator {name!r}")


def _regime_spec(gen: dict) -> RegimeSpec:
    try:
        return RegimeSpec(regime=gen.get("regime", "large_linf"),
                          delta=float(gen.get("delta", 0.1)),
                          alpha=float(gen.get("alpha", 0.5)),
                          beta=float(gen.get("beta", 0.0)),
                          t=float(gen.get("t", 1.0)),
                          linf=(float(gen["linf"]) if gen.get("linf") is not None else None))
    except ValueError as exc:
        raise ConfigError(f"generator: {exc}") from exc


def _sigma(cfg: ExperimentConfig, n: int, rng: np.random.Generator) -> Permutation:
    if cfg.sigma_mode == "identity":
        return Permutation.identity(n)
    return uniform_permutation(n, rng)


def _grid_ks(n: int) -> list[int]:
    return sorted({round(m * n / 100) for m in range(101)})


def _run_converge(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    kid = _KIND_ID[cfg.kind]
    cols = COLUMNS[cfg.kind]
    target_user = parse_matrix(cfg.target, "target") if cfg.target is not None else None
    records: list[dict] = []
    sups: dict[int, list[float]] = {}
    finals: dict[int, list[float]] = {}
    for n in cfg.n_list:
        row = _build_row(cfg, n, _stream(cfg.seed, kid, n))
        targets = [row_stats(row).mean] + ([target_user] if target_user is not None else [])
        sigmas = (_sigma(cfg, n, _stream(cfg.seed, kid, n, trial)) for trial in range(cfg.trials))
        ks = _grid_ks(n)
        for trial, (rep, *rep_t) in enumerate(path_deviations(row, sigmas, targets)):
            for k in ks:
                dev_t = float(rep_t[0].deviations[k]) if rep_t else None
                records.append(dict(zip(cols, (n, trial, k, float(rep.deviations[k]), dev_t,
                                               None, None))))
            records.append(dict(zip(cols, (n, trial, None, None, None, rep.sup_dev, rep.slack))))
            sups.setdefault(n, []).append(rep.sup_dev)
            finals.setdefault(n, []).append(float(rep.deviations[-1]))
    summary = {str(n): {"sup_dev": _quantiles(sups[n]), "final_dev": _quantiles(finals[n])}
               for n in cfg.n_list}
    return records, summary


def _run_tail(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    kid = _KIND_ID[cfg.kind]
    cols = COLUMNS[cfg.kind]
    records: list[dict] = []
    summary: dict = {}
    for n in cfg.n_list:
        row = _build_row(cfg, n, _stream(cfg.seed, kid, n))
        stats = row_stats(row)
        a_fixed = cfg.generator.get("a")
        if a_fixed is not None:
            scheme = BlockScheme(a=a_fixed, b=n // a_fixed)
        else:
            scheme = choose_blocks(n, stats, mode=cfg.block_mode)
        grid = eps_grid(stats.l1, floor=cfg.eps if cfg.eps else 0.05)
        mean_dev, _ = block_deviation_samples(row, scheme, cfg.trials, (cfg.seed, kid, n), stats)
        v = variance_proxy(row, scheme.a, stats)
        freqs = []
        for e in grid:
            freq = float((mean_dev > e).mean())
            lemma = lemma_random_bound(n, scheme.a, scheme.b, float(e), stats, row.d)
            bern = block_bernstein_bound(row, scheme, float(e), stats=stats, v=v)
            records.append(dict(zip(cols, (n, float(e), freq, bern, lemma, cfg.trials))))
            freqs.append(freq)
        summary[str(n)] = {"a": scheme.a, "b": scheme.b, "l1": stats.l1,
                           "linf": stats.linf, "max_freq": max(freqs)}
    return records, summary


def _run_regime(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    kid = _KIND_ID[cfg.kind]
    cols = COLUMNS[cfg.kind]
    gen = cfg.generator
    regimes = gen.get("regimes") or [gen]
    records: list[dict] = []
    sups: dict[tuple, list[float]] = {}
    for n in cfg.n_list:
        for ri, rgen in enumerate(regimes):
            spec = _regime_spec({**gen, **rgen})
            k_n, linf = spiked_parameters(n, spec)
            sub = dataclasses.replace(cfg, generator={**gen, **rgen, "name": "spiked"})
            row = _build_row(sub, n, _stream(cfg.seed, kid, n, ri))
            stats = row_stats(row)
            norm_mean = op_norm(stats.mean)
            sigmas = (_sigma(cfg, n, _stream(cfg.seed, kid, n, ri, trial))
                      for trial in range(cfg.trials))
            for trial, (rep,) in enumerate(path_deviations(row, sigmas, [stats.mean])):
                records.append(dict(zip(cols, (n, spec.regime, trial, k_n, linf, stats.l1,
                                               norm_mean, rep.sup_dev, rep.slack))))
                sups.setdefault((n, spec.regime), []).append(rep.sup_dev)
    summary = {f"{n}:{reg}": _quantiles(v) for (n, reg), v in sups.items()}
    return records, summary


def _run_words(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    kid = _KIND_ID[cfg.kind]
    cols = COLUMNS[cfg.kind]
    a, b = cfg.generator.get("a", 5), cfg.generator.get("b", 8)
    length = a * b
    records: list[dict] = []
    taus = []
    for trial in range(cfg.trials):
        w = random_word(a, b, _stream(cfg.seed, kid, trial))
        tv = tau(w)
        records.append(dict(zip(cols, (trial, tv, transposition_distance(w),
                                       length * length * tv))))
        taus.append(tv)
    summary = {"tau": _quantiles(taus), "a": a, "b": b}
    return records, summary


def _run_evolution(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    kid = _KIND_ID[cfg.kind]
    cols = COLUMNS[cfg.kind]
    gen = cfg.generator
    fn = _build_family(gen)
    s = float(gen.get("s", 0.0))
    t = float(gen.get("t", 1.0))
    mode = gen.get("mode", "permuted")
    records: list[dict] = []
    devs: dict[int, list[float]] = {}
    for n in cfg.n_list:
        target = mat_exp((t - s) * riemann_reference(fn, n))
        spec = evo.PropagatorSpec(fn=fn, s=s, t=t, n=n, mode=mode)
        seeds = ((cfg.seed, kid, n, trial) for trial in range(cfg.trials))
        for trial, u in enumerate(evo.propagators(spec, seeds)):
            dev = float(op_norm(u - target))
            records.append(dict(zip(cols, (n, trial, dev))))
            devs.setdefault(n, []).append(dev)
    summary = {str(n): _quantiles(v) for n, v in devs.items()}
    return records, summary


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


def run(cfg: ExperimentConfig) -> ExperimentReport:
    cfg.validate()
    records, summary = _RUNNERS[cfg.kind](cfg)
    return ExperimentReport(config=cfg, records=records, summary=summary)


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
