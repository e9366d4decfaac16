"""Correctness check of emitted experiment reports.

check_output reads the CSV a repetition wrote and checks its shape (columns,
row count, every value finite) and the paper's per-row invariants. recompute
rebuilds one trial from the same generated inputs with independent kernels
(scipy's expm, sequential products, LAPACK SVD norms, an O(L^2) inversion
count) and compares. check_pooled tests that deviations shrink with n on the
trials of all repetitions of a run together. Each returns a list of error
messages; empty means the output is correct. None of them is timed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from trotter_shuffle.experiments import COLUMNS, KINDS, parse_matrix
from trotter_shuffle.rows import RegimeSpec, gen_spiked, gen_two_letter

RTOL = 1e-6  # relative tolerance of recomputed deviations and bounds
ATOL = 1e-9
TAIL_EPS_POINTS = 12  # rows per n of a tail report: the default eps grid size


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _grid_size(n: int) -> int:
    return len({round(m * n / 100) for m in range(101)})


def expected_rows(doc: dict) -> int:
    kind, trials, ns = doc["kind"], doc["trials"], doc.get("n_list", [])
    if kind == "converge":
        return sum(trials * (_grid_size(n) + 1) for n in ns)
    if kind == "tail":
        return len(ns) * TAIL_EPS_POINTS
    if kind == "regime":
        return len(ns) * len(doc["generator"]["regimes"]) * trials
    if kind == "words":
        return trials
    return len(ns) * trials


def _table(doc: dict, header: list[str], rows: list[list[str]]) -> list[dict]:
    """Rows as dicts of numbers; blank cells (converge only) become None."""
    out = []
    for row in rows:
        rec = {}
        for col, cell in zip(header, row):
            if col == "regime":
                rec[col] = cell
            elif cell == "" and doc["kind"] == "converge":
                rec[col] = None
            else:
                rec[col] = float(cell)
                if not math.isfinite(rec[col]):
                    raise ValueError(f"non-finite value {cell!r} in column {col}")
        out.append(rec)
    return out


def _median_by_n(recs: list[dict], col: str) -> dict[float, float]:
    ns = sorted({r["n"] for r in recs})
    return {n: float(np.median([r[col] for r in recs if r["n"] == n])) for n in ns}


def check_output(doc: dict, path: Path) -> tuple[list[str], list[dict]]:
    """Shape and per-row invariant errors of the CSV written for config
    `doc`, and its rows parsed (empty when the shape is wrong)."""
    header, rows = read_csv(path)
    if header != COLUMNS[doc["kind"]]:
        return [f"columns {header} != {COLUMNS[doc['kind']]}"], []
    if len(rows) != expected_rows(doc) or any(len(r) != len(header) for r in rows):
        return [f"{len(rows)} rows, expected {expected_rows(doc)} of {len(header)} cells"], []
    try:
        recs = _table(doc, header, rows)
    except ValueError as exc:
        return [str(exc)], []
    return INVARIANTS[doc["kind"]](doc, recs), recs


def _sup_above_slack(recs: list[dict]) -> list[str]:
    return [f"sup_dev {r['sup_dev']} < slack {r['slack']} at n={r['n']}"
            for r in recs if r["sup_dev"] < r["slack"]]


def _shrinks_with_n(recs: list[dict], col: str) -> list[str]:
    med = _median_by_n(recs, col)
    small, large = min(med), max(med)
    if large > small and not med[large] < med[small]:
        return [f"median {col} at n={large:g} ({med[large]:.3g}) is not below "
                f"n={small:g} ({med[small]:.3g})"]
    return []


def _converge_invariants(doc, recs):
    return _sup_above_slack([r for r in recs if r["k"] is None])


def _tail_invariants(doc, recs):
    errors = []
    for r in recs:
        p = min(r["bernstein_bound"], 1.0)
        allowed = r["bernstein_bound"] + 3.0 * math.sqrt(p * (1.0 - p) / r["trials"])
        if not 0.0 <= r["empirical_freq"] <= allowed:
            errors.append(f"empirical_freq {r['empirical_freq']} above its bound "
                          f"{r['bernstein_bound']} (+3 sd) at eps={r['eps']:.4g}")
        if r["trials"] != doc["trials"]:
            errors.append(f"trials column {r['trials']} != {doc['trials']}")
    return errors


def _words_invariants(doc, recs):
    return [f"distance {r['distance']} > bound {r['bound']} in trial {r['trial']:g}"
            for r in recs if r["distance"] > r["bound"]]


INVARIANTS = {"converge": _converge_invariants,
              "regime": lambda doc, recs: _sup_above_slack(recs),
              "tail": _tail_invariants, "words": _words_invariants,
              "evolution": lambda doc, recs: []}

# The median deviation is a statistic: with few trials per n its order flips
# by chance (for evolution_step at 4 trials per n, in 9% of repetitions; at 64,
# in about 1 in 70000, by bootstrap from 300 trials per n), so it is tested on
# the trials of a whole run, at least this many per n.
POOLED_TRIALS = 64
SHRINKING = {"converge": "sup_dev", "evolution": "deviation"}


def check_pooled(kind: str, recs: list[dict]) -> list[str]:
    """Median deviation at the largest n is below the smallest n, over the
    parsed rows of every repetition of a run."""
    if kind not in SHRINKING:
        return []
    if kind == "converge":
        recs = [r for r in recs if r["k"] is None]
    return _shrinks_with_n(recs, SHRINKING[kind])


# Independent recomputation of one trial.

def _rng(doc: dict, *key: int) -> np.random.Generator:
    """The stream the package draws a cell's randomness from: keyed by
    (seed, kind id, ...), so one cell is reproducible on its own."""
    return np.random.default_rng([doc["seed"], KINDS.index(doc["kind"]) + 1, *key])


def _norms(batch: np.ndarray) -> np.ndarray:
    return np.linalg.svd(batch, compute_uv=False)[..., 0]


def _path_devs(elements: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, float]:
    """||P_k - expm(k A / n)|| for k = 0..n by sequential products of scipy
    exponentials, and the grid-cell slack ||A|| e^||A|| / n."""
    n, d = elements.shape[0], elements.shape[1]
    factors = expm(elements[order] / n)
    prods = np.empty((n + 1, d, d), dtype=np.complex128)
    prods[0] = np.eye(d)
    for k in range(n):
        prods[k + 1] = prods[k] @ factors[k]
    mean = elements.mean(axis=0)
    ref = expm(np.arange(n + 1)[:, None, None] / n * mean)
    nm = float(_norms(mean))
    return _norms(prods - ref), nm * math.exp(nm) / n


def _close(got: float, want: float, what: str) -> list[str]:
    if abs(got - want) <= ATOL + RTOL * abs(want):
        return []
    return [f"{what}: report {got!r}, recomputed {want!r}"]


def _recompute_converge(doc, recs):
    n, gen = doc["n_list"][0], doc["generator"]
    row = gen_two_letter(n, parse_matrix(gen["b"], "b"), parse_matrix(gen["c"], "c"))
    devs, slack = _path_devs(row.elements, _rng(doc, n, 0).permutation(n))
    mine = [r for r in recs if r["n"] == n and r["trial"] == 0]
    errors = []
    for r in mine:
        if r["k"] is None:
            errors += _close(r["sup_dev"], float(devs.max()) + slack, f"sup_dev n={n}")
            errors += _close(r["slack"], slack, f"slack n={n}")
        else:
            errors += _close(r["deviation"], float(devs[int(r["k"])]),
                             f"deviation n={n} k={r['k']:g}")
    return errors


def _regime_spec(gen: dict, rgen: dict) -> RegimeSpec:
    merged = {**gen, **rgen}
    return RegimeSpec(**{k: merged[k] for k in ("regime", "delta", "alpha", "beta", "t",
                                                "linf") if k in merged})


def _recompute_regime(doc, recs):
    n, gen = doc["n_list"][0], doc["generator"]
    spec = _regime_spec(gen, gen["regimes"][0])
    row = gen_spiked(n, spec, _rng(doc, n, 0), d=doc["d"])
    devs, slack = _path_devs(row.elements, _rng(doc, n, 0, 0).permutation(n))
    mean = row.elements.mean(axis=0)
    r = next(r for r in recs if r["n"] == n and r["regime"] == spec.regime and r["trial"] == 0)
    return (_close(r["sup_dev"], float(devs.max()) + slack, "sup_dev")
            + _close(r["slack"], slack, "slack")
            + _close(r["l1"], float(_norms(row.elements).mean()), "l1")
            + _close(r["norm_mean"], float(_norms(mean)), "norm_mean"))


def _recompute_tail(doc, recs):
    n, gen, trials = doc["n_list"][0], doc["generator"], doc["trials"]
    a = int(gen["a"])
    blocks = n // a
    elems = gen_two_letter(n, parse_matrix(gen["b"], "b"),
                           parse_matrix(gen["c"], "c")).elements
    d = elems.shape[1]
    mean = elems.mean(axis=0)
    worst = np.empty(trials)
    for t in range(trials):
        idx = _rng(doc, n, t).permutation(n)[: a * blocks]
        block_means = elems[idx].reshape(blocks, a, d, d).mean(axis=1)
        worst[t] = _norms(block_means - mean).max()
    v = a / n * float((_norms(elems - mean) ** 2).sum())
    big_l = 2.0 * float(_norms(elems).max())
    errors = []
    for r in (r for r in recs if r["n"] == n):
        eps = r["eps"]
        freq = float((worst > eps).mean())
        if abs(freq - r["empirical_freq"]) > 1.5 / trials:
            errors.append(f"empirical_freq at eps={eps:.4g}: report "
                          f"{r['empirical_freq']}, recomputed {freq}")
        tail = 2.0 * d * math.exp(-((a * eps) ** 2 / 2.0) / (v + big_l * a * eps / 3.0))
        errors += _close(r["bernstein_bound"], blocks * min(tail, 2.0 * d),
                         f"bernstein_bound at eps={eps:.4g}")
    return errors


def _recompute_words(doc, recs):
    a, b = int(doc["generator"]["a"]), int(doc["generator"]["b"])
    letters = _rng(doc, 0).permutation(np.tile(np.arange(a), b))
    length = a * b
    occurrence = np.empty(length, dtype=np.int64)
    for letter in range(a):
        occurrence[letters == letter] = np.arange(b)
    ranks = occurrence * a + letters
    inversions = sum(int(np.count_nonzero(ranks[i + 1:] < ranks[i]))
                     for i in range(length))
    counts = np.cumsum(letters[:, None] == np.arange(a)[None, :], axis=0)
    disc = int((counts.max(axis=1) - counts.min(axis=1)).max())
    tau_v = (disc + 1) / b
    r = next(r for r in recs if r["trial"] == 0)
    errors = []
    if r["distance"] != inversions:
        errors.append(f"distance: report {r['distance']:g}, recomputed {inversions}")
    return (errors + _close(r["tau"], tau_v, "tau")
            + _close(r["bound"], length * length * tau_v, "bound"))


def _recompute_evolution(doc, recs):
    n, gen = doc["n_list"][0], doc["generator"]
    bm, cm = parse_matrix(gen["b"], "b"), parse_matrix(gen["c"], "c")
    split = float(gen.get("split", 0.5))
    s, t = float(gen.get("s", 0.0)), float(gen.get("t", 1.0))

    def values(xs):
        return np.where((xs < split)[:, None, None], bm, cm)

    elements = values(_rng(doc, n, 0).permutation(n) / n)
    factors = expm(elements / n)
    prod = np.eye(bm.shape[0], dtype=np.complex128)
    for i in range(math.floor(s * n), math.floor(t * n)):
        prod = prod @ factors[i]
    target = expm((t - s) * values(np.arange(4 * n) / (4 * n)).mean(axis=0))
    r = next(r for r in recs if r["n"] == n and r["seed"] == 0)
    return _close(r["deviation"], float(_norms(prod - target)), f"deviation n={n}")


RECOMPUTE = {"converge": _recompute_converge, "regime": _recompute_regime,
             "tail": _recompute_tail, "words": _recompute_words,
             "evolution": _recompute_evolution}


def recompute(doc: dict, path: Path) -> list[str]:
    """Errors found by recomputing trial 0 at the first n of the report
    independently (every trial of it, for tail)."""
    header, rows = read_csv(path)
    return RECOMPUTE[doc["kind"]](doc, _table(doc, header, rows))
