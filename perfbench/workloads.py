"""The benchmark's workloads: one experiment config each, sized so that one
repetition (experiments.run + experiments.emit) takes a third of a second to
a second on a 2-core x86 machine, which gives 10 to 30 samples in a 12 s run.

Why each workload exists is recorded in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import copy

import numpy as np

TWO_LETTER = {"name": "two_letter", "b": "e12", "c": "e21"}

# name -> config document without seed and out_path.
WORKLOADS: dict[str, dict] = {
    # products dominate: prefix products and the reference path on letter rows.
    "converge_letters": {
        "kind": "converge", "n_list": [2000, 8000], "d": 2, "trials": 4,
        "sigma_mode": "random", "generator": dict(TWO_LETTER),
    },
    # general (non-letter) rows at d=8: np.unique + exp_stack, SVD operator norms.
    "regime_spiked_d8": {
        "kind": "regime", "n_list": [2000], "d": 8, "trials": 3,
        "generator": {"name": "spiked", "regimes": [
            {"regime": "large_linf", "delta": 1.0},
            {"regime": "intermediate", "alpha": 0.5},
        ]},
    },
    # block statistics only; no prefix products.
    "tail_blocks": {
        "kind": "tail", "n_list": [10000], "trials": 100,
        "generator": {**TWO_LETTER, "a": 100},
    },
    # inversion counts on words of length a*b = 4000.
    "words_long": {
        "kind": "words", "trials": 48,
        "generator": {"name": "multiset", "a": 20, "b": 200},
    },
    # Riemann rows of a step family and their propagators.
    "evolution_step": {
        "kind": "evolution", "n_list": [2000, 8000], "trials": 4,
        "generator": {"name": "family", "fn": "step", "b": "e12", "c": "e21",
                      "s": 0.0, "t": 1.0, "mode": "permuted"},
    },
}

# Per workload, the layers (or single functions) whose own code should take
# the largest share of a traced run.
DOMINANT: dict[str, tuple[str, ...]] = {
    "converge_letters": ("products",),
    "regime_spiked_d8": ("products", "linalg"),
    "tail_blocks": ("tails", "rows.row_stats"),
    "words_long": ("words",),
    "evolution_step": ("evolution", "rows.gen_riemann"),
}


def config_doc(workload: str, seed: int, out_path: str) -> dict:
    """The workload's config document for one repetition seeded by `seed`."""
    return {**copy.deepcopy(WORKLOADS[workload]), "seed": seed, "out_path": out_path}


def rep_seed(seed: int, rep: int) -> int:
    """Config seed of repetition `rep` of a run: a pure function of the
    benchmark seed, so the same seed gives the same inputs."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def trials_per_rep(doc: dict) -> int:
    """Trials one run of the config performs: (n, trial) cells, or
    (n, regime, trial) cells for the regime kind, or trials for words."""
    kind = doc["kind"]
    if kind == "words":
        return doc["trials"]
    cells = len(doc["n_list"]) * doc["trials"]
    if kind == "regime":
        cells *= len(doc["generator"]["regimes"])
    return cells
