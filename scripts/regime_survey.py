#!/usr/bin/env python3
"""Spike count k_n and spike norm linf of each spiked-norm regime at the
paper's scale n = 10^6, from the formulas alone (no row is built).

The permuted-product deviations of these regimes at a desk-scale n come from
`trotter-shuffle regime --config configs/regime_survey.json`.
"""

from trotter_shuffle import RegimeSpec, spiked_parameters

REGIMES = [
    {"regime": "prob_regime", "delta": 0.1, "linf": 10.0},
    {"regime": "as_regime", "delta": 0.1, "linf": 10.0},
    {"regime": "large_linf", "delta": 1.0},
    {"regime": "bounded_log", "delta": 0.1},
    {"regime": "intermediate", "alpha": 0.5, "beta": 0.0, "t": 1.0},
]

if __name__ == "__main__":
    print("n = 1e6 formula survey:")
    for params in REGIMES:
        spec = RegimeSpec(**params)
        try:
            k, linf = spiked_parameters(10**6, spec)
            print(f"  {spec.regime:>13}: k_n = {k:7d}, linf = {linf:10.3f}")
        except ValueError as exc:
            print(f"  {spec.regime:>13}: infeasible ({exc})")
