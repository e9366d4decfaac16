"""Randomized exponential-product experiments.

Builds triangular arrays of complex matrices, evaluates permuted products of
their exponentials against the exponential of the row mean, checks
block-average conditions with their deterministic deviation bound, and
compares matrix concentration tail bounds with Monte Carlo frequencies.
"""

from .experiments import PACKAGE_VERSION as __version__
from .experiments import ConfigError, ExperimentConfig, ExperimentReport, emit, run
from .evolution import cocycle_check, propagators
from .linalg import exp_stack, op_norms
from .products import path_deviations, prefix_products
from .rows import RegimeSpec, gen_riemann, spiked_parameters
from .words import tau_tail_bound, tau_tail_empirical

__all__ = [
    "ConfigError", "ExperimentConfig", "ExperimentReport", "RegimeSpec", "cocycle_check",
    "emit", "exp_stack", "gen_riemann", "op_norms",
    "path_deviations", "prefix_products", "propagators", "run",
    "spiked_parameters", "tau_tail_bound", "tau_tail_empirical",
]
