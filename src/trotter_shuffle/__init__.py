"""Randomized exponential-product experiments.

Builds triangular arrays of complex matrices, evaluates permuted products of
their exponentials against the exponential of the row mean, checks
block-average conditions with their deterministic deviation bound, and
compares matrix concentration tail bounds with Monte Carlo frequencies.
"""

from .experiments import PACKAGE_VERSION as __version__
from .experiments import ConfigError, ExperimentConfig, ExperimentReport, emit, run
from .evolution import (FAMILIES, PropagatorSpec, cocycle_check, propagate,
                        propagators, sample_row)
from .linalg import commutator, hermitian_dilation, mat_exp, op_norm, op_norms
from .products import (BlockConditionReport, BlockScheme, PathReport, Permutation,
                       check_block_conditions, choose_blocks, partial_products,
                       path_deviation, path_deviations, prefix_products,
                       prop_uniform_bound, reference_path, uniform_permutation)
from .rows import (ArrayRow, InfeasibleRegimeError, QuantizationPlan, RegimeSpec,
                   RowStats, frequency_quantize, gen_repeated, gen_riemann,
                   gen_spiked, gen_two_letter, row_from_json, row_stats,
                   row_to_json, spiked_parameters)
from .tails import (BlockTailEstimate, TailQuery, bernstein_tail,
                    block_bernstein_bound, block_deviation_samples,
                    empirical_block_tail, eps_grid, lemma_random_bound,
                    sample_without_replacement, tropp_ward_rate, variance_proxy)
from .words import (Word, apply_transpositions, prefix_counts, random_word,
                    restrict_word, standard_word, tau, tau_tail_bound,
                    tau_tail_empirical, transposition_distance,
                    transpositions_to_standard)

__all__ = [
    "ArrayRow", "BlockConditionReport", "BlockScheme", "BlockTailEstimate",
    "ConfigError", "ExperimentConfig", "ExperimentReport", "FAMILIES",
    "InfeasibleRegimeError", "PathReport", "Permutation", "PropagatorSpec",
    "QuantizationPlan", "RegimeSpec", "RowStats", "TailQuery", "Word",
    "apply_transpositions", "bernstein_tail", "block_bernstein_bound",
    "block_deviation_samples", "check_block_conditions", "choose_blocks",
    "cocycle_check", "commutator", "emit", "empirical_block_tail", "eps_grid",
    "frequency_quantize", "gen_repeated", "gen_riemann", "gen_spiked",
    "gen_two_letter", "hermitian_dilation", "lemma_random_bound", "mat_exp",
    "op_norm", "op_norms", "partial_products", "path_deviation", "path_deviations",
    "prefix_counts", "prefix_products", "prop_uniform_bound", "propagate",
    "propagators", "random_word", "reference_path", "restrict_word",
    "row_from_json", "row_stats", "row_to_json", "run", "sample_row", "sample_without_replacement",
    "spiked_parameters", "standard_word", "tau", "tau_tail_bound",
    "tau_tail_empirical", "transposition_distance", "transpositions_to_standard",
    "tropp_ward_rate", "uniform_permutation", "variance_proxy",
]
