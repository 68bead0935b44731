"""Supercritical branching-tree toolkit: conditioned samplers, stochastic
domination couplings, random-walk return probabilities, and two independent
estimators of the spanning-tree entropy of the random-graph giant component.
"""

import os

# one BLAS thread, set before numpy loads: the process pool is the parallelism
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .analytic import (BoundsRecord, GWParams, alpha, beta_slope, borel_pmf,
                       degree_pmf, degree_tail, expected_log_degree,
                       extinction_prob, f_bounds, g_gap, g_gap_via_alpha,
                       pgw1_log_degree_constant)
from .domination import (CoupledPair, OffspringCouple, TailReport, check_le1,
                         conv_pmf, positive_poisson_pmf,
                         sample_coupled_trees, sample_dominated_offspring,
                         sample_dominated_offspring_many,
                         verify_tail_domination)
from .reports import EstimateReport
from .spanning import (ComplexityResult, SparseGraph, empirical_f,
                       giant_component, log_spanning_trees, read_edgelist,
                       sample_gnp, write_edgelist)
from .trees import (TYPE_F, TYPE_I, TYPE_UNTYPED, RootedTree, sample_pgw,
                    sample_pgw_star, sample_uniform_rooted_tree,
                    subtree_stats, tree_from_text, tree_to_text)
from .walk import (DecayDiagnostic, ReturnProfile, estimate_f,
                   estimate_return_integral, green_truncation_bound,
                   green_value, killed_walk_visits, pbar_decay_diagnostic,
                   required_depth_for_killed_walk, return_probs, return_sum)

__all__ = [
    "__version__",
    "GWParams", "BoundsRecord", "extinction_prob", "alpha", "borel_pmf",
    "degree_pmf", "degree_tail", "expected_log_degree",
    "pgw1_log_degree_constant", "f_bounds", "g_gap", "g_gap_via_alpha",
    "beta_slope",
    "TailReport", "OffspringCouple", "CoupledPair", "conv_pmf",
    "positive_poisson_pmf", "verify_tail_domination",
    "sample_dominated_offspring", "sample_dominated_offspring_many",
    "sample_coupled_trees", "check_le1",
    "RootedTree", "TYPE_UNTYPED", "TYPE_I", "TYPE_F", "sample_pgw",
    "sample_pgw_star", "sample_uniform_rooted_tree", "subtree_stats",
    "tree_to_text", "tree_from_text",
    "ReturnProfile", "DecayDiagnostic", "EstimateReport", "return_probs",
    "return_sum", "green_value", "green_truncation_bound",
    "killed_walk_visits", "required_depth_for_killed_walk",
    "estimate_return_integral", "estimate_f", "pbar_decay_diagnostic",
    "SparseGraph", "ComplexityResult", "sample_gnp", "giant_component",
    "log_spanning_trees", "empirical_f", "write_edgelist", "read_edgelist",
]
