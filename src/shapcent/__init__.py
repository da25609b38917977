"""Shapley-value network centrality.

Exact closed-form solvers for four coalitional centrality games, a
Gaussian approximation for the weighted-threshold game, a brute-force
oracle, a Monte Carlo permutation baseline, and a benchmark harness.
"""

from .bench import BenchReport, gen_complete_weighted, gen_gnp, run_comparison
from .exact import (
    GaussianMoment,
    ShapleyVector,
    gaussian_interval_prob,
    shapley_g1,
    shapley_g2,
    shapley_g3,
    shapley_g4,
    shapley_g5,
    solve,
)
from .games import DecayFn, GameSpec, characteristic_value, grand_value, load_node_params
from .graph import (
    Graph,
    GraphError,
    distance_matrix,
    dump_edge_list,
    load_edge_list,
    settle,
)
from .montecarlo import ConvergenceTrace, max_relative_error, mc_shapley
from .oracle import brute_force_shapley

__all__ = [
    "BenchReport",
    "ConvergenceTrace",
    "DecayFn",
    "GameSpec",
    "GaussianMoment",
    "Graph",
    "GraphError",
    "ShapleyVector",
    "brute_force_shapley",
    "characteristic_value",
    "distance_matrix",
    "dump_edge_list",
    "gaussian_interval_prob",
    "gen_complete_weighted",
    "gen_gnp",
    "grand_value",
    "load_edge_list",
    "load_node_params",
    "max_relative_error",
    "mc_shapley",
    "run_comparison",
    "settle",
    "shapley_g1",
    "shapley_g2",
    "shapley_g3",
    "shapley_g4",
    "shapley_g5",
    "solve",
]
