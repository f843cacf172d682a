"""Exact edge-weighted graph bisection via convex quadratic bounds.

The graph partitioning problem (split the vertices into two sets with one
side's size in [l, u], minimizing the total weight of crossing edges) is
solved exactly through a continuous quadratic program whose binary optima
coincide with minimum cuts.  Lower bounds come from DC decompositions with
certified diagonal shifts and best affine underestimates; the search is a
best-first branch and bound with constructive rounding for upper bounds.
"""

from .bnb import (
    BnbConfig,
    Solution,
    order_vertices,
    prune_threshold,
    solve,
    upper_bound_from,
)
from .bounds import (
    DcShift,
    affine_underestimate,
    build_relaxation,
    certified_lower_bound,
    greedy_linear_min,
    sdp_shift,
    sigma_shift,
)
from .graph import (
    GraphFormatError,
    PartitionSpec,
    WeightedGraph,
    build_diagonal_shift,
    cut_weight,
    gen_debruijn,
    gen_mixed,
    gen_planar,
    gen_random,
    gen_toroidal,
    load_graph,
    save_edge_list,
)
from .optimality import (
    KktAssessment,
    check_first_order,
    check_local_min,
    check_strict,
    descent_direction,
    multipliers,
)
from .oracle import brute_force
from .projgrad import SolveReport, descend_nonconvex, project, solve_convex
from .qp import (
    FeasibleSet,
    InfeasibleSubproblemError,
    ReducedQp,
    make_qp,
    reduce,
)
from .rounding import partition_from_binary, round_to_binary

__version__ = "0.1.0"

__all__ = [
    "BnbConfig",
    "DcShift",
    "FeasibleSet",
    "GraphFormatError",
    "InfeasibleSubproblemError",
    "KktAssessment",
    "PartitionSpec",
    "ReducedQp",
    "Solution",
    "SolveReport",
    "WeightedGraph",
    "affine_underestimate",
    "brute_force",
    "build_diagonal_shift",
    "build_relaxation",
    "certified_lower_bound",
    "check_first_order",
    "check_local_min",
    "check_strict",
    "cut_weight",
    "descend_nonconvex",
    "descent_direction",
    "gen_debruijn",
    "gen_mixed",
    "gen_planar",
    "gen_random",
    "gen_toroidal",
    "greedy_linear_min",
    "load_graph",
    "make_qp",
    "multipliers",
    "order_vertices",
    "partition_from_binary",
    "project",
    "prune_threshold",
    "reduce",
    "round_to_binary",
    "save_edge_list",
    "sdp_shift",
    "sigma_shift",
    "solve",
    "solve_convex",
    "upper_bound_from",
]
