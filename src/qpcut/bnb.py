"""Best-first branch and bound on the continuous quadratic formulation.

Branching fixes vertices to 0/1 in a fixed order (heaviest total incident
weight first).  Every node is the subproblem of its label, a ReducedQp: the
root is the problem in branching order and a child is its parent with one
more vertex fixed, built when the parent is expanded.  The search has one
rule: a node with one completion (a leaf, or a window that forces every free
vertex; forced_bit) is valued and never branched, and every other node is
relaxed.  A relaxed node carries a certified lower bound from the convex
relaxation of its subproblem; the open node with the smallest bound is
expanded next.  Upper bounds come from the solver's own pieces: nonconvex
gradient-projection descent started at the relaxation solution, then
constructive rounding.  The local-minimum test of qpcut.optimality is not on
the solve path.

A node is bounded first and gets a candidate second.  Its relaxation is
given the prune threshold of the incumbent as a cutoff and stops as soon as
its certified bound (valid at any iterate) is above it; such a node, or any
node whose bound is above the threshold, is pruned without a candidate.
That candidate would cost at least the bound: with integral weights at
least the incumbent, otherwise less than EPS below it, the slack the prune
rule already grants.  A node with one completion takes that completion's
value as its exact bound and its candidate, with no relaxation, which could
only have certified that value; it meets the same prune test.  A relaxed
node that is not pruned gets a candidate only at depth 0 or a power of two
(0, 1, 2, 4, 8, ...),
and is queued either way.  The root thus always gets one, so a search never
ends without an incumbent.  The incumbent serves only to prune: every
reported value is a candidate's exact value, and neither lower_bound nor
best-first termination depends on which nodes built candidates, so the
schedule changes when the optimum is found, never whether it is proved.  A
candidate is valued on its own subproblem, whose const and lin hold the
fixed vertices' share of the cut; with integral weights every term is an
integer below 2**53 (make_qp checks the sum), so that value is the cut
weight exactly.  Only a relaxed node can be expanded, and it leaves both
children feasible, so the search never makes an infeasible subproblem.  The
full-length incumbent is assembled once, at exit.

Relaxations and descents stop by the defaults of qpcut.projgrad.  A child's
relaxation takes its parent's point, less the fixed coordinate, as its start
hint (solve_convex).  The fixed order makes a node's free count n determine
its free vertices (the last n of the order), hence its block of M and its
slice of lam, within one solve, so all relaxations of a solve share one face
table: each depth's full-face Newton system is built and inverted once
(projgrad._full_face).  all_relaxations_converged is true when every
relaxation's SolveReport.stop is 'converged' or 'cutoff', and false when one
stopped at its iteration cap or at the rounding floor first.  At exit,
lower_bound is the value when optimal and otherwise the smallest bound still
open, which best-first order makes a bound on the optimum.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import DcShift, build_relaxation, sdp_shift, sigma_shift
from .graph import PartitionSpec, WeightedGraph
# unused here; perfbench/tracing.py traces these three names in this module
from .optimality import check_local_min, descent_direction  # noqa: F401
from .projgrad import project  # noqa: F401
from .projgrad import descend_nonconvex, solve_convex
from .qp import ReducedQp, make_qp, reduce
from .rounding import partition_from_binary, round_to_binary

__all__ = [
    "BnbConfig",
    "Solution",
    "forced_bit",
    "order_vertices",
    "prune_threshold",
    "upper_bound_from",
    "solve",
]


EPS = 1e-6  # prune slack, see prune_threshold


@dataclass
class BnbConfig:
    bound: str = "sdp"  # 'sdp' or 'eig'
    max_nodes: int | None = None
    time_limit: float | None = None


@dataclass
class Solution:
    v0: list
    v1: list
    value: float
    node_count: int
    status: str  # optimal / node_limit / time_limit
    bound_trace: list = field(default_factory=list)
    node_bounds: list = field(default_factory=list)  # (label, certified bound) per node
    incumbent_trace: list = field(default_factory=list)
    wall_time: float = 0.0
    root_bound: float = float("-inf")
    # certified lower bound on the optimum at exit: value when optimal, else
    # the smallest bound still open (up to the EPS prune slack, as for value)
    lower_bound: float = float("-inf")
    # every relaxation stopped as 'converged' or 'cutoff'; false when one
    # stopped at its iteration cap or at the rounding floor first
    all_relaxations_converged: bool = True
    shift: DcShift | None = None  # the certified shift every node bound used


def order_vertices(graph: WeightedGraph) -> np.ndarray:
    """Branching order: descending total incident weight, ties by index."""
    w = graph.weights.sum(axis=1)
    return np.lexsort((np.arange(graph.n), -w))


def prune_threshold(upper: float, integral: bool) -> float:
    """Discard a subtree when its bound exceeds this value.

    Integral weights allow the stronger cutoff upper - 1 + EPS, because any
    strictly better binary value is at most upper - 1.
    """
    return upper - 1.0 + EPS if integral else upper - EPS


def upper_bound_from(reduced: ReducedQp, x_start):
    """Binary feasible point for a subproblem, built from the solver's pieces.

    Descend the nonconvex objective from x_start, then round constructively.
    Returns (y, value); the value never exceeds the objective at x_start.
    solve calls it at relaxed nodes its bound does not prune, and only at
    depth 0 or a power of two.
    """
    report = descend_nonconvex(reduced, x_start)
    y = round_to_binary(reduced, report.x)
    return y, float(reduced.value(y))


def forced_bit(red: ReducedQp) -> float | None:
    """The bit of a subproblem's one completion, or None if it leaves a choice.

    A node with one completion is valued and never branched; every other node
    is relaxed and may be expanded.  reduce has ruled out hi < 0 and lo > n,
    so a leaf (n == 0; its empty completion takes 0.0) and a window with
    hi <= 0 allow only the all-zero completion, lo >= n only the all-one one.
    None thus means n >= 1, hi >= 1 and lo <= n - 1, which leaves both
    children feasible.
    """
    if red.n == 0 or red.hi <= 0:
        return 0.0
    if red.lo >= red.n:
        return 1.0
    return None


def _check_config(config: BnbConfig) -> None:
    if config.bound not in ("sdp", "eig"):
        raise ValueError(f"unknown bound variant {config.bound!r}")
    if config.max_nodes is not None and not config.max_nodes >= 1:
        raise ValueError(f"max_nodes must be at least 1, got {config.max_nodes}")
    if config.time_limit is not None and not config.time_limit >= 0.0:
        raise ValueError(f"time_limit must be nonnegative, got {config.time_limit}")


def solve(graph: WeightedGraph, spec: PartitionSpec, config: BnbConfig | None = None) -> Solution:
    """Exact minimum cut with side sizes in [l, u]."""
    config = config or BnbConfig()
    _check_config(config)
    t_start = time.perf_counter()

    qp = make_qp(graph, spec)
    order = order_vertices(graph)
    integral = graph.is_integral
    shift = sdp_shift(qp.M) if config.bound == "sdp" else sigma_shift(qp.M)
    root = reduce(qp, (), order)  # a validated spec leaves the root feasible

    node_count = 0
    node_bounds = []
    incumbent_trace = []
    bound_trace = []
    best, best_val = None, math.inf  # best: (label, free vertices, their bits)
    all_converged = True
    faces = {}  # the face table every relaxation of this solve shares
    cutoff = prune_threshold(best_val, integral)  # reset when the incumbent improves
    # heap entries: (bound, -depth, node_count, label, red, relax_x); node_count breaks ties FIFO
    heap = []
    status = "optimal"
    # (label, subproblem, parent bound, start hint); the root has no hint
    batch = [((), root, -math.inf, None)]

    while True:
        for label, red, parent_bound, x_start in batch:
            node_count += 1
            depth = len(label)
            bit = forced_bit(red)
            if bit is not None:  # one completion: its value is the exact bound
                y = np.full(red.n, bit)
                bound = val = red.value(y)
            else:
                report, cert = solve_convex(build_relaxation(red, shift), x_start,
                                            cutoff=cutoff, _faces=faces)
                x, bound = report.x, max(cert, parent_bound)
                all_converged = all_converged and report.stop in ("converged", "cutoff")
                val = math.inf  # no candidate unless the depth is 0 or a power of two
            node_bounds.append((label, bound))
            if bound > cutoff:
                continue  # its candidate would cost at least the bound
            if bit is None and not depth & (depth - 1):
                y, val = upper_bound_from(red, x)
            if val < best_val:
                best, best_val = (label, red.free, y), val
                cutoff = prune_threshold(best_val, integral)
                incumbent_trace.append((node_count, val))
            if bit is None and bound <= cutoff:
                heapq.heappush(heap, (bound, -depth, node_count, label, red, x))

        if not heap:
            break
        # an expansion counts two children, so stop before one that would pass max_nodes
        if config.max_nodes is not None and node_count + 2 > config.max_nodes:
            status = "node_limit"
            break
        if config.time_limit is not None and time.perf_counter() - t_start > config.time_limit:
            status = "time_limit"
            break
        bound, _, _, label, red, relax_x = heapq.heappop(heap)
        bound_trace.append(bound)
        if bound > cutoff:
            break  # best-first: every other open node is at least as bad
        # a node with a choice leaves both children feasible; each child's free
        # vertices are its parent's minus the first one
        batch = [(label + (b,), reduce(red, (b,)), bound, relax_x[1:]) for b in (0, 1)]

    # best-first: no open subtree holds anything below the smallest open bound
    lower_bound = best_val if status == "optimal" else min(heap[0][0], best_val)
    label, free, y = best
    side = np.empty(qp.n)
    side[order[: len(label)]] = label
    side[free] = y
    v0, v1 = partition_from_binary(side)
    return Solution(
        v0=v0,
        v1=v1,
        value=float(best_val),
        node_count=node_count,
        status=status,
        bound_trace=bound_trace,
        node_bounds=node_bounds,
        incumbent_trace=incumbent_trace,
        wall_time=time.perf_counter() - t_start,
        root_bound=node_bounds[0][1],
        lower_bound=float(lower_bound),
        all_relaxations_converged=all_converged,
        shift=shift,
    )
