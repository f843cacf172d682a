"""Best-first branch and bound on the continuous quadratic formulation.

Branching fixes vertices to 0/1 in a fixed order (heaviest total incident
weight first).  Each open leaf carries a certified lower bound from the
convex relaxation of its reduced subproblem; the leaf with the smallest
bound is expanded next.  Upper bounds come from the solver's own pieces:
nonconvex gradient-projection descent started at the relaxation solution,
constructive rounding, and descent-direction restarts when the rounded point
is stationary but not a local minimizer.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import build_relaxation, sdp_shift, sigma_shift
from .graph import PartitionSpec, WeightedGraph
from .optimality import check_local_min, descent_direction
from .projgrad import descend_nonconvex, project, solve_convex
from .qp import InfeasibleSubproblemError, ReducedQp, feasible_set, make_qp, reduce
from .rounding import partition_from_binary, round_to_binary

__all__ = [
    "BnbConfig",
    "Solution",
    "order_vertices",
    "prune_threshold",
    "upper_bound_from",
    "solve",
]


EPS = 1e-6  # prune slack, see prune_threshold
SOLVER_MAX_ITER = 10000  # gradient-projection iterations per relaxation solve
DESCENT_MAX_ITER = 2000  # nonconvex descent iterations per upper-bound round
UB_ROUNDS = 4  # descend-round-restart rounds per upper-bound attempt


@dataclass
class BnbConfig:
    bound: str = "sdp"  # 'sdp' or 'eig'
    tol: float = 1e-4
    max_nodes: int | None = None
    time_limit: float | None = None
    record_pruned: bool = False


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
    best_x: np.ndarray | None = None
    all_relaxations_converged: bool = True
    pruned_labels: list | None = None


def order_vertices(graph: WeightedGraph) -> np.ndarray:
    """Branching order: descending total incident weight, ties by index."""
    w = graph.weights.sum(axis=1)
    return np.lexsort((np.arange(graph.n), -w))


def prune_threshold(upper: float, integral: bool, eps: float = EPS) -> float:
    """Discard a subtree when its bound exceeds this value.

    Integral weights allow the stronger cutoff upper - 1 + eps, because any
    strictly better binary value is at most upper - 1.
    """
    return upper - 1.0 + eps if integral else upper - eps


def upper_bound_from(reduced: ReducedQp, x_start, config: BnbConfig | None = None):
    """Binary feasible point for a subproblem, built from the solver's pieces.

    Descend the nonconvex objective from x_start, round constructively, and
    when the rounded point is stationary but fails the local-minimum test,
    step along the returned descent direction and repeat (bounded rounds).
    Returns (y, value); the value never exceeds the objective at x_start.
    """
    config = config or BnbConfig()
    x = np.asarray(x_start, dtype=float)
    best_y = None
    best_val = np.inf
    for _ in range(UB_ROUNDS):
        report = descend_nonconvex(reduced, x, tol=config.tol, max_iter=DESCENT_MAX_ITER)
        y = round_to_binary(reduced, report.x)
        val = reduced.value(y)
        improved = val < best_val - 1e-12
        if improved or best_y is None:
            best_y, best_val = y, val
        assessment = check_local_min(reduced, y)
        if assessment.local_min:
            break
        if assessment.p1:
            move = descent_direction(reduced, y, assessment)
            if move is None:
                break
            d, alpha = move
            x = y + alpha * d
        elif improved:
            x = y
        else:
            break
    return best_y, float(best_val)


def _assemble_full(n: int, order, label, free, y_free) -> np.ndarray:
    x = np.empty(n)
    if len(label):
        x[np.asarray(order[: len(label)], dtype=int)] = np.asarray(label, dtype=float)
    x[free] = y_free
    return x


def _eval_child(qp, shift, order, label, parent_bound, parent_x, config):
    """Bound one child label; returns a dict consumed by the main loop."""
    try:
        red = reduce(qp, label, order)
    except InfeasibleSubproblemError:
        return {"kind": "infeasible"}
    if red.n == 0:
        value = red.const
        full = _assemble_full(qp.n, order, label, red.free, np.zeros(0))
        return {"kind": "leaf", "bound": value, "cand": (full, value)}

    rel = build_relaxation(red, shift)
    # the child's free vertices are its parent's minus the first one
    x0 = project(parent_x[1:], feasible_set(red))
    report, cert = solve_convex(rel, x0, tol=config.tol, max_iter=SOLVER_MAX_ITER)

    y_free, _ = upper_bound_from(red, report.x, config)
    full = _assemble_full(qp.n, order, label, red.free, y_free)
    return {
        "kind": "open",
        "bound": max(cert, parent_bound),
        "relax_x": report.x,
        "converged": report.converged,
        "cand": (full, qp.value(full)),
    }


def _check_config(config: BnbConfig) -> None:
    if config.bound not in ("sdp", "eig"):
        raise ValueError(f"unknown bound variant {config.bound!r}")
    if not (math.isfinite(config.tol) and config.tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {config.tol}")
    if config.max_nodes is not None and not config.max_nodes >= 1:
        raise ValueError(f"max_nodes must be at least 1, got {config.max_nodes}")
    if config.time_limit is not None and not config.time_limit >= 0.0:
        raise ValueError(f"time_limit must be nonnegative, got {config.time_limit}")


def solve(graph: WeightedGraph, spec: PartitionSpec, config: BnbConfig | None = None) -> Solution:
    """Exact minimum cut with side sizes in [l, u]."""
    config = config or BnbConfig()
    spec.validate_for(graph.n)
    _check_config(config)
    t_start = time.perf_counter()

    qp = make_qp(graph, spec)
    order = order_vertices(graph)
    integral = graph.is_integral
    shift = sdp_shift(qp.M) if config.bound == "sdp" else sigma_shift(qp.M)

    root_red = reduce(qp, (), order)
    root_rel = build_relaxation(root_red, shift)
    root_fs = feasible_set(root_red)
    report, root_bound = solve_convex(
        root_rel, project(np.full(qp.n, 0.5), root_fs), tol=config.tol,
        max_iter=SOLVER_MAX_ITER,
    )
    all_converged = report.converged
    node_count = 1
    node_bounds = [((), root_bound)]

    y_free, _ = upper_bound_from(root_red, report.x, config)
    best_y = _assemble_full(qp.n, order, (), root_red.free, y_free)
    best_val = qp.value(best_y)
    incumbent_trace = [(node_count, best_val)]

    # heap entries: (bound, -depth, seq, label, relax_x); seq breaks ties FIFO
    heap = [(root_bound, 0, 0, (), report.x)]
    seq = 1
    bound_trace = []
    pruned_labels = [] if config.record_pruned else None
    status = "optimal"

    while heap:
        if config.max_nodes is not None and node_count >= config.max_nodes:
            status = "node_limit"
            break
        if config.time_limit is not None and time.perf_counter() - t_start > config.time_limit:
            status = "time_limit"
            break
        bound, _, _, label, relax_x = heapq.heappop(heap)
        bound_trace.append(bound)
        if bound > prune_threshold(best_val, integral):
            break  # best-first: every other open leaf is at least as bad

        for bit in (0, 1):
            child = label + (bit,)
            res = _eval_child(qp, shift, order, child, bound, relax_x, config)
            node_count += 1
            if res["kind"] == "infeasible":
                continue
            node_bounds.append((child, res["bound"]))
            full, val = res["cand"]
            if val < best_val:
                best_y, best_val = full, val
                incumbent_trace.append((node_count, val))
            if res["kind"] == "leaf":
                continue
            if not res["converged"]:
                all_converged = False
            if res["bound"] > prune_threshold(best_val, integral):
                if pruned_labels is not None:
                    pruned_labels.append(child)
                continue
            heapq.heappush(heap, (res["bound"], -len(child), seq, child, res["relax_x"]))
            seq += 1

    v0, v1 = partition_from_binary(best_y)
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
        root_bound=root_bound,
        best_x=best_y,
        all_relaxations_converged=all_converged,
        pruned_labels=pruned_labels,
    )
