import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

import qpcut as qc
from qpcut.bnb import EPS, BnbConfig, upper_bound_from
from helpers import (
    complete_graph, cut_instances, label_key, path_graph, random_graph,
    reference_descend_nonconvex, reference_solve_convex, subtree_minima,
)


def side_of(sol, n):
    """The binary side vector of a solution: 1 on V1."""
    side = np.zeros(n)
    side[sol.v1] = 1.0
    return side


def test_order_vertices():
    # star: center carries the whole weight, comes first
    w = np.zeros((4, 4))
    for i in (1, 2, 3):
        w[0, i] = w[i, 0] = 1.0
    order = qc.order_vertices(qc.WeightedGraph(w))
    assert order[0] == 0

    # uniform complete graph: all weights tie, index order
    assert np.array_equal(qc.order_vertices(complete_graph(4)), [0, 1, 2, 3])

    # isolated vertex goes last
    w2 = np.zeros((3, 3))
    w2[0, 1] = w2[1, 0] = 2.0
    order2 = qc.order_vertices(qc.WeightedGraph(w2))
    assert order2[-1] == 2


def test_prune_threshold():
    assert qc.prune_threshold(28.0, True) == pytest.approx(27.0 + 1e-6)
    assert qc.prune_threshold(3.5, False) == pytest.approx(3.5 - 1e-6)


def test_root_bound_does_not_depend_on_vertex_labels():
    # a relabelled graph is the same problem, so it has the same root bound
    rng = np.random.default_rng(5)
    for seed in (1, 2, 3):
        g = qc.gen_random(10, 0.5, seed)
        perm = rng.permutation(g.n)
        h = qc.WeightedGraph(g.weights[np.ix_(perm, perm)])
        spec = qc.PartitionSpec(5, 5)
        for bound in ("sdp", "eig"):
            config = BnbConfig(bound=bound, max_nodes=1)
            a = qc.solve(g, spec, config).root_bound
            b = qc.solve(h, spec, config).root_bound
            assert b == pytest.approx(a, rel=1e-6, abs=1e-6), (seed, bound)


def test_k2_three_nodes():
    g = qc.WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    sol = qc.solve(g, qc.PartitionSpec(1, 1))
    assert sol.value == 1.0
    assert sol.status == "optimal"
    assert sol.node_count <= 3


def test_disconnected_balanced_components_zero_cut():
    w = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[i, j] = w[j, i] = 4.0
    g = qc.WeightedGraph(w)
    sol = qc.solve(g, qc.PartitionSpec(3, 3))
    assert sol.value == 0.0 and sol.status == "optimal"


def test_solver_matches_oracle_random_battery():
    rng = np.random.default_rng(100)
    for seed in range(10):
        n = int(rng.integers(6, 13))
        dens = float(rng.uniform(0.1, 1.0))
        g = random_graph(n, dens, seed, low=1, high=10)
        for spec in (
            qc.PartitionSpec(n // 2, (n + 1) // 2),
            qc.PartitionSpec(max(0, n // 2 - 2), min(n, n // 2 + 1)),
        ):
            opt, _ = qc.brute_force(g, spec)
            for bound in ("sdp", "eig"):
                sol = qc.solve(g, spec, BnbConfig(bound=bound))
                assert sol.status == "optimal"
                assert sol.value == opt, (seed, n, dens, bound)
                assert len(sol.v1) + len(sol.v0) == n
                assert spec.l <= len(sol.v1) <= spec.u
                assert qc.cut_weight(g, side_of(sol, n)) == opt


def test_negative_weights_supported():
    # mixed-sign weights (max-cut flavored): the diagonal shift zeroes out on
    # all-negative columns and the integral prune rule still applies
    for seed in range(4):
        g = random_graph(8, 0.7, seed, low=-5, high=5)
        spec = qc.PartitionSpec(3, 5)
        opt, _ = qc.brute_force(g, spec)
        sol = qc.solve(g, spec)
        assert sol.status == "optimal" and sol.value == opt


def test_fractional_weights_supported():
    # non-integral weights take the weaker U - eps prune rule; values can
    # differ from the oracle only by summation order
    rng = np.random.default_rng(17)
    for seed in range(4):
        w = np.zeros((9, 9))
        for i in range(9):
            for j in range(i + 1, 9):
                if rng.random() < 0.6:
                    w[i, j] = w[j, i] = float(rng.integers(1, 12)) / 3.0
        g = qc.WeightedGraph(w)
        assert not g.is_integral
        spec = qc.PartitionSpec(4, 5)
        opt, _ = qc.brute_force(g, spec)
        sol = qc.solve(g, spec)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(opt, abs=1e-9)


def test_bound_trace_monotone_and_node_budget():
    g = qc.gen_random(12, 0.6, seed=4)
    spec = qc.PartitionSpec(6, 6)
    sol = qc.solve(g, spec)
    assert sol.status == "optimal"
    assert all(b <= a + 1e-12 for b, a in zip(sol.bound_trace, sol.bound_trace[1:]))
    assert sol.node_count <= 2 ** (g.n + 1) - 1
    # incumbent values only improve
    vals = [v for _, v in sol.incumbent_trace]
    assert all(b < a for a, b in zip(vals, vals[1:])) or len(vals) == 1


def test_all_node_bounds_sound():
    # every node bound must underestimate the exact optimum of its own subtree
    g = qc.gen_planar(3, 4, seed=2)
    spec = qc.PartitionSpec(6, 6)
    opt, _ = qc.brute_force(g, spec)
    order = qc.order_vertices(g)
    levels = subtree_minima(g, spec, order)
    sol = qc.solve(g, spec)
    assert sol.value == opt
    for label, bound in sol.node_bounds:
        sub_opt = levels[len(label)][label_key(label)]
        assert bound <= sub_opt + 1e-6 * (1 + abs(sub_opt)), (label, bound, sub_opt)
    assert sol.root_bound <= opt + 1e-6 * (1 + abs(opt))


def test_pruned_subtrees_contain_nothing_better():
    g = qc.gen_random(10, 0.5, seed=8)
    n = g.n
    spec = qc.PartitionSpec(4, 6)
    sol = qc.solve(g, spec)
    assert sol.status == "optimal"
    order = qc.order_vertices(g)
    qp = qc.make_qp(g, spec)
    # the incumbent only falls, so every child pruned during the search is
    # above the final threshold; on this instance that is 36 labels
    cutoff = qc.prune_threshold(sol.value, g.is_integral)
    pruned = [label for label, bound in sol.node_bounds if bound > cutoff]
    assert len(pruned) == 36
    for label in pruned:
        depth = len(label)
        best_in_subtree = np.inf
        for tail in itertools.product((0, 1), repeat=n - depth):
            full = np.empty(n)
            full[order[:depth]] = label
            full[order[depth:]] = tail
            if spec.l <= full.sum() <= spec.u:
                best_in_subtree = min(best_in_subtree, qp.value(full))
        assert best_in_subtree >= sol.value


def test_upper_bound_never_exceeds_relaxation_value():
    for seed in range(5):
        g = random_graph(10, 0.6, seed, low=1, high=9)
        spec = qc.PartitionSpec(4, 6)
        qp = qc.make_qp(g, spec)
        red = qc.reduce(qp, (), qc.order_vertices(g))
        rel = qc.build_relaxation(red, qc.sdp_shift(qp.M))
        report, _ = qc.solve_convex(rel)
        y, val = upper_bound_from(red, report.x)
        assert val <= red.value(report.x) + 1e-9
        assert np.all((y == 0.0) | (y == 1.0))
        assert spec.l <= y.sum() <= spec.u


@pytest.mark.parametrize("bound", ["sdp", "eig"])
@pytest.mark.parametrize("lo,hi", [(4, 4), (2, 5)], ids=["bisect", "window"])
def test_solve_path_classifies_no_local_minima(monkeypatch, bound, lo, hi):
    # the local-minimum test serves `qpcut check`, not the search
    def forbidden(*args, **kwargs):
        raise AssertionError("the solve path called qpcut.optimality")

    monkeypatch.setattr("qpcut.bnb.check_local_min", forbidden)
    monkeypatch.setattr("qpcut.bnb.descent_direction", forbidden)
    g = random_graph(8, 0.6, 3, low=1, high=9)
    spec = qc.PartitionSpec(lo, hi)
    opt, _ = qc.brute_force(g, spec)
    sol = qc.solve(g, spec, BnbConfig(bound=bound))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(opt)


@pytest.mark.parametrize("bound", ["sdp", "eig"])
@pytest.mark.parametrize("lo, hi", [(5, 5), (3, 7), (4, 4), (2, 5)],
                         ids=["bisect", "mirror-window", "equality", "window"])
def test_search_is_the_reference_solvers_bit_for_bit(monkeypatch, bound, lo, hi):
    # The shipped loop takes the gradient, value and certificate from one M x
    # per iterate and skips or proves the residual from the step; the
    # reference forms every residual and recomputes every certificate.  Both
    # searches run here, in one process and on one BLAS, and must agree in
    # every bit.  l + u = n (bisect, mirror-window) and signed weights.
    g = random_graph(10, 0.6, 11)
    spec = qc.PartitionSpec(lo, hi)
    config = BnbConfig(bound=bound)
    shipped = qc.solve(g, spec, config)
    monkeypatch.setattr("qpcut.bnb.solve_convex", reference_solve_convex)
    monkeypatch.setattr("qpcut.bnb.descend_nonconvex", reference_descend_nonconvex)
    ref = qc.solve(g, spec, config)
    assert shipped.node_bounds == ref.node_bounds
    assert shipped.bound_trace == ref.bound_trace
    assert shipped.value == ref.value
    assert shipped.incumbent_trace == ref.incumbent_trace
    assert (shipped.v1, shipped.lower_bound) == (ref.v1, ref.lower_bound)
    assert shipped.all_relaxations_converged == ref.all_relaxations_converged
    assert (g.weights < 0).any() and shipped.node_count > 10


def test_node_limit_and_time_limit_statuses():
    g = qc.gen_mixed(3, 4, seed=1)
    spec = qc.PartitionSpec(6, 6)
    sol = qc.solve(g, spec, BnbConfig(max_nodes=3))
    assert sol.status == "node_limit"
    opt, _ = qc.brute_force(g, spec)
    assert sol.value >= opt  # incumbent is feasible, hence an upper bound

    sol2 = qc.solve(g, spec, BnbConfig(time_limit=0.0))
    assert sol2.status == "time_limit"


@pytest.mark.parametrize("max_nodes", range(1, 7))
def test_node_limit_never_counts_more_than_max_nodes(max_nodes):
    # each expansion counts two children, so an even limit must stop one short
    g = qc.gen_mixed(3, 4, seed=1)
    spec = qc.PartitionSpec(6, 6)
    opt, _ = qc.brute_force(g, spec)
    sol = qc.solve(g, spec, BnbConfig(max_nodes=max_nodes))
    assert sol.status == "node_limit"
    assert sol.node_count <= max_nodes
    assert sol.root_bound <= sol.lower_bound <= opt <= sol.value


def test_degenerate_sizes():
    one = qc.WeightedGraph(np.zeros((1, 1)))
    sol = qc.solve(one, qc.PartitionSpec(0, 1))
    assert sol.value == 0.0 and sol.status == "optimal"

    g = qc.WeightedGraph(np.array([[0.0, 2.0], [2.0, 0.0]]))
    sol0 = qc.solve(g, qc.PartitionSpec(0, 0))
    assert sol0.value == 0.0 and sol0.v1 == []

    soln = qc.solve(g, qc.PartitionSpec(2, 2))
    assert soln.value == 0.0 and soln.v0 == []


@pytest.mark.parametrize("n, dens, seed, l, u, nodes, infeasible", [
    (7, 0.6, 1, 3, 3, 181, 56),
    (8, 0.6, 2, 2, 5, 491, 36),
])
def test_expanding_every_node_skips_infeasible_children(
        monkeypatch, n, dens, seed, l, u, nodes, infeasible):
    # under the real prune rule no infeasible child is ever made: a node whose
    # window leaves one completion has bound equal to its candidate's value,
    # so it is never pushed.  With no pruning every non-leaf node is expanded,
    # and the children past the window's edge must be skipped
    raised = []

    def counting_reduce(*args):
        try:
            return qc.reduce(*args)
        except qc.InfeasibleSubproblemError:
            raised.append(args[1])
            raise

    monkeypatch.setattr(qc.bnb, "prune_threshold", lambda upper, integral: math.inf)
    monkeypatch.setattr(qc.bnb, "reduce", counting_reduce)
    g = qc.gen_random(n, dens, seed)
    spec = qc.PartitionSpec(l, u)
    sol = qc.solve(g, spec)
    assert sol.status == "optimal"
    assert sol.value == qc.brute_force(g, spec)[0]
    assert sol.node_count == nodes
    assert len(raised) == infeasible


def test_eig_variant_on_small_graph():
    g = path_graph(5)
    spec = qc.PartitionSpec(2, 3)
    opt, _ = qc.brute_force(g, spec)
    sol = qc.solve(g, spec, BnbConfig(bound="eig"))
    assert sol.value == opt == 1.0


@pytest.mark.parametrize("bound", ["sdp", "eig"])
@settings(max_examples=150)
@given(case=cut_instances())
def test_bound_first_search_is_exact_and_sound(bound, case):
    # children pruned by their own bound get no candidate, and their
    # relaxations stop at the cutoff; neither may cost the optimum or a bound
    g, spec = case
    opt, _ = qc.brute_force(g, spec)
    sol = qc.solve(g, spec, BnbConfig(bound=bound))
    assert sol.status == "optimal"
    # candidates are valued on their subproblem, which holds the fixed part exactly
    cut = qc.cut_weight(g, side_of(sol, g.n))
    if g.is_integral:
        assert sol.value == cut
    else:
        assert abs(sol.value - cut) <= EPS
    assert sorted(sol.v0 + sol.v1) == list(range(g.n))
    if g.is_integral:
        assert sol.value == opt
    else:
        assert opt - 1e-9 <= sol.value <= opt + EPS
    levels = subtree_minima(g, spec, qc.order_vertices(g))
    for label, b in sol.node_bounds:
        sub_opt = levels[len(label)][label_key(label)]
        assert b <= sub_opt + 1e-6 * (1 + abs(sub_opt)), (label, b, sub_opt)
    assert sol.lower_bound == sol.value
