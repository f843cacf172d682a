import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

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
    # per iterate; the reference recomputes each from problem.value,
    # problem.grad and certified_lower_bound at the point.  Both
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


@pytest.mark.parametrize("bound", ["sdp", "eig"])
@pytest.mark.parametrize("lo, hi", [(5, 5), (2, 6)], ids=["bisect", "window"])
def test_the_face_table_does_not_change_the_search(monkeypatch, bound, lo, hi):
    # A solve passes one face table to all its relaxations.  Each entry must be
    # the face system of every relaxation of its size, the table must be new
    # for each solve and hold at most 2 entries per relaxed size, and a fresh
    # table per relaxation must give the same search.  Two graphs of one size
    # are solved in turn, so a table that outlived its solve would be caught.
    spec = qc.PartitionSpec(lo, hi)
    config = BnbConfig(bound=bound)

    def checked(rel, *args, _faces, **kwargs):
        tables.append(_faces)
        sizes.add(rel.n)
        out = qc.solve_convex(rel, *args, _faces=_faces, **kwargs)
        h = 2.0 * (np.diag(rel.lam) - rel.M)
        for on_budget in (False, True):
            entry = _faces.get((rel.n, on_budget))
            if entry is not None:
                assert np.array_equal(entry[0], h)
        return out

    def fresh(rel, *args, _faces, **kwargs):
        return qc.solve_convex(rel, *args, _faces={}, **kwargs)

    seen = []
    for seed in (11, 12):
        g = random_graph(10, 0.6, seed)
        tables, sizes = [], set()
        monkeypatch.setattr(qc.bnb, "solve_convex", checked)
        shared = qc.solve(g, spec, config)
        table = tables[0]
        assert all(t is table for t in tables) and not any(t is table for t in seen)
        seen.append(table)
        assert table and {n for n, _ in table} <= sizes
        assert len(table) <= 2 * len(sizes) <= 2 * g.n
        monkeypatch.setattr(qc.bnb, "solve_convex", fresh)
        ref = qc.solve(g, spec, config)
        assert len(shared.node_bounds) == len(ref.node_bounds)
        assert dict(shared.node_bounds) == dict(ref.node_bounds)
        assert (shared.node_count, shared.value, shared.lower_bound) == (
            ref.node_count, ref.value, ref.lower_bound)


def test_node_limit_and_time_limit_statuses():
    g = qc.gen_mixed(3, 4, seed=1)
    spec = qc.PartitionSpec(6, 6)
    sol = qc.solve(g, spec, BnbConfig(max_nodes=3))
    assert sol.status == "node_limit"
    opt, _ = qc.brute_force(g, spec)
    assert sol.value >= opt  # incumbent is feasible, hence an upper bound

    sol2 = qc.solve(g, spec, BnbConfig(time_limit=0.0))
    assert sol2.status == "time_limit"


def test_zero_time_limit_returns_promptly_at_n_120():
    # the limit is checked only between expansions, so this times the root
    # phases (shift, ordering, root relaxation and candidate) at n = 120
    g = qc.gen_random(120, 0.3, 1)
    sol = qc.solve(g, qc.PartitionSpec(60, 60), BnbConfig(time_limit=0.0))
    assert sol.status == "time_limit" and sol.node_count == 1
    assert sol.lower_bound <= sol.value
    assert sol.wall_time < 2.0


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


def nodes_without_pruning(n, spec):
    """How many labels have every proper prefix leave a choice (a free vertex,
    hi >= 1 and lo <= free - 1): the nodes of a search that expands every node
    it may."""
    count, stack = 0, [()]
    while stack:
        label = stack.pop()
        count += 1
        ones, free = sum(label), n - len(label)
        if free and spec.u - ones >= 1 and spec.l - ones <= free - 1:
            stack += [label + (0,), label + (1,)]
    return count


def expand_every_node(monkeypatch, g, spec, config=None):
    """Solve with no pruning; return the solution and the labels reduce raised on."""
    raised = []

    def recording_reduce(*args):
        try:
            return qc.reduce(*args)
        except qc.InfeasibleSubproblemError:
            raised.append(args[1])
            raise

    monkeypatch.setattr(qc.bnb, "prune_threshold", lambda upper, integral: math.inf)
    monkeypatch.setattr(qc.bnb, "reduce", recording_reduce)
    return qc.solve(g, spec, config), raised


@pytest.mark.parametrize("n, dens, seed, l, u, nodes", [
    (7, 0.6, 1, 3, 3, 69),
    (8, 0.6, 2, 2, 5, 419),
])
def test_expanding_every_node_makes_no_infeasible_child(monkeypatch, n, dens, seed, l, u, nodes):
    # with no pruning every node with a choice is expanded; such a node leaves
    # both children feasible, so reduce never raises, and a node with one
    # completion is valued and never branched
    g = qc.gen_random(n, dens, seed)
    spec = qc.PartitionSpec(l, u)
    sol, raised = expand_every_node(monkeypatch, g, spec)
    assert raised == []
    assert sol.status == "optimal"
    assert sol.value == qc.brute_force(g, spec)[0]
    assert sol.node_count == nodes_without_pruning(n, spec) == nodes


@pytest.mark.parametrize("bound", ["sdp", "eig"])
@settings(max_examples=60)
@given(case=cut_instances())
def test_expanding_every_node_is_exact_on_random_instances(bound, case):
    g, spec = case
    with pytest.MonkeyPatch.context() as mp:
        sol, raised = expand_every_node(mp, g, spec, BnbConfig(bound=bound))
    assert raised == []
    assert sol.node_count == nodes_without_pruning(g.n, spec)
    opt, _ = qc.brute_force(g, spec)
    if g.is_integral:
        assert sol.value == opt
    else:
        assert opt - 1e-9 <= sol.value <= opt + EPS


def forced_completion(g, spec, order, label):
    """The side vector of label's one completion when its window forces every
    free vertex (hi <= 0 or lo >= free) or it is a leaf, else None."""
    ones, free = sum(label), g.n - len(label)
    if free and spec.u - ones > 0 and spec.l - ones < free:
        return None
    side = np.empty(g.n)
    side[order[: len(label)]] = label
    side[order[len(label):]] = 0.0 if spec.u - ones <= 0 else 1.0
    return side


# a relaxed node at a depth that is not 0 or a power of two gets no
# candidate, while a forced node always values its completion; a search that
# relaxed every node would queue this graph's forced leaf without one and
# fail to expand it, where the real search finds the oracle's -1 (window [2, 7])
FORCED_LEAF_GRAPH = [
    [0, 8, 5, 4, 0, 9, -1], [8, 0, 0, -1, 0, 0, 1], [5, 0, 0, 0, -2, -3, -1],
    [4, -1, 0, 0, -1, 4, 2], [0, 0, -2, -1, 0, 2, 0], [9, 0, -3, 4, 2, 0, 9],
    [-1, 1, -1, 2, 0, 9, 0],
]


@pytest.mark.parametrize("bound", ["sdp", "eig"])
@settings(max_examples=100)
@given(case=cut_instances())
@example(case=(qc.WeightedGraph(np.array(FORCED_LEAF_GRAPH, dtype=float)), qc.PartitionSpec(2, 7)))
def test_forced_nodes_carry_their_completion_and_bound_their_relaxation(bound, case):
    # a node whose window leaves one completion is bounded by that
    # completion's value instead of a relaxation, which could only have
    # certified that value: its certified bound is at most the completion's
    # cut, up to rounding (about 1e-14 here, integral weights too) within
    # the EPS prune slack
    g, spec = case
    sol = qc.solve(g, spec, BnbConfig(bound=bound))
    qp = qc.make_qp(g, spec)
    order = qc.order_vertices(g)
    for label, b in sol.node_bounds:
        side = forced_completion(g, spec, order, label)
        if side is None:
            continue
        cut = qc.cut_weight(g, side)
        if g.is_integral:
            assert b == cut, (label, b, cut)
        else:
            assert abs(b - cut) <= EPS, (label, b, cut)
        rel = qc.build_relaxation(qc.reduce(qp, label, order), sol.shift)
        _, cert = qc.solve_convex(rel)
        assert cert <= cut + EPS, (label, cert, cut)
    opt, _ = qc.brute_force(g, spec)
    assert opt - 1e-9 <= sol.value <= opt + EPS


@pytest.mark.parametrize("lo, hi", [(5, 5), (2, 6)], ids=["bisect", "window"])
def test_forced_nodes_get_no_relaxation(monkeypatch, lo, hi):
    # every node but those with one completion (leaves and forced nodes)
    # solves one relaxation; the forced ones are a sizeable share here
    relaxed = []

    def counting_solve_convex(rel, *args, **kwargs):
        relaxed.append(rel.free.size)
        return qc.solve_convex(rel, *args, **kwargs)

    monkeypatch.setattr(qc.bnb, "solve_convex", counting_solve_convex)
    g = random_graph(10, 0.6, 11, low=1, high=9)
    spec = qc.PartitionSpec(lo, hi)
    sol = qc.solve(g, spec)
    assert sol.value == qc.brute_force(g, spec)[0]
    order = qc.order_vertices(g)
    forced = sum(forced_completion(g, spec, order, label) is not None
                 for label, _ in sol.node_bounds)
    assert forced > 0
    assert len(relaxed) + forced == len(sol.node_bounds)


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


def record_candidate_depths(monkeypatch, n):
    """Wrap qpcut.bnb.upper_bound_from; the returned list receives the depth
    (fixed vertices) of every node it is called at."""
    depths = []

    def recording_upper_bound_from(red, x_start):
        depths.append(n - red.n)
        return upper_bound_from(red, x_start)

    monkeypatch.setattr(qc.bnb, "upper_bound_from", recording_upper_bound_from)
    return depths


def scheduled(depth):
    """Depth 0 or a power of two: where a relaxed node gets a candidate."""
    return not depth & (depth - 1)


@pytest.mark.parametrize("g, spec", [
    (qc.gen_random(12, 0.6, 4), qc.PartitionSpec(6, 6)),
    (qc.gen_toroidal(3, 4, 1), qc.PartitionSpec(3, 6)),
], ids=["random-12-bisect", "toroidal-3x4-window"])
def test_candidates_only_at_power_of_two_depths(monkeypatch, g, spec):
    # the heuristic runs at the root and at depths 1, 2, 4, 8, ... only; the
    # search still reaches the optimum and proves it
    depths = record_candidate_depths(monkeypatch, g.n)
    sol = qc.solve(g, spec)
    assert sol.status == "optimal"
    assert sol.value == qc.brute_force(g, spec)[0]
    assert all(scheduled(d) for d in depths), sorted(set(depths))
    assert depths.count(0) == 1
    assert max(depths) == 8  # the search reaches past depth 4


@pytest.mark.parametrize("bound", ["sdp", "eig"])
@settings(max_examples=100)
@given(case=cut_instances())
def test_candidate_schedule_keeps_the_search_exact(bound, case):
    # the incumbent only prunes, so building fewer candidates may delay the
    # optimum but never loses it; the root, relaxed or forced, always yields
    # the first incumbent
    g, spec = case
    with pytest.MonkeyPatch.context() as mp:
        depths = record_candidate_depths(mp, g.n)
        sol = qc.solve(g, spec, BnbConfig(bound=bound))
    assert all(scheduled(d) for d in depths), sorted(set(depths))
    root_forced = forced_completion(g, spec, qc.order_vertices(g), ()) is not None
    assert depths.count(0) == (0 if root_forced else 1)
    assert sol.incumbent_trace[0][0] == 1
    opt, _ = qc.brute_force(g, spec)
    if g.is_integral:
        assert sol.value == opt
    else:
        assert opt - 1e-9 <= sol.value <= opt + EPS
    assert sol.lower_bound <= sol.value
