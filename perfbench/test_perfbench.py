"""Self-checks of the benchmark: baseline node counts, workloads, gate, tracer, compare."""

import copy
import os
import sys
import time

import numpy as np
import pytest

sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")]

import qpcut  # noqa: E402
import qpcut.bnb  # noqa: E402
from qpcut import BnbConfig, PartitionSpec  # noqa: E402
from qpcut.cli import generate_from_spec  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
from tracing import ROOT, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, make_instances  # noqa: E402


def bisection(graph):
    return PartitionSpec(graph.n // 2, (graph.n + 1) // 2)


# Node counts from the ROADMAP baseline table.  They are deterministic, so a
# drift in a generator or in the search loop shows here before any timing does.
@pytest.mark.parametrize(
    "family, bound, nodes",
    [
        ("toroidal:4x5", "sdp", 283),
        ("toroidal:4x5", "eig", 1803),
        ("mixed:4x5", "sdp", 3455),
        ("random:16x1.0", "sdp", 15479),
    ],
)
def test_baseline_node_counts(family, bound, nodes):
    graph = generate_from_spec(family, 1)
    sol = qpcut.solve(graph, bisection(graph), BnbConfig(bound=bound))
    assert sol.status == "optimal"
    assert sol.node_count == nodes


def test_workloads_are_seeded_and_shaped():
    for workload in WORKLOADS.values():
        a = make_instances(workload, 3)
        b = make_instances(workload, 3)
        c = make_instances(workload, 4)
        assert all(np.array_equal(x.graph.weights, y.graph.weights) for x, y in zip(a, b))
        # another seed relabels the same graphs
        assert not all(np.array_equal(x.graph.weights, z.graph.weights) for x, z in zip(a, c))
        assert all(
            np.array_equal(np.sort(x.graph.weights, axis=None), np.sort(z.graph.weights, axis=None))
            for x, z in zip(a, c)
        )

    dense = make_instances(WORKLOADS["dense-bisect"], 1)
    assert all(i.spec.l == i.spec.u and i.config.bound == "sdp" for i in dense)

    sparse = make_instances(WORKLOADS["sparse-window"], 1)
    assert all(i.spec.l < i.spec.u and i.oracle_checked for i in sparse)
    assert any(i.config.bound == "eig" for i in sparse)
    assert any((i.graph.weights < 0).any() for i in sparse)
    assert any(i.spec.l == i.graph.n // 4 for i in sparse)

    large = make_instances(WORKLOADS["large-budget"], 1)
    assert all(64 <= i.graph.n and not i.oracle_checked for i in large)
    assert all(i.config.max_nodes is not None and i.spec.l == i.spec.u for i in large)


def test_gate_accepts_right_answers_and_flags_wrong_ones():
    inst = make_instances(WORKLOADS["sparse-window"], 1)[0]
    oracle = qpcut.brute_force(inst.graph, inst.spec)[0]
    sol = qpcut.solve(inst.graph, inst.spec, inst.config)
    assert run.check_solve(inst, sol, oracle) == []

    wrong_value = copy.copy(sol)
    wrong_value.value = sol.value + 1
    assert any("oracle" in p for p in run.check_solve(inst, wrong_value, oracle))
    assert any("cut weight" in p for p in run.check_solve(inst, wrong_value, oracle))

    outside = copy.copy(sol)
    outside.v0, outside.v1 = [], list(range(inst.graph.n))
    assert any("outside" in p for p in run.check_solve(inst, outside, oracle))

    limited = copy.copy(sol)
    limited.status = "node_limit"
    limited.bound_trace = [sol.value + 1]
    problems = run.check_solve(inst, limited, oracle)
    assert any("exact workload" in p for p in problems)
    assert any("above value" in p for p in problems)


def test_tracer_keeps_answers_restores_names_and_closes():
    graph = generate_from_spec("toroidal:3x4", 2)
    spec = PartitionSpec(3, 6)
    config = BnbConfig(bound="eig")
    plain = qpcut.solve(graph, spec, config)
    originals = [getattr(module, attr) for module, attr, _ in TRACED]

    with Tracer() as tracer:
        assert qpcut.bnb.reduce is not originals[2]
        t0 = time.perf_counter()
        traced = tracer.solve(qpcut.solve, graph, spec, config)
        wall = time.perf_counter() - t0

    assert [getattr(module, attr) for module, attr, _ in TRACED] == originals
    assert (traced.value, traced.node_count) == (plain.value, plain.node_count)

    totals = tracer.layer_totals()
    assert totals[ROOT][0] == 1
    assert totals["qp.reduce"][0] == plain.node_count
    assert 0 < tracer.counters["projgrad.relax_converged"] <= totals["projgrad.solve_convex"][0]
    assert totals["projgrad.project"][0] > totals["projgrad.solve_convex"][0]
    assert totals["bounds.sigma_shift"][0] == 1 and totals["bounds.sdp_shift"][0] == 0
    assert tracer.counters["projgrad.relax_iters"] > 0

    (self_sum, root_s), = tracer.solve_closure().values()
    assert self_sum == pytest.approx(root_s, rel=1e-9)
    assert abs(self_sum - wall) <= 0.05 * wall


def test_tracer_counts_infeasible_children():
    graph = generate_from_spec("toroidal:2x3", 5)
    qp = qpcut.make_qp(graph, PartitionSpec(1, 1))
    with Tracer() as tracer:
        # two vertices fixed to 1 overrun a budget of one
        with pytest.raises(qpcut.InfeasibleSubproblemError):
            tracer.solve(lambda: qpcut.bnb.reduce(qp, (1, 1), None))
        tracer.solve(lambda: qpcut.bnb.reduce(qp, (1, 0), None))
    assert tracer.counters["qp.reduce.infeasible"] == 1
    assert tracer.layer_totals()["qp.reduce"][0] == 2


def metric(bound=0.1, better="lower"):
    return {"name": "m", "unit": "s", "better": better, "bound": bound}


def test_compare_verdicts():
    seeds = range(1, 11)
    parent = {s: 100.0 + s for s in seeds}
    assert compare.verdict(metric(), parent, dict(parent))[0] == "unchanged"
    assert compare.verdict(metric(), parent, {s: v * 1.2 for s, v in parent.items()})[0] == "worse"
    assert compare.verdict(metric(), parent, {s: v * 0.8 for s, v in parent.items()})[0] == "improved"
    better_high = metric(better="higher")
    assert compare.verdict(better_high, parent, {s: v * 0.8 for s, v in parent.items()})[0] == "worse"
    noisy = {s: 100.0 * (1 + (s % 2)) for s in seeds}
    assert compare.verdict(metric(), noisy, dict(noisy))[0] == "unresolved"
    exact = metric(bound=0.0)
    nodes = {s: 500.0 for s in seeds}
    assert compare.verdict(exact, nodes, {s: 501.0 for s in seeds})[0] == "worse"
    v, pq, cq, ratio = compare.verdict(exact, nodes, {s: 400.0 for s in seeds})
    assert (v, pq[0], cq[0], ratio) == ("improved", 500.0, 400.0, 0.8)
