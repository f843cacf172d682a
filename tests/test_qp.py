import itertools

import numpy as np
import pytest

import qpcut as qc
from qpcut.qp import InfeasibleSubproblemError
from helpers import path_graph, complete_graph, random_graph, fd_gradient


def test_make_qp_examples():
    k3 = qc.make_qp(complete_graph(3), qc.PartitionSpec(1, 1))
    assert np.array_equal(k3.M, np.ones((3, 3)))

    empty = qc.WeightedGraph(np.zeros((3, 3)))
    assert np.array_equal(qc.make_qp(empty, qc.PartitionSpec(0, 3)).M, np.zeros((3, 3)))

    p3 = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1))
    assert np.array_equal(p3.M, np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float))


def test_qp_rejects_weights_beyond_exact_cut_sums():
    def p3(w12):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = w12
        w[1, 2] = w[2, 1] = 1.0
        return qc.WeightedGraph(w)

    spec = qc.PartitionSpec(1, 2)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        qc.make_qp(p3(3e15), spec)  # sum |M_ij| = 1.2e16 + 3
    assert np.abs(qc.make_qp(p3(2.2e15), spec).M).sum() < 2.0**53
    with pytest.raises(ValueError, match="2\\*\\*53"):
        qc.QpProblem(M=np.diag([2.0**52, 2.0**52]), l=0, u=2)  # exactly 2**53


def test_objective_examples():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1))
    assert qc.objective(qp, np.array([1.0, 0.0, 0.0])) == 1.0
    assert qc.objective(qp, np.zeros(3)) == 0.0
    assert qc.objective(qp, np.ones(3)) == 0.0
    with pytest.raises(ValueError):
        qc.objective(qp, np.zeros(4))


def test_gradient_examples():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1))
    assert np.allclose(qc.gradient(qp, np.full(3, 0.5)), 0.0)
    assert np.array_equal(qc.gradient(qp, np.zeros(3)), np.array([2.0, 3.0, 2.0]))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for seed in range(4):
        g = random_graph(7, 0.7, seed)
        qp = qc.make_qp(g, qc.PartitionSpec(2, 5))
        for _ in range(100):
            x = rng.random(7)
            num = fd_gradient(lambda v: qc.objective(qp, v), x)
            ana = qc.gradient(qp, x)
            scale = max(1.0, float(np.abs(ana).max()))
            assert np.abs(num - ana).max() <= 1e-5 * scale


def test_reduce_identity_and_budgets():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 2))
    red = qc.reduce(qp, ())
    assert red.lo == 1 and red.hi == 2 and red.n == 3
    x = np.array([0.3, 0.9, 0.1])
    assert red.value(x) == pytest.approx(qc.objective(qp, x), abs=1e-12)


def test_reduce_fix_middle_vertex():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 2))
    red = qc.reduce(qp, (1,), order=[1, 0, 2])
    assert red.lo == 0 and red.hi == 1
    rng = np.random.default_rng(2)
    for _ in range(100):
        xt = rng.random(2)
        full = np.array([xt[0], 1.0, xt[1]])
        assert red.value(xt) == pytest.approx(qc.objective(qp, full), abs=1e-9)


def test_reduce_infeasible_signals():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1))
    with pytest.raises(InfeasibleSubproblemError):
        qc.reduce(qp, (1, 1))  # two ones exceed u = 1
    qp2 = qc.make_qp(path_graph(3), qc.PartitionSpec(3, 3))
    with pytest.raises(InfeasibleSubproblemError):
        qc.reduce(qp2, (0,))  # l stays 3 with only 2 free coordinates


def test_reduce_consistency_exhaustive_depth3():
    rng = np.random.default_rng(3)
    for seed in range(3):
        g = random_graph(8, 0.6, seed)
        qp = qc.make_qp(g, qc.PartitionSpec(2, 6))
        order = np.arange(8)
        for depth in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=depth):
                try:
                    red = qc.reduce(qp, bits, order)
                except InfeasibleSubproblemError:
                    continue
                assert red.lo == qp.l - sum(bits)
                assert red.hi == qp.u - sum(bits)
                for _ in range(5):
                    xt = rng.random(red.n)
                    full = np.empty(8)
                    full[: depth] = bits
                    full[depth:] = xt
                    want = qc.objective(qp, full)
                    assert abs(red.value(xt) - want) <= 1e-9 * (1.0 + abs(want))


def test_binary_objective_equals_cut_exactly():
    for seed in range(3):
        g = random_graph(10, 0.5, seed, low=1, high=10)
        qp = qc.make_qp(g, qc.PartitionSpec(0, 10))
        rng = np.random.default_rng(seed)
        for _ in range(200):
            y = rng.integers(0, 2, size=10).astype(float)
            assert qc.objective(qp, y) == qc.cut_weight(g, y)


def test_feasible_set_shape():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 2))
    fs = qc.feasible_set(qp)
    assert fs.dim == 3 and fs.lo == 1.0 and fs.hi == 2.0
    assert fs.contains(np.array([1.0, 0.0, 0.5]))
    assert not fs.contains(np.array([1.0, 1.0, 1.0]))
    assert not fs.is_empty
