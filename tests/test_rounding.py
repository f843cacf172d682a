import numpy as np
import pytest

import qpcut as qc
from helpers import random_graph, random_feasible


def test_binary_input_unchanged():
    g = random_graph(6, 0.5, 0)
    qp = qc.make_qp(g, qc.PartitionSpec(2, 4))
    y = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    out = qc.round_to_binary(qp, y)
    assert np.array_equal(out, y)


def test_k2_half_half_ties():
    g = qc.WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    qp = qc.make_qp(g, qc.PartitionSpec(1, 1))
    y = qc.round_to_binary(qp, np.array([0.5, 0.5]))
    assert sorted(y.tolist()) == [0.0, 1.0]
    assert qp.value(y) == 1.0  # constant along the tie move


def test_rejects_infeasible_input():
    g = random_graph(5, 0.6, 1)
    qp = qc.make_qp(g, qc.PartitionSpec(2, 3))
    with pytest.raises(ValueError):
        qc.round_to_binary(qp, np.ones(5))


def test_rounding_property_battery():
    rng = np.random.default_rng(7)
    for seed in range(12):
        n = int(rng.integers(4, 13))
        g = random_graph(n, float(rng.uniform(0.2, 1.0)), seed)
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, n + 1))
        qp = qc.make_qp(g, qc.PartitionSpec(lo, hi))
        fs = qp.fset
        for _ in range(85):
            x = random_feasible(qp, rng)
            fx = qp.value(x)
            y = qc.round_to_binary(qp, x)
            assert np.all((y == 0.0) | (y == 1.0))
            assert fs.contains(y, tol=1e-9)
            assert qp.value(y) <= fx + 1e-9 * (1.0 + abs(fx))
            binary_mask = (x == 0.0) | (x == 1.0)
            assert np.array_equal(y[binary_mask], x[binary_mask])


def test_rounding_on_reduced_problems():
    rng = np.random.default_rng(8)
    g = random_graph(9, 0.6, 3)
    qp = qc.make_qp(g, qc.PartitionSpec(3, 6))
    red = qc.reduce(qp, (1, 0))
    fs = red.fset
    for _ in range(100):
        x = qc.project(rng.random(red.n), fs)
        y = qc.round_to_binary(red, x)
        assert np.all((y == 0.0) | (y == 1.0))
        assert fs.contains(y, tol=1e-9)
        assert red.value(y) <= red.value(x) + 1e-9 * (1.0 + abs(red.value(x)))


def test_partition_from_binary():
    v0, v1 = qc.partition_from_binary(np.array([0.0, 1.0, 0.0]))
    assert v0 == [0, 2] and v1 == [1]
    assert qc.partition_from_binary(np.zeros(3)) == ([0, 1, 2], [])
    with pytest.raises(ValueError):
        qc.partition_from_binary(np.array([0.4, 1.0]))


def test_round_trip_cut_identity():
    g = random_graph(8, 0.7, 5, low=1, high=9)
    qp = qc.make_qp(g, qc.PartitionSpec(0, 8))
    rng = np.random.default_rng(9)
    for _ in range(50):
        y = qc.round_to_binary(qp, random_feasible(qp, rng))
        v0, v1 = qc.partition_from_binary(y)
        assert len(v0) + len(v1) == 8
        assert qc.cut_weight(g, y) == qp.value(y)
