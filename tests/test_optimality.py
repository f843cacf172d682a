import hashlib

import numpy as np
import pytest

import qpcut as qc
from helpers import (
    complete_graph,
    improving_move_exists,
    path_graph,
    random_feasible,
    random_graph,
)


def test_multipliers_interior_budget():
    g = random_graph(6, 0.5, 0)
    qp = qc.make_qp(g, qc.PartitionSpec(1, 5))
    x = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])  # sum 3, strictly inside [1, 5]
    assert qc.check_local_min(qp, x).lam == 0.0


def test_multipliers_midpoint_on_active_bound():
    # K2, l = u = 1, x = (1, 0): gradient vanishes, interval is [0, 0]
    g = complete_graph(2)
    qp = qc.make_qp(g, qc.PartitionSpec(1, 1))
    a = qc.check_local_min(qp, np.array([1.0, 0.0]))
    assert a.lam == pytest.approx(0.0, abs=1e-12)
    assert a.p1


def test_multipliers_rejects_infeasible():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1))
    with pytest.raises(ValueError):
        qc.check_local_min(qp, np.array([1.0, 1.0, 1.0]))


def test_check_first_order_saddle_at_center():
    g = complete_graph(2)
    qp = qc.make_qp(g, qc.PartitionSpec(0, 2))
    assert qc.check_local_min(qp, np.full(2, 0.5)).p1  # stationary saddle


def test_check_first_order_at_oracle_optimum():
    for seed in range(5):
        g = random_graph(7, 0.7, seed, low=1, high=9)
        spec = qc.PartitionSpec(3, 4)
        _, x = qc.brute_force(g, spec)
        assert qc.check_local_min(qc.make_qp(g, spec), x).p1


def test_local_min_flag_on_pair_violation():
    # identical fractional pair with slack pair condition cannot be optimal
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = w + np.diag([3.0, 3.0])  # 3+3 > 2*1
    qp = qc.ReducedQp(free=np.arange(2), M=m, lin=m.sum(axis=1), const=0.0, lo=1, hi=1)
    x = np.array([0.5, 0.5])
    a = qc.check_local_min(qp, x)
    assert a.p1 and not a.p2
    assert not a.local_min
    assert a.witness[0] == "p2"


def test_classification_agrees_with_move_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    for seed in range(10):
        n = int(rng.integers(4, 9))
        g = random_graph(n, float(rng.uniform(0.3, 1.0)), seed, low=1, high=9)
        if seed % 2:
            spec = qc.PartitionSpec(n // 2, n // 2)
        else:
            spec = qc.PartitionSpec(max(0, n // 2 - 1), min(n, n // 2 + 1))
        qp = qc.make_qp(g, spec)
        red = qc.reduce(qp, ())
        points = []
        for _ in range(20):
            y = qc.round_to_binary(qp, random_feasible(qp, rng))
            points.append(y)
        for _ in range(10):
            rep = qc.descend_nonconvex(red, random_feasible(qp, rng), tol=1e-8)
            points.append(qc.round_to_binary(qp, rep.x))
        for x in points:
            a = qc.check_local_min(qp, x)
            assert a.local_min == (not improving_move_exists(qp, x)), (seed, x)
            checked += 1
    assert checked >= 300


def test_descent_direction_strictly_decreases():
    # the all-halves point is always stationary (its gradient vanishes
    # identically); on generic weighted graphs a fractional pair has a slack
    # pair condition, so a quadratic-only descent direction must come back
    rng = np.random.default_rng(12)
    produced = 0
    for seed in range(12):
        n = 2 * int(rng.integers(2, 5))
        g = random_graph(n, float(rng.uniform(0.4, 1.0)), seed, low=1, high=9)
        qp = qc.make_qp(g, qc.PartitionSpec(n // 2, n // 2))
        x = np.full(n, 0.5)
        a = qc.check_local_min(qp, x)
        assert a.p1
        if a.local_min:
            continue  # all pair conditions tight (uniform complete graph)
        move = qc.descent_direction(qp, x, a)
        assert move is not None
        d, alpha_max = move
        assert alpha_max > 0.0
        for step in (min(alpha_max, 1e-3), alpha_max):
            x_new = x + step * d
            assert qp.fset.contains(x_new, tol=1e-9)
            assert qp.value(x_new) < qp.value(x)
        produced += 1
    assert produced >= 8


def test_descent_direction_p4_single_coordinate():
    # slack budget window, lambda = 0, zero gradient at a coordinate with a
    # positive diagonal: the single-coordinate move must strictly descend
    m = np.diag([2.0, 1.0])  # isolated vertices with positive shifts
    qp = qc.ReducedQp(free=np.arange(2), M=m, lin=m.sum(axis=1), const=0.0, lo=0, hi=2)
    x = np.array([0.5, 0.0])
    a = qc.check_local_min(qp, x)
    assert a.p1 and not a.p4 and not a.local_min
    move = qc.descent_direction(qp, x, a)
    assert move is not None
    d, alpha_max = move
    x_new = x + min(alpha_max, 1e-3) * d
    assert qp.value(x_new) < qp.value(x)


def test_descent_direction_none_at_local_min():
    g = path_graph(3)
    spec = qc.PartitionSpec(1, 1)
    qp = qc.make_qp(g, spec)
    x = np.array([1.0, 0.0, 0.0])
    a = qc.check_local_min(qp, x)
    assert a.local_min
    assert qc.descent_direction(qp, x, a) is None


def test_strict_flags():
    # P3 with l=u=1: (1,0,0) is optimal; the tied optimum (0,0,1) makes it
    # non-strict is not forced here, check the machinery on two cases instead
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1))
    a = qc.check_local_min(qp, np.array([1.0, 0.0, 0.0]))
    assert a.c1 is True
    assert a.local_min

    # constant-objective tie: K2 with l=u=1, both binary points tie via the
    # zero-curvature pair move, so the local minimum is not strict
    g = complete_graph(2)
    qp2 = qc.make_qp(g, qc.PartitionSpec(1, 1))
    a2 = qc.check_local_min(qp2, np.array([1.0, 0.0]))
    assert a2.local_min
    assert a2.strict is False

    # unique optimum with a slack window is strict
    w = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    g3 = qc.WeightedGraph(w)
    spec3 = qc.PartitionSpec(1, 2)
    opt, x3 = qc.brute_force(g3, spec3)
    qp3 = qc.make_qp(g3, spec3)
    a3 = qc.check_local_min(qp3, x3)
    assert a3.local_min
    assert a3.strict is True


def test_strict_c1_false_with_fractional_coordinate():
    g = complete_graph(2)
    qp = qc.make_qp(g, qc.PartitionSpec(1, 1))
    a = qc.check_local_min(qp, np.array([0.5, 0.5]))
    assert a.c1 is False
    assert a.strict is False


# SHA-256 of every field the classification reports, descent direction
# included, over the points of _pinned_points (exact float reprs).  The
# points come from project, round_to_binary and descend_nonconvex, so a
# change to their iterates moves the digest as well.
CLASSIFICATION_SHA256 = "a427eca4192a93abb92595b8b01759c862a18e7dd7b58818b6f3db1cb1067e9d"


def _pinned_points():
    """Seeded (problem, point) pairs: signed, unsigned and unit weights under
    equality, slack and open windows; random feasible, rounded, snapped,
    random binary, all-halves and descended points."""
    rng = np.random.default_rng(14)
    for seed in range(150):
        n = int(rng.integers(3, 10))
        low, high = ((1, 9), (-3, 9), (1, 1))[seed % 3]
        g = random_graph(n, float(rng.uniform(0.3, 1.0)), seed, low=low, high=high)
        k = n // 2
        spec = (
            qc.PartitionSpec(k, k),
            qc.PartitionSpec(max(0, k - 1), min(n, k + 1)),
            qc.PartitionSpec(0, n),
        )[seed % 4 % 3]
        qp = qc.make_qp(g, spec)
        points = [np.full(n, 0.5)] if spec.l <= n / 2 <= spec.u else []
        for _ in range(5):
            y = random_feasible(qp, rng)
            points += [y, qc.round_to_binary(qp, y)]
        snapped = np.where(y < 0.3, 0.0, np.where(y > 0.7, 1.0, y))
        if qp.fset.contains(snapped, tol=1e-7):
            points.append(snapped)
        binary = np.zeros(n)
        binary[rng.permutation(n)[: int(rng.integers(spec.l, spec.u + 1))]] = 1.0
        points.append(binary)
        for _ in range(2):
            rep = qc.descend_nonconvex(qc.reduce(qp, ()), random_feasible(qp, rng), tol=1e-8)
            points += [rep.x, qc.round_to_binary(qp, rep.x)]
        for x in points:
            yield qp, x


def test_classification_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for qp, x in _pinned_points():
        a = qc.check_local_min(qp, x)
        move = qc.descent_direction(qp, x, a)
        fields = (a.lam, a.p1, a.p2, a.p3, a.p4, a.local_min, a.witness,
                  a.c1, a.c2, a.c3, a.strict)
        if move is not None:
            fields += (move[0].tolist(), move[1])
        digest.update(repr(fields).encode())
        count += 1
    assert count >= 2000
    assert digest.hexdigest() == CLASSIFICATION_SHA256
