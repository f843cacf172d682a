import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpcut as qc
from qpcut.qp import InfeasibleSubproblemError
from helpers import path_graph, complete_graph, random_graph, fd_gradient, reference_contains


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


def test_objective_examples():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1))
    assert qp.value(np.array([1.0, 0.0, 0.0])) == 1.0
    assert qp.value(np.zeros(3)) == 0.0
    assert qp.value(np.ones(3)) == 0.0
    with pytest.raises(ValueError):
        qp.value(np.zeros(4))


def test_gradient_examples():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1))
    assert np.allclose(qp.grad(np.full(3, 0.5)), 0.0)
    assert np.array_equal(qp.grad(np.zeros(3)), np.array([2.0, 3.0, 2.0]))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for seed in range(4):
        g = random_graph(7, 0.7, seed)
        qp = qc.make_qp(g, qc.PartitionSpec(2, 5))
        for _ in range(100):
            x = rng.random(7)
            num = fd_gradient(qp.value, x)
            ana = qp.grad(x)
            scale = max(1.0, float(np.abs(ana).max()))
            assert np.abs(num - ana).max() <= 1e-5 * scale


def test_reduce_identity_and_budgets():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 2))
    red = qc.reduce(qp, ())
    assert red.lo == 1 and red.hi == 2 and red.n == 3
    x = np.array([0.3, 0.9, 0.1])
    assert red.value(x) == pytest.approx(qp.value(x), abs=1e-12)


def test_reduce_root_in_branching_order_is_the_problem():
    # the search root is the problem with its coordinates permuted: the same
    # function, with lin permuted along with M
    rng = np.random.default_rng(4)
    for seed in range(3):
        g = random_graph(10, 0.5, seed)
        qp = qc.make_qp(g, qc.PartitionSpec(3, 7))
        order = rng.permutation(10)
        assert not np.array_equal(order, np.arange(10))
        root = qc.reduce(qp, (), order)
        assert np.array_equal(root.free, order)
        points = [rng.random(10) for _ in range(10)]
        points += [rng.integers(0, 2, size=10).astype(float) for _ in range(10)]
        for z in points:
            assert root.value(z[order]) == pytest.approx(qp.value(z), rel=1e-12, abs=1e-12)
            assert np.allclose(root.grad(z[order]), qp.grad(z)[order], rtol=1e-12, atol=1e-12)


def test_reduce_composes_and_children_view_the_parent_matrix():
    # fixing a then b equals fixing a + b at once; the child's M is a view of
    # its parent's, so deriving a child costs O(n) beyond the slicing
    rng = np.random.default_rng(6)
    g = random_graph(9, 0.7, 2)
    qp = qc.make_qp(g, qc.PartitionSpec(2, 6))
    order = rng.permutation(9)
    checked = 0
    for a in [()] + list(itertools.product((0, 1), repeat=2)):
        for b in [(), (0,), (1,), (1, 0), (0, 1, 1)]:
            try:
                want = qc.reduce(qp, a + b, order)
            except InfeasibleSubproblemError:
                with pytest.raises(InfeasibleSubproblemError):
                    qc.reduce(qc.reduce(qp, a, order), b)
                continue
            parent = qc.reduce(qp, a, order)
            child = qc.reduce(parent, b)
            assert np.array_equal(child.free, want.free)
            assert (child.lo, child.hi) == (want.lo, want.hi)
            assert np.shares_memory(child.M, parent.M)
            for _ in range(5):
                x = rng.random(child.n)
                assert child.value(x) == pytest.approx(want.value(x), rel=1e-12, abs=1e-12)
                assert np.allclose(child.grad(x), want.grad(x), rtol=1e-12, atol=1e-12)
            checked += 1
    assert checked >= 20


def test_relaxation_keeps_the_subproblem_matrix():
    # build_relaxation carries Diag(lam) beside M instead of forming M - Diag(lam)
    g = random_graph(8, 0.6, 1)
    qp = qc.make_qp(g, qc.PartitionSpec(2, 6))
    red = qc.reduce(qc.reduce(qp, (1,), qc.order_vertices(g)), (0,))
    rel = qc.build_relaxation(red, qc.sdp_shift(qp.M))
    assert rel.M is red.M and rel.fset is red.fset
    dense = rel.M - np.diag(rel.lam)
    x = np.random.default_rng(0).random(red.n)
    assert np.allclose(rel.matvec(x), dense @ x, rtol=1e-12, atol=1e-12)
    assert rel.value(x) == pytest.approx(rel.const + rel.lin @ x - x @ dense @ x, rel=1e-12)
    with pytest.raises(ValueError, match="relaxation"):
        qc.reduce(rel, (1,))


def test_feasible_set_is_derived_from_the_window():
    # fset is the unit box cut by the window, never a separate value that
    # could disagree with lo and hi
    m = np.ones((3, 3))
    with pytest.raises(TypeError):
        qc.ReducedQp(free=np.arange(3), M=m, lin=m.sum(axis=1), const=0.0, lo=1, hi=1,
                     fset=qc.FeasibleSet.unit_box(3, 0, 3))
    g = random_graph(7, 0.6, 2)
    qp = qc.make_qp(g, qc.PartitionSpec(2, 4))
    stack, checked = [qc.reduce(qp, (), qc.order_vertices(g))], 0
    while stack:
        red = stack.pop()
        assert red.fset is qc.FeasibleSet.unit_box(red.n, red.lo, red.hi)
        checked += 1
        for b in ((0,), (1,)) if red.n else ():
            try:
                stack.append(qc.reduce(red, b))
            except InfeasibleSubproblemError:
                pass
    assert checked > 50


def test_reduce_fix_middle_vertex():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 2))
    red = qc.reduce(qp, (1,), order=[1, 0, 2])
    assert red.lo == 0 and red.hi == 1
    rng = np.random.default_rng(2)
    for _ in range(100):
        xt = rng.random(2)
        full = np.array([xt[0], 1.0, xt[1]])
        assert red.value(xt) == pytest.approx(qp.value(full), abs=1e-9)


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
                assert red.lo == qp.lo - sum(bits)
                assert red.hi == qp.hi - sum(bits)
                for _ in range(5):
                    xt = rng.random(red.n)
                    full = np.empty(8)
                    full[: depth] = bits
                    full[depth:] = xt
                    want = qp.value(full)
                    assert abs(red.value(xt) - want) <= 1e-9 * (1.0 + abs(want))


def test_binary_objective_equals_cut_exactly():
    for seed in range(3):
        g = random_graph(10, 0.5, seed, low=1, high=10)
        qp = qc.make_qp(g, qc.PartitionSpec(0, 10))
        rng = np.random.default_rng(seed)
        for _ in range(200):
            y = rng.integers(0, 2, size=10).astype(float)
            assert qp.value(y) == qc.cut_weight(g, y)


def test_feasible_set_shape():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 2))
    fs = qp.fset
    assert fs.dim == 3 and fs.lo == 1.0 and fs.hi == 2.0
    assert fs.contains(np.array([1.0, 0.0, 0.5]))
    assert not fs.contains(np.array([1.0, 1.0, 1.0]))
    assert not fs.is_empty


@given(data=st.data(), n=st.integers(0, 5), lo=st.integers(-2, 7), hi=st.integers(-2, 7))
def test_contains_is_the_reference_bit_for_bit(data, n, lo, hi):
    # every tol, in a drawn order, against one cached unit box, whose per-tol
    # bounds persist across calls and examples: points near the bounds, NaN
    # entries and shape mismatches, answered as the reference does
    box = qc.FeasibleSet.unit_box(n, lo, hi)
    near = st.sampled_from([0.0, 1.0, -1e-9, 1.0 + 1e-9, -2e-9, 1.0 + 2e-9, 0.5, np.nan])
    tols = data.draw(st.permutations([1e-9, 1e-7, 0.0, 1e-12, 0.25]))
    for _ in range(3):
        shape = data.draw(st.sampled_from([(n,), (n,), (n + 1,), (1, n)]))
        size = int(np.prod(shape))
        x = np.array(data.draw(st.lists(near | st.floats(-0.5, 1.5), min_size=size,
                                        max_size=size))).reshape(shape)
        for tol in tols:
            assert box.contains(x, tol) == reference_contains(box, x, tol), (x, tol)


def test_unit_boxes_of_one_size_share_their_arrays():
    for n, lo, hi in [(4, 1, 3), (4, 2, 2), (4, 5, 6), (4, -2, -1), (4, 3, 1), (0, 0, 0)]:
        box = qc.FeasibleSet.unit_box(n, lo, hi)
        want = qc.FeasibleSet(np.zeros(n), np.ones(n), lo, hi)
        for name in ("p", "q", "lo", "hi", "qsum", "is_empty", "bounds", "steps"):
            assert np.array_equal(getattr(box, name), getattr(want, name)), (n, lo, hi, name)
        assert not (box.p.flags.writeable or box.bounds.flags.writeable)
        assert box is qc.FeasibleSet.unit_box(n, lo, hi)
