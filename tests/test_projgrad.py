import numpy as np
import pytest

import qpcut as qc
from qpcut.qp import FeasibleSet
from helpers import path_graph, random_graph, projection_oracle


def unit_set(n, lo, hi):
    return FeasibleSet(np.zeros(n), np.ones(n), float(lo), float(hi))


def test_project_examples():
    fs = unit_set(2, 1, 1)
    x = np.array([0.7, 0.3])
    assert np.array_equal(qc.project(x, fs), x)  # feasible points are fixed
    assert np.array_equal(qc.project(np.array([2.0, -1.0]), fs), [1.0, 0.0])
    assert np.allclose(qc.project(np.array([1.0, 1.0]), unit_set(2, 0, 1)), [0.5, 0.5])


def test_project_rejects_empty_set():
    with pytest.raises(ValueError):
        qc.project(np.zeros(2), unit_set(2, 3, 3))


def test_project_idempotent_nonexpansive_feasible():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, n + 1))
        fs = unit_set(n, lo, hi)
        a = rng.standard_normal(n) * 2.0
        b = rng.standard_normal(n) * 2.0
        pa, pb = qc.project(a, fs), qc.project(b, fs)
        assert fs.contains(pa, tol=1e-9) and fs.contains(pb, tol=1e-9)
        assert np.linalg.norm(qc.project(pa, fs) - pa) <= 1e-12
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_project_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(120):
        n = int(rng.integers(1, 6))
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, n + 1))
        fs = unit_set(n, lo, hi)
        x = rng.standard_normal(n) * 1.5
        got = qc.project(x, fs)
        want = projection_oracle(x, fs)
        assert np.allclose(got, want, atol=1e-7)


def relaxation(qp, kind="sdp"):
    shift = qc.sdp_shift(qp.M) if kind == "sdp" else qc.sigma_shift(qp.M)
    return qc.build_relaxation(qc.reduce(qp, ()), shift)


def test_solve_convex_zero_iterations_at_minimizer():
    g = qc.WeightedGraph(np.zeros((2, 2)))
    qp = qc.make_qp(g, qc.PartitionSpec(0, 2))
    rel = relaxation(qp)
    report, bound = qc.solve_convex(rel, x0=np.array([0.3, 0.6]))
    assert report.converged and report.iterations == 0
    assert bound <= report.value + 1e-12


def test_solve_convex_reaches_known_budget_face_minimizer():
    # complete 2-graph, budget fixed at 1: relaxed objective 2(x1^2+x2^2) - 1
    # on the face x1 + x2 = 1, minimized at (1/2, 1/2) with value 0
    g = qc.WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    qp = qc.make_qp(g, qc.PartitionSpec(1, 1))
    rel = relaxation(qp)
    report, bound = qc.solve_convex(rel, x0=np.array([1.0, 0.0]), tol=1e-6)
    assert report.converged
    assert np.allclose(report.x, [0.5, 0.5], atol=1e-4)
    assert report.value == pytest.approx(0.0, abs=1e-6)
    assert bound <= 1.0  # true optimum of the binary problem


def test_solve_convex_monotone_and_stopping():
    rng = np.random.default_rng(2)
    for seed in range(4):
        g = random_graph(10, 0.6, seed)
        qp = qc.make_qp(g, qc.PartitionSpec(3, 7))
        rel = relaxation(qp, kind="sdp")
        fs = rel.fset
        x = qc.project(rng.random(10) * 2 - 0.5, fs)
        values = []
        for iters in range(0, 40, 5):
            report, _ = qc.solve_convex(rel, x0=x, tol=1e-12, max_iter=iters)
            values.append(report.value)
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

        report, bound = qc.solve_convex(rel, x0=x, tol=1e-4, max_iter=10000)
        assert report.converged and report.residual <= 1e-4
        assert bound <= report.value + 1e-9


def test_solve_convex_rejects_infeasible_start():
    qp = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1))
    rel = relaxation(qp)
    with pytest.raises(ValueError):
        qc.solve_convex(rel, x0=np.ones(3))


def test_descend_nonconvex_monotone_from_relaxation_point():
    for seed in range(4):
        g = random_graph(9, 0.7, seed)
        qp = qc.make_qp(g, qc.PartitionSpec(3, 6))
        rel = relaxation(qp)
        report, _ = qc.solve_convex(rel)
        red = qc.reduce(qp, ())
        start_val = red.value(report.x)
        out = qc.descend_nonconvex(red, report.x)
        assert out.value <= start_val + 1e-9


def test_descend_nonconvex_stationary_binary_start():
    # a binary local minimizer must not move
    g = path_graph(3)
    qp = qc.make_qp(g, qc.PartitionSpec(1, 1))
    red = qc.reduce(qp, ())
    out = qc.descend_nonconvex(red, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(out.x, [1.0, 0.0, 0.0])
    assert out.value == 1.0


def exact_residual(grad, x, fs):
    """Stationarity residual ||P(x - grad(x)) - x|| from the exact gradient."""
    return float(np.linalg.norm(qc.project(x - grad(x), fs) - x))


def _carried_gradient_cases():
    for seed in range(8):
        yield pytest.param(seed, None, id=str(seed))
    # the carried residual passed 1e-12 at 9.79e-13 while the exact one was
    # 1.016e-12: sigma_shift, label (1,) in branching order, window [4, 13]
    yield pytest.param(7, (13, 0.7, 4, 13), id="n13-window-4-13-ordered")


@pytest.mark.parametrize("seed, case", _carried_gradient_cases())
def test_carried_gradient_cannot_fake_convergence(seed, case):
    # the loop updates g <- g + t Hd instead of re-evaluating the gradient; a
    # converged report must still be stationary to tol at the exact gradient
    rng = np.random.default_rng(seed)
    if case is None:
        n = int(rng.integers(6, 14))
        g = random_graph(n, float(rng.uniform(0.3, 1.0)), seed)
        lo = int(rng.integers(0, n // 2 + 1))
        qp = qc.make_qp(g, qc.PartitionSpec(lo, int(rng.integers(lo, n + 1))))
        order = None
    else:
        n, density, lo, hi = case
        g = random_graph(n, density, seed)
        qp = qc.make_qp(g, qc.PartitionSpec(lo, hi))
        order = qc.order_vertices(g)
    checked = 0
    for shift in (qc.sdp_shift(qp.M), qc.sigma_shift(qp.M)):
        for label in ((), (1,), (0, 1)):
            red = qc.reduce(qp, label, order)
            fs = red.fset
            rel = qc.build_relaxation(red, shift)
            for tol in (1e-4, 1e-8, 1e-12):
                report, _ = qc.solve_convex(rel, tol=tol, max_iter=10**4)
                if report.converged:
                    assert exact_residual(rel.grad, report.x, fs) <= tol
                    checked += 1
                out = qc.descend_nonconvex(red, report.x, tol=tol, max_iter=10**4)
                if out.converged:
                    assert exact_residual(red.grad, out.x, fs) <= tol
                    checked += 1
    assert checked >= 18
