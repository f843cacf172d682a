import itertools

import numpy as np
import pytest

import qpcut as qc
from qpcut.qp import InfeasibleSubproblemError, feasible_set
from helpers import path_graph, random_graph


def p3_qp(l=1, u=1):
    return qc.make_qp(path_graph(3), qc.PartitionSpec(l, u))


def test_sigma_shift_examples():
    sh = qc.sigma_shift(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert sh.sigma == pytest.approx(2.0, abs=1e-4)
    assert qc.sigma_shift(-np.eye(3)).sigma == 0.0
    assert qc.sigma_shift(p3_qp().M).sigma == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-4)


def test_sigma_shift_escalates_past_a_bad_estimate(monkeypatch):
    # even a grossly low eigenvalue estimate must end certified
    import qpcut.bounds as bounds_mod

    monkeypatch.setattr(bounds_mod, "_lambda_max_estimate", lambda m, **kw: 1e-9)
    m = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1)).M
    sh = bounds_mod.sigma_shift(m)
    assert sh.sigma >= float(np.linalg.eigvalsh(m)[-1]) - 1e-8
    s = sh.sigma * np.eye(3) - m
    assert float(np.linalg.eigvalsh(s)[0]) >= -1.1e-8 * np.abs(m).sum(axis=1).max()


def test_sigma_shift_stays_near_lambda_max_on_a_large_grid():
    # a stalled eigenvalue estimate made the certificate loop double sigma here
    g = qc.gen_toroidal(8, 8, seed=3)
    m = qc.make_qp(g, qc.PartitionSpec(32, 32)).M
    lam_max = float(np.linalg.eigvalsh(m)[-1])
    assert lam_max <= qc.sigma_shift(m).sigma <= lam_max * (1.0 + 1e-5)


def test_sigma_shift_is_certified_upper_bound():
    for seed in range(6):
        g = random_graph(9, 0.7, seed)
        m = qc.make_qp(g, qc.PartitionSpec(0, 9)).M
        sh = qc.sigma_shift(m)
        lam_max = float(np.linalg.eigvalsh(m)[-1])
        assert sh.sigma >= max(0.0, lam_max) - 1e-9
        assert sh.psd_tol <= 1e-8 * max(1.0, np.abs(m).sum(axis=1).max())


def test_sdp_shift_examples():
    sh = qc.sdp_shift(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(sh.lam, [2.0, 2.0], atol=1e-3)
    assert sh.lam.sum() == pytest.approx(4.0, abs=1e-4)

    sh3 = qc.sdp_shift(p3_qp().M)
    assert np.allclose(sh3.lam, [2.0, 3.0, 2.0], atol=1e-3)
    assert sh3.lam.sum() == pytest.approx(7.0, abs=1e-4)
    sigma = qc.sigma_shift(p3_qp().M).sigma
    assert sh3.lam.sum() <= 3 * sigma + 1e-6

    diag = np.diag([3.0, 0.5, 2.0])
    assert np.allclose(qc.sdp_shift(diag).lam, [3.0, 0.5, 2.0], atol=1e-4)


def test_sdp_shift_handles_negative_diagonal():
    sh = qc.sdp_shift(-np.eye(3))
    assert np.all(sh.lam >= 0.0)
    assert sh.lam.sum() <= 1e-4


def test_sdp_dominance_and_certificates():
    for seed in range(8):
        g = random_graph(10, 0.6, seed)
        m = qc.make_qp(g, qc.PartitionSpec(0, 10)).M
        eig = qc.sigma_shift(m)
        sdp = qc.sdp_shift(m)
        assert sdp.lam.sum() <= m.shape[0] * eig.sigma + 1e-6
        assert np.all(sdp.lam >= 0.0)
        scale = max(1.0, np.abs(m).sum(axis=1).max())
        for sh in (eig, sdp):
            assert sh.psd_tol <= 1e-8 * scale
            s = np.diag(sh.lam) - m
            assert float(np.linalg.eigvalsh(s)[0]) >= -1.1e-8 * scale


def test_affine_underestimate_box():
    n = 5
    fs = qc.FeasibleSet(np.zeros(n), np.ones(n), 0.0, float(n))
    slope, offset = qc.affine_underestimate(np.ones(n), fs)
    assert np.array_equal(slope, -np.ones(n)) and offset == 0.0

    # the worst-case gap of the underestimate equals radius^2 = n/4 at the center
    center = np.full(n, 0.5)
    gap = -(center @ center) - (slope @ center + offset)
    assert gap == pytest.approx(n / 4.0)

    zero, off0 = qc.affine_underestimate(np.zeros(n), fs)
    assert np.array_equal(zero, np.zeros(n)) and off0 == 0.0


def test_affine_underestimate_sampled_validity():
    lam = np.array([2.0, 3.0, 2.0])
    fs = qc.FeasibleSet(np.zeros(3), np.ones(3), 0.0, 3.0)
    slope, offset = qc.affine_underestimate(lam, fs)
    assert np.array_equal(slope, -lam)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = rng.random(3)
        assert slope @ x + offset <= -(x @ (lam * x)) + 1e-12


def test_root_relaxation_is_convex_in_branching_order():
    # the root subproblem lists its coordinates in branching order, so the
    # shift must be permuted the same way before it certifies the relaxation
    g = qc.gen_toroidal(4, 5, seed=1)
    qp = qc.make_qp(g, qc.PartitionSpec(10, 10))
    red = qc.reduce(qp, (), qc.order_vertices(g))
    assert not np.array_equal(red.free, np.arange(g.n))
    rel = qc.build_relaxation(red, qc.sdp_shift(qp.M))
    scale = max(1.0, np.abs(qp.M).sum(axis=1).max())
    assert float(np.linalg.eigvalsh(np.diag(rel.lam) - red.quad)[0]) >= -1e-8 * scale


def test_build_relaxation_underestimates_and_is_convex():
    rng = np.random.default_rng(2)
    for seed in range(4):
        g = random_graph(8, 0.6, seed)
        qp = qc.make_qp(g, qc.PartitionSpec(2, 6))
        for kind in ("eig", "sdp"):
            shift = qc.sigma_shift(qp.M) if kind == "eig" else qc.sdp_shift(qp.M)
            for label in ((), (1,), (0, 1)):
                red = qc.reduce(qp, label)
                rel = qc.build_relaxation(red, shift)
                for _ in range(200):
                    x = rng.random(red.n)
                    assert rel.value(x) <= red.value(x) + 1e-8
                    d = rng.standard_normal(red.n)
                    assert rel.curvature(d) >= -1e-7 * max(1.0, d @ d)
                y = (rng.random(red.n) < 0.5).astype(float)
                assert rel.value(y) == pytest.approx(red.value(y), abs=1e-9)


def test_underestimate_validity_dense_sampling():
    for kind in ("eig", "sdp"):
        g = random_graph(9, 0.7, 11)
        qp = qc.make_qp(g, qc.PartitionSpec(3, 6))
        shift = qc.sigma_shift(qp.M) if kind == "eig" else qc.sdp_shift(qp.M)
        red = qc.reduce(qp, ())
        rel = qc.build_relaxation(red, shift)
        rng = np.random.default_rng(12)
        x = rng.random((10000, 9))
        lam = rel.lam
        # f_L - f = x^T Lam x - lam . x, vectorized over all samples
        diff = (x * x) @ lam - x @ lam
        assert diff.max() <= 1e-8


def test_root_bound_closed_form_at_the_center():
    # when the budget window contains n/2 the center is the unconstrained
    # minimizer of the relaxation, so the root bound has a closed form
    g = qc.gen_toroidal(3, 4, seed=5)
    spec = qc.PartitionSpec(6, 6)
    qp = qc.make_qp(g, spec)
    shift = qc.sdp_shift(qp.M)
    rel = qc.build_relaxation(qc.reduce(qp, ()), shift)
    report, bound = qc.solve_convex(rel)
    assert report.iterations == 0
    closed_form = 0.25 * float(qp.M.sum()) - 0.25 * float(shift.lam.sum())
    assert bound == pytest.approx(closed_form, abs=1e-9)


def test_scalar_relaxation_formula():
    qp = p3_qp(1, 2)
    shift = qc.sigma_shift(qp.M)
    red = qc.reduce(qp, ())
    rel = qc.build_relaxation(red, shift)
    rng = np.random.default_rng(3)
    s = shift.sigma
    for _ in range(50):
        x = rng.random(3)
        want = qc.objective(qp, x) + s * (x @ x) - s * x.sum()
        assert rel.value(x) == pytest.approx(want, abs=1e-10)


def test_greedy_linear_min_examples():
    y = qc.greedy_linear_min(np.array([-3.0, -1.0, 2.0]), 0, 1)
    assert np.array_equal(y, [1.0, 0.0, 0.0])
    assert np.array_equal(qc.greedy_linear_min(np.array([1.0, 2.0]), 0, 2), [0.0, 0.0])
    assert np.array_equal(qc.greedy_linear_min(np.array([-1.0, -1.0]), 2, 2), [1.0, 1.0])
    with pytest.raises(ValueError):
        qc.greedy_linear_min(np.array([1.0]), 2, 3)


def test_greedy_linear_min_matches_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        c = rng.standard_normal(n) * rng.integers(1, 5)
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, n + 1))
        best = min(
            c @ np.array(bits)
            for bits in itertools.product((0.0, 1.0), repeat=n)
            if lo <= sum(bits) <= hi
        )
        y = qc.greedy_linear_min(c, lo, hi)
        assert lo <= y.sum() <= hi
        assert c @ y == pytest.approx(best, abs=1e-12)


def test_certified_lower_bound_soundness_small():
    rng = np.random.default_rng(5)
    for seed in range(6):
        n = int(rng.integers(5, 13))
        g = random_graph(n, 0.7, seed)
        spec = qc.PartitionSpec(n // 3, (2 * n) // 3)
        qp = qc.make_qp(g, spec)
        opt, _ = qc.brute_force(g, spec)
        red = qc.reduce(qp, ())
        for kind in ("eig", "sdp"):
            shift = qc.sigma_shift(qp.M) if kind == "eig" else qc.sdp_shift(qp.M)
            rel = qc.build_relaxation(red, shift)
            for iters in (1, 5, 10000):
                report, bound = qc.solve_convex(rel, max_iter=iters)
                assert bound <= opt + 1e-6 * (1.0 + abs(opt))
                assert bound <= report.value + 1e-9

        # random feasible reference points are also sound
        shift = qc.sdp_shift(qp.M)
        rel = qc.build_relaxation(red, shift)
        for _ in range(20):
            x = qc.project(rng.random(n), feasible_set(red))
            assert qc.certified_lower_bound(rel, x) <= opt + 1e-6 * (1.0 + abs(opt))


def test_certified_lower_bound_rejects_infeasible():
    qp = p3_qp(1, 1)
    rel = qc.build_relaxation(qc.reduce(qp, ()), qc.sdp_shift(qp.M))
    with pytest.raises(ValueError):
        qc.certified_lower_bound(rel, np.ones(3))


def test_bound_tight_at_exact_minimizer():
    # with the budget window containing n/2 the center is the exact relaxation
    # minimizer, so the certified bound equals the relaxation value there
    qp = p3_qp(1, 2)
    rel = qc.build_relaxation(qc.reduce(qp, ()), qc.sdp_shift(qp.M))
    x = np.full(3, 0.5)
    assert np.allclose(rel.grad(x), 0.0, atol=1e-12)
    assert qc.certified_lower_bound(rel, x) == pytest.approx(rel.value(x), abs=1e-12)
