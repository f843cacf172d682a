import itertools

import numpy as np
import pytest

import qpcut as qc
from qpcut import bounds
from qpcut.qp import InfeasibleSubproblemError
from helpers import path_graph, random_graph


def p3_qp(l=1, u=1):
    return qc.make_qp(path_graph(3), qc.PartitionSpec(l, u))


def test_sigma_shift_examples():
    sh = qc.sigma_shift(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(sh.lam, 2.0, atol=1e-4)  # a constant shift
    assert np.all(qc.sigma_shift(-np.eye(3)).lam == 0.0)
    assert np.allclose(qc.sigma_shift(p3_qp().M).lam, 1.0 + np.sqrt(2.0), atol=1e-4)


def test_sigma_shift_stays_near_lambda_max_on_a_large_grid():
    # the tail's lift is lambda_max plus 1e-12 * scale, and Cholesky passes it
    g = qc.gen_toroidal(8, 8, seed=3)
    m = qc.make_qp(g, qc.PartitionSpec(32, 32)).M
    lam_max = float(np.linalg.eigvalsh(m)[-1])
    lam = qc.sigma_shift(m).lam
    assert np.all(lam_max <= lam) and np.all(lam <= lam_max * (1.0 + 1e-5))


def test_sigma_shift_is_certified_upper_bound():
    for seed in range(6):
        g = random_graph(9, 0.7, seed)
        m = qc.make_qp(g, qc.PartitionSpec(0, 9)).M
        sh = qc.sigma_shift(m)
        lam_max = float(np.linalg.eigvalsh(m)[-1])
        assert np.all(sh.lam >= max(0.0, lam_max) - 1e-9)
        assert sh.psd_tol <= 1e-8 * max(1.0, np.abs(m).sum(axis=1).max())


def test_sdp_shift_examples():
    sh = qc.sdp_shift(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(sh.lam, [2.0, 2.0], atol=1e-3)
    assert sh.lam.sum() == pytest.approx(4.0, abs=1e-4)

    sh3 = qc.sdp_shift(p3_qp().M)
    assert np.allclose(sh3.lam, [2.0, 3.0, 2.0], atol=1e-3)
    assert sh3.lam.sum() == pytest.approx(7.0, abs=1e-4)
    assert sh3.lam.sum() <= qc.sigma_shift(p3_qp().M).lam.sum() + 1e-6

    diag = np.diag([3.0, 0.5, 2.0])
    assert np.allclose(qc.sdp_shift(diag).lam, [3.0, 0.5, 2.0], atol=1e-4)


def test_sdp_shift_handles_negative_diagonal():
    sh = qc.sdp_shift(-np.eye(3))
    assert np.all(sh.lam >= 0.0)
    assert sh.lam.sum() <= 1e-4


@pytest.mark.parametrize("w12", [1e200, 1e150, 3e15])
def test_sdp_shift_near_the_float_range_repairs_with_warning(w12):
    # path 1-2-3 with a huge first edge, beyond make_qp's 2**53 limit: the
    # barrier's Cholesky fails at the Newton iterate, and the shift must come
    # from the repair step, flagged and still certified
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w12
    w[1, 2] = w[2, 1] = 1.0
    g = qc.WeightedGraph(w)
    m = g.weights + np.diag(qc.build_diagonal_shift(g))
    with np.errstate(over="ignore"):
        sh = qc.sdp_shift(m)
    assert isinstance(sh, qc.DcShift) and sh.warning
    scale = max(1.0, float(np.abs(m).sum(axis=1).max()))
    assert bounds._psd_certificate(np.diag(sh.lam) - m, scale) is not None


_NON_FINITE = {
    "inf-diagonal": [[np.inf, 0.0], [0.0, 1.0]],
    "row-sum-overflow": [[1e308, 1e308], [1e308, 1e308]],
    "nan-entry": [[np.nan, 0.0], [0.0, 1.0]],
    "neg-inf-offdiagonal": [[1.0, -np.inf], [-np.inf, 1.0]],
}


@pytest.mark.parametrize("shift", [qc.sigma_shift, qc.sdp_shift], ids=["sigma", "sdp"])
@pytest.mark.parametrize("m", list(_NON_FINITE.values()), ids=list(_NON_FINITE))
def test_shifts_reject_non_finite_matrices(shift, m):
    # Cholesky does not raise on inf or nan, so such a matrix would pass
    # the certificate with a meaningless shift
    with pytest.raises(ValueError, match="finite"):
        shift(np.array(m))


def test_sigma_shift_rejects_an_overflowing_shift():
    # finite entries and row sums, but the 1e-12 * scale lift overflows sigma
    m = np.diag([np.finfo(float).max, 0.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        qc.sigma_shift(m)


def _dual_gap_cases():
    for n in (50, 100, 200):
        yield pytest.param(qc.gen_random(n, 6.0 / n, seed=1), id=f"random-{n}")
    yield pytest.param(qc.gen_toroidal(4, 5, 1), id="toroidal-4x5")
    yield pytest.param(qc.gen_mixed(3, 4, 3), id="mixed-3x4")
    yield pytest.param(qc.gen_random(16, 1.0, 1), id="random-16-1.0")
    yield pytest.param(qc.gen_debruijn(4), id="debruijn-4")


@pytest.mark.parametrize("graph", _dual_gap_cases())
def test_sdp_shift_is_trace_minimal_to_the_dual_gap(graph):
    # Weak duality: for S = Diag(lam) - M PSD and any PSD X with unit
    # diagonal, sum(lam) - <M, X> = <S, X> >= 0, and <M, X> is at most the
    # optimal trace, so the gap bounds how far sum(lam) is above the optimum.
    # X = D^(-1/2) S^-1 D^(-1/2) with D = diag(S^-1) is such an X.  On the
    # central path diag(S^-1) = t, so X = S^-1 / t and the gap is n / t,
    # which the method drives below gap_tol; 2 * gap_tol leaves room for the
    # centering tolerance and the certification lift.  A shift stopped
    # early, or certified by a larger lift, fails this.  On random-100 the
    # last pass ends at the rounding floor of lam (the one-ulp stop), which
    # is not a stall.
    m = qc.make_qp(graph, qc.PartitionSpec(0, graph.n)).M
    sh = qc.sdp_shift(m)
    assert sh.warning is False
    sinv = np.linalg.inv(np.diag(sh.lam) - m)
    r = 1.0 / np.sqrt(np.diag(sinv))
    x = sinv * np.outer(r, r)
    scale = max(1.0, float(np.abs(m).sum(axis=1).max()))
    gap_tol = min(1e-7 * scale, 5e-7)
    assert 0.0 <= sh.lam.sum() - float((m * x).sum()) <= 2.0 * gap_tol


def test_sdp_dominance_and_certificates():
    for seed in range(8):
        g = random_graph(10, 0.6, seed)
        m = qc.make_qp(g, qc.PartitionSpec(0, 10)).M
        eig = qc.sigma_shift(m)
        sdp = qc.sdp_shift(m)
        assert sdp.lam.sum() <= eig.lam.sum() + 1e-6
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
    assert float(np.linalg.eigvalsh(np.diag(rel.lam) - rel.M)[0]) >= -1e-8 * scale


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
                    assert -2.0 * (d @ rel.matvec(d)) >= -1e-7 * max(1.0, d @ d)
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
        lam = shift.lam[red.free]
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
    red = qc.reduce(qp, ())
    rng = np.random.default_rng(3)
    for shift in (qc.sigma_shift(qp.M), qc.sdp_shift(qp.M)):
        rel = qc.build_relaxation(red, shift)
        assert rel.fset is red.fset
        lam = shift.lam
        for _ in range(50):
            x = rng.random(3)
            want = qp.value(x) + x @ (lam * x) - lam @ x
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
                assert bound <= rel.value(report.x) + 1e-9

        # random feasible reference points are also sound
        shift = qc.sdp_shift(qp.M)
        rel = qc.build_relaxation(red, shift)
        for _ in range(20):
            x = qc.project(rng.random(n), red.fset)
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
