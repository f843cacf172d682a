import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpcut as qc
from qpcut import projgrad
from qpcut.qp import FeasibleSet
from helpers import (
    cut_instances, path_graph, projection_oracle, random_graph, reference_gp_loop,
)


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


def seeded_qp(seed):
    """A random_graph with n = 6..13 and a random window, drawn from seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 14))
    g = random_graph(n, float(rng.uniform(0.3, 1.0)), seed)
    lo = int(rng.integers(0, n // 2 + 1))
    return qc.make_qp(g, qc.PartitionSpec(lo, int(rng.integers(lo, n + 1))))


def _carried_gradient_cases():
    for seed in range(8):
        yield pytest.param(seed, None, id=str(seed))
    # the carried residual passed 1e-12 at 9.79e-13 while the exact one was
    # 1.016e-12: sigma_shift, label (1,) in branching order, window [4, 13]
    yield pytest.param(7, (13, 0.7, 4, 13), id="n13-window-4-13-ordered")


def carried_gradient_qp(seed, case):
    """The root problem of a _carried_gradient_cases entry, and its order."""
    if case is None:
        return seeded_qp(seed), None
    n, density, lo, hi = case
    g = random_graph(n, density, seed)
    return qc.make_qp(g, qc.PartitionSpec(lo, hi)), qc.order_vertices(g)


@pytest.mark.parametrize("seed, case", _carried_gradient_cases())
def test_carried_gradient_cannot_fake_convergence(seed, case):
    # the loop updates g <- g + t Hd instead of re-evaluating the gradient; a
    # converged report must still be stationary to tol at the exact gradient
    qp, order = carried_gradient_qp(seed, case)
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


@pytest.mark.parametrize("tol, max_capped", [(1e-4, 0), (1e-8, 1), (1e-12, 3)])
def test_relaxations_below_the_default_tol_stop_at_a_rounding_floor(tol, max_capped):
    # On the 48 relaxations of seeds 0-7 (both shifts, labels (), (1,), (0, 1))
    # every solve converges at the default tol.  Below it, an unconverged solve
    # almost never runs to the cap: at 1e-8, 23 of 24 stop after 12-280
    # iterations (at 1e-12, 29 of 32 after 12-581) because the projected step
    # is no longer a descent direction in floating point (g.d >= 0, so the
    # exact segment search returns t = 0).  Their exact residuals are at most
    # 6.5e-7, and a fresh start from the stop point lowers f by at most 5.4e-15
    # relative: a rounding floor, not cycling or slow convergence.
    capped = 0
    for seed in range(8):
        qp = seeded_qp(seed)
        for shift in (qc.sdp_shift(qp.M), qc.sigma_shift(qp.M)):
            for label in ((), (1,), (0, 1)):
                rel = qc.build_relaxation(qc.reduce(qp, label), shift)
                report, _ = qc.solve_convex(rel, tol=tol, max_iter=10**4)
                if report.converged:
                    continue
                assert tol < 1e-4, (seed, label)
                if report.iterations == 10**4:
                    capped += 1
                    continue
                assert report.iterations <= 600
                assert exact_residual(rel.grad, report.x, rel.fset) < 1e-6
                again, _ = qc.solve_convex(rel, x0=report.x, tol=tol, max_iter=10**4)
                assert report.value - again.value <= 1e-14 * max(1.0, abs(report.value))
    assert capped <= max_capped


@st.composite
def node_problems(draw, kind):
    """(red, rel, x0, tol): a feasible node of a random instance in branching
    order, its relaxation under the given shift kind, and a feasible start."""
    g, spec = draw(cut_instances())
    qp = qc.make_qp(g, spec)
    order = qc.order_vertices(g)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.zeros(g.n)  # a feasible point, whose prefix labels a feasible node
    y[rng.permutation(g.n)[: draw(st.integers(spec.l, spec.u))]] = 1.0
    label = tuple(y[order][: draw(st.integers(0, g.n - 1))])
    red = qc.reduce(qp, label, order)
    shift = qc.sdp_shift(qp.M) if kind == "sdp" else qc.sigma_shift(qp.M)
    rel = qc.build_relaxation(red, shift)
    x0 = qc.project(rng.random(red.n) * 1.5 - 0.25, rel.fset)
    return red, rel, x0, draw(st.sampled_from([1e-4, 1e-7]))


def node_relaxations(kind):
    """(rel, x0, tol) of node_problems."""
    return node_problems(kind).map(lambda case: case[1:])


CUT_MAX_ITER = 300


def assert_same_report(report, ref):
    for f in dataclasses.fields(qc.SolveReport):
        a, b = getattr(report, f.name), getattr(ref, f.name)
        assert np.array_equal(a, b), (f.name, a, b)


def checkpoint_bounds(rel, x0, tol):
    """The uncut solve, and (iteration, certified bound, iterate) at every
    iteration 0, 1, 2, 4, ... that a cutoff solve would check."""
    full, _ = qc.solve_convex(rel, x0, tol=tol, max_iter=CUT_MAX_ITER)
    checks = []
    j = 0
    while j < full.iterations or (j == full.iterations and not full.converged):
        x = qc.solve_convex(rel, x0, tol=tol, max_iter=j)[0].x  # the j-th iterate
        checks.append((j, qc.certified_lower_bound(rel, x), x))
        j = 2 * j or 1
    return full, checks


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@settings(max_examples=100)
@given(data=st.data())
def test_cutoff_stop_returns_a_certificate_above_the_cutoff(kind, data):
    rel, x0, tol = data.draw(node_relaxations(kind))
    full, checks = checkpoint_bounds(rel, x0, tol)
    if not checks:
        return  # converged at the start point: nothing is checked
    _, target, _ = data.draw(st.sampled_from(checks))
    cutoff = target - data.draw(st.sampled_from([1e-9, 0.5, 5.0])) * (1.0 + abs(target))
    # the first checked iterate whose bound passes the cutoff ends the solve
    first, bound_there, x_there = next(c for c in checks if c[1] > cutoff)
    report, bound = qc.solve_convex(rel, x0, tol=tol, max_iter=CUT_MAX_ITER, cutoff=cutoff)
    assert report.cutoff_stop and not report.converged
    assert bound > cutoff
    assert bound == qc.certified_lower_bound(rel, report.x) == bound_there
    assert report.iterations == first <= full.iterations
    assert np.array_equal(report.x, x_there)


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@settings(max_examples=100)
@given(data=st.data())
def test_cutoff_that_never_passes_leaves_the_solve_unchanged(kind, data):
    # cutoff=None is the plain solve; a cutoff no checked bound passes must
    # not alter a single iterate or any field of the report
    rel, x0, tol = data.draw(node_relaxations(kind))
    full, checks = checkpoint_bounds(rel, x0, tol)
    plain, plain_bound = qc.solve_convex(rel, x0, tol=tol, max_iter=CUT_MAX_ITER)
    assert plain_bound == qc.certified_lower_bound(rel, plain.x)
    assert not plain.cutoff_stop
    cutoffs = [None, np.inf] + ([max(c[1] for c in checks)] if checks else [])
    for cutoff in cutoffs:
        report, bound = qc.solve_convex(rel, x0, tol=tol, max_iter=CUT_MAX_ITER, cutoff=cutoff)
        assert_same_report(report, plain)
        assert bound == plain_bound


@contextlib.contextmanager
def counted_projections():
    """Count the calls to projgrad.project inside the block (the reference
    loop counts when it is given projgrad.project there)."""
    calls = [0]

    def counting(x, fset):
        calls[0] += 1
        return qc.project(x, fset)

    projgrad.project = counting
    try:
        yield calls
    finally:
        projgrad.project = qc.project


def assert_matches_reference(red, rel, x0, tol, max_iter):
    """solve_convex (with and without cutoffs) and descend_nonconvex against
    reference_gp_loop: the same reports and bounds, bit for bit, at the cost
    of at most one extra projection (the step of the pass that stops)."""
    plain, _ = reference_gp_loop(rel, x0, tol, max_iter)
    start = qc.certified_lower_bound(rel, x0)
    end = qc.certified_lower_bound(rel, plain.x)
    # no cutoff, and cutoffs just below the start's and the plain end's bounds
    for cutoff in (None, start - 1e-9 * (1.0 + abs(start)), end - 1e-9 * (1.0 + abs(end))):
        with counted_projections() as ref_calls:
            ref, ref_bound = reference_gp_loop(
                rel, x0, tol, max_iter, cutoff, project=projgrad.project
            )
        if ref_bound is None:
            ref_bound = qc.certified_lower_bound(rel, ref.x)
        with counted_projections() as calls:
            report, bound = qc.solve_convex(rel, x0, tol=tol, max_iter=max_iter, cutoff=cutoff)
        assert_same_report(report, ref)
        assert bound == ref_bound
        assert calls[0] <= ref_calls[0] + 1

    with counted_projections() as ref_calls:
        ref, _ = reference_gp_loop(red, plain.x, tol, max_iter, project=projgrad.project)
    with counted_projections() as calls:
        out = qc.descend_nonconvex(red, plain.x, tol=tol, max_iter=max_iter)
    assert_same_report(out, ref)
    assert calls[0] <= ref_calls[0] + 1


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@settings(max_examples=60)
@given(data=st.data())
def test_residual_skip_is_bit_identical_to_the_two_projection_loop(kind, data):
    # The loop leaves out P(x - g) when the step's projection proves the
    # residual above tol; it must not change what the loop returns.
    red, rel, x0, tol = data.draw(node_problems(kind))
    max_iter = data.draw(st.sampled_from([0, 1, 5, projgrad.SOLVE_MAX_ITER]))
    assert_matches_reference(red, rel, x0, tol, max_iter)


@pytest.mark.parametrize("seed, case", _carried_gradient_cases())
def test_residual_skip_matches_the_reference_where_the_confirm_fails(seed, case):
    # at tol 1e-12 the carried residual can pass while the exact one does
    # not; the pass then steps from the exact gradient
    qp, order = carried_gradient_qp(seed, case)
    for shift in (qc.sdp_shift(qp.M), qc.sigma_shift(qp.M)):
        for label in ((), (1,), (0, 1)):
            red = qc.reduce(qp, label, order)
            rel = qc.build_relaxation(red, shift)
            x0 = qc.project(np.full(rel.n, 0.5), rel.fset)
            for tol in (1e-4, 1e-8, 1e-12):
                assert_matches_reference(red, rel, x0, tol, projgrad.SOLVE_MAX_ITER)
