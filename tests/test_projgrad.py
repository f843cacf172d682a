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
    assert bound <= rel.value(report.x) + 1e-12


def test_solve_convex_reaches_known_budget_face_minimizer():
    # complete 2-graph, budget fixed at 1: relaxed objective 2(x1^2+x2^2) - 1
    # on the face x1 + x2 = 1, minimized at (1/2, 1/2) with value 0
    g = qc.WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    qp = qc.make_qp(g, qc.PartitionSpec(1, 1))
    rel = relaxation(qp)
    report, bound = qc.solve_convex(rel, x0=np.array([1.0, 0.0]), tol=1e-6)
    assert report.converged
    assert np.allclose(report.x, [0.5, 0.5], atol=1e-4)
    assert rel.value(report.x) == pytest.approx(0.0, abs=1e-6)
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
            values.append(rel.value(report.x))
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

        report, bound = qc.solve_convex(rel, x0=x, tol=1e-4, max_iter=10000)
        assert report.converged and exact_residual(rel.grad, report.x, fs) <= 1e-4
        assert bound <= rel.value(report.x) + 1e-9


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
        assert red.value(out.x) <= start_val + 1e-9


def test_descend_nonconvex_stationary_binary_start():
    # a binary local minimizer must not move
    g = path_graph(3)
    qp = qc.make_qp(g, qc.PartitionSpec(1, 1))
    red = qc.reduce(qp, ())
    out = qc.descend_nonconvex(red, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(out.x, [1.0, 0.0, 0.0])
    assert red.value(out.x) == 1.0


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


def _stationarity_cases():
    for seed in range(8):
        yield pytest.param(seed, None, id=str(seed))
    # converges at tol 1e-12 with an exact residual of 9.8e-13, within 2% of
    # tol: sigma_shift, label (1,) in branching order, window [4, 13]
    yield pytest.param(7, (13, 0.7, 4, 13), id="n13-window-4-13-ordered")


def stationarity_case_qp(seed, case):
    """The root problem of a _stationarity_cases entry, and its order."""
    if case is None:
        return seeded_qp(seed), None
    n, density, lo, hi = case
    g = random_graph(n, density, seed)
    return qc.make_qp(g, qc.PartitionSpec(lo, hi)), qc.order_vertices(g)


@pytest.mark.parametrize("seed, case", _stationarity_cases())
def test_carried_gradient_cannot_fake_convergence(seed, case):
    # a converged report is stationary to tol at the exact gradient, for
    # relaxations and descents, down to tol 1e-12
    qp, order = stationarity_case_qp(seed, case)
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
    # almost never runs to the cap: at 1e-8, 20 of 21 stop after 11-276
    # iterations (at 1e-12, 27 of 30 after 11-589) because the projected step
    # is no longer a descent direction in floating point (g.d >= 0, so the
    # exact segment search returns t = 0), and report stop == "floor".  Their
    # exact residuals are at most 6.7e-7, and a fresh start from the stop point
    # lowers f by at most 1.3e-15 relative: a rounding floor, not cycling or
    # slow convergence.
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
                if report.stop == "cap":
                    capped += 1
                    continue
                assert report.stop == "floor" and report.iterations <= 600
                assert exact_residual(rel.grad, report.x, rel.fset) < 1e-6
                again, _ = qc.solve_convex(rel, x0=report.x, tol=tol, max_iter=10**4)
                value = rel.value(report.x)
                assert value - rel.value(again.x) <= 1e-14 * max(1.0, abs(value))
    assert capped <= max_capped


def test_each_stop_reason_is_reached_and_reported():
    # seed 1's root relaxation, from a start that is far from stationary
    qp = seeded_qp(1)
    rel = qc.build_relaxation(qc.reduce(qp, ()), qc.sdp_shift(qp.M))
    x0 = qc.project(np.linspace(0.0, 1.0, rel.n), rel.fset)
    assert exact_residual(rel.grad, x0, rel.fset) > 1.0

    report, _ = qc.solve_convex(rel, x0)
    assert report.stop == "converged" and report.converged and report.iterations > 0
    assert exact_residual(rel.grad, report.x, rel.fset) <= projgrad.RESIDUAL_TOL

    start = qc.certified_lower_bound(rel, x0)
    report, bound = qc.solve_convex(rel, x0, cutoff=start - 1.0)
    assert (report.stop, report.iterations, bound) == ("cutoff", 0, start)
    assert not report.converged

    report, _ = qc.solve_convex(rel, x0, max_iter=0)
    assert (report.stop, report.iterations) == ("cap", 0)
    assert np.array_equal(report.x, x0) and not report.converged

    # below the default tol the solve ends at the rounding floor, long before the cap
    report, _ = qc.solve_convex(rel, x0, tol=1e-12)
    assert report.stop == "floor" and not report.converged
    assert report.iterations < projgrad.SOLVE_MAX_ITER
    assert 1e-12 < exact_residual(rel.grad, report.x, rel.fset) < 1e-6


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
    while j <= full.iterations:  # the stop iterate too: the cutoff test comes first
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
    _, target, _ = data.draw(st.sampled_from(checks))
    cutoff = target - data.draw(st.sampled_from([1e-9, 0.5, 5.0])) * (1.0 + abs(target))
    # the first checked iterate whose bound passes the cutoff ends the solve
    first, bound_there, x_there = next(c for c in checks if c[1] > cutoff)
    report, bound = qc.solve_convex(rel, x0, tol=tol, max_iter=CUT_MAX_ITER, cutoff=cutoff)
    assert report.stop == "cutoff"
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
    assert plain.stop != "cutoff"
    cutoffs = [None, np.inf, max(c[1] for c in checks)]
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
    of at most one projection more (the step of the pass that stops)."""
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


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@settings(max_examples=60)
@given(data=st.data())
def test_step_bounds_the_residual_and_every_converged_stop_is_within_tol(kind, data):
    # A pass stops 'converged' without forming P(x - g) when
    # max(1, 1/alpha) ||P(x - alpha g) - x|| <= tol / 2 (Calamai & More 1987,
    # Lemma 2.2) and the rounding that factor scales is far below tol (the
    # next test).  At every pass of the loop that bound is at least the exact
    # residual, up to rounding (1.4e-14 at most over 254,818 passes measured),
    # and every converged stop, by either test, is stationary to tol.  The
    # passes are the reference loop's, which the tests above hold bit for bit
    # to the solver's.
    red, rel, x0, tol = data.draw(node_problems(kind))
    report, _ = qc.solve_convex(rel, x0, tol=tol)
    out = qc.descend_nonconvex(red, report.x, tol=tol)
    for problem, start, stopped in ((rel, x0, report), (red, report.x, out)):
        if stopped.converged:
            assert exact_residual(problem.grad, stopped.x, problem.fset) <= tol
        passes = []
        reference_gp_loop(problem, start, tol, stopped.iterations, passes=passes)
        for x, g, alpha in passes:
            step = np.linalg.norm(qc.project(x - alpha * g, problem.fset) - x)
            assert exact_residual(problem.grad, x, problem.fset) <= (
                max(1.0, 1.0 / alpha) * step + 1e-13
            )


def test_a_step_that_rounds_to_zero_proves_convergence_only_above_its_rounding():
    # alpha = ALPHA_MIN (1 / ||g||_inf is 1e-9) and x - alpha g rounds back to
    # x, so the step is zero while the unit-step residual is 1e-9.  At tol
    # 1e-12 the step bound, which scales rounding by 1 / alpha = 1e8, proves
    # nothing: the pass computes the residual and stops 'floor', as the
    # reference does.  At tol 1e-4 that rounding is far below tol.
    red = qc.ReducedQp(free=np.arange(2), M=np.zeros((2, 2)), lin=np.array([-1e9, 1e-9]),
                       const=0.0, lo=0, hi=2)
    x0 = np.array([1.0, 0.5])
    assert exact_residual(red.grad, x0, red.fset) == pytest.approx(1e-9)
    for tol, stop in ((1e-12, "floor"), (1e-4, "converged")):
        out = qc.descend_nonconvex(red, x0, tol=tol)
        ref, _ = reference_gp_loop(red, x0, tol, projgrad.DESCENT_MAX_ITER)
        assert_same_report(out, ref)
        assert (out.stop, out.iterations) == (stop, 0)


@pytest.mark.parametrize("seed, case", _stationarity_cases())
def test_residual_skip_matches_the_reference_where_the_confirm_fails(seed, case):
    # the residual skip leaves every solve unchanged down to tol 1e-12, where
    # residuals end close to tol and the skip's margin is narrowest
    qp, order = stationarity_case_qp(seed, case)
    for shift in (qc.sdp_shift(qp.M), qc.sigma_shift(qp.M)):
        for label in ((), (1,), (0, 1)):
            red = qc.reduce(qp, label, order)
            rel = qc.build_relaxation(red, shift)
            x0 = qc.project(np.full(rel.n, 0.5), rel.fset)
            for tol in (1e-4, 1e-8, 1e-12):
                assert_matches_reference(red, rel, x0, tol, projgrad.SOLVE_MAX_ITER)
