import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpcut as qc
from qpcut import projgrad
from qpcut.qp import FeasibleSet
from helpers import (
    counted_projections, node_problems, path_graph, projection_oracle, random_graph,
    reference_gp_loop, reference_solve_convex,
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


@pytest.mark.parametrize("x, lo, hi", [
    (0.3, 0, 2),  # a scalar the box clip alone would broadcast to [0.3, 0.3]
    (3.0, 0, 1),  # a scalar past the window, which takes the budget shift
    (np.full((2, 2), 0.3), 0, 2),
    (np.zeros(3), 0, 2),
])
def test_project_rejects_a_point_of_the_wrong_shape(x, lo, hi):
    with pytest.raises(ValueError, match="expected a vector of length 2"):
        qc.project(x, unit_set(2, lo, hi))


@pytest.mark.parametrize("x, lo, hi, match", [
    ((np.nan, 0.2, 0.3), 1, 1, "NaN"),  # a NaN clip sum, in no window
    ((np.nan, 0.2, 0.3), 0, 3, "NaN"),
    ((np.inf, 0.2, 0.3), 1, 1, "infinite"),  # the clip sum 1.5 takes the budget shift
    ((0.2, -np.inf, 0.3), 1, 1, "infinite"),  # and so does 0.5
])
def test_project_rejects_a_point_with_no_nearest_point_in_the_set(x, lo, hi, match):
    with pytest.raises(ValueError, match=match):
        qc.project(np.array(x), unit_set(3, lo, hi))


def test_project_rejects_opposite_infinities_that_take_the_budget_shift():
    # inf - inf in the shift's sum of x: numpy warns of it, then project raises
    x = np.array([np.inf, -np.inf, 0.3])
    with pytest.raises(ValueError, match="infinite"), pytest.warns(RuntimeWarning):
        qc.project(x, unit_set(3, 1, 1))
    # where the box clip alone lands in the window, it is the projection
    assert np.array_equal(qc.project(x, unit_set(3, 0, 3)), [1.0, 0.0, 0.3])


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


def test_solve_convex_projects_an_infeasible_hint(monkeypatch):
    # x0 is a hint: where the face minimiser declines (here a window lo < hi)
    # the loop starts at its projection.  A hint of the wrong shape or with a
    # non-finite entry raises, also on an equality window whose face
    # minimiser is taken (that of
    # test_a_face_minimiser_on_the_box_boundary_is_declined).
    window = relaxation(qc.make_qp(path_graph(3), qc.PartitionSpec(1, 2)))
    z = np.array([0.2, 0.4, 0.4])
    equality = qc.ReducedQp(free=np.arange(3), M=np.zeros((3, 3)), lin=-2.0 * z, const=0.0,
                            lo=1, hi=1, lam=np.ones(3))
    assert projgrad._face_minimiser(window, window.fset, {}) is None
    assert projgrad._face_minimiser(equality, equality.fset, {}) is not None
    hint = np.ones(3)
    assert not window.fset.contains(hint)
    starts = []
    loop = projgrad._gp_loop

    def recording(rel, x, *args, **kwargs):
        starts.append(x)
        return loop(rel, x, *args, **kwargs)

    monkeypatch.setattr(projgrad, "_gp_loop", recording)
    report, _ = qc.solve_convex(window, hint)
    assert np.array_equal(starts, [qc.project(hint, window.fset)])
    assert report.converged
    for rel in (window, equality):
        for bad in (np.ones(2), np.array([np.nan, 0.5, 0.5]), np.array([np.inf, 0.0, 0.0])):
            with pytest.raises(ValueError):
                qc.solve_convex(rel, bad)


def test_descend_nonconvex_rejects_an_infeasible_start():
    red = qc.reduce(qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1)), ())
    for x0 in (np.ones(3), np.ones(2), np.array([np.nan, 1.0, 0.0])):
        with pytest.raises(ValueError, match="starting point is infeasible"):
            qc.descend_nonconvex(red, x0)


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
def test_converged_reports_are_stationary_at_the_exact_gradient(seed, case):
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
    # every solve converges at 1e-4, 1e-8 and 1e-12 alike, within 5 iterations
    # (27 at iteration 0): the face step lands on the face's minimiser.  An
    # unconverged solve below the default tol must stop at the cap (at most
    # max_capped of them) or at the rounding floor, where the projected step
    # is no longer a descent direction in floating point (g.d >= 0) or f is
    # not below the last stepped pass's value, with a small exact residual and
    # nothing left for a fresh start to gain.  Without the face step, 21
    # solves stopped there at 1e-8 (1 at the cap) and 27 at 1e-12 (3 at the
    # cap).
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


@pytest.mark.parametrize("tol", [1e-15, 0.0])
def test_relaxations_below_the_rounding_level_stop_within_a_few_iterations(tol):
    # Below about 1e-14 few points of these 48 relaxations have a residual
    # within tol, and the face step and the gradient step can trade moves of
    # about 5e-17 that shift f_L by +-6e-16.  A pass that has not lowered f_L
    # strictly below the last pass's value stops 'floor', long before the cap.
    for seed in range(8):
        qp = seeded_qp(seed)
        for shift in (qc.sdp_shift(qp.M), qc.sigma_shift(qp.M)):
            for label in ((), (1,), (0, 1)):
                rel = qc.build_relaxation(qc.reduce(qp, label), shift)
                report, _ = qc.solve_convex(rel, tol=tol, max_iter=10**4)
                assert report.stop in ("converged", "floor"), (seed, label)
                assert report.iterations <= 5, (seed, label)
                assert exact_residual(rel.grad, report.x, rel.fset) < 1e-12


def test_each_stop_reason_is_reached_and_reported():
    # seed 2's root relaxation, from a start that is far from stationary even
    # after iteration 0's face step, which that pass checks and certifies
    qp = seeded_qp(2)
    rel = qc.build_relaxation(qc.reduce(qp, ()), qc.sdp_shift(qp.M))
    x0 = qc.project(np.linspace(0.0, 1.0, rel.n), rel.fset)
    x1 = projgrad._face_step(rel, rel.fset, x0, rel.grad(x0), {})
    assert x1 is not None and exact_residual(rel.grad, x1, rel.fset) > 1.0

    report, _ = qc.solve_convex(rel, x0)
    assert report.stop == "converged" and report.converged and report.iterations > 0
    assert exact_residual(rel.grad, report.x, rel.fset) <= projgrad.RESIDUAL_TOL

    start = qc.certified_lower_bound(rel, x1)
    report, bound = qc.solve_convex(rel, x0, cutoff=start - 1.0)
    assert (report.stop, report.iterations, bound) == ("cutoff", 0, start)
    assert np.array_equal(report.x, x1) and not report.converged

    report, _ = qc.solve_convex(rel, x0, max_iter=0)
    assert (report.stop, report.iterations) == ("cap", 0)
    assert np.array_equal(report.x, x1) and not report.converged

    # far below the default tol the solve ends at the rounding floor, long
    # before the cap (at tol 1e-12 it converges)
    report, _ = qc.solve_convex(rel, x0, tol=1e-15)
    assert report.stop == "floor" and not report.converged
    assert report.iterations < projgrad.SOLVE_MAX_ITER
    assert 1e-15 < exact_residual(rel.grad, report.x, rel.fset) < 1e-6


def test_the_cutoff_is_checked_on_every_pass():
    # the certified bounds of this relaxation's iterates climb from -19.8 and
    # first pass -11 at iteration 3, which is not a power of two; a loop that
    # checked only iterations 0, 1, 2, 4, ... would stop at 4, bound -9.30
    qp = seeded_qp(2)
    rel = qc.build_relaxation(qc.reduce(qp, (1,)), qc.sdp_shift(qp.M))
    x0 = qc.project(np.linspace(0.0, 1.0, rel.n), rel.fset)
    report, bound = qc.solve_convex(rel, x0, cutoff=-11.0)
    assert (report.stop, report.iterations) == ("cutoff", 3)
    assert bound == pytest.approx(-10.2080, abs=1e-4)
    third = qc.solve_convex(rel, x0, max_iter=3)[0].x
    assert bound == qc.certified_lower_bound(rel, third)
    assert np.array_equal(report.x, third)


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
    iteration, each of which a cutoff solve checks."""
    full, _ = qc.solve_convex(rel, x0, tol=tol, max_iter=CUT_MAX_ITER)
    checks = []
    j = 0
    while j <= full.iterations:  # the stop iterate too: the cutoff test comes first
        x = qc.solve_convex(rel, x0, tol=tol, max_iter=j)[0].x  # the j-th iterate
        checks.append((j, qc.certified_lower_bound(rel, x), x))
        j += 1
    return full, checks


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@settings(max_examples=100)
@given(data=st.data())
def test_cutoff_stop_returns_a_certificate_above_the_cutoff(kind, data):
    rel, x0, tol = data.draw(node_relaxations(kind))
    full, checks = checkpoint_bounds(rel, x0, tol)
    _, target, _ = data.draw(st.sampled_from(checks))
    cutoff = target - data.draw(st.sampled_from([1e-9, 0.5, 5.0])) * (1.0 + abs(target))
    # the first iterate whose bound passes the cutoff ends the solve
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
    # cutoff=None is the plain solve; a cutoff no iterate's bound passes must
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


def assert_matches_reference(red, rel, x0, tol, max_iter):
    """solve_convex (with and without cutoffs) and descend_nonconvex against
    the reference solvers: the same reports and bounds, bit for bit, from the
    same number of projections, the start's included."""
    plain, _ = reference_solve_convex(rel, x0, tol, max_iter)
    start = qc.certified_lower_bound(rel, x0)
    end = qc.certified_lower_bound(rel, plain.x)
    # no cutoff, and cutoffs just below the hint's and the plain end's bounds
    for cutoff in (None, start - 1e-9 * (1.0 + abs(start)), end - 1e-9 * (1.0 + abs(end))):
        with counted_projections() as ref_calls:
            ref, ref_bound = reference_solve_convex(rel, x0, tol, max_iter, cutoff,
                                                    project=projgrad.project)
        with counted_projections() as calls:
            report, bound = qc.solve_convex(rel, x0, tol=tol, max_iter=max_iter, cutoff=cutoff)
        assert_same_report(report, ref)
        assert bound == ref_bound
        assert calls[0] == ref_calls[0]

    with counted_projections() as ref_calls:
        ref, _ = reference_gp_loop(red, plain.x, tol, max_iter, project=projgrad.project)
    with counted_projections() as calls:
        out = qc.descend_nonconvex(red, plain.x, tol=tol, max_iter=max_iter)
    assert_same_report(out, ref)
    assert calls[0] == ref_calls[0]


def test_a_face_stepped_start_that_has_converged_projects_once():
    # every pass tests the residual before its step projection, so a
    # relaxation whose face-stepped start has converged costs one projection
    # in the loop, after the one that forms its start from the hint x0 (none
    # when the start is the face minimiser)
    checked = 0
    for seed in range(3):
        qp = seeded_qp(seed)
        for shift in (qc.sdp_shift(qp.M), qc.sigma_shift(qp.M)):
            for label in ((), (1,), (0, 1)):
                rel = qc.build_relaxation(qc.reduce(qp, label), shift)
                x0 = qc.project(np.full(rel.n, 0.5), rel.fset)
                if projgrad._face_step(rel, rel.fset, x0, rel.grad(x0), {}) is None:
                    continue
                with counted_projections() as calls:
                    report, _ = qc.solve_convex(rel, x0)
                if (report.stop, report.iterations) == ("converged", 0):
                    declined = projgrad._face_minimiser(rel, rel.fset, {}) is None
                    assert calls[0] == 1 + declined
                    checked += 1
    assert checked >= 10


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@settings(max_examples=60)
@given(data=st.data())
def test_solver_is_the_reference_loop_bit_for_bit(kind, data):
    # the solver's loop, which carries one product M x per iterate, returns
    # what the reference loop's plain value and gradient calls do
    red, rel, x0, tol = data.draw(node_problems(kind))
    max_iter = data.draw(st.sampled_from([0, 1, 5, projgrad.SOLVE_MAX_ITER]))
    assert_matches_reference(red, rel, x0, tol, max_iter)


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@settings(max_examples=60)
@given(data=st.data())
def test_every_converged_stop_is_within_tol(kind, data):
    # a converged relaxation or descent is stationary to tol at the exact gradient
    red, rel, x0, tol = data.draw(node_problems(kind))
    report, _ = qc.solve_convex(rel, x0, tol=tol)
    out = qc.descend_nonconvex(red, report.x, tol=tol)
    for problem, stopped in ((rel, report), (red, out)):
        if stopped.converged:
            assert exact_residual(problem.grad, stopped.x, problem.fset) <= tol


def test_a_zero_step_stops_on_its_exact_residual():
    # alpha = ALPHA_MIN (1 / ||g||_inf is 1e-9) and x - alpha g rounds back to
    # x, so the step is zero while the unit-step residual is 1e-9.  The pass
    # forms that residual, which stops it 'converged' at tol 1e-4; at tol
    # 1e-12 it goes on to the zero step, whose g . d = 0 stops it 'floor', as
    # in the reference loop.
    red = qc.ReducedQp(free=np.arange(2), M=np.zeros((2, 2)), lin=np.array([-1e9, 1e-9]),
                       const=0.0, lo=0, hi=2)
    x0 = np.array([1.0, 0.5])
    assert exact_residual(red.grad, x0, red.fset) == pytest.approx(1e-9)
    for tol, stop in ((1e-12, "floor"), (1e-4, "converged")):
        out = qc.descend_nonconvex(red, x0, tol=tol)
        ref, _ = reference_gp_loop(red, x0, tol, projgrad.DESCENT_MAX_ITER)
        assert_same_report(out, ref)
        assert (out.stop, out.iterations) == (stop, 0)


def test_a_negative_iteration_cap_is_rejected_by_both_solvers():
    # a start that iteration 0 does not stop, so a cap below 0 is never met
    g = qc.gen_random(8, 0.8, 1)
    qp = qc.make_qp(g, qc.PartitionSpec(2, 6))
    red = qc.reduce(qp, ())
    rel = qc.build_relaxation(red, qc.sdp_shift(qp.M))
    x0 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert not qc.solve_convex(rel, x0, max_iter=0)[0].converged
    assert not qc.descend_nonconvex(red, x0, max_iter=0).converged
    with pytest.raises(ValueError, match="max_iter must be nonnegative"):
        qc.solve_convex(rel, x0, max_iter=-1)
    with pytest.raises(ValueError, match="max_iter must be nonnegative"):
        qc.descend_nonconvex(red, x0, max_iter=-1)


@pytest.mark.parametrize("seed, case", _stationarity_cases())
def test_solver_matches_the_reference_down_to_tol_1e_12(seed, case):
    # the solver is the reference loop, bit for bit, down to tol 1e-12, where
    # residuals end close to tol
    qp, order = stationarity_case_qp(seed, case)
    for shift in (qc.sdp_shift(qp.M), qc.sigma_shift(qp.M)):
        for label in ((), (1,), (0, 1)):
            red = qc.reduce(qp, label, order)
            rel = qc.build_relaxation(red, shift)
            x0 = qc.project(np.full(rel.n, 0.5), rel.fset)
            for tol in (1e-4, 1e-8, 1e-12):
                assert_matches_reference(red, rel, x0, tol, projgrad.SOLVE_MAX_ITER)
