"""Property tests for the relaxation's face step (qpcut.projgrad._face_step)
and for the face minimiser a relaxation starts at (_face_minimiser),
whatever start hint solve_convex is given.

Each step starts from a feasible point x of a node relaxation.  Its face
holds the coordinates strictly inside (0, 1) and, when sum(x) sits on a
window end, the budget row.  The checks below recompute that face and its
minimiser here, with a null-space basis of the budget row, independently
of the solver's bordered Newton system.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import qpcut as qc
from qpcut.projgrad import _face_minimiser, _face_step
from qpcut.qp import ReducedQp
from helpers import counted_projections, node_problems

MARGIN = 1e-12  # the face's distance from the box bounds


def face_of(rel, x):
    """(face coordinates, budget active) at x, as the face step defines them."""
    inner = np.flatnonzero((x > MARGIN) & (x < 1.0 - MARGIN))
    s, slack = x.sum(), 1e-9 * max(1, x.size)
    return inner, abs(s - rel.fset.lo) <= slack or abs(s - rel.fset.hi) <= slack


def tangent_basis(face, on_budget):
    """An orthonormal basis of the face's directions: the null space of the
    budget row 1^T when that is active, else every face coordinate."""
    k = face.size
    return scipy.linalg.null_space(np.ones((1, k))) if on_budget else np.eye(k)


def steps(rel, x0):
    """The face steps from x0 until one is declined, at most n + 2: a capped
    step leaves a smaller face, an uncapped one a face minimiser, from which
    the next step starts at a reduced gradient of rounding size."""
    x, faces = x0, {}
    for _ in range(x0.size + 2):
        y = _face_step(rel, rel.fset, x, rel.grad(x), faces)
        if y is None:
            return
        yield x, y
        x = y


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@given(data=st.data())
def test_face_step_stays_on_its_face_and_never_raises_f(kind, data):
    # every accepted step is feasible, moves only the face's coordinates, keeps
    # an active budget sum, and does not raise f_L
    _, rel, x0, _ = data.draw(node_problems(kind))
    for x, y in steps(rel, x0):
        face, on_budget = face_of(rel, x)
        assert rel.fset.contains(y, 1e-9)
        off = np.ones(x.size, dtype=bool)
        off[face] = False
        assert np.array_equal(y[off], x[off])
        if on_budget:
            assert abs(y.sum() - x.sum()) <= 1e-12 * max(1, x.size)
        fx = rel.value(x)
        assert rel.value(y) <= fx + 1e-12 * max(1.0, abs(fx)), (rel.value(y), fx)


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@given(data=st.data())
def test_face_step_ends_on_a_face_minimiser_or_on_the_bound_it_hit(kind, data):
    # An uncapped step leaves no reduced gradient on its face.  A capped one
    # ends where the segment towards the face's minimiser leaves the box (or,
    # with the budget inactive, the window).  Where the face's reduced Hessian
    # is well conditioned, its minimiser z is computed here by the null-space
    # method, and it decides which of the two the step must be.
    _, rel, x0, _ = data.draw(node_problems(kind))
    fset = rel.fset
    tol = 1e-9 * max(1.0, float(np.abs(rel.M).sum(axis=1).max(initial=0.0)))
    x, faces = x0, {}
    for _ in range(x0.size + 2):
        face, on_budget = face_of(rel, x)
        y = _face_step(rel, fset, x, rel.grad(x), faces)
        if face.size == 0 or (on_budget and face.size == 1):
            assert y is None  # x is a vertex of the set
            return
        basis = tangent_basis(face, on_budget)
        g = basis.T @ rel.grad(x)[face]  # the reduced gradient at x
        if y is None:
            # declined: only at a point with no descent left on its face
            assert np.linalg.norm(g) <= tol
            return
        s = y.sum()
        hit = (np.abs(y[face] - np.round(y[face])) <= MARGIN).any() or (
            not on_budget and min(abs(s - fset.lo), abs(s - fset.hi)) <= 1e-12 * x.size)
        reduced = np.linalg.norm(basis.T @ rel.grad(y)[face])
        assert reduced <= tol or hit, (reduced, hit)

        h = 2.0 * (np.diag(rel.lam[face]) - rel.M[np.ix_(face, face)])
        rh = basis.T @ h @ basis
        if np.linalg.cond(rh) < 1e8 and np.linalg.norm(g) > tol:
            z = x.copy()
            z[face] += basis @ np.linalg.solve(rh, -g)
            # z's distance into the box (and window); within 1e-9 of its
            # boundary either outcome is right
            room = min(z[face].min(), (1.0 - z[face]).min())
            if not on_budget:
                room = min(room, z.sum() - fset.lo, fset.hi - z.sum())
            if room > 1e-9:
                assert not hit and np.abs(y - z).max() <= 1e-6
            elif room < -1e-9:
                assert hit
                # y lies on the segment [x, z], short of z
                dz, dy = z - x, y - x
                t = float(dy @ dz) / float(dz @ dz)
                assert 0.0 < t < 1.0 and np.abs(dy - t * dz).max() <= 1e-6
        x = y


def null_space_minimiser(rel, end):
    """The minimiser of f_L on the hyperplane sum(x) = end and the condition
    number of its reduced Hessian, by a null-space basis of the budget row."""
    n = rel.n
    xp = np.full(n, end / n)
    if n == 1:  # the hyperplane is one point
        return xp, 1.0
    basis = tangent_basis(np.arange(n), True)
    rh = basis.T @ (2.0 * (np.diag(rel.lam) - rel.M)) @ basis
    z = xp + basis @ np.linalg.solve(rh, -basis.T @ rel.grad(xp))
    return z, np.linalg.cond(rh)


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@given(data=st.data())
def test_an_accepted_face_minimiser_is_an_interior_kkt_point(kind, data):
    # an accepted start lies in the set, strictly inside the box, with its sum
    # in the window.  Strictly inside the window its gradient vanishes up to
    # rounding.  On a window end the gradient is constant, mu 1 up to
    # rounding, with the sign that end needs when lo < hi: mu >= 0 at lo,
    # where f_L must not fall as the sum grows, and mu <= 0 at hi
    _, rel, _, _ = data.draw(node_problems(kind))
    x = _face_minimiser(rel, rel.fset, {})
    if x is None:
        return
    n, lo, hi = rel.n, rel.lo, rel.hi
    s, slack = x.sum(), 1e-12 * n
    assert rel.fset.contains(x, 1e-9)
    assert x.min() > MARGIN and x.max() < 1.0 - MARGIN
    assert lo - slack <= s <= hi + slack
    g = rel.grad(x)
    scale = max(1.0, float(np.abs(np.diag(rel.lam) - rel.M).sum(axis=1).max()))
    tol = 1e-9 * scale
    at_lo, at_hi = abs(s - lo) <= slack, abs(s - hi) <= slack
    if not (at_lo or at_hi):
        assert np.linalg.norm(g) <= tol
        return
    assert np.linalg.norm(g - g.mean()) <= tol
    if lo < hi:
        assert g.mean() >= -tol if at_lo else g.mean() <= tol


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@given(data=st.data())
def test_face_minimiser_is_the_null_space_minimiser_when_that_is_inside(kind, data):
    # With a well-conditioned Hessian, the minimiser found here decides: well
    # inside the box the start is that point, well outside there is none.
    # With lo < hi that is the free minimiser when its sum lies in the window,
    # and otherwise the minimiser on the hyperplane of the end it violates,
    # whose multiplier sign is sure only well away from the free minimiser's
    # window; with lo == hi, the minimiser on that hyperplane
    _, rel, _, _ = data.draw(node_problems(kind))
    x = _face_minimiser(rel, rel.fset, {})
    if rel.n == 0:
        assert x is None
        return
    lo, hi = rel.lo, rel.hi
    end, room = lo, np.inf
    if lo < hi:
        h = 2.0 * (np.diag(rel.lam) - rel.M)
        if np.linalg.cond(h) > 1e8:
            return
        z = np.linalg.solve(h, -rel.lin)
        s = z.sum()
        inside = min(s - lo, hi - s)  # sum(z)'s distance into the window
        end = None if inside >= 0.0 else lo if s < lo else hi
        room = abs(inside)
    if end is not None:
        z, cond = null_space_minimiser(rel, end)
        if cond > 1e8:
            return
    room = min(room, z.min(), 1.0 - z.max())
    if room > 1e-6:
        assert x is not None and np.abs(x - z).max() <= 1e-6
    elif room < -1e-6:
        assert x is None


@st.composite
def equality_cuts(draw, max_n=10):
    """(graph, spec) with positive integral weights and a window lo == hi, whose
    node relaxations mostly take their face minimiser (about 60%)."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.integers(1, 10, (n, n)) * (rng.random((n, n)) < draw(st.sampled_from([0.6, 1.0])))
    w = np.triu(w, 1).astype(float)
    lo = draw(st.integers(1, n - 1))
    return qc.WeightedGraph(w + w.T), qc.PartitionSpec(lo, lo)


def assert_hint_unused(rel, x0, tol, shift):
    """Where the face minimiser is taken, solve_convex never projects its hint:
    none, the feasible x0 and the infeasible finite x0 + shift give the same
    report and bound, each from the one projection that forms the residual of
    the first pass, which has converged at the minimiser."""
    if _face_minimiser(rel, rel.fset, {}) is None:
        return
    solves = []
    for hint in (None, x0, x0 + shift):
        with counted_projections() as calls:
            report, bound = qc.solve_convex(rel, hint, tol=tol)
        assert calls[0] == 1
        solves.append((report.x.tolist(), report.iterations, report.stop, bound))
    assert not rel.fset.contains(x0 + shift)
    assert solves[0] == solves[1] == solves[2]
    assert solves[0][1:3] == (0, "converged")


@given(data=st.data())
def test_an_accepted_face_minimiser_makes_the_hint_unused(data):
    # equality windows, which mostly take their face minimiser
    kind = data.draw(st.sampled_from(["sdp", "eig"]))
    _, rel, x0, tol = data.draw(node_problems(kind, equality_cuts()))
    assert_hint_unused(rel, x0, tol, data.draw(st.sampled_from([-1.0, 2.0])))


@given(data=st.data())
def test_an_accepted_window_face_minimiser_makes_the_hint_unused(data):
    # windows lo < hi, whose start is the free minimiser or one bordered at
    # the end that minimiser violates; a shift by -1 could land on the window's
    # vertex 0, so the shifts leave the box by at least 0.5
    kind = data.draw(st.sampled_from(["sdp", "eig"]))
    _, rel, x0, tol = data.draw(node_problems(kind))
    if rel.lo < rel.hi:
        assert_hint_unused(rel, x0, tol, data.draw(st.sampled_from([-1.5, 2.0])))


@pytest.mark.parametrize("delta", [-5e-10, 0.0, 5e-13, 1e-3])
def test_a_face_minimiser_on_the_box_boundary_is_declined(delta):
    # f_L = lin . x + x^T x, with lin = -2 w, has its free minimiser at w and,
    # on sum(x) = 1, is least at w + (1 - sum(w)) / 3.  Each window below has
    # its minimiser at z = (delta, (1 - delta) / 2, (1 - delta) / 2), sum 1:
    # the equality window [1, 1] (w = z); a window holding sum(z) (w = z, the
    # free minimiser); and windows whose lo or hi is 1 with w = z -+ 0.1, left
    # of lo or right of hi.  The start must be strictly inside the box:
    # fset.contains alone, to 1e-9, would admit delta = -5e-10
    z = np.array([delta, (1.0 - delta) / 2, (1.0 - delta) / 2])
    for w, lo, hi in ((z, 1, 1), (z, 0, 2), (z - 0.1, 1, 2), (z + 0.1, 0, 1)):
        rel = ReducedQp(free=np.arange(3), M=np.zeros((3, 3)), lin=-2.0 * w, const=0.0,
                        lo=lo, hi=hi, lam=np.ones(3))
        x = _face_minimiser(rel, rel.fset, {})
        if delta > MARGIN:
            assert np.abs(x - z).max() <= 1e-15, (lo, hi)
        else:
            assert x is None, (lo, hi)
