"""Property tests for the relaxation's face step (qpcut.projgrad._face_step)
and for the face minimiser an equality window starts at (_face_minimiser).

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

from qpcut.projgrad import _face_minimiser, _face_step
from qpcut.qp import ReducedQp
from helpers import node_problems

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


def null_space_minimiser(rel):
    """The minimiser of f_L on the hyperplane sum(x) = lo and the condition
    number of its reduced Hessian, by a null-space basis of the budget row."""
    n = rel.n
    xp = np.full(n, rel.lo / n)
    if n == 1:  # the hyperplane is one point
        return xp, 1.0
    basis = tangent_basis(np.arange(n), True)
    rh = basis.T @ (2.0 * (np.diag(rel.lam) - rel.M)) @ basis
    z = xp + basis @ np.linalg.solve(rh, -basis.T @ rel.grad(xp))
    return z, np.linalg.cond(rh)


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@given(data=st.data())
def test_an_accepted_face_minimiser_is_an_interior_kkt_point(kind, data):
    # an accepted start lies in the set, strictly inside the box, on the
    # budget hyperplane, with a gradient that is constant up to rounding
    _, rel, _, _ = data.draw(node_problems(kind))
    x = _face_minimiser(rel, rel.fset, {})
    if x is None:
        return
    n = rel.n
    assert rel.lo == rel.hi and rel.fset.contains(x, 1e-9)
    assert x.min() > MARGIN and x.max() < 1.0 - MARGIN
    assert abs(x.sum() - rel.lo) <= 1e-12 * n
    g = rel.grad(x)
    scale = max(1.0, float(np.abs(np.diag(rel.lam) - rel.M).sum(axis=1).max()))
    assert np.linalg.norm(g - g.mean()) <= 1e-9 * scale


@pytest.mark.parametrize("kind", ["sdp", "eig"])
@given(data=st.data())
def test_face_minimiser_is_the_null_space_minimiser_when_that_is_inside(kind, data):
    # None for a window lo < hi.  With lo == hi and a well-conditioned
    # reduced Hessian, the minimiser found here decides: well inside the box
    # the start is that point, well outside there is none
    _, rel, _, _ = data.draw(node_problems(kind))
    x = _face_minimiser(rel, rel.fset, {})
    if rel.lo < rel.hi or rel.n == 0:
        assert x is None
        return
    z, cond = null_space_minimiser(rel)
    if cond > 1e8:
        return
    room = min(z.min(), 1.0 - z.max())
    if room > 1e-6:
        assert x is not None and np.abs(x - z).max() <= 1e-6
    elif room < -1e-6:
        assert x is None


@pytest.mark.parametrize("delta", [-5e-10, 0.0, 5e-13, 1e-3])
def test_a_face_minimiser_on_the_box_boundary_is_declined(delta):
    # f_L = lin . x + x^T x on sum(x) = 1, with lin = -2 z, is least at z =
    # (delta, (1 - delta) / 2, (1 - delta) / 2).  The start must be strictly
    # inside the box: fset.contains alone, to 1e-9, would admit delta = -5e-10
    z = np.array([delta, (1.0 - delta) / 2, (1.0 - delta) / 2])
    rel = ReducedQp(free=np.arange(3), M=np.zeros((3, 3)), lin=-2.0 * z, const=0.0,
                    lo=1, hi=1, lam=np.ones(3))
    x = _face_minimiser(rel, rel.fset, {})
    if delta > MARGIN:
        assert np.abs(x - z).max() <= 1e-15
    else:
        assert x is None
