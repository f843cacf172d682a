"""Projection onto box-plus-budget sets and gradient projection solvers.

The same iteration drives both the convex relaxation solve and the nonconvex
descent, since both minimize a quadratic const + lin . x - x^T M x over
the unit box and budget window:
x_{k+1} = x_k + t* (P(x_k - alpha_k g_k) - x_k), where alpha_k is a
safeguarded Barzilai-Borwein steplength and t* minimizes the quadratic
exactly on the segment (best endpoint when the segment quadratic is
concave).  The stopping rule is the unit-step projected-gradient residual
||P(x - g) - x|| <= tol, or the iteration cap; the defaults below are the
ones branch and bound uses.  Each iterate costs one product M x, from which
the exact gradient, and where needed the value and the certified bound,
are taken.  Each pass projects once for the step and decides the residual
from it when it can: for x in a convex set, ||P(x - alpha g) - x|| is
nondecreasing in alpha and ||P(x - alpha g) - x|| / alpha nonincreasing
(Calamai & More 1987, Math. Programming 39, Lemma 2.2), so the residual lies
between min(1, 1/alpha) and max(1, 1/alpha) times ||P(x - alpha g) - x||,
and P(x - g) is formed only when neither end settles it (the upper end
scales rounding by up to 1/alpha, so it is trusted only where that rounding
is far below tol).  A relaxation solve given a cutoff also stops as soon as
its certified lower bound, checked at iterations 0, 1, 2, 4, 8, ... before
that pass's projection, is above the cutoff: branch and bound then prunes
the node, and more iterations could not change that.  A checked iterate
that has also converged therefore reports 'cutoff', with the bound a
converged stop there would return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# certified_lower_bound is unused here; perfbench/tracing.py traces this name in this module
from .bounds import _certificate, certified_lower_bound  # noqa: F401
from .qp import FeasibleSet, ReducedQp

__all__ = ["SolveReport", "project", "solve_convex", "descend_nonconvex"]

ALPHA_MIN = 1e-8
ALPHA_MAX = 1e8
EPS = float(np.finfo(float).eps)
RESIDUAL_TOL = 1e-4  # projected-gradient residual at which a solve has converged
SOLVE_MAX_ITER = 10000  # iterations per relaxation solve
DESCENT_MAX_ITER = 2000  # iterations per nonconvex descent


@dataclass
class SolveReport:
    """Final point, iteration count and exit reason of a gradient projection run.

    stop: 'converged' (residual within tol), 'cutoff' (certified bound above
    the cutoff), 'cap' (max_iter reached) or 'floor' (no descent left in
    floating point: a zero step, or a segment search that returns t = 0).
    """

    x: np.ndarray
    iterations: int
    stop: str

    @property
    def converged(self) -> bool:
        """stop == 'converged'; perfbench/tracing.py reads this name."""
        return self.stop == "converged"


def project(x, fset: FeasibleSet) -> np.ndarray:
    """Euclidean projection onto {p <= y <= q, lo <= sum(y) <= hi}.

    Clip to the box; if the clipped sum violates a budget bound, shift by the
    scalar theta solving sum(clip(x - theta)) = bound.  That piecewise-linear
    monotone equation is solved exactly by breakpoint search, so the result
    is feasible, idempotent, and the true projection.
    """
    if fset.is_empty:
        raise ValueError("empty feasible set")
    x = np.asarray(x, dtype=float)
    y = np.minimum(np.maximum(x, fset.p), fset.q)
    s = np.add.reduce(y)
    if s > fset.hi:
        return _clip_to_budget(x, fset, fset.hi)
    if s < fset.lo:
        return _clip_to_budget(x, fset, fset.lo)
    return y


def _clip_to_budget(x, fset: FeasibleSet, target: float) -> np.ndarray:
    """clip(x - theta, p, q) at the root of sum(clip(x - theta, p, q)) = target.

    The clip sum is nonincreasing and piecewise linear in theta, with slope
    minus the number of free coordinates.  Coordinate i leaves its upper
    bound at theta = x_i - q_i and reaches its lower bound at x_i - p_i; at
    the smallest of these 2n breakpoints the sum is sum(q).  Sorting the
    breakpoints and accumulating +1 / -1 gives the free count on every
    segment, and the running sum of count * width the drop of the clip sum,
    so the segment holding the target and the root on it follow from one
    sort and two cumulative sums: O(n log n), a fixed number of numpy calls.
    """
    p, q = fset.p, fset.q
    bps = (x - fset.bounds).ravel()  # x - q, then x - p
    order = bps.argsort()
    bps = bps[order]
    nfree = fset.steps[order].cumsum()
    dropped = (nfree[:-1] * (bps[1:] - bps[:-1])).cumsum()  # sum(q) - sum at bps[1:]
    need = fset.qsum - target
    k = int(dropped.searchsorted(need))  # first breakpoint after bps[0] with that drop
    if need <= 0.0:
        theta = bps[0]  # target == sum(q), met before any coordinate moves
    elif k == dropped.size:
        theta = bps[-1]  # target == sum(p), reached at the last breakpoint
    else:
        # linear on [bps[k], bps[k + 1]], where nfree[k] > 0 since the drop grows there
        theta = bps[k] + (need - (dropped[k - 1] if k else 0.0)) / nfree[k]

    y = np.minimum(np.maximum(x - theta, p), q)
    # Exact-sum step.  The root above meets the tolerance unless |x| is huge:
    # then x - theta carries an absolute error of |x| * eps per coordinate,
    # and one ulp of theta moves the sum by about as much, so no theta is
    # exact.  The residual is distributed over the free coordinates in
    # y-space instead, where full precision is available.  When theta sits
    # on a breakpoint with every coordinate on a bound, the residual is below
    # the precision of x itself, and the coordinates that can move toward the
    # target absorb it (some can: sum(p) <= target <= sum(q)).
    tol = 1e-12 * max(1.0, abs(target))
    for _ in range(4):
        err = float(np.add.reduce(y)) - target
        if abs(err) <= tol:
            break
        free = (y > p) & (y < q)
        if not free.any():
            free = y > p if err > 0.0 else y < q
        y[free] -= err / np.count_nonzero(free)
        y = np.minimum(np.maximum(y, p), q)
    return y


def _gp_loop(problem, x0, tol, max_iter, cutoff=None, certify=False):
    """Gradient projection on a quadratic problem from x0; returns (report, bound).

    The Hessian of const + lin . x - x^T (M - Diag(lam)) x is -2 times
    problem.matvec.  Each iterate costs one product mx = problem.matvec(x):
    the gradient and, where a check or the certificate needs it, the value
    are taken from it by problem.grad_from and problem.value_from, the code
    of problem.grad and problem.value.  Each step forms one more product Hd,
    which gives the segment curvature d^T H d and the Barzilai-Borwein step
    d^T d / d^T H d.

    Each pass projects for the step d = P(x - alpha g) - x.  By the lemma in
    the module docstring the residual lies between min(1, 1/alpha) ||d|| and
    max(1, 1/alpha) ||d||: a lower end above 2 tol proves the pass has not
    converged, and the factor 2 leaves a margin of tol for rounding and for
    the ~1e-12 infeasibility of the iterates.  The upper end multiplies the
    rounding in d by max(1, 1/alpha), up to 1 / ALPHA_MIN = 1e8, so it proves
    convergence only when it is at most tol / 2 and max(1, 1/alpha) times
    the bound _step_rounding puts on that rounding is at most tol / 4: at
    tol 1e-12, a step that rounds to zero at alpha = 1e-8 proves nothing.
    Between the two ends P(x - g) is formed, and a zero step whose residual
    is above tol stops 'floor'.  So the loop stops where computing the
    residual on every pass would, with the same iterates, bounds and
    reports.

    With a cutoff, problem must be a convex relaxation: its certified lower
    bound is computed at iterations 0, 1, 2, 4, 8, ..., before that pass's
    projection, and the loop stops with stop 'cutoff' when it is above the
    cutoff, returning that bound.  No certified bound exceeds min f_L, so
    the checks end once f_L(x) is at most the cutoff.  They never alter the
    iterates.  With certify (a relaxation too), a loop that stops for any
    other reason returns the certified bound at its last iterate; otherwise
    the bound is None.
    """
    fset = problem.fset
    x = np.asarray(x0, dtype=float).copy()
    if not fset.contains(x, tol=1e-9):
        raise ValueError("starting point is infeasible")
    mx = problem.matvec(x)
    g = problem.grad_from(mx)
    gmax = float(np.abs(g).max()) if g.size else 0.0
    alpha = 1.0 if gmax == 0.0 else 1.0 / gmax
    alpha = min(max(alpha, ALPHA_MIN), ALPHA_MAX)

    bound = None
    for iterations in range(max(max_iter, 0) + 1):
        if cutoff is not None and not iterations & (iterations - 1):
            value = problem.value_from(x, mx)
            if value <= cutoff:
                cutoff = None  # no certified bound exceeds min f_L <= f_L(x)
            else:
                cert = _certificate(problem, x, g, value)
                if cert > cutoff:
                    bound = cert
                    stop = "cutoff"
                    break
        z = x - alpha * g
        d = project(z, fset) - x
        dd = float(d @ d)
        inv = 1.0 / alpha
        big = max(1.0, inv)
        if dd * big * big <= 0.25 * tol * tol and big * _step_rounding(z) <= 0.25 * tol:
            stop = "converged"  # residual <= big (||d|| + rounding) < tol
            break
        if dd * min(1.0, inv) ** 2 <= 4.0 * tol * tol:  # else residual >= 2 tol: skip it
            r = project(x - g, fset) - x
            if math.sqrt(r @ r) <= tol:
                stop = "converged"
                break
        if iterations == max_iter:
            stop = "cap"
            break
        if dd == 0.0 and not d.any():
            stop = "floor"  # fixed point for this steplength, short of tol
            break
        a = float(g @ d)  # < 0 by the projection inequality
        hd = -2.0 * problem.matvec(d)
        b = float(d @ hd)
        if b > 0.0:
            t = min(1.0, -a / b)
        else:
            # concave (or flat) segment quadratic: best endpoint
            t = 1.0 if a + 0.5 * b <= 0.0 else 0.0
        if t <= 0.0:
            stop = "floor"  # no descent left in floating point
            break
        x = x + t * d
        mx = problem.matvec(x)
        g = problem.grad_from(mx)
        # BB step s.s / s.y with s = t d and y = t Hd
        alpha = dd / b if t * t * b > 1e-30 else ALPHA_MAX
        alpha = min(max(alpha, ALPHA_MIN), ALPHA_MAX)
    if certify and stop != "cutoff":
        bound = _certificate(problem, x, g, problem.value_from(x, mx))
    return SolveReport(x=x, iterations=iterations, stop=stop), bound


def _step_rounding(z) -> float:
    """Bound on the rounding in ||P(z) - x||, z = x - alpha g, x in the set.

    Forming z and shifting it onto the budget each round a coordinate by a
    few ulps of 1 + ||z||_inf at most; 16 of them per coordinate leaves room.
    """
    return 16.0 * EPS * math.sqrt(z.size) * (1.0 + float(np.abs(z).max(initial=0.0)))


def solve_convex(rel: ReducedQp, x0=None, tol: float = RESIDUAL_TOL,
                 max_iter: int = SOLVE_MAX_ITER, cutoff: float | None = None):
    """Minimize the convex relaxation; returns (report, certified lower bound).

    The objective is monotone nonincreasing across accepted steps, and the
    returned bound is certified at the final iterate, so it stays sound even
    when the iteration cap is hit.  Given a cutoff, the solve may stop early
    with report.stop == 'cutoff'; the bound returned is then the one that
    passed the cutoff.  The checks never alter the iterates, so a solve that
    no check stops returns what cutoff=None does.
    """
    if x0 is None:
        x0 = project(np.full(rel.n, 0.5), rel.fset)
    return _gp_loop(rel, x0, tol, max_iter, cutoff, certify=True)


def descend_nonconvex(problem, x0, tol: float = RESIDUAL_TOL,
                      max_iter: int = DESCENT_MAX_ITER) -> SolveReport:
    """Run the same iteration on the nonconvex objective itself.

    The segment quadratic can be concave here; the exact linesearch then
    picks the better endpoint, so the objective never increases.  Terminates
    at the stationarity residual or the iteration cap.
    """
    return _gp_loop(problem, x0, tol, max_iter)[0]
