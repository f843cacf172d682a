"""Projection onto box-plus-budget sets and gradient projection solvers.

The same iteration drives both the convex relaxation solve and the nonconvex
descent, since both minimize a quadratic const + lin . x - x^T M x over
the unit box and budget window:
x_{k+1} = x_k + t* (P(x_k - alpha_k g_k) - x_k), where alpha_k is a
safeguarded Barzilai-Borwein steplength and t* minimizes the quadratic
exactly on the segment (best endpoint when the segment quadratic is
concave).  The stopping rule is the unit-step projected-gradient residual
||P(x - g) - x|| <= tol, or the iteration cap; the defaults below are the
ones branch and bound uses.  Each pass projects once for the step and
computes the residual only when the step cannot rule it out: for x in a
convex set, ||P(x - alpha g) - x|| is nondecreasing in alpha and
||P(x - alpha g) - x|| / alpha nonincreasing (Calamai & More 1987,
Math. Programming 39, Lemma 2.2), so the residual is at least
min(1, 1/alpha) ||P(x - alpha g) - x||.  A relaxation solve given a
cutoff also stops as soon as its certified lower bound, checked at
iterations 0, 1, 2, 4, 8, ..., is above the cutoff: branch and bound then
prunes the node, and more iterations could not change that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import certified_lower_bound
from .qp import FeasibleSet, ReducedQp

__all__ = ["SolveReport", "project", "solve_convex", "descend_nonconvex"]

ALPHA_MIN = 1e-8
ALPHA_MAX = 1e8
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


def _residual(x, g, fset: FeasibleSet) -> float:
    """The unit-step projected-gradient residual ||P(x - g) - x||."""
    r = project(x - g, fset) - x
    return math.sqrt(r @ r)


def _gp_loop(problem, x0, tol, max_iter, cutoff=None):
    """Gradient projection on a quadratic problem from x0; returns (report, bound).

    The Hessian of const + lin . x - x^T (M - Diag(lam)) x is -2 times
    problem.matvec.  The gradient is evaluated once at x0 and then carried
    along exactly as g + t * Hd, so each step costs one matrix-vector
    product, which also gives the segment curvature d^T H d and the
    Barzilai-Borwein step d^T d / d^T H d.
    Rounding in the carried gradient can only affect the iterates, never a
    certified bound (certified_lower_bound recomputes the exact gradient at
    its point) nor a converged report: a carried residual within tol is
    checked again at the exact gradient, which the loop then carries on.

    Each pass projects for the step d = P(x - alpha g) - x first.  By the
    lemma in the module docstring the residual is at least
    min(1, 1/alpha) ||d||; when that is above 2 tol the pass cannot have
    converged and P(x - g) is not formed.  The factor 2 leaves a margin of
    tol for rounding and for the ~1e-12 infeasibility of the iterates, so
    the residual is skipped only where it would be above tol, and the
    iterates, bounds and reports are those of computing it on every pass.

    With a cutoff, problem must be a convex relaxation: its certified lower
    bound is computed at iterations 0, 1, 2, 4, 8, ... and the loop stops
    when it is above the cutoff, returning that bound; otherwise the bound
    is None.  No certified bound exceeds min f_L, so the checks end once
    f_L(x) is at most the cutoff.  They never alter the iterates.
    """
    fset = problem.fset
    x = np.asarray(x0, dtype=float).copy()
    if not fset.contains(x, tol=1e-9):
        raise ValueError("starting point is infeasible")
    g = problem.grad(x)
    gmax = float(np.abs(g).max()) if g.size else 0.0
    alpha = 1.0 if gmax == 0.0 else 1.0 / gmax
    alpha = min(max(alpha, ALPHA_MIN), ALPHA_MAX)

    bound = None
    for iterations in range(max(max_iter, 0) + 1):
        d = project(x - alpha * g, fset) - x
        dd = float(d @ d)
        scale = min(1.0, 1.0 / alpha)
        if dd * scale * scale <= 4.0 * tol * tol:  # else residual >= 2 tol: skip it
            residual = _residual(x, g, fset)
            if residual <= tol and iterations:
                # confirm at the exact gradient, which the carried one may have drifted from
                g = problem.grad(x)
                residual = _residual(x, g, fset)
                if residual > tol:  # step from the exact gradient, too
                    d = project(x - alpha * g, fset) - x
                    dd = float(d @ d)
            if residual <= tol:
                stop = "converged"
                break
        if cutoff is not None and not iterations & (iterations - 1):
            if problem.value(x) <= cutoff:
                cutoff = None  # no certified bound exceeds min f_L <= f_L(x)
            else:
                cert = certified_lower_bound(problem, x)
                if cert > cutoff:
                    bound = cert
                    stop = "cutoff"
                    break
        if iterations == max_iter:
            stop = "cap"
            break
        if dd == 0.0 and not d.any():
            stop = "floor"  # fixed point for this steplength: stationary
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
        g = g + t * hd
        # BB step s.s / s.y with s = t d and y = t Hd
        alpha = dd / b if t * t * b > 1e-30 else ALPHA_MAX
        alpha = min(max(alpha, ALPHA_MIN), ALPHA_MAX)
    return SolveReport(x=x, iterations=iterations, stop=stop), bound


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
    report, bound = _gp_loop(rel, x0, tol, max_iter, cutoff)
    if bound is None:
        bound = certified_lower_bound(rel, report.x)
    return report, bound


def descend_nonconvex(problem, x0, tol: float = RESIDUAL_TOL,
                      max_iter: int = DESCENT_MAX_ITER) -> SolveReport:
    """Run the same iteration on the nonconvex objective itself.

    The segment quadratic can be concave here; the exact linesearch then
    picks the better endpoint, so the objective never increases.  Terminates
    at the stationarity residual or the iteration cap.
    """
    return _gp_loop(problem, x0, tol, max_iter)[0]
