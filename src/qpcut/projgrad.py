"""Projection onto box-plus-budget sets and gradient projection solvers.

The same iteration drives both the convex relaxation solve and the nonconvex
descent, since both minimize a quadratic const + lin . x - x^T M x over
the unit box and budget window:
x_{k+1} = x_k + t* (P(x_k - alpha_k g_k) - x_k), where alpha_k is a
safeguarded Barzilai-Borwein steplength and t* minimizes the quadratic
exactly on the segment (t* = 1 when the segment quadratic is concave).
Each pass forms the unit-step projected-gradient residual ||P(x - g) - x||
and stops when it is within tol, or at the iteration cap; only a pass that
goes on projects x - alpha g for its step.  The defaults below are the ones
branch and bound uses.  Each iterate costs one product M x, from which the
exact gradient, the value and, where needed, the certified bound are taken.
A relaxation solve given a cutoff also stops as soon as its certified lower
bound, checked on every pass before its residual, is above the cutoff:
branch and bound then prunes the node, and more iterations could not change
that.  An iterate that passes the check and has also converged therefore
reports 'cutoff', with the bound a converged stop there would return.

On a relaxation (convex, lam set) every pass starts with a face step, so
before the first pass and after every gradient projection step: gradient
projection finds the active face, and one Newton step minimizes the
quadratic on it, or goes as far towards that minimizer as the box and
window allow (More & Toraldo 1991, SIAM J. Optim. 1; Hager & Zhang 2006,
SIAM J. Optim. 17).  A stepped point has nearly always converged, so most
relaxations stop at their first residual.  The step keeps the iterate
feasible and, the quadratic being convex, does not raise it, and the
certificate holds at any feasible point, so bounds stay sound.  The
nonconvex descent takes no face step.  An equality window (lo == hi, every
node of an even bisection) starts instead at the minimiser of its full
face, one product with that face's bordered inverse plus one refinement
step (_face_minimiser), whenever that point lies strictly inside the box:
no box bound is active there, so it is the relaxation's minimiser, and
the first pass takes no face step.

The face systems come from a face table (_full_face) that a solve_convex
call makes for itself, or that branch and bound passes to every relaxation
of one solve, where all nodes of a depth share one Hessian block.  For each
size n and budget flag the table holds the full face's system and its
inverse, built on first use, so in branch and bound each depth's full face
is factored once per solve.  A full face, nearly every face on small dense
graphs, is then solved by z = K^-1 r and one refinement step
z -= K^-1 (K z - r); without that step an explicit inverse loses enough
accuracy that relaxations far below the default tol take more iterations.
A partial face gathers its block from the table's H and is solved by LU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import certified_lower_bound
from .qp import FeasibleSet, ReducedQp, _check_dim

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
    floating point, for one of two causes: a pass whose value is not below
    the one the last pass stepped from, or a step direction d with
    g . d >= 0, which a zero step has).
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

    x must have shape (fset.dim,); any other shape raises ValueError.  Three
    cases: the box clip alone, when its sum lies in the window; otherwise
    the shift by the scalar theta solving sum(clip(x - theta)) = bound at
    the violated bound, which _clip_to_budget finds by one shift of every
    coordinate when that meets the bound, and by breakpoint search when it
    does not.  The result is feasible, idempotent, and the true projection.
    """
    if fset.is_empty:
        raise ValueError("empty feasible set")
    x = _check_dim(x, fset.dim)
    y = np.minimum(np.maximum(x, fset.p), fset.q)
    s = np.add.reduce(y)
    if s > fset.hi:
        return _clip_to_budget(x, fset, fset.hi)
    if s < fset.lo:
        return _clip_to_budget(x, fset, fset.lo)
    return y


def _clip_to_budget(x, fset: FeasibleSet, target: float) -> np.ndarray:
    """clip(x - theta, p, q) at the root of sum(clip(x - theta, p, q)) = target.

    project calls this when the box clip alone (theta = 0) misses the
    window, with target the violated end.  The clip sum is nonincreasing and
    piecewise linear in theta, so any theta whose clip sum meets the target
    to the exact-sum tolerance below gives the projection.  Two cases
    remain.  First, one shift of every coordinate by theta0 = (sum(x) -
    target) / n, the root when no coordinate clips there; it has the sign
    the violated end needs (target == hi only when the box clip sum, and so
    sum(x), exceeds hi).  Otherwise, when a coordinate clips at theta0 or
    rounding at huge |x| spoils the sum, breakpoint search
    (_breakpoint_root) followed by the y-space exact-sum step.
    """
    p, q = fset.p, fset.q
    tol = 1e-12 * max(1.0, abs(target))
    y = np.minimum(np.maximum(x - (np.add.reduce(x) - target) / x.size, p), q)
    if abs(float(np.add.reduce(y)) - target) <= tol:
        return y

    y = np.minimum(np.maximum(x - _breakpoint_root(x, fset, target), p), q)
    # Exact-sum step.  The root above meets the tolerance unless |x| is huge:
    # then x - theta carries an absolute error of |x| * eps per coordinate,
    # and one ulp of theta moves the sum by about as much, so no theta is
    # exact.  The residual is distributed over the free coordinates in
    # y-space instead, where full precision is available.  When theta sits
    # on a breakpoint with every coordinate on a bound, the residual is below
    # the precision of x itself, and the coordinates that can move toward the
    # target absorb it (some can: sum(p) <= target <= sum(q)).
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


def _breakpoint_root(x, fset: FeasibleSet, target: float) -> float:
    """The root theta of sum(clip(x - theta, p, q)) = target, by breakpoint search.

    Coordinate i leaves its upper bound at theta = x_i - q_i and reaches its
    lower bound at x_i - p_i; at the smallest of these 2n breakpoints the
    sum is sum(q).  Sorting the breakpoints and accumulating +1 / -1 gives
    the free count on every segment, and the running sum of count * width
    the drop of the clip sum, so the segment holding the target and the root
    on it follow from one sort and two cumulative sums: O(n log n), a fixed
    number of numpy calls.
    """
    bps = (x - fset.bounds).ravel()  # x - q, then x - p
    order = bps.argsort()
    bps = bps[order]
    nfree = fset.steps[order].cumsum()
    dropped = (nfree[:-1] * (bps[1:] - bps[:-1])).cumsum()  # sum(q) - sum at bps[1:]
    need = fset.qsum - target
    k = int(dropped.searchsorted(need))  # first breakpoint after bps[0] with that drop
    if need <= 0.0:
        return bps[0]  # target == sum(q), met before any coordinate moves
    if k == dropped.size:
        return bps[-1]  # target == sum(p), reached at the last breakpoint
    # linear on [bps[k], bps[k + 1]], where nfree[k] > 0 since the drop grows there
    return bps[k] + (need - (dropped[k - 1] if k else 0.0)) / nfree[k]


def _face_step(problem, fset, x, g, faces):
    """One Newton step on the active face of x for a relaxation; the new point or None.

    The face holds the coordinates strictly inside (0, 1) (margin 1e-12),
    and the budget row when sum(x) is within 1e-9 max(1, n) of lo or hi.  On
    it the step d solves H_FF d = -g_F, bordered by the budget row
    [H_FF 1; 1^T 0][d; nu] = [-g_F; 0] when that is active, with
    H = 2 (Diag(lam) - M).  faces is the solve's face table (_full_face).
    A full face (every coordinate inside) takes its system and inverse from
    it and is solved by the inverse with one refinement step.  A partial
    face gathers H_FF from the table's H, the same bits as
    2 (Diag(lam_F) - M_FF), and is solved by LU, since one inverse costs
    two to three LU solves at k >= 20 and the table keeps no partial face.
    With the budget active, d is re-centred onto sum(d) = 0 and tested with
    the reduced gradient g_F + nu: on the face g . d is the same number,
    free of the cancellation of nu * sum(d) against rounding in a step that
    is near zero.  The step length is the exact line search -g.d / d^T H d,
    capped by a ratio test that keeps the box and, with the budget inactive,
    the window.  The point is returned only for a descent direction (g.d < 0)
    and when it lies in fset to 1e-9, so it is feasible and, H being PSD,
    no worse than x, however exactly d solves its system.
    """
    if x.size == 0:  # the reductions below take no empty array
        return None
    inner = None  # the full face, found by two reductions with no mask
    if not (np.minimum.reduce(x) > 1e-12 and np.maximum.reduce(x) < 1.0 - 1e-12):
        inner = (x > 1e-12) & (x < 1.0 - 1e-12)
        face = np.flatnonzero(inner)
        if face.size == 0:
            return None
    s = float(np.add.reduce(x))
    slack = 1e-9 * max(1.0, x.size)
    on_budget = abs(s - fset.lo) <= slack or abs(s - fset.hi) <= slack
    h, kkt, inv = _full_face(problem, faces, on_budget)
    if inner is None:
        gf, xf = g, x
    else:
        h, gf, xf = h[np.ix_(face, face)], g[face], x[face]
        kkt, inv = _kkt(h, on_budget), None
    k = xf.size
    if on_budget:
        sol = _solve(kkt, inv, np.concatenate((-gf, (0.0,))))
        d = sol[:k] - np.add.reduce(sol[:k]) / k
        gf = gf + sol[k]
    else:
        d = _solve(kkt, inv, -gf)
    a = float(gf @ d)
    if not a < 0.0:
        return None
    # ratio test: the largest t that keeps x + t d in the box (and window)
    ad = np.abs(d)
    room = np.where(d > 0.0, 1.0 - xf, xf)
    t = float(np.minimum.reduce(np.divide(room, ad, out=np.full(k, np.inf), where=ad > 0.0)))
    if not on_budget:
        sd = float(np.add.reduce(d))
        if sd != 0.0:
            t = min(t, ((fset.hi if sd > 0.0 else fset.lo) - s) / sd)
    b = float(d @ (h @ d))
    if b > 0.0:
        t = min(t, -a / b)
    if inner is None:
        y = x + t * d
    else:
        y = x.copy()
        y[inner] += t * d
    return y if fset.contains(y, 1e-9) else None


def _face_minimiser(problem, fset, faces):
    """The minimiser of an equality window's relaxation, from its full face; or None.

    With lo == hi, the minimiser of f_L on the full face solves
    K [x; nu] = [-lin; lo], K the bordered system of the table faces
    (_full_face), by K^-1 with one refinement step.  It is returned only
    when every coordinate is strictly inside (0, 1) (margin 1e-12) and it
    lies in fset to 1e-9: the gradient there is -nu 1 and no box bound is
    active, so it satisfies the KKT conditions of the convex relaxation.
    None when lo < hi, n == 0, K is singular, or the point leaves the box.
    A point already outside the box by more than 1e-4 before the refinement
    is declined after one product: the refinement moves far less than that
    on any system K^-1 solves well, and declining is always safe, since the
    loop then runs from its own start.
    """
    n = problem.n
    if n == 0 or problem.lo != problem.hi:
        return None
    _, kkt, inv = _full_face(problem, faces, True)
    if inv is None:
        return None
    rhs = np.concatenate((-problem.lin, (float(problem.lo),)))
    z = inv @ rhs
    if not (np.minimum.reduce(z[:n]) > -1e-4 and np.maximum.reduce(z[:n]) < 1.0 + 1e-4):
        return None
    x = (z - inv @ (kkt @ z - rhs))[:n]
    if np.minimum.reduce(x) > 1e-12 and np.maximum.reduce(x) < 1.0 - 1e-12 \
            and fset.contains(x, 1e-9):
        return x
    return None


def _full_face(problem, faces, on_budget):
    """(H, K, K^-1) of problem's full face, from the table faces, built on first use.

    faces maps (n, on_budget) to H = 2 (Diag(lam) - M), the face system K
    (H itself, or H bordered by the budget row) and K^-1, or None when K is
    singular, which leaves _solve to LU and lstsq.  One table serves every
    relaxation of a solve only where n determines M and lam, as it does in
    branch and bound's fixed order (qpcut.bnb); it then holds at most 2 n
    entries.
    """
    key = (problem.n, on_budget)
    entry = faces.get(key)
    if entry is None:
        h = 2.0 * (np.diag(problem.lam) - problem.M)
        kkt = _kkt(h, on_budget)
        try:
            inv = np.linalg.inv(kkt)
        except np.linalg.LinAlgError:
            inv = None
        entry = faces[key] = (h, kkt, inv)
    return entry


def _kkt(h, on_budget):
    """h, bordered by the budget row [h 1; 1^T 0] when that is active."""
    if not on_budget:
        return h
    k = h.shape[0]
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = h
    kkt[k, k] = 0.0
    return kkt


def _solve(a, inv, rhs):
    """a^-1 rhs: from inv = a^-1 with one refinement step, or, when inv is
    None, by LU, and by lstsq when a is singular."""
    if inv is not None:
        z = inv @ rhs
        return z - inv @ (a @ z - rhs)
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, rhs, rcond=None)[0]


def _gp_loop(problem, x0, tol, max_iter, cutoff=None, faces=None):
    """Gradient projection on a quadratic problem from x0; returns (report, bound).

    The Hessian of const + lin . x - x^T (M - Diag(lam)) x is -2 times
    problem.matvec.  Each iterate costs one product mx = problem.matvec(x),
    from which problem.grad_from and problem.value_from, the code of
    problem.grad and problem.value, take the gradient and the value.  Each
    step forms one more product problem.matvec(d), which gives the segment
    curvature d^T H d = -2 d . matvec(d) and the Barzilai-Borwein step
    d^T d / d^T H d.  The first step's alpha is 1 / max |g| at the start,
    formed only when a pass first steps: most relaxations stop before any
    step.  The start is x0, which must be feasible, or, given a face table
    (faces, which solve_convex passes for a relaxation), the point of
    _face_minimiser when that accepts one.

    Every pass works in one order:
    1. given a face table, the face step of _face_step, except on the first
       pass from _face_minimiser's point, which is already the minimiser;
    2. the value f(x), taken once;
    3. the cutoff check, when f(x) is above the cutoff (no certified bound
       exceeds f_L(x)), which stops 'cutoff' when the certified lower bound
       is above it too;
    4. the residual P(x - g) - x, which stops 'converged' when its norm is
       at most tol;
    5. the cap, which stops 'cap' at max_iter;
    6. the floor, which stops 'floor' when f(x) is not strictly below the
       value the last pass stepped from (far below the default tol the face
       step and the gradient step can otherwise trade moves of a few ulps
       until the cap);
    7. the step along d = P(x - alpha g) - x, which stops 'floor' unless
       g . d < 0 and otherwise takes the exact segment minimizer
       t = min(1, -g.d / d^T H d), or t = 1 where the segment quadratic is
       concave or flat.  The projection inequality gives
       g . d <= -||d||^2 / alpha, so only a zero d or rounding stops here.

    With a cutoff, problem must be a convex relaxation.  The checks never
    alter the iterates.  A 'cutoff' stop returns the bound that passed; a
    relaxation that stops for any other reason returns the certified bound
    at its last iterate, and a subproblem returns None.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    fset = problem.fset
    x = np.asarray(x0, dtype=float).copy()
    if not fset.contains(x, tol=1e-9):
        raise ValueError("starting point is infeasible")
    start = None if faces is None else _face_minimiser(problem, fset, faces)
    if start is not None:
        x = start
    mx = problem.matvec(x)
    g = g0 = problem.grad_from(mx)
    alpha = None  # formed from g0 when a pass first steps

    bound = None
    last = math.inf  # f at the last pass that stepped
    for iterations in range(max_iter + 1):
        # the face step: before the first pass, unless the loop starts at the
        # face minimiser, and after every step
        if faces is not None and (iterations or start is None):
            y = _face_step(problem, fset, x, g, faces)
            if y is not None:
                x = y
                mx = problem.matvec(x)
                g = problem.grad_from(mx)
        value = problem.value_from(x, mx)
        if cutoff is not None and value > cutoff:
            cert = certified_lower_bound(problem, x, g, value)
            if cert > cutoff:
                bound = cert
                stop = "cutoff"
                break
        r = project(x - g, fset) - x
        if math.sqrt(r @ r) <= tol:
            stop = "converged"
            break
        if iterations == max_iter:
            stop = "cap"
            break
        if not value < last:
            stop = "floor"  # the last pass lowered f by nothing in floating point
            break
        last = value
        if alpha is None:
            gmax = float(np.maximum.reduce(np.abs(g0), initial=0.0))
            alpha = min(max(1.0 if gmax == 0.0 else 1.0 / gmax, ALPHA_MIN), ALPHA_MAX)
        d = project(x - alpha * g, fset) - x
        a = float(g @ d)
        if not a < 0.0:
            stop = "floor"  # no descent direction left in floating point
            break
        b = -2.0 * float(d @ problem.matvec(d))  # d^T H d
        t = min(1.0, -a / b) if b > 0.0 else 1.0
        x = x + t * d
        mx = problem.matvec(x)
        g = problem.grad_from(mx)
        # BB step s.s / s.y with s = t d and y = t Hd
        alpha = float(d @ d) / b if t * t * b > 1e-30 else ALPHA_MAX
        alpha = min(max(alpha, ALPHA_MIN), ALPHA_MAX)
    if problem.lam is not None and stop != "cutoff":
        bound = certified_lower_bound(problem, x, g, value)
    return SolveReport(x=x, iterations=iterations, stop=stop), bound


def solve_convex(rel: ReducedQp, x0=None, tol: float = RESIDUAL_TOL,
                 max_iter: int = SOLVE_MAX_ITER, cutoff: float | None = None, *,
                 _faces: dict | None = None):
    """Minimize the convex relaxation; returns (report, certified lower bound).

    The objective is monotone nonincreasing across accepted steps, face
    steps included: each is feasible and, on this convex quadratic, moves
    along a descent direction no further than the exact line search allows.
    The returned bound is certified at the final iterate, which need only be
    feasible, so it stays sound even when the iteration cap is hit.  Given
    a cutoff, the solve may stop early with report.stop == 'cutoff'; the
    bound returned is then the one that passed the cutoff, checked on every
    pass.  The checks never alter the iterates, so a solve that no check
    stops returns what cutoff=None does.  A subproblem (lam None), which has
    no certified bound, raises ValueError before any iteration.  _faces is
    the face table of _full_face, which branch and bound shares across the
    relaxations of one solve; without it the solve makes its own.
    """
    if rel.lam is None:
        raise ValueError("solve_convex takes a relaxation, not a subproblem")
    if x0 is None:
        x0 = project(np.full(rel.n, 0.5), rel.fset)
    return _gp_loop(rel, x0, tol, max_iter, cutoff, {} if _faces is None else _faces)


def descend_nonconvex(problem, x0, tol: float = RESIDUAL_TOL,
                      max_iter: int = DESCENT_MAX_ITER) -> SolveReport:
    """Run the same iteration on the nonconvex objective itself.

    The segment quadratic can be concave here; the step then goes to the
    far endpoint, t = 1, which along a descent direction is the better one,
    so the objective never increases.  Terminates at the stationarity
    residual, the iteration cap or the rounding floor.
    """
    return _gp_loop(problem, x0, tol, max_iter)[0]
