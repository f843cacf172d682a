"""Local-minimum classification of a feasible point, with descent recovery.

For this problem class a point can be classified exactly (Hager & Krylyuk
1999, "Graph partitioning and continuous quadratic programming"):

  p1  first-order (KKT) conditions hold for the fitted multiplier lam;
  p2  every pair of fractional coordinates has a tight pair condition
      Q_ii + Q_jj = 2 Q_ij (so the pair move has zero curvature);
  p3  the same tightness across the three zero-multiplier sets (coordinates
      at 0 with mu = 0, at 1 with mu = 0, and fractional);
  p4  when the budget window is slack (lo < hi) and lam = 0, any coordinate
      with zero gradient must have Q_ii = 0 whenever a single-coordinate
      move is feasible (interior budget, or movable off an active bound).

A point is a local minimizer iff p1-p3 hold (p1-p4 when lo < hi), and each
violation of p2-p4 yields a feasible direction with a strictly negative
quadratic term, which `descent_direction` returns.  Strictness adds c1 (no
fractional coordinates), c2 (gradient separation between the two binary
levels), and c3 (zero-gradient coordinates pinned by an active budget bound).

`_point` converts the point, tests its feasibility, computes its gradient
and sets its budget flags once; `check_local_min` reads p1-p4 and c1-c3 from
that one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KktAssessment", "check_local_min", "descent_direction"]

X_TOL = 1e-7


@dataclass
class KktAssessment:
    lam: float
    p1: bool
    p2: bool
    p3: bool
    p4: bool
    local_min: bool
    witness: tuple | None
    c1: bool
    c2: bool
    c3: bool
    strict: bool


def _point(problem, x):
    """(x as floats, its gradient, at_lo, at_hi); raises on an infeasible point."""
    x = np.asarray(x, dtype=float)
    if not problem.fset.contains(x, tol=1e-7):
        raise ValueError("point is infeasible")
    s = float(np.sum(x))
    btol = 1e-7 * max(1.0, problem.n)
    return x, problem.grad(x), abs(s - problem.lo) <= btol, abs(s - problem.hi) <= btol


def _scale_tol(problem) -> float:
    return 1e-6 * max(1.0, float(np.abs(problem.M).sum(axis=1).max(initial=0.0)))


def _fit_lam(x, g, at_lo, at_hi) -> float:
    """Budget multiplier lam (box multipliers mu = g + lam): 0 with the budget
    inside the window, else the least KKT violation, the mean of -g over the
    fractional coordinates or, with none, the midpoint of [max of -g_i at 0,
    min of -g_i at 1], clipped to the sign an active bound allows (>= 0 at hi,
    <= 0 at lo)."""
    if not (at_lo or at_hi):
        return 0.0
    frac = (x > X_TOL) & (x < 1.0 - X_TOL)
    if frac.any():
        lam = float(-np.mean(g[frac]))
        lam = lam if at_lo else max(lam, 0.0)
        return lam if at_hi else min(lam, 0.0)
    zeros = x <= X_TOL
    ones = x >= 1.0 - X_TOL
    lower = float(np.max(-g[zeros])) if zeros.any() else -np.inf
    upper = float(np.min(-g[ones])) if ones.any() else np.inf
    lower = lower if at_lo else max(lower, 0.0)
    upper = upper if at_hi else min(upper, 0.0)
    if np.isfinite(lower) and np.isfinite(upper):
        return 0.5 * (lower + upper)
    return next((v for v in (lower, upper) if np.isfinite(v)), 0.0)


def _first_order(x, lam, mu, at_lo, at_hi, tol) -> bool:
    return not (
        np.any((mu > tol) & (x > X_TOL))
        or np.any((mu < -tol) & (x < 1.0 - X_TOL))
        or (lam > tol and not at_hi)
        or (lam < -tol and not at_lo)
    )


def check_local_min(problem, x) -> KktAssessment:
    """Classify a feasible point by p1-p4 and c1-c3 in one pass.

    `witness` names the first violation found: ("p2", i, j) or ("p3", i, j)
    for a pair, ("p4", case, i) for one coordinate.  Raises ValueError if x
    is infeasible."""
    x, g, at_lo, at_hi = _point(problem, x)
    tol = _scale_tol(problem)
    lam = _fit_lam(x, g, at_lo, at_hi) + 0.0  # -0.0 (from -mean(0), say) reads as +0.0
    mu = g + lam
    q = problem.M
    d = np.diag(q)
    slack = problem.lo < problem.hi

    at_zero = np.flatnonzero(x <= X_TOL)
    at_one = np.flatnonzero(x >= 1.0 - X_TOL)
    frac = np.flatnonzero((x > X_TOL) & (x < 1.0 - X_TOL))
    zero_mu0 = at_zero[np.abs(mu[at_zero]) <= tol]
    one_mu0 = at_one[np.abs(mu[at_one]) <= tol]
    grad_zero = np.abs(g) <= tol

    def worst_pair(rows, cols):
        # the pair condition Q_ii + Q_jj - 2 Q_ij >= 0 holds by construction
        # and is exactly 0 on self-pairs, so any entry above tol is a genuine
        # cross violation; only the block over rows x cols is formed
        if rows.size == 0 or cols.size == 0:
            return None
        block = d[rows, None] + d[None, cols] - 2.0 * q[np.ix_(rows, cols)]
        i, j = divmod(int(np.argmax(block)), cols.size)
        if block[i, j] > tol:
            return int(rows[i]), int(cols[j])
        return None

    bad = worst_pair(frac, frac)
    p2 = bad is None
    witness = None if p2 else ("p2", *bad)

    p3 = True
    for rows, cols in ((one_mu0, zero_mu0), (one_mu0, frac), (zero_mu0, frac)):
        bad = worst_pair(rows, cols)
        if bad is not None:
            p3 = False
            witness = witness or ("p3", *bad)
            break

    p4 = True
    if slack and abs(lam) <= tol:
        interior = not (at_lo or at_hi)
        can_fall = at_hi & (x > X_TOL)
        movable = interior | can_fall | (at_lo & (x < 1.0 - X_TOL))
        bad = np.flatnonzero(grad_zero & movable & (d > tol))
        if bad.size:
            p4 = False
            i = int(bad[0])
            witness = witness or ("p4", "a" if interior else ("b" if can_fall[i] else "c"), i)

    p1 = _first_order(x, lam, mu, at_lo, at_hi, tol)
    local = p1 and p2 and p3 and (p4 or not slack)

    c1 = frac.size == 0
    min_zero = float(np.min(g[at_zero])) if at_zero.size else np.inf
    max_one = float(np.max(g[at_one])) if at_one.size else -np.inf
    c2 = min_zero - max_one > tol
    c3 = True
    if slack and grad_zero.any() and _first_order(x, 0.0, g, at_lo, at_hi, tol):
        c3 = bool((at_hi and np.all(x[grad_zero] <= X_TOL))
                  or (at_lo and np.all(x[grad_zero] >= 1.0 - X_TOL)))

    return KktAssessment(
        lam=lam, p1=p1, p2=p2, p3=p3, p4=p4, local_min=local, witness=witness,
        c1=c1, c2=c2, c3=c3, strict=bool(local and c1 and c2 and c3),
    )


def descent_direction(problem, x, assessment: KktAssessment):
    """Feasible direction with a strictly negative quadratic term, or None.

    Pair violations give d = +/-(e_i - e_j), p4 violations d = +/-e_i.  The
    sign keeps x + alpha d feasible for small alpha > 0; the returned cap is
    the largest feasible step, and the move quadratic keeps decreasing up to
    it since its first-derivative term vanishes at a stationary point.
    """
    if assessment.witness is None:
        return None
    x = np.asarray(x, dtype=float)
    d = np.zeros(problem.n)

    if assessment.witness[0] in ("p2", "p3"):
        # a pair witness is two fractional coordinates, or one coordinate from
        # each of two different sets among (at 1, at 0, fractional): either
        # way one of the two can rise while the other falls
        _, i, j = assessment.witness
        up, down = (i, j) if x[i] < 1.0 - X_TOL and x[j] > X_TOL else (j, i)
        d[up] = 1.0
        d[down] = -1.0
        return d, float(min(1.0 - x[up], x[down]))

    # a p4 witness comes with an integer window lo < hi, so the side it picks
    # has room: case b (sum at hi, x_i > 0) falls and case c (sum at lo,
    # x_i < 1) rises with about hi - lo >= 1 of budget, and case a (sum inside)
    # takes the larger room, where one of x_i, 1 - x_i is at least 1/2
    _, case, i = assessment.witness
    s = float(np.sum(x))
    up_room = min(1.0 - x[i], problem.hi - s)
    down_room = min(x[i], s - problem.lo)
    if case == "b" or (case == "a" and up_room < down_room):
        d[i] = -1.0
        return d, float(down_room)
    d[i] = 1.0
    return d, float(up_room)
