"""First-order, local, and strict-local optimality checks with descent recovery.

For this problem class a stationary point can be classified exactly:

  p1  first-order (KKT) conditions hold for the fitted multiplier lam;
  p2  every pair of fractional coordinates has a tight pair condition
      Q_ii + Q_jj = 2 Q_ij (so the pair move has zero curvature);
  p3  the same tightness across the three zero-multiplier sets (coordinates
      at 0 with mu = 0, at 1 with mu = 0, and fractional);
  p4  when the budget window is slack (lo < hi) and lam = 0, any coordinate
      with zero gradient must have Q_ii = 0 whenever a single-coordinate
      move is feasible (interior budget, or movable off an active bound).

A stationary point is a local minimizer iff p1-p3 hold (p1-p4 when lo < hi),
and each violation yields a feasible direction with a strictly negative
quadratic term, which descend steps can exploit.  Strictness adds c1 (no
fractional coordinates), c2 (gradient separation between the two binary
levels), and c3 (zero-gradient coordinates pinned by an active budget bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KktAssessment",
    "multipliers",
    "check_first_order",
    "check_local_min",
    "check_strict",
    "descent_direction",
]

X_TOL = 1e-7


def _scale_tol(problem) -> float:
    q = problem.M
    norm = float(np.abs(q).sum(axis=1).max()) if q.size else 0.0
    return 1e-6 * max(1.0, norm)


def _budget_state(problem, x):
    s = float(np.sum(x))
    btol = 1e-7 * max(1.0, problem.n)
    return s, abs(s - problem.lo) <= btol, abs(s - problem.hi) <= btol


@dataclass
class KktAssessment:
    lam: float
    mu: np.ndarray
    at_zero: np.ndarray
    at_one: np.ndarray
    frac: np.ndarray
    at_zero_mu0: np.ndarray
    at_one_mu0: np.ndarray
    grad_zero: np.ndarray
    p1: bool
    p2: bool
    p3: bool
    p4: bool
    local_min: bool
    witness: tuple | None = None
    c1: bool | None = None
    c2: bool | None = None
    c3: bool | None = None
    strict: bool | None = None


def multipliers(problem, x):
    """Fit the budget multiplier lam and return (lam, mu = grad + lam).

    With the budget strictly inside the window, complementary slackness
    forces lam = 0.  On an active bound, lam is chosen to minimize the KKT
    violation: the mean of -grad over the fractional coordinates when any
    exist, otherwise the midpoint of the interval
    [max over x_i = 0 of -grad_i, min over x_i = 1 of -grad_i], clipped to
    the sign the active bound allows.
    """
    x = np.asarray(x, dtype=float)
    if not problem.fset.contains(x, tol=1e-7):
        raise ValueError("point is infeasible")
    g = problem.grad(x)
    _, at_lo, at_hi = _budget_state(problem, x)
    frac = (x > X_TOL) & (x < 1.0 - X_TOL)

    if not (at_lo or at_hi):
        lam = 0.0
    elif frac.any():
        lam = float(-np.mean(g[frac]))
        if at_hi and not at_lo:
            lam = max(lam, 0.0)
        elif at_lo and not at_hi:
            lam = min(lam, 0.0)
    else:
        zeros = x <= X_TOL
        ones = x >= 1.0 - X_TOL
        lower = float(np.max(-g[zeros])) if zeros.any() else -np.inf
        upper = float(np.min(-g[ones])) if ones.any() else np.inf
        if at_hi and not at_lo:
            lower = max(lower, 0.0)
        if at_lo and not at_hi:
            upper = min(upper, 0.0)
        if np.isfinite(lower) and np.isfinite(upper):
            lam = 0.5 * (lower + upper)
        elif np.isfinite(lower):
            lam = lower
        elif np.isfinite(upper):
            lam = upper
        else:
            lam = 0.0
    return lam, g + lam


def check_first_order(problem, x, lam, mu) -> bool:
    """KKT test: sign of mu pins the coordinate, sign of lam pins the budget."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    tol = _scale_tol(problem)
    if not problem.fset.contains(x, tol=1e-7):
        return False
    _, at_lo, at_hi = _budget_state(problem, x)
    if np.any((mu > tol) & (x > X_TOL)):
        return False
    if np.any((mu < -tol) & (x < 1.0 - X_TOL)):
        return False
    if lam > tol and not at_hi:
        return False
    if lam < -tol and not at_lo:
        return False
    return True


def check_local_min(problem, x) -> KktAssessment:
    """Classify a feasible point via p1-p4; stores the first violation found."""
    x = np.asarray(x, dtype=float)
    tol = _scale_tol(problem)
    lam, mu = multipliers(problem, x)
    g = problem.grad(x)
    q = problem.M
    d = np.diag(q)
    _, at_lo, at_hi = _budget_state(problem, x)

    at_zero = np.flatnonzero(x <= X_TOL)
    at_one = np.flatnonzero(x >= 1.0 - X_TOL)
    frac = np.flatnonzero((x > X_TOL) & (x < 1.0 - X_TOL))
    at_zero_mu0 = at_zero[np.abs(mu[at_zero]) <= tol]
    at_one_mu0 = at_one[np.abs(mu[at_one]) <= tol]
    grad_zero = np.flatnonzero(np.abs(g) <= tol)

    p1 = check_first_order(problem, x, lam, mu)
    witness = None

    def worst_pair(rows, cols):
        # the pair condition Q_ii + Q_jj - 2 Q_ij >= 0 holds by construction
        # and is exactly 0 on self-pairs, so any entry above tol is a genuine
        # cross violation; only the block over rows x cols is formed
        if rows.size == 0 or cols.size == 0:
            return None
        block = d[rows, None] + d[None, cols] - 2.0 * q[np.ix_(rows, cols)]
        k = int(np.argmax(block))
        i, j = divmod(k, cols.size)
        if block[i, j] > tol and int(rows[i]) != int(cols[j]):
            return int(rows[i]), int(cols[j])
        return None

    p2 = True
    bad = worst_pair(frac, frac)
    if bad is not None:
        p2 = False
        witness = ("p2", bad[0], bad[1])

    p3 = True
    groups = [at_one_mu0, at_zero_mu0, frac]
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            bad = worst_pair(groups[a], groups[b])
            if bad is not None:
                p3 = False
                if witness is None:
                    witness = ("p3", bad[0], bad[1])
                break
        if not p3:
            break

    p4 = True
    if problem.lo < problem.hi and abs(lam) <= tol:
        interior = not (at_lo or at_hi)
        for i in grad_zero:
            applies = (
                interior
                or (at_hi and x[i] > X_TOL)
                or (at_lo and x[i] < 1.0 - X_TOL)
            )
            if applies and d[i] > tol:
                p4 = False
                if witness is None:
                    case = "a" if interior else ("b" if at_hi and x[i] > X_TOL else "c")
                    witness = ("p4", case, int(i))
                break

    local = p1 and p2 and p3 and (p4 if problem.lo < problem.hi else True)
    return KktAssessment(
        lam=lam,
        mu=mu,
        at_zero=at_zero,
        at_one=at_one,
        frac=frac,
        at_zero_mu0=at_zero_mu0,
        at_one_mu0=at_one_mu0,
        grad_zero=grad_zero,
        p1=p1,
        p2=p2,
        p3=p3,
        p4=p4,
        local_min=local,
        witness=witness,
    )


def check_strict(problem, x) -> KktAssessment:
    """Fill the strictness flags c1-c3 on top of the local classification."""
    x = np.asarray(x, dtype=float)
    tol = _scale_tol(problem)
    a = check_local_min(problem, x)
    g = problem.grad(x)
    _, at_lo, at_hi = _budget_state(problem, x)

    a.c1 = a.frac.size == 0
    min_zero = float(np.min(g[a.at_zero])) if a.at_zero.size else np.inf
    max_one = float(np.max(g[a.at_one])) if a.at_one.size else -np.inf
    a.c2 = min_zero - max_one > tol

    a.c3 = True
    if problem.lo < problem.hi and a.grad_zero.size:
        kkt_at_zero_lam = check_first_order(problem, x, 0.0, g)
        if kkt_at_zero_lam:
            pinned_hi = at_hi and np.all(x[a.grad_zero] <= X_TOL)
            pinned_lo = at_lo and np.all(x[a.grad_zero] >= 1.0 - X_TOL)
            a.c3 = bool(pinned_hi or pinned_lo)

    a.strict = bool(a.local_min and a.c1 and a.c2 and a.c3)
    return a


def descent_direction(problem, x, assessment: KktAssessment):
    """Feasible direction with a strictly negative quadratic term, or None.

    Pair violations give d = +/-(e_i - e_j); budget-slack violations give
    d = +/-e_i.  The sign keeps x + alpha d feasible for small alpha > 0 and
    the returned cap is the largest feasible step, where the move quadratic
    keeps decreasing since its first-derivative term vanishes at a
    stationary point.
    """
    if assessment.witness is None:
        return None
    x = np.asarray(x, dtype=float)
    n = problem.n
    s, at_lo, at_hi = _budget_state(problem, x)
    kind = assessment.witness[0]

    if kind in ("p2", "p3"):
        _, i, j = assessment.witness
        if x[i] < 1.0 - X_TOL and x[j] > X_TOL:
            up, down = i, j
        elif x[j] < 1.0 - X_TOL and x[i] > X_TOL:
            up, down = j, i
        else:  # pragma: no cover - witnesses always leave one movable pairing
            return None
        d = np.zeros(n)
        d[up] = 1.0
        d[down] = -1.0
        alpha = min(1.0 - x[up], x[down])
        return d, float(alpha)

    _, case, i = assessment.witness
    d = np.zeros(n)
    up_room = min(1.0 - x[i], problem.hi - s)
    down_room = min(x[i], s - problem.lo)
    if case == "b":
        d[i] = -1.0
        alpha = down_room
    elif case == "c":
        d[i] = 1.0
        alpha = up_room
    else:
        if up_room >= down_room:
            d[i] = 1.0
            alpha = up_room
        else:
            d[i] = -1.0
            alpha = down_room
    if alpha <= 0.0:  # pragma: no cover
        return None
    return d, float(alpha)
