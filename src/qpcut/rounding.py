"""Constructive rounding: feasible point -> binary feasible point, f never up.

The diagonal of the quadratic matrix satisfies Q_ii + Q_jj >= 2 Q_ij and
Q_ii >= 0, which makes the second-order term of every move below nonpositive.
Two phases:

  1. While the budget sum is fractional, move one fractional coordinate
     (sign chosen against the first-derivative term) until it hits a box
     face or the budget reaches an integer.
  2. With an integer budget there are always zero or at least two fractional
     coordinates; move a pair along e_i - e_j (budget preserved, sign against
     the first-derivative difference) until one hits a face.

Each move fixes at least one coordinate or makes the budget integral, binary
coordinates are never touched, and the objective is asserted nonincreasing
per move.
"""

from __future__ import annotations

import numpy as np

__all__ = ["round_to_binary", "partition_from_binary"]

SNAP_TOL = 1e-9


def _snap_at(x, moved):
    """Set each x[k], k in moved, within SNAP_TOL of 0 or 1 to that bound, in place."""
    for k in moved:
        if abs(x[k]) <= SNAP_TOL:
            x[k] = 0.0
        elif abs(x[k] - 1.0) <= SNAP_TOL:
            x[k] = 1.0


def round_to_binary(problem, x) -> np.ndarray:
    """Binary feasible y with f(y) <= f(x); binary entries of x are kept.

    Each move's objective check and the next move's gradient come from one
    product mx = problem.matvec(x), by problem.value_from and
    problem.grad_from (the code of problem.value and problem.grad).  x is
    snapped once in full; after that a move snaps only the coordinates it
    changed.
    """
    fset = problem.fset
    x = np.asarray(x, dtype=float).copy()
    if not fset.contains(x, tol=1e-7):
        raise ValueError("input point is infeasible")
    x = np.clip(x, 0.0, 1.0)
    _snap_at(x, range(problem.n))
    mx = problem.matvec(x)
    fval = problem.value_from(x, mx)
    guard = 4 * problem.n + 8

    for _ in range(guard):
        frac = np.flatnonzero((x > 0.0) & (x < 1.0))
        budget = float(x.sum())
        budget_int = abs(budget - round(budget)) <= 1e-7
        if frac.size == 0:
            break
        if not budget_int:
            i = int(frac[0])
            gi = float(problem.grad_from(mx)[i])
            if gi < 0.0:
                alpha = min(1.0 - x[i], np.ceil(budget) - budget)
            else:
                alpha = -min(x[i], budget - np.floor(budget))
            x[i] += alpha
            moved = (i,)
        else:
            if frac.size == 1:
                # an integer budget with one fractional coordinate is float
                # residue; snap it to the nearer face
                i = int(frac[0])
                x[i] = round(x[i])
                mx = problem.matvec(x)
                continue
            i, j = int(frac[0]), int(frac[1])
            g = problem.grad_from(mx)
            if g[i] - g[j] < 0.0:
                alpha = min(1.0 - x[i], x[j])
            else:
                alpha = -min(x[i], 1.0 - x[j])
            x[i] += alpha
            x[j] -= alpha
            moved = (i, j)
        _snap_at(x, moved)
        mx = problem.matvec(x)
        fnew = problem.value_from(x, mx)
        if fnew > fval + 1e-9 * (1.0 + abs(fval)):
            raise RuntimeError("rounding move increased the objective")
        fval = fnew
    else:  # pragma: no cover - each move fixes a coordinate or the budget
        raise RuntimeError("rounding did not terminate")

    x = np.round(x)
    if not fset.contains(x, tol=1e-7):  # pragma: no cover
        raise RuntimeError("rounded point left the feasible set")
    return x


def partition_from_binary(y):
    """Vertex index lists (V0, V1) from a binary side vector."""
    y = np.asarray(y, dtype=float)
    r = np.round(y)
    if np.any(np.abs(y - r) > SNAP_TOL) or not np.all((r == 0.0) | (r == 1.0)):
        raise ValueError("input vector must be binary")
    v0 = np.flatnonzero(r == 0.0)
    v1 = np.flatnonzero(r == 1.0)
    return v0.tolist(), v1.tolist()
