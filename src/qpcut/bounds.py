"""Convex lower bounds via DC decompositions and affine underestimates.

The nonconvex objective f is split as (f + x^T S x) - x^T S x with a diagonal
S chosen so that the first part is convex: either S = sigma I with sigma at
least the largest eigenvalue of the quadratic matrix, or S = Diag(lam) from
the trace-minimal semidefinite program

    minimize sum(lam)  subject to  Diag(lam) - M >= 0 (PSD), lam >= 0.

The concave part -x^T S x is then replaced by its best affine underestimate
over the feasible set; over the unit box (with or without an exact budget
hyperplane) that underestimate is -lam . x with zero offset, because the
smallest enclosing sphere of the scaled box has ||center||^2 = radius^2.

Both shifts end in one certification tail (a uniform repair lift, then an
attempted Cholesky factorization with a recorded tolerance shift), so the
resulting bounds are sound regardless of how accurately the inner solvers
converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qp import FeasibleSet, ReducedQp

__all__ = [
    "DcShift",
    "sigma_shift",
    "sdp_shift",
    "affine_underestimate",
    "build_relaxation",
    "certified_lower_bound",
    "greedy_linear_min",
]


@dataclass(frozen=True)
class DcShift:
    """Certified diagonal shift making f(x) + x^T Diag(lam) x convex.

    sigma_shift returns a constant lam, sdp_shift the trace-minimized
    diagonal.  psd_tol is the tolerance shift at which Diag(lam) - M passed
    Cholesky (0.0 means it factored exactly).  warning is set when the SDP
    barrier method stalled and the returned shift comes from repairing its
    last iterate (still certified).
    """

    lam: np.ndarray
    psd_tol: float
    warning: bool = False

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)


# ----------------------------------------------------------------------------
# PSD certification helpers
# ----------------------------------------------------------------------------


def _check_sym(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    with np.errstate(over="ignore", invalid="ignore"):
        rowsum = np.abs(m).sum(axis=1)  # non-finite for any inf or nan entry too
    if not np.isfinite(rowsum).all():
        raise ValueError("matrix entries and absolute row sums must be finite")
    if not np.allclose(m, m.T, rtol=0.0, atol=0.0):
        raise ValueError("matrix must be symmetric")
    return m


def _psd_certificate(s: np.ndarray, scale: float):
    """Smallest tolerance shift in {0, 1e-8 * scale} at which s + tol*I factors.

    Returns None when neither factors; scale should be a norm of the matrix
    the shift was built for, so the tolerance meets the <= 1e-8 * ||M|| bound.
    """
    n = s.shape[0]
    if n == 0:
        return 0.0
    for tol in (0.0, 1e-8 * scale):
        try:
            np.linalg.cholesky(s + tol * np.eye(n) if tol else s)
            return tol
        except np.linalg.LinAlgError:
            continue
    return None


def _certified(m: np.ndarray, lam: np.ndarray, warning: bool = False) -> DcShift:
    """Certify Diag(lam) - M as PSD, repairing lam first; the tail of both shifts.

    lam is lifted uniformly by the most negative eigenvalue of Diag(lam) - M
    (plus 1e-12 * scale) and clamped at 0; raising diagonal entries keeps a
    PSD matrix PSD.  What rounding leaves is absorbed by Cholesky attempts at
    steps of 1e-8 * scale.  A lam that is already certified comes back
    unchanged.  A lam that overflows raises ValueError: Cholesky does not
    reject non-finite entries, so it would pass uncertified.
    """
    n = m.shape[0]
    scale = max(1.0, float(np.abs(m).sum(axis=1).max())) if n else 1.0
    eigmin = float(np.linalg.eigvalsh(np.diag(lam) - m)[0]) if n else 0.0
    if eigmin < 0.0:
        lam = lam + (abs(eigmin) + 1e-12 * scale)
    lam = np.maximum(lam, 0.0)
    for _ in range(100):
        if not np.isfinite(lam).all():
            raise ValueError("the diagonal shift is not finite: matrix entries too large")
        tol = _psd_certificate(np.diag(lam) - m, scale)
        if tol is not None:
            return DcShift(lam=lam, psd_tol=tol, warning=warning)
        lam = lam + 1e-8 * scale
    raise RuntimeError("could not certify the diagonal shift")  # pragma: no cover


def sigma_shift(m) -> DcShift:
    """Scalar shift sigma = lambda_max(M) + 1e-12 * scale, or 0 if lambda_max(M) <= 0.

    That is the certification tail applied to lam = 0: its uniform lift by
    the most negative eigenvalue of -M, then Cholesky.  A matrix with a
    non-finite entry or absolute row sum, or one whose shift overflows,
    raises ValueError.
    """
    m = _check_sym(m)
    return _certified(m, np.zeros(m.shape[0]))


def _center(m, lam, t, barrier_pos):
    """Damped Newton steps on the barrier function at t from lam (see sdp_shift).

    Returns (lam, centered); centered is False on a stall.  lam is centered
    when dec2 <= 1e-11, or when the step is no longer in the local norm than
    one ulp of lam: late on the path the smallest eigenvalue of
    Diag(lam) - M is near 1 / t, and the rounding of lam alone then leaves a
    decrement above 1e-11 that no step can remove.
    """
    for _ in range(200):
        try:
            linv = np.linalg.inv(np.linalg.cholesky(np.diag(lam) - m))
            sinv = linv.T @ linv
            grad = t - np.diag(sinv)
            hess = sinv * sinv
            if barrier_pos:
                grad -= 1.0 / lam
                hess += np.diag(1.0 / lam**2)
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return lam, False
        dec2 = float(-grad @ step)  # step^T hess step
        if not math.isfinite(dec2):
            return lam, False
        ulp = np.spacing(lam)
        if dec2 <= max(1e-11, float(ulp @ hess @ ulp)):
            return lam, True
        lam = lam + step / (1.0 + math.sqrt(dec2))
    return lam, False


def sdp_shift(m) -> DcShift:
    """Trace-minimal diagonal shift via a log-barrier method with damped Newton steps.

    Minimizes sum(lam) subject to Diag(lam) - M PSD along the central path
    of t * sum(lam) - logdet(Diag(lam) - M), t growing tenfold per pass
    until the duality gap n / t is below gap_tol.  The nonnegativity
    constraint lam >= 0 is implied whenever diag(M) >= 0 (the diagonal of a
    PSD matrix is nonnegative) and is added as an extra barrier term only
    when some diagonal entry of M is negative.

    Each Newton step factors S = Diag(lam) - M once by Cholesky, which both
    checks that lam is inside the cone and gives S^-1 = L^-T L^-1, hence the
    gradient t - diag(S^-1) and the Hessian S^-1 o S^-1.  The barrier is
    self-concordant, so the step scaled by 1 / (1 + delta), delta the Newton
    decrement, stays inside the cone and lowers the barrier function: no
    line search is needed.  A failed factorization or Hessian solve, a
    non-finite decrement or a pass that reaches its step cap is a stall:
    warning is set and the last iterate goes to the certification tail
    shared with sigma_shift, so the shift is certified either way.  Non-finite
    input raises ValueError, as in sigma_shift.
    """
    m = _check_sym(m)
    n = m.shape[0]
    if n == 0:
        return DcShift(lam=np.zeros(0), psd_tol=0.0)
    rowsum = float(np.abs(m).sum(axis=1).max())
    scale = max(1.0, rowsum)
    gap_tol = min(1e-7 * scale, 5e-7)
    barrier_pos = bool(np.min(np.diag(m)) < 0.0)
    lam = np.full(n, rowsum + 1.0)
    t = 1.0 / scale
    warning = True  # until the central path reaches gap_tol
    for _ in range(80):
        lam, centered = _center(m, lam, t, barrier_pos)
        if not centered:
            break
        if n / t <= gap_tol:
            warning = False
            break
        t *= 10.0
    return _certified(m, lam, warning)


# ----------------------------------------------------------------------------
# Affine underestimate and the convex relaxation
# ----------------------------------------------------------------------------


def affine_underestimate(lam, fset: FeasibleSet):
    """Best affine underestimate of -x^T Diag(lam) x over the unit box.

    With y = Lam^(1/2) x the concave part is -||y||^2.  Over any set inside
    the sphere with center c and radius r, -2 c . y + ||c||^2 - r^2
    underestimates it with gap r^2 - ||y - c||^2 >= 0, largest (r^2) at the
    center.  The smallest sphere containing Lam^(1/2) [0,1]^n has
    c = Lam^(1/2) 1 / 2 and r^2 = sum(lam) / 4 = ||c||^2, so the constant
    term vanishes and the slope in x is -lam.  Slicing by an exact budget
    hyperplane gives the same affine function on the slice (the extra
    constants cancel).  Zero shift entries get zero slope.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (fset.dim,):
        raise ValueError("shift dimension does not match the set")
    if np.any(lam < -1e-12):
        raise ValueError("shift entries must be nonnegative")
    return -lam, 0.0


def build_relaxation(reduced: ReducedQp, shift: DcShift) -> ReducedQp:
    """Convex relaxation of a subproblem, as a subproblem of the same form.

    The surrogate f_L(x) = f(x) + x^T Diag(lam) x + slope . x + offset, with
    (slope, offset) the affine underestimate of -x^T Diag(lam) x, is
    f_L <= f on the feasible set and is again a quadratic
    (const + offset) + (lin + slope) . x - x^T (M - Diag(lam)) x
    on the same coordinates, window and feasible set.  The diagonal term is
    carried as ReducedQp.lam rather than formed, so the relaxation's M is
    the subproblem's own (no O(n^2) copy per node).  Its Hessian
    2 (Diag(lam) - M) is PSD: lam is the shift certified for the full
    matrix, restricted to the free coordinates (in the subproblem's order),
    and a principal submatrix of a PSD matrix is PSD, so no per-node
    re-solve is needed.  The certificate takes the exact gradient at the
    final point, so a loosely converged solve costs tightness, never
    soundness.
    """
    lam = shift.lam[reduced.free]
    slope, offset = affine_underestimate(lam, reduced.fset)
    return ReducedQp(
        free=reduced.free, M=reduced.M, lin=reduced.lin + slope,
        const=reduced.const + offset, lo=reduced.lo, hi=reduced.hi, fset=reduced.fset, lam=lam,
    )


# ----------------------------------------------------------------------------
# Certified bound
# ----------------------------------------------------------------------------


def greedy_linear_min(c, lo: int, hi: int) -> np.ndarray:
    """Exact minimizer of c . y over {0 <= y <= 1, lo <= sum(y) <= hi}.

    The polytope has binary vertices for integer budgets, so the greedy rule
    is exact: take negative coefficients (most negative first) up to hi, then
    pad with the smallest nonnegative coefficients up to lo.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lo = max(int(lo), 0)
    hi = min(int(hi), n)
    if lo > hi:
        raise ValueError(f"infeasible budget [{lo}, {hi}] for {n} coordinates")
    order = np.argsort(c, kind="stable")
    y = np.zeros(n)
    neg = order[c[order] < 0.0][:hi]
    y[neg] = 1.0
    count = neg.size
    if count < lo:
        pad = order[c[order] >= 0.0][: lo - count]
        y[pad] = 1.0
    return y


def certified_lower_bound(rel: ReducedQp, x) -> float:
    """Sound lower bound on the subproblem from any feasible point.

    rel is the convex relaxation from build_relaxation: its Hessian is PSD by
    the restricted certificate, so f_L(y) >= f_L(x) + grad(x) . (y - x).
    Minimizing the right side exactly over the feasible set (a linear
    program solved by the greedy rule) yields a bound below min f_L, hence
    below the best binary completion, no matter how inexact x is as a
    relaxation solution; the gradient is recomputed exactly at x.
    """
    return _certificate(rel, np.asarray(x, dtype=float))


def _certificate(rel: ReducedQp, x: np.ndarray, g=None, value=None) -> float:
    """certified_lower_bound(rel, x); a caller that holds g = rel.grad(x) and
    value = rel.value(x) passes them.

    The gradient projection loop holds both at every iterate, taken from its
    one product M x by the code of rel.grad and rel.value, so the bound is
    the same float certified_lower_bound would return.
    """
    if not rel.fset.contains(x, tol=1e-7):  # before f_L is evaluated at x
        raise ValueError("the reference point is infeasible")
    if g is None:
        mx = rel.matvec(x)
        g, value = rel.grad_from(mx), rel.value_from(x, mx)
    y = greedy_linear_min(g, rel.lo, rel.hi)
    return float(value + g @ (y - x))
