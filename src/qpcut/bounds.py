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

Every shift is certified positive semidefinite by an attempted Cholesky
factorization (with a recorded tolerance shift), so the resulting bounds are
sound regardless of how accurately the inner solvers converged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    kind 'eig' stores a constant shift (lam = sigma * ones); kind 'sdp'
    stores the trace-minimized diagonal.  psd_tol is the tolerance shift at
    which Diag(lam) - M passed Cholesky (0.0 means it factored exactly).
    warning is set when the inner SDP solver did not converge and the
    returned shift comes from the repaired best iterate (still certified).
    """

    lam: np.ndarray
    kind: str
    psd_tol: float
    warning: bool = False

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def sigma(self) -> float:
        if self.kind != "eig":
            raise AttributeError("sigma is only defined for the scalar ('eig') shift")
        return float(self.lam[0]) if self.lam.size else 0.0

    def restrict(self, idx) -> np.ndarray:
        """Shift restricted to a coordinate subset.

        A principal submatrix of a PSD matrix is PSD, so the restriction is
        certified by the same tolerance as the full shift.
        """
        return self.lam[np.asarray(idx, dtype=int)]


# ----------------------------------------------------------------------------
# PSD certification helpers
# ----------------------------------------------------------------------------


def _check_sym(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
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


def _lambda_max_estimate(m: np.ndarray) -> float:
    """Largest eigenvalue; a separate function so tests can feed a bad estimate."""
    return float(np.linalg.eigvalsh(m)[-1]) if m.shape[0] else 0.0


_SIGMA_MARGIN = 1e-6  # relative safety margin on top of lambda_max


def sigma_shift(m) -> DcShift:
    """Scalar shift sigma = max(0, lambda_max(M)) with a relative safety margin.

    The returned sigma is certified (sigma*I - M factors, possibly with the
    recorded tolerance shift); on certification failure sigma grows
    geometrically, which terminates because any value at or above the
    Gershgorin bound is diagonally dominant.
    """
    m = _check_sym(m)
    n = m.shape[0]
    scale = max(1.0, float(np.abs(m).sum(axis=1).max())) if n else 1.0
    est = max(0.0, _lambda_max_estimate(m))
    sigma = est * (1.0 + _SIGMA_MARGIN)
    for _ in range(200):
        tol = _psd_certificate(sigma * np.eye(n) - m, scale)
        if tol is not None:
            return DcShift(lam=np.full(n, sigma), kind="eig", psd_tol=tol)
        sigma = 2.0 * sigma + _SIGMA_MARGIN * scale
    raise RuntimeError("could not certify a scalar shift")  # pragma: no cover


def sdp_shift(m) -> DcShift:
    """Trace-minimal diagonal shift via a barrier Newton method.

    Minimizes sum(lam) subject to Diag(lam) - M PSD.  The nonnegativity
    constraint lam >= 0 is implied whenever diag(M) >= 0 (the diagonal of a
    PSD matrix is nonnegative) and is added as an extra barrier term only
    when some diagonal entry of M is negative.

    The Hessian of -logdet(Diag(lam) - M) with respect to lam is the
    elementwise square of the slack inverse, so each Newton step costs one
    n x n solve.  A mandatory repair step (uniform lift by the most negative
    slack eigenvalue) plus the Cholesky certificate make the result sound
    even if the solver stalls; the warning flag records a stall.
    """
    m = _check_sym(m)
    n = m.shape[0]
    if n == 0:
        return DcShift(lam=np.zeros(0), kind="sdp", psd_tol=0.0)
    scale = max(1.0, float(np.abs(m).sum(axis=1).max()))
    gap_tol = min(1e-7 * scale, 5e-7)
    barrier_pos = bool(np.min(np.diag(m)) < 0.0)
    lam = np.full(n, float(np.abs(m).sum(axis=1).max()) + 1.0)
    t = 1.0 / scale
    warning = False

    def phi(lam_try, tcur):
        s = np.diag(lam_try) - m
        try:
            chol = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return None
        if barrier_pos and np.any(lam_try <= 0.0):
            return None
        val = tcur * lam_try.sum() - 2.0 * float(np.log(np.diag(chol)).sum())
        if barrier_pos:
            val -= float(np.log(lam_try).sum())
        return val

    overflow = False
    for _outer in range(80):
        for _inner in range(200):
            s = np.diag(lam) - m
            sinv = np.linalg.inv(s)
            grad = t * np.ones(n) - np.diag(sinv)
            hess = sinv * sinv
            if barrier_pos:
                grad -= 1.0 / lam
                hess = hess + np.diag(1.0 / lam**2)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                warning = True
                break
            dec2 = float(-grad @ step)
            if dec2 <= 1e-11:
                break
            f0 = phi(lam, t)
            if f0 is None:
                # the slack does not factor at the current iterate (entries
                # near the float range): stop and go to the repair step
                overflow = True
                break
            a = 1.0
            while a > 1e-16:
                f1 = phi(lam + a * step, t)
                if f1 is not None and f1 <= f0 - 0.25 * a * dec2:
                    break
                a *= 0.5
            else:
                warning = True
                break
            lam = lam + a * step
        if overflow:
            warning = True
            break
        if n / t <= gap_tol:
            break
        t *= 10.0
    else:  # pragma: no cover - t grows tenfold per pass, 80 passes suffice
        warning = True

    # Mandatory repair: lift uniformly by the most negative slack eigenvalue.
    eigmin = float(np.linalg.eigvalsh(np.diag(lam) - m)[0])
    if eigmin < 0.0:
        lam = lam + (abs(eigmin) + 1e-12 * scale)
    lam = np.maximum(lam, 0.0)
    tol = _psd_certificate(np.diag(lam) - m, scale)
    for _ in range(100):
        if tol is not None:
            break
        lam = lam + 1e-8 * scale
        tol = _psd_certificate(np.diag(lam) - m, scale)
    else:  # pragma: no cover
        raise RuntimeError("could not certify the diagonal shift")
    return DcShift(lam=lam, kind="sdp", psd_tol=tol, warning=warning)


# ----------------------------------------------------------------------------
# Affine underestimate and the convex relaxation
# ----------------------------------------------------------------------------


def affine_underestimate(shift, fset: FeasibleSet):
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
    lam = np.asarray(getattr(shift, "lam", shift), dtype=float)
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
    (const + offset) + (lin + slope) . x - x^T (quad - Diag(lam)) x
    on the same coordinates, window and feasible set.  Its Hessian
    2 (Diag(lam) - quad) is PSD: lam is the shift certified for the full
    matrix, restricted to the free coordinates (in the subproblem's order),
    and a principal submatrix of a PSD matrix is PSD, so no per-node
    re-solve is needed.  certified_lower_bound recomputes the exact gradient
    at the final point, so a loosely converged solve costs tightness, never
    soundness.
    """
    lam = shift.restrict(reduced.free)
    slope, offset = affine_underestimate(lam, reduced.fset)
    return replace(
        reduced, quad=reduced.quad - np.diag(lam), lin=reduced.lin + slope,
        const=reduced.const + offset,
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
    x = np.asarray(x, dtype=float)
    if not rel.fset.contains(x, tol=1e-7):
        raise ValueError("the reference point is infeasible")
    g = rel.grad(x)
    y = greedy_linear_min(g, rel.lo, rel.hi)
    return float(rel.value(x) + g @ (y - x))
