"""Continuous quadratic formulation of the cut problem and subproblem reduction.

The objective is f(x) = (1 - x)^T M x with M = A + Diag(d), minimized over
the unit box intersected with a budget window l <= sum(x) <= u.  At binary x
the value equals the cut weight of the induced partition.  Fixing a prefix of
vertices (in branching order) to binary values reduces the problem to the
same shape on the free coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import PartitionSpec, WeightedGraph, build_diagonal_shift

__all__ = [
    "FeasibleSet",
    "QpProblem",
    "ReducedQp",
    "InfeasibleSubproblemError",
    "make_qp",
    "reduce",
]


class InfeasibleSubproblemError(ValueError):
    """The fixed prefix leaves no feasible completion."""


@dataclass(frozen=True)
class FeasibleSet:
    """Box p <= x <= q intersected with lo <= sum(x) <= hi.

    Immutable (read-only arrays), so one instance can be shared by every
    solve on the same subproblem.  What the projection needs besides p and q
    is computed once here, not on every call: the box sums, emptiness, the
    bounds stacked as rows [q, p] (so x - bounds holds the 2n breakpoints of
    the budget shift) and the matching +1 / -1 free-count steps.
    """

    p: np.ndarray
    q: np.ndarray
    lo: float
    hi: float
    qsum: float = field(init=False, repr=False, compare=False)
    is_empty: bool = field(init=False, repr=False, compare=False)
    bounds: np.ndarray = field(init=False, repr=False, compare=False)
    steps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        q = np.array(self.q, dtype=float)
        if p.shape != q.shape or p.ndim != 1:
            raise ValueError("p and q must be 1-d arrays of equal length")
        if np.any(p > q):
            raise ValueError("need p <= q componentwise")
        n = p.shape[0]
        qsum = float(q.sum())
        lo, hi = float(self.lo), float(self.hi)
        fields = {
            "p": p,
            "q": q,
            "lo": lo,
            "hi": hi,
            "qsum": qsum,
            "is_empty": lo > qsum or hi < float(p.sum()) or lo > hi,
            "bounds": np.stack((q, p)),
            "steps": np.repeat((1.0, -1.0), n),
        }
        for name, val in fields.items():
            if isinstance(val, np.ndarray):
                val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != self.p.shape:
            return False
        if np.any(x < self.p - tol) or np.any(x > self.q + tol):
            return False
        s = x.sum()
        slack = tol * max(1.0, self.dim)
        return self.lo - slack <= s <= self.hi + slack


@dataclass(frozen=True)
class QpProblem:
    """Full problem: minimize (1 - x)^T M x over the box plus budget window."""

    M: np.ndarray
    l: int
    u: int
    lin: np.ndarray = field(init=False)  # M @ 1, cached row sums

    def __post_init__(self):
        m = np.array(self.M, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("M must be square")
        if not np.array_equal(m, m.T):
            raise ValueError("M must be symmetric")
        # integer cut sums stay exact in floating point only below 2**53
        if not np.abs(m).sum() < 2.0**53:
            raise ValueError("sum of |M_ij| must be below 2**53 for exact cut values")
        d = np.diag(m)
        if np.any(d < 0.0):
            raise ValueError("diag(M) must be nonnegative")
        pair = d[:, None] + d[None, :] - 2.0 * m
        if pair.min() < -1e-9 * max(1.0, np.abs(m).max()):
            raise ValueError("M violates M_ii + M_jj >= 2 M_ij")
        if not 0 <= self.l <= self.u <= m.shape[0]:
            raise ValueError(f"need 0 <= l <= u <= n, got l={self.l}, u={self.u}")
        m.setflags(write=False)
        object.__setattr__(self, "M", m)
        lin = m.sum(axis=1)
        lin.setflags(write=False)
        object.__setattr__(self, "lin", lin)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def quad(self) -> np.ndarray:
        return self.M

    @property
    def lo(self) -> int:
        return self.l

    @property
    def hi(self) -> int:
        return self.u

    def value(self, x) -> float:
        x = _check_dim(x, self.n)
        return float(self.lin @ x - x @ (self.M @ x))

    def grad(self, x) -> np.ndarray:
        x = _check_dim(x, self.n)
        return self.lin - 2.0 * (self.M @ x)

    @cached_property
    def fset(self) -> FeasibleSet:
        return _unit_box_budget(self)


@dataclass(frozen=True)
class ReducedQp:
    """Subproblem on the free coordinates after fixing a binary prefix.

    f(x) = const + lin . x - x^T quad x, with the remaining budget window
    [lo, hi] (raw values; they may extend beyond what the box can reach).
    fset is built once here when not given, and dataclasses.replace passes
    it on, so a problem derived on the same coordinates and window (the node
    relaxation) shares it.
    """

    free: np.ndarray
    quad: np.ndarray
    lin: np.ndarray
    const: float
    lo: int
    hi: int
    fset: FeasibleSet | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.fset is None:
            object.__setattr__(self, "fset", _unit_box_budget(self))

    @property
    def n(self) -> int:
        return self.free.shape[0]

    def value(self, x) -> float:
        x = _check_dim(x, self.n)
        return float(self.const + self.lin @ x - x @ (self.quad @ x))

    def grad(self, x) -> np.ndarray:
        x = _check_dim(x, self.n)
        return self.lin - 2.0 * (self.quad @ x)


def _unit_box_budget(problem) -> FeasibleSet:
    n = problem.n
    return FeasibleSet(p=np.zeros(n), q=np.ones(n), lo=float(problem.lo), hi=float(problem.hi))


def _check_dim(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {x.shape}")
    return x


def make_qp(graph: WeightedGraph, spec: PartitionSpec) -> QpProblem:
    """Assemble M = A + Diag(d) with the standard diagonal shift."""
    spec.validate_for(graph.n)
    m = graph.weights + np.diag(build_diagonal_shift(graph))
    return QpProblem(M=m, l=spec.l, u=spec.u)


def reduce(qp: QpProblem, label, order=None) -> ReducedQp:
    """Fix the first len(label) vertices of `order` to the bits in `label`.

    Raises InfeasibleSubproblemError when the remaining budget window cannot
    be met (hi < 0 or lo > number of free coordinates).
    """
    n = qp.n
    if order is None:
        order = np.arange(n)
    order = np.asarray(order, dtype=int)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("order must be a permutation of range(n)")
    bits = np.asarray(label, dtype=float)
    if bits.size > n:
        raise ValueError("label longer than the vertex count")
    if bits.size and not np.all((bits == 0.0) | (bits == 1.0)):
        raise ValueError("label entries must be 0 or 1")

    i = bits.size
    fixed = order[:i]
    free = order[i:]
    ones = int(bits.sum())
    lo = qp.l - ones
    hi = qp.u - ones
    if hi < 0 or lo > free.size:
        raise InfeasibleSubproblemError(
            f"label {tuple(int(b) for b in bits)} leaves budget [{lo}, {hi}] "
            f"for {free.size} free coordinates"
        )

    m_ff = qp.M[np.ix_(free, free)]
    if i == 0:
        lin = qp.lin.copy()
        const = 0.0
    else:
        m_fp = qp.M[np.ix_(free, fixed)]
        m_pp = qp.M[np.ix_(fixed, fixed)]
        lin = qp.lin[free] - 2.0 * (m_fp @ bits)
        const = float(qp.lin[fixed] @ bits - bits @ (m_pp @ bits))
    return ReducedQp(free=free, quad=m_ff, lin=lin, const=const, lo=lo, hi=hi)
