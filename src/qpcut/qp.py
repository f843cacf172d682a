"""Continuous quadratic formulation of the cut problem and subproblem reduction.

The objective is f(x) = (1 - x)^T M x with M = A + Diag(d), minimized over
the unit box intersected with a budget window l <= sum(x) <= u.  At binary x
the value equals the cut weight of the induced partition.  Fixing a prefix of
vertices (in branching order) to binary values reduces the problem to the
same shape on the free coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .graph import PartitionSpec, WeightedGraph, build_diagonal_shift

__all__ = [
    "FeasibleSet",
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
        self._freeze(self.lo, self.hi, *_box_arrays(p, q))

    @classmethod
    def unit_box(cls, n: int, lo: float, hi: float) -> FeasibleSet:
        """[0, 1]^n with the window [lo, hi].

        Every unit box of one size shares its read-only arrays; only the
        window and is_empty are set per instance.
        """
        fset = object.__new__(cls)
        fset._freeze(lo, hi, *_unit_box_arrays(n))
        return fset

    def _freeze(self, lo, hi, p, q, bounds, steps, qsum, psum):
        lo, hi = float(lo), float(hi)
        fields = {
            "p": p,
            "q": q,
            "lo": lo,
            "hi": hi,
            "qsum": qsum,
            "is_empty": lo > qsum or hi < psum or lo > hi,
            "bounds": bounds,
            "steps": steps,
        }
        for name, val in fields.items():
            object.__setattr__(self, name, val)

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != self.p.shape:
            return False
        if (x < self.p - tol).any() or (x > self.q + tol).any():
            return False
        s = x.sum()
        slack = tol * max(1.0, self.dim)
        return self.lo - slack <= s <= self.hi + slack


def _box_arrays(p, q):
    """p, q, the bounds as rows [q, p] and the +1 / -1 steps, all read-only;
    then sum(q) and sum(p)."""
    bounds = np.stack((q, p))
    steps = np.repeat((1.0, -1.0), p.shape[0])
    for arr in (p, q, bounds, steps):
        arr.setflags(write=False)
    return p, q, bounds, steps, float(q.sum()), float(p.sum())


@functools.cache  # one entry per dimension
def _unit_box_arrays(n: int):
    return _box_arrays(np.zeros(n), np.ones(n))


@dataclass(frozen=True)
class ReducedQp:
    """The problem on the free coordinates after fixing some vertices.

    f(x) = const + lin . x - x^T (M - Diag(lam)) x, with the remaining
    budget window [lo, hi] (raw values; they may extend beyond what the box
    can reach).  free[k] is the vertex that coordinate k stands for.
    make_qp returns the root (every vertex free, const = 0) and reduce
    derives the rest; for those lam is None (no diagonal term).
    build_relaxation sets lam, so a relaxation keeps its subproblem's M (a
    view of the parent's) and matvec forms (M - Diag(lam)) x as
    M x - lam * x.  fset is built once here when not given, and
    build_relaxation passes it on, so the node relaxation (same coordinates
    and window) shares it.
    """

    free: np.ndarray
    M: np.ndarray
    lin: np.ndarray
    const: float
    lo: int
    hi: int
    fset: FeasibleSet | None = field(default=None, repr=False, compare=False)
    lam: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.fset is None:
            object.__setattr__(self, "fset", FeasibleSet.unit_box(self.n, self.lo, self.hi))

    @property
    def n(self) -> int:
        return self.free.shape[0]

    def matvec(self, x) -> np.ndarray:
        """(M - Diag(lam)) x."""
        mx = self.M @ x
        return mx if self.lam is None else mx - self.lam * x

    def value(self, x) -> float:
        x = _check_dim(x, self.n)
        return self.value_from(x, self.matvec(x))

    def grad(self, x) -> np.ndarray:
        x = _check_dim(x, self.n)
        return self.grad_from(self.matvec(x))

    def value_from(self, x, mx) -> float:
        """value(x) from mx = matvec(x), for a caller that holds both."""
        return float(self.const + self.lin @ x - x @ mx)

    def grad_from(self, mx) -> np.ndarray:
        """grad(x) from mx = matvec(x)."""
        return self.lin - 2.0 * mx


def _check_dim(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {x.shape}")
    return x


def make_qp(graph: WeightedGraph, spec: PartitionSpec) -> ReducedQp:
    """Root problem: M = A + Diag(d) with the standard diagonal shift, lin = M 1.

    M is symmetric with diag(M) >= 0 and M_ii + M_jj >= 2 M_ij by
    construction (WeightedGraph, build_diagonal_shift).
    """
    spec.validate_for(graph.n)
    m = graph.weights + np.diag(build_diagonal_shift(graph))
    # integer cut sums stay exact in floating point only below 2**53
    with np.errstate(over="ignore"):  # an overflowing sum fails the test as inf
        total = np.abs(m).sum()
    if not total < 2.0**53:
        raise ValueError("sum of |M_ij| must be below 2**53 for exact cut values")
    lin = m.sum(axis=1)
    m.setflags(write=False)
    lin.setflags(write=False)
    return ReducedQp(free=np.arange(graph.n), M=m, lin=lin, const=0.0, lo=spec.l, hi=spec.u)


_BINARY = frozenset((0.0, 1.0))


def reduce(problem: ReducedQp, label, order=None) -> ReducedQp:
    """Fix the first len(label) coordinates to the bits in `label`.

    Given an order, the coordinates are first permuted by it (one copy of M).
    The fixed block is then split off by slicing, so the child's M is a view of its
    parent's and lin and const cost O(n * len(label)).  Raises
    InfeasibleSubproblemError when the remaining budget window cannot be met
    (hi < 0 or lo > number of free coordinates).
    """
    if problem.lam is not None:
        raise ValueError("reduce takes a subproblem, not a relaxation")
    n = problem.n
    m, lin, free = problem.M, problem.lin, problem.free
    if order is not None:
        order = np.asarray(order, dtype=int)
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of range(n)")
        m, lin, free = m[np.ix_(order, order)], lin[order], free[order]
    bits = np.asarray(label, dtype=float)
    if bits.ndim != 1:
        raise ValueError("label must be a sequence of bits")
    if bits.size > n:
        raise ValueError("label longer than the vertex count")
    values = bits.tolist()  # a label is short: Python beats numpy's per-call cost
    if not _BINARY.issuperset(values):
        raise ValueError("label entries must be 0 or 1")

    i = bits.size
    ones = int(sum(values))
    lo = problem.lo - ones
    hi = problem.hi - ones
    if hi < 0 or lo > n - i:
        raise InfeasibleSubproblemError(
            f"label {tuple(int(b) for b in bits)} leaves budget [{lo}, {hi}] "
            f"for {n - i} free coordinates"
        )
    return ReducedQp(
        free=free[i:],
        M=m[i:, i:],
        lin=lin[i:] - 2.0 * (m[i:, :i] @ bits),
        const=problem.const + float(lin[:i] @ bits - bits @ (m[:i, :i] @ bits)),
        lo=lo,
        hi=hi,
    )
