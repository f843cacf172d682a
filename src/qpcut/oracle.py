"""Exhaustive exact solver for desk-scale verification."""

from __future__ import annotations

import numpy as np

from .graph import PartitionSpec, WeightedGraph

__all__ = ["brute_force"]

MAX_N = 24
CHUNK = 1 << 14


def brute_force(graph: WeightedGraph, spec: PartitionSpec):
    """Minimum cut over all binary side vectors with l <= sum <= u.

    Returns (value, side).  Enumeration is vectorized in chunks of bitmask
    indices; ties keep the first pattern in enumeration order (coordinate i
    is bit i of the index, so the winner is the smallest index read as a
    little-endian bit string).  Guarded to n <= 24.
    """
    n = graph.n
    if n > MAX_N:
        raise ValueError(f"brute force is guarded to n <= {MAX_N}, got n = {n}")
    spec.validate_for(n)
    a = graph.weights
    with np.errstate(over="ignore"):
        total = np.abs(a).sum()
    if not np.isfinite(total):  # a finite total bounds every sum formed below
        raise ValueError("sum of |w_ij| is not finite: the weights are too large to add up")
    rowsum = a.sum(axis=1)
    bitpos = np.arange(n, dtype=np.int64)

    best_val = np.inf
    best_idx = -1
    total = 1 << n
    for start in range(0, total, CHUNK):
        idx = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        x = ((idx[:, None] >> bitpos) & 1).astype(float)
        count = x.sum(axis=1)
        keep = (count >= spec.l) & (count <= spec.u)
        if not keep.any():
            continue
        xk = x[keep]
        # cut(s) = rowsum . s - s^T A s, exact for integer weights
        vals = xk @ rowsum - np.einsum("ki,ij,kj->k", xk, a, xk, optimize=True)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_idx = int(idx[keep][j])
    if best_idx < 0:
        raise ValueError("no feasible side vector (empty budget window)")
    side = ((best_idx >> bitpos) & 1).astype(float)
    return best_val, side
