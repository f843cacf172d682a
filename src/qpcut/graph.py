"""Weighted graphs: container, file formats, and benchmark instance generators.

Vertices are 0-based in memory; the edge-list text format uses 1-based
indices.  Weight matrices are stored dense, symmetric, with a zero diagonal;
weights may be negative (max-cut style instances are allowed).

All random generators use ``numpy.random.default_rng(seed)`` (PCG64), so a
given (kind, parameters, seed) triple is bit-reproducible across platforms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse

__all__ = [
    "GraphFormatError",
    "WeightedGraph",
    "PartitionSpec",
    "load_graph",
    "save_edge_list",
    "build_diagonal_shift",
    "cut_weight",
    "gen_toroidal",
    "gen_planar",
    "gen_mixed",
    "gen_random",
    "gen_debruijn",
]


class GraphFormatError(ValueError):
    """A graph file could not be parsed or violates the format rules."""


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected edge-weighted graph as a dense symmetric matrix.

    ``weights[i, j]`` is the weight of edge (i, j) and 0 when the edge is
    absent.  The matrix is validated and made read-only at construction, so
    instances are immutable and safe to share across threads.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValueError("graph needs at least one vertex")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weight matrix must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("diagonal must be zero (self loops are not allowed)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.weights, k=1)))

    @property
    def is_integral(self) -> bool:
        return bool(np.all(self.weights == np.round(self.weights)))

    def density_percent(self) -> float:
        """Percent of nonzero off-diagonal entries, 0 for a single vertex."""
        if self.n < 2:
            return 0.0
        return 100.0 * (2 * self.num_edges) / (self.n * (self.n - 1))


@dataclass(frozen=True)
class PartitionSpec:
    """Side-size window: one side of the partition must hold between l and u vertices."""

    l: int
    u: int

    def __post_init__(self):
        if int(self.l) != self.l or int(self.u) != self.u:
            raise ValueError("l and u must be integers")
        object.__setattr__(self, "l", int(self.l))
        object.__setattr__(self, "u", int(self.u))
        if not 0 <= self.l <= self.u:
            raise ValueError(f"need 0 <= l <= u, got l={self.l}, u={self.u}")

    def validate_for(self, n: int) -> None:
        if self.u > n:
            raise ValueError(f"u={self.u} exceeds the vertex count {n}")


def _matrix_from_edges(n, edges, combine="error"):
    """Dense symmetric matrix from (i, j, w) triples (0-based, i != j).

    combine='error' rejects duplicate pairs (file input); combine='sum' adds
    parallel edges (degenerate grid generators).
    """
    w = np.zeros((n, n))
    seen = set()
    for i, j, val in edges:
        key = (min(i, j), max(i, j))
        if combine == "error":
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({i + 1}, {j + 1})")
            seen.add(key)
            w[i, j] = val
            w[j, i] = val
        else:
            w[i, j] += val
            w[j, i] += val
    return w


# ----------------------------------------------------------------------------
# File input/output
# ----------------------------------------------------------------------------


def load_graph(path, format=None) -> WeightedGraph:
    """Read a graph file.

    format 'el' is the edge-list text format: a header line "n m", then
    exactly m lines "i j w" with 1-based indices; '#' starts a comment.
    format 'mtx' is Matrix Market coordinate (real/integer/pattern,
    symmetric or general).  A symmetric matrix S becomes the 0/1 adjacency
    pattern of its off-diagonal support; a nonsymmetric (possibly
    rectangular) S becomes the 0/1 off-diagonal pattern of S^T S.

    When format is None it is inferred from the file extension.
    """
    if format is None:
        ext = os.path.splitext(path)[1].lower()
        if ext in (".el", ".txt", ".edges"):
            format = "el"
        elif ext in (".mtx", ".mm"):
            format = "mtx"
        else:
            raise GraphFormatError(f"cannot infer format from extension {ext!r}")
    if format == "el":
        return _load_edge_list(path)
    if format == "mtx":
        return _load_matrix_exchange(path)
    raise GraphFormatError(f"unknown format {format!r}")


def _load_edge_list(path) -> WeightedGraph:
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append((lineno, line.split()))
    if not rows:
        raise GraphFormatError(f"{path}: empty file")
    lineno, header = rows[0]
    if len(header) != 2:
        raise GraphFormatError(f"{path}:{lineno}: header must be 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"{path}:{lineno}: bad header: {exc}") from None
    if n < 1 or m < 0:
        raise GraphFormatError(f"{path}:{lineno}: bad sizes n={n}, m={m}")
    if len(rows) - 1 != m:
        raise GraphFormatError(f"{path}: header says {m} edges, found {len(rows) - 1}")

    edges = []
    for lineno, fields in rows[1:]:
        if len(fields) != 3:
            raise GraphFormatError(f"{path}:{lineno}: expected 'i j w'")
        try:
            i, j, w = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError as exc:
            raise GraphFormatError(f"{path}:{lineno}: {exc}") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphFormatError(f"{path}:{lineno}: vertex index out of range")
        if i == j:
            if w != 0.0:
                raise GraphFormatError(f"{path}:{lineno}: self loop with nonzero weight")
            continue
        edges.append((i - 1, j - 1, w))
    return WeightedGraph(_matrix_from_edges(n, edges, combine="error"))


def _load_matrix_exchange(path) -> WeightedGraph:
    try:
        s = scipy.io.mmread(path)
    except Exception as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
    if scipy.sparse.issparse(s):
        s = s.toarray()
    s = np.asarray(s, dtype=float)
    if s.ndim != 2:
        raise GraphFormatError(f"{path}: expected a matrix")
    if s.shape[0] == s.shape[1] and np.array_equal(s, s.T):
        pattern = (s != 0.0).astype(float)
    else:
        t = s.T @ s
        pattern = (t != 0.0).astype(float)
    np.fill_diagonal(pattern, 0.0)
    return WeightedGraph(pattern)


def save_edge_list(graph: WeightedGraph, path) -> None:
    """Write a graph in the edge-list text format (1-based indices)."""
    ii, jj = np.nonzero(np.triu(graph.weights, k=1))
    integral = graph.is_integral
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {len(ii)}\n")
        for i, j in zip(ii, jj):
            w = graph.weights[i, j]
            wtxt = str(int(w)) if integral else repr(float(w))
            fh.write(f"{i + 1} {j + 1} {wtxt}\n")


# ----------------------------------------------------------------------------
# Derived quantities
# ----------------------------------------------------------------------------


def build_diagonal_shift(graph: WeightedGraph) -> np.ndarray:
    """Diagonal vector d with d_j = max(0, max_i a_ij).

    This choice makes d_ii + d_jj >= 2 a_ij and d_ii >= 0 for every pair,
    which is what ties the continuous quadratic program to the discrete cut
    problem and keeps the rounding moves monotone.
    """
    return np.maximum(0.0, graph.weights.max(axis=0))


def cut_weight(graph: WeightedGraph, side) -> float:
    """Total weight of edges with endpoints on different sides.

    side is a binary vector; side[i] = 1 puts vertex i in V1.
    """
    s = np.asarray(side, dtype=float)
    if s.shape != (graph.n,):
        raise ValueError(f"side must have shape ({graph.n},), got {s.shape}")
    r = np.round(s)
    if np.any(np.abs(s - r) > 1e-9) or not np.all((r == 0.0) | (r == 1.0)):
        raise ValueError("side vector must be binary")
    return float(r @ graph.weights @ (1.0 - r))


# ----------------------------------------------------------------------------
# Instance generators
# ----------------------------------------------------------------------------


def gen_toroidal(h: int, k: int, seed: int) -> WeightedGraph:
    """h x k toroidal grid with integer weights uniform in [1, 10].

    Every vertex contributes a wrap-around right edge and a wrap-around down
    edge (2hk edge slots).  For h == 2 or k == 2 the two wrap edges between a
    pair coincide; their weights are summed into a single edge.
    """
    if h < 2 or k < 2:
        raise ValueError("toroidal grid needs h >= 2 and k >= 2")
    rng = np.random.default_rng(seed)
    edges = []
    for r in range(h):
        for c in range(k):
            u = r * k + c
            for v in (r * k + (c + 1) % k, ((r + 1) % h) * k + c):
                edges.append((u, v, int(rng.integers(1, 11))))
    return WeightedGraph(_matrix_from_edges(h * k, edges, combine="sum"))


def gen_planar(h: int, k: int, seed: int) -> WeightedGraph:
    """h x k planar grid (no wrap), 2hk - h - k edges, weights uniform in [1, 10]."""
    if h < 1 or k < 1 or h * k < 2:
        raise ValueError("planar grid needs at least two vertices")
    rng = np.random.default_rng(seed)
    edges = []
    for r in range(h):
        for c in range(k):
            u = r * k + c
            if c + 1 < k:
                edges.append((u, u + 1, int(rng.integers(1, 11))))
            if r + 1 < h:
                edges.append((u, u + k, int(rng.integers(1, 11))))
    return WeightedGraph(_matrix_from_edges(h * k, edges, combine="error"))


def gen_mixed(h: int, k: int, seed: int) -> WeightedGraph:
    """Complete graph on an h x k grid: grid edges get weights uniform in
    [1, 100], all remaining pairs get weights uniform in [1, 10].

    Grid-edge weights are drawn first (row-major edge order), then the
    remaining pairs in lexicographic order, from a single seeded stream.
    """
    if h < 1 or k < 1 or h * k < 2:
        raise ValueError("mixed grid needs at least two vertices")
    n = h * k
    rng = np.random.default_rng(seed)
    edges = []
    grid_pairs = set()
    for r in range(h):
        for c in range(k):
            u = r * k + c
            if c + 1 < k:
                grid_pairs.add((u, u + 1))
                edges.append((u, u + 1, int(rng.integers(1, 101))))
            if r + 1 < h:
                grid_pairs.add((u, u + k))
                edges.append((u, u + k, int(rng.integers(1, 101))))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in grid_pairs:
                edges.append((i, j, int(rng.integers(1, 11))))
    return WeightedGraph(_matrix_from_edges(n, edges, combine="error"))


def gen_random(n: int, density: float, seed: int) -> WeightedGraph:
    """Each pair kept independently with probability `density`; kept edges
    get integer weights uniform in [1, 10].  Pairs are visited in
    lexicographic order from a single seeded stream."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, int(rng.integers(1, 11))))
    return WeightedGraph(_matrix_from_edges(n, edges, combine="error"))


def gen_debruijn(order: int) -> WeightedGraph:
    """Binary de Bruijn graph on 2^order vertices.

    Directed arcs x -> 2x mod N and x -> 2x+1 mod N are symmetrized into the
    0/1 pattern of A + A^T with the diagonal zeroed.  Deterministic, no seed.
    """
    if order < 1:
        raise ValueError("need order >= 1")
    n = 1 << order
    a = np.zeros((n, n))
    for x in range(n):
        a[x, (2 * x) % n] = 1.0
        a[x, (2 * x + 1) % n] = 1.0
    sym = ((a + a.T) != 0.0).astype(float)
    np.fill_diagonal(sym, 0.0)
    return WeightedGraph(sym)
