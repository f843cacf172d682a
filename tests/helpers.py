"""Shared test utilities: instance corpus, independent oracles, samplers."""

from __future__ import annotations

import contextlib
import math

import numpy as np
from hypothesis import strategies as st

import qpcut as qc
from qpcut import projgrad
from qpcut.projgrad import (
    ALPHA_MAX, ALPHA_MIN, DESCENT_MAX_ITER, RESIDUAL_TOL, SOLVE_MAX_ITER, _face_minimiser,
    _face_step,
)

X_TOL = 1e-7


def path_graph(n=3):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return qc.WeightedGraph(w)


def complete_graph(n, weight=1.0):
    w = np.full((n, n), float(weight))
    np.fill_diagonal(w, 0.0)
    return qc.WeightedGraph(w)


def random_graph(n, density, seed, low=-3, high=10):
    """Random graph with possibly negative integer weights (oracle fodder)."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                val = 0.0
                while val == 0.0:
                    val = float(rng.integers(low, high + 1))
                w[i, j] = w[j, i] = val
    return qc.WeightedGraph(w)


def corpus(sizes="small"):
    """Deterministic instance list: (name, graph, spec) over all five families.

    'small' keeps n in {6..16} for oracle comparisons, with both bisection
    and an asymmetric window per graph (>= 200 runs in total).
    """
    graphs = []
    grid_shapes = [(2, 3), (2, 4), (3, 3), (2, 5), (2, 6), (3, 4), (2, 7), (3, 5), (2, 8), (4, 4)]
    for h, k in grid_shapes:
        for seed in (1, 2):
            graphs.append((f"toroidal-{h}x{k}-s{seed}", qc.gen_toroidal(h, k, seed)))
            graphs.append((f"planar-{h}x{k}-s{seed}", qc.gen_planar(h, k, seed)))
    for h, k in [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (2, 7), (3, 5), (2, 8)]:
        graphs.append((f"mixed-{h}x{k}", qc.gen_mixed(h, k, 3)))
    for n in (6, 8, 10, 12, 14, 16):
        for dens in (0.1, 0.3, 0.5, 0.8, 1.0):
            for seed in (1, 2):
                graphs.append((f"random-{n}-{dens}-s{seed}", qc.gen_random(n, dens, seed)))
    graphs.append(("debruijn-3", qc.gen_debruijn(3)))
    graphs.append(("debruijn-4", qc.gen_debruijn(4)))

    instances = []
    for name, g in graphs:
        n = g.n
        instances.append((f"{name}/bisect", g, qc.PartitionSpec(n // 2, (n + 1) // 2)))
        lo = max(1, n // 3)
        hi = min(n - 1, n // 2 + 2)
        instances.append((f"{name}/window", g, qc.PartitionSpec(lo, max(lo, hi))))
    return instances


@st.composite
def cut_instances(draw, max_n=10):
    """(graph, spec) with n <= max_n, signed weights, integral or fractional
    (thirds), and a window of width 0, 1 or more."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    w = rng.integers(-4, 10, (n, n)) * (rng.random((n, n)) < density)
    w = np.triu(w, 1).astype(float)
    if draw(st.booleans()):
        w /= 3.0
    width = draw(st.sampled_from([0, 1, None]))
    if width is None:
        width = draw(st.integers(2, n))
    lo = draw(st.integers(0, n - width))
    return qc.WeightedGraph(w + w.T), qc.PartitionSpec(lo, lo + width)


@st.composite
def node_problems(draw, kind, instances=cut_instances()):
    """(red, rel, x0, tol): a feasible node of a random instance (drawn from
    instances) in branching order, its relaxation under the given shift
    kind, and a feasible start."""
    g, spec = draw(instances)
    qp = qc.make_qp(g, spec)
    order = qc.order_vertices(g)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.zeros(g.n)  # a feasible point, whose prefix labels a feasible node
    y[rng.permutation(g.n)[: draw(st.integers(spec.l, spec.u))]] = 1.0
    label = tuple(y[order][: draw(st.integers(0, g.n - 1))])
    red = qc.reduce(qp, label, order)
    shift = qc.sdp_shift(qp.M) if kind == "sdp" else qc.sigma_shift(qp.M)
    rel = qc.build_relaxation(red, shift)
    x0 = qc.project(rng.random(red.n) * 1.5 - 0.25, rel.fset)
    return red, rel, x0, draw(st.sampled_from([1e-4, 1e-7]))


# Matrix Market files with a non-finite entry, which load_graph must reject
NON_FINITE_MTX = {
    # one NaN entry fails the symmetry test and used to load as K3 via S^T S
    "nan-symmetric": "%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n2 1 nan\n",
    # an inf entry used to add edges through S^T S, with a RuntimeWarning
    "inf-general": "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 inf\n1 2 1.0\n",
}

# Matrix Market files with finite entries that no real graph stands for, which
# load_graph must reject; each maps to (text, the error message it must match)
UNREADABLE_MTX = {
    # the cast to float dropped the imaginary part, with a ComplexWarning, and
    # with it edge 1-2
    "complex-symmetric": (
        "%%MatrixMarket matrix coordinate complex symmetric\n3 3 2\n2 1 0 2\n3 2 1 0\n",
        "complex",
    ),
    # entry (0, 1) of S^T S is exactly 0 but was formed as inf - inf = nan, an
    # edge that the same matrix scaled to +-1 does not have
    "overflow-general": (
        "%%MatrixMarket matrix coordinate real general\n2 3 4\n"
        "1 1 1e200\n2 1 1e200\n1 2 1e200\n2 2 -1e200\n",
        "overflows",
    ),
}


def fd_gradient(fun, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def random_feasible(problem, rng):
    """Uniform box sample projected onto the budget window."""
    x = rng.random(problem.n)
    return qc.project(x, problem.fset)


def projection_oracle(x, fset):
    """Brute-force active-set projection for small dimensions.

    Enumerates every assignment of coordinates to {lower, upper, free} and
    every budget state {inactive, at lo, at hi}; returns the feasible
    candidate closest to x.
    """
    import itertools

    n = fset.dim
    best = None
    best_d = np.inf
    for states in itertools.product((0, 1, 2), repeat=n):
        fixed = np.zeros(n)
        free = []
        for i, st in enumerate(states):
            if st == 0:
                fixed[i] = fset.p[i]
            elif st == 1:
                fixed[i] = fset.q[i]
            else:
                free.append(i)
        free = np.array(free, dtype=int)
        for budget in (None, fset.lo, fset.hi):
            y = fixed.copy()
            if free.size:
                if budget is None:
                    y[free] = x[free]
                else:
                    theta = (x[free].sum() - (budget - fixed.sum())) / free.size
                    y[free] = x[free] - theta
            elif budget is not None and abs(fixed.sum() - budget) > 1e-9:
                continue
            if not fset.contains(y, tol=1e-9):
                continue
            d = float(np.sum((y - x) ** 2))
            if d < best_d - 1e-15:
                best_d = d
                best = y
    return best


def reference_gp_loop(problem, x0, tol, max_iter, cutoff=None, project=qc.project,
                      face_step=None, faces=None, stepped=False):
    """qpcut.projgrad._gp_loop written out from problem.value and problem.grad
    instead of one product per iterate, from the feasible start x0.  A pass
    takes the face step (when face_step is given: qpcut.projgrad._face_step
    follows a relaxation's loop, with the face table faces or a new one),
    except on the first pass when stepped (x0 is then the face minimiser),
    then the cutoff test where f(x) is above the cutoff, projects x - g for
    the exact residual and, unless it stops first, x - alpha g for the step.
    Returns (report, bound) like that loop; project can count the calls."""
    fset = problem.fset
    faces = {} if faces is None else faces
    x = np.asarray(x0, dtype=float).copy()
    g = problem.grad(x)
    gmax = float(np.abs(g).max()) if g.size else 0.0
    alpha = 1.0 if gmax == 0.0 else 1.0 / gmax
    alpha = min(max(alpha, ALPHA_MIN), ALPHA_MAX)

    iterations = 0
    bound = None
    last = math.inf
    for iterations in range(max_iter + 1):
        y = None
        if face_step is not None and (iterations > 0 or not stepped):
            y = face_step(problem, fset, x, g, faces)
        if y is not None:
            x = y
            g = problem.grad(x)
        value = problem.value(x)
        if cutoff is not None and value > cutoff:
            cert = qc.certified_lower_bound(problem, x)
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
            stop = "floor"
            break
        last = value
        d = project(x - alpha * g, fset) - x
        a = float(g @ d)
        if not a < 0.0:
            stop = "floor"
            break
        hd = -2.0 * problem.matvec(d)
        b = float(d @ hd)
        t = min(1.0, -a / b) if b > 0.0 else 1.0
        x = x + t * d
        g = problem.grad(x)
        alpha = float(d @ d) / b if t * t * b > 1e-30 else ALPHA_MAX
        alpha = min(max(alpha, ALPHA_MIN), ALPHA_MAX)
    return qc.SolveReport(x=x, iterations=iterations, stop=stop), bound


def reference_solve_convex(rel, x0=None, tol=RESIDUAL_TOL, max_iter=SOLVE_MAX_ITER,
                           cutoff=None, *, _faces=None, project=qc.project):
    """qpcut.solve_convex on reference_gp_loop, with the final bound from
    qpcut.certified_lower_bound; _faces is forwarded as its face table.  The
    loop starts at the point of _face_minimiser when that accepts one, and
    otherwise at the projection of x0, or of the box centre when x0 is None;
    project can count the calls."""
    faces = {} if _faces is None else _faces
    x = _face_minimiser(rel, rel.fset, faces)
    stepped = x is not None
    if not stepped:
        x = project(np.full(rel.n, 0.5) if x0 is None else x0, rel.fset)
    report, bound = reference_gp_loop(rel, x, tol, max_iter, cutoff, project,
                                      face_step=_face_step, faces=faces, stepped=stepped)
    if bound is None:
        bound = qc.certified_lower_bound(rel, report.x)
    return report, bound


@contextlib.contextmanager
def counted_projections():
    """Count the calls to projgrad.project inside the block (the reference
    solvers count when they are given projgrad.project there)."""
    calls = [0]

    def counting(x, fset):
        calls[0] += 1
        return qc.project(x, fset)

    projgrad.project = counting
    try:
        yield calls
    finally:
        projgrad.project = qc.project


def reference_greedy_linear_min(c, lo: int, hi: int) -> np.ndarray:
    """qpcut.greedy_linear_min as it was written before its one-assignment form."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lo = max(int(lo), 0)
    hi = min(int(hi), n)
    if lo > hi:
        raise ValueError(f"infeasible budget [{lo}, {hi}] for {n} coordinates")
    order = np.argsort(c, kind="stable")
    y = np.zeros(n)
    is_neg = c[order] < 0.0
    neg = order[is_neg][:hi]
    y[neg] = 1.0
    count = neg.size
    if count < lo:
        pad = order[~is_neg][: lo - count]
        y[pad] = 1.0
    return y


def reference_contains(fset, x, tol: float = 1e-9) -> bool:
    """qpcut.FeasibleSet.contains as it was written before it kept its
    shifted bounds per tol."""
    x = np.asarray(x, dtype=float)
    if x.shape != fset.p.shape:
        return False
    if np.logical_or.reduce(x < fset.p - tol) or np.logical_or.reduce(x > fset.q + tol):
        return False
    s = np.add.reduce(x)
    slack = tol * max(1.0, fset.dim)
    return fset.lo - slack <= s <= fset.hi + slack


def reference_descend_nonconvex(problem, x0, tol=RESIDUAL_TOL, max_iter=DESCENT_MAX_ITER):
    """qpcut.descend_nonconvex on reference_gp_loop."""
    return reference_gp_loop(problem, x0, tol, max_iter)[0]


def subtree_minima(g, spec, order):
    """Exact minimum completion value for every branching-tree label.

    levels[d][key] is the minimum feasible cut over all binary vectors whose
    first d coordinates in branching order spell out the label with
    key = sum(label[j] << j); infeasible subtrees hold +inf.  Computed by one
    full enumeration and a fold from the leaves up.
    """
    n = g.n
    idx = np.arange(1 << n, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(n)) & 1).astype(float)
    count = bits.sum(axis=1)
    a = g.weights
    vals = bits @ a.sum(axis=1) - np.einsum("ki,ij,kj->k", bits, a, bits, optimize=True)
    vals = np.where((count >= spec.l) & (count <= spec.u), vals, np.inf)

    key = np.zeros(1 << n, dtype=np.int64)
    for j, v in enumerate(order):
        key |= ((idx >> int(v)) & 1) << j
    perm = np.empty(1 << n)
    perm[key] = vals
    levels = [None] * (n + 1)
    levels[n] = perm
    for d in range(n - 1, -1, -1):
        half = 1 << d
        levels[d] = np.minimum(levels[d + 1][:half], levels[d + 1][half:])
    return levels


def label_key(label):
    return sum(int(b) << j for j, b in enumerate(label))


def improving_move_exists(problem, x, tol=None):
    """Local-descent oracle over the move classes +/-e_i and +/-(e_i - e_j).

    A move improves locally when its first-derivative term is negative, or
    vanishes while its curvature term is negative.  This is checked for
    every move that keeps x + alpha d feasible for small alpha > 0.
    """
    if tol is None:
        q = problem.M
        tol = 1e-6 * max(1.0, float(np.abs(q).sum(axis=1).max()))
    x = np.asarray(x, dtype=float)
    g = problem.grad(x)
    q = problem.M
    d = np.diag(q)
    n = problem.n
    s = float(x.sum())

    def descends(a, c):
        return a < -tol or (abs(a) <= tol and c < -tol)

    can_up = lambda i: x[i] < 1.0 - X_TOL
    can_dn = lambda i: x[i] > X_TOL
    room_up = s < problem.hi - X_TOL
    room_dn = s > problem.lo + X_TOL

    for i in range(n):
        if can_up(i) and room_up and descends(g[i], -d[i]):
            return True
        if can_dn(i) and room_dn and descends(-g[i], -d[i]):
            return True
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if can_up(i) and can_dn(j):
                curv = 2.0 * q[i, j] - d[i] - d[j]
                if descends(g[i] - g[j], curv):
                    return True
    return False
