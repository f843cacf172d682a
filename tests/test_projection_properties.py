"""Property tests for the breakpoint-search projection onto box plus budget."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qpcut as qc
from helpers import projection_oracle

EPS = np.finfo(float).eps


@st.composite
def projection_cases(draw, max_n, max_scale=1e12, centers=None):
    """(x, FeasibleSet) with non-unit boxes, p == q coordinates, random
    windows lo <= hi (also beyond what the box reaches), |x| up to max_scale,
    and exactly tied breakpoints x_i - q_i == x_j - p_j."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())  # coarse dyadic data: many exact ties
    p = rng.uniform(-4.0, 4.0, n)
    width = rng.uniform(0.0, 4.0, n)
    width[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0  # p == q
    scales = [s for s in (1.0, 10.0, 1e3, 1e6, 1e12) if s <= max_scale]
    spread = draw(st.sampled_from(scales))
    center = draw(st.sampled_from(centers or scales))
    x = rng.uniform(-1.0, 1.0, n) * spread + rng.uniform(-1.0, 1.0) * center
    if grid:
        p, width, x = (np.round(v * 2.0) / 2.0 for v in (p, width, x))
    q = p + width
    for _ in range(draw(st.integers(0, n // 2))):  # tie the two breakpoint kinds
        i, j = rng.integers(0, n, 2)
        x[i] = x[j] - p[j] + q[i]
    psum, qsum = float(p.sum()), float(q.sum())
    ends = [psum - 1.0, psum, qsum, qsum + 1.0]
    lo = draw(st.sampled_from(ends[:3]) | st.floats(psum - 1.0, qsum))
    least = max(lo, psum)  # keeps the set nonempty
    hi = draw(
        st.sampled_from([e for e in ends if e >= least] + [least]) | st.floats(least, qsum + 1.0)
    )
    return x, qc.FeasibleSet(p, q, lo, hi)


def budget_target(x, fs):
    """The budget bound the projection must meet exactly, or None."""
    s = np.clip(x, fs.p, fs.q).sum()
    if s > fs.hi:
        return fs.hi
    if s < fs.lo:
        return fs.lo
    return None


def rounding_slack(fs, *xs):
    # y_i = x_i - theta cancels: absolute error grows with |x| and with n
    big = max(1.0, *(float(np.abs(x).max()) for x in xs), abs(fs.lo), abs(fs.hi))
    return 64.0 * EPS * big * fs.dim


@given(projection_cases(max_n=60))
def test_projection_feasible_and_exact_budget(case):
    x, fs = case
    y = qc.project(x, fs)
    assert y.shape == x.shape
    assert np.all(y >= fs.p) and np.all(y <= fs.q)
    target = budget_target(x, fs)
    if target is None:
        assert np.array_equal(y, np.clip(x, fs.p, fs.q))
    else:
        assert abs(y.sum() - target) <= 1e-12 * max(1.0, abs(target))
    assert fs.contains(y, tol=1e-9)


@given(projection_cases(max_n=60, centers=[1e6, 1e12]))
def test_projection_exact_budget_far_from_the_box(case):
    # theta ~ |x|: y = x - theta cancels, and only the y-space polish can
    # bring the budget sum to full precision
    x, fs = case
    y = qc.project(x, fs)
    target = budget_target(x, fs)
    if target is not None:
        assert abs(y.sum() - target) <= 1e-12 * max(1.0, abs(target))
    assert fs.contains(y, tol=1e-9)


@given(projection_cases(max_n=60))
def test_projection_idempotent(case):
    x, fs = case
    y = qc.project(x, fs)
    assert np.abs(qc.project(y, fs) - y).max() <= 1e-11 * max(1.0, abs(fs.lo), abs(fs.hi))


@given(
    projection_cases(max_n=60),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-6, 1e-2, 1.0, 1e3]),
)
def test_projection_nonexpansive(case, seed, step):
    a, fs = case
    b = a + np.random.default_rng(seed).standard_normal(a.size) * step
    pa, pb = qc.project(a, fs), qc.project(b, fs)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + rounding_slack(fs, a, b)


@given(projection_cases(max_n=5, max_scale=1e3))
def test_projection_matches_oracle(case):
    x, fs = case
    want = projection_oracle(x, fs)
    assert want is not None
    assert np.allclose(qc.project(x, fs), want, rtol=0.0, atol=1e-7)


@settings(max_examples=25)
@given(projection_cases(max_n=2000))
def test_projection_large_n(case):
    x, fs = case
    y = qc.project(x, fs)
    assert fs.contains(y, tol=1e-9)
    target = budget_target(x, fs)
    if target is not None:
        assert abs(y.sum() - target) <= 1e-12 * max(1.0, abs(target))
    assert np.abs(qc.project(y, fs) - y).max() <= 1e-11 * max(1.0, abs(fs.lo), abs(fs.hi))


@given(
    projection_cases(max_n=30, max_scale=1e3),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 1.0, 10.0]),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)
def test_projected_step_bounds_the_unit_step_residual(case, seed, gscale, e1, e2):
    # For x in the set, ||P(x - a g) - x|| is nondecreasing in a and
    # ||P(x - a g) - x|| / a nonincreasing (Calamai & More 1987, Lemma 2.2),
    # so the unit-step residual is at least min(1, 1/a) ||P(x - a g) - x||:
    # the gradient projection loop skips the residual on that bound.
    z, fs = case
    x = qc.project(z, fs)
    g = np.random.default_rng(seed).standard_normal(x.size) * gscale
    a1, a2 = sorted((10.0**e1, 10.0**e2))

    def step(a):
        return np.linalg.norm(qc.project(x - a * g, fs) - x)

    slack = 1e-12 + rounding_slack(fs, x - a2 * g)
    residual = step(1.0)
    for a in (a1, a2):
        assert residual >= min(1.0, 1.0 / a) * step(a) - slack
    assert step(a1) <= step(a2) + slack
    assert step(a2) / a2 <= step(a1) / a1 + slack / a1
