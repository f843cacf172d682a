"""Property tests for the box-plus-budget projection: one-shift try and breakpoint search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpcut as qc
from qpcut import projgrad
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


@st.composite
def free_root_cases(draw, max_n, max_shift=1e12):
    """(x, FeasibleSet, z): z in the box with sum(z) the active window end,
    and x = z + c * 1, so that z is the projection of x and theta0 = c its
    one-shift root.  z is strictly inside the box except on p == q
    coordinates and, on dyadic grid data (where x - theta0 is exact), on
    coordinates placed on a bound: theta0 then lands exactly on it.  Unit
    and general boxes, shifts |c| up to max_shift, windows with the other
    end slack or tight."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    if draw(st.booleans()):
        p, width = np.zeros(n), np.ones(n)
    else:
        p = np.round(rng.uniform(-4.0, 4.0, n) * 4.0) / 4.0
        width = np.round(rng.uniform(0.0, 4.0, n) * 4.0) / 4.0
        width[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0  # p == q
    if grid:
        z = p + width * rng.integers(0, 5, n) / 4.0  # 0 and 4 quarters: on a bound
        c = draw(st.sampled_from([0.25, 3.0, 2.0**10, 2.0**20, 2.0**40]))
    else:
        z = p + width * rng.uniform(0.05, 0.95, n)
        c = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6, 1e12])) * rng.uniform(0.5, 2.0)
    c = min(c, max_shift) * draw(st.sampled_from([1.0, -1.0]))
    target = float(z.sum())
    q = p + width
    slack = draw(st.sampled_from([0.0, 0.5, np.inf]))
    if c > 0.0:
        lo, hi = max(target - slack, float(p.sum()) - 1.0), target
    else:
        lo, hi = target, min(target + slack, float(q.sum()) + 1.0)
    return z + c, qc.FeasibleSet(p, q, lo, hi), z


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
    # so the unit-step residual is at least min(1, 1/a) ||P(x - a g) - x||.
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


@given(free_root_cases(max_n=60))
def test_projection_at_a_free_root(case):
    # every coordinate of x - theta0 lies in its box: the one-shift root
    x, fs, z = case
    y = qc.project(x, fs)
    assert y.shape == x.shape
    assert np.abs(y - z).max() <= rounding_slack(fs, x)
    target = budget_target(x, fs)
    if target is not None:
        assert abs(y.sum() - target) <= 1e-12 * max(1.0, abs(target))
    assert fs.contains(y, tol=1e-9)
    assert np.abs(qc.project(y, fs) - y).max() <= 1e-11 * max(1.0, abs(fs.lo), abs(fs.hi))


@given(free_root_cases(max_n=8, max_shift=1e3))
def test_projection_at_a_free_root_matches_oracle(case):
    x, fs, _ = case
    want = projection_oracle(x, fs)
    assert want is not None
    assert np.allclose(qc.project(x, fs), want, rtol=0.0, atol=1e-7)


def test_breakpoint_search_runs_only_when_a_coordinate_clips(monkeypatch):
    def no_search(*args):
        raise AssertionError("breakpoint search")

    monkeypatch.setattr(projgrad, "_breakpoint_root", no_search)
    unit = qc.FeasibleSet.unit_box(4, 2.0, 2.0)
    general = qc.FeasibleSet(np.array([-1.0, 2.0, 0.0]), np.array([1.0, 2.0, 3.0]), 1.0, 4.0)
    for fs, z, c in (
        (unit, np.array([0.25, 0.5, 0.5, 0.75]), 0.125),
        (unit, np.array([0.25, 0.5, 0.5, 0.75]), -0.125),
        (unit, np.array([0.0, 0.5, 0.5, 1.0]), 0.125),  # theta0 lands on both bounds
        (general, np.array([0.5, 2.0, 1.5]), 0.125),  # the p == q coordinate is not clipped
    ):
        assert np.array_equal(qc.project(z + c, fs), z)
    with pytest.raises(AssertionError, match="breakpoint search"):
        qc.project(np.array([-0.5, 0.625, 0.625, 1.25]), unit)  # the first coordinate clips
