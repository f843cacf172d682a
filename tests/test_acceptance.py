"""Acceptance battery: one test per criterion, one printed PASS/FAIL line each.

The shared corpus (>= 200 runs over toroidal, planar, mixed, random, and
de Bruijn instances with n in {6..16}, both balanced and asymmetric windows)
is solved once per session and reused across criteria.
"""

import numpy as np
import pytest

import qpcut as qc
from qpcut.bnb import BnbConfig
from helpers import (
    corpus,
    improving_move_exists,
    label_key,
    path_graph,
    random_feasible,
    random_graph,
    subtree_minima,
)


def report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_results():
    """Oracle optimum, both shifts, both root bounds, and a full solve per instance."""
    out = []
    for name, g, spec in corpus():
        qp = qc.make_qp(g, spec)
        opt, _ = qc.brute_force(g, spec)
        eig = qc.sigma_shift(qp.M)
        sdp = qc.sdp_shift(qp.M)
        red = qc.reduce(qp, (), qc.order_vertices(g))
        rep1, lb1 = qc.solve_convex(qc.build_relaxation(red, eig), tol=1e-4, max_iter=10**4)
        rep2, lb2 = qc.solve_convex(qc.build_relaxation(red, sdp), tol=1e-4, max_iter=10**4)
        sol = qc.solve(g, spec, BnbConfig(bound="sdp"))
        out.append(
            {
                "name": name,
                "graph": g,
                "spec": spec,
                "qp": qp,
                "opt": opt,
                "eig": eig,
                "sdp": sdp,
                "lb1": lb1,
                "lb2": lb2,
                "root_converged": rep1.converged and rep2.converged,
                "sol": sol,
            }
        )
    return out


def test_criterion_1_exactness(corpus_results):
    total = len(corpus_results)
    bad = [
        r["name"]
        for r in corpus_results
        if r["sol"].status != "optimal" or r["sol"].value != r["opt"]
    ]
    report(
        1,
        "oracle equivalence",
        total >= 200 and not bad,
        f"{total - len(bad)}/{total} instances exact" + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_2_bound_soundness(corpus_results):
    # root bounds must not exceed the global optimum; every node bound must
    # not exceed the exact optimum of its own subtree
    worst = -np.inf
    bad = None
    checked = 0
    for r in corpus_results:
        for b in (r["lb1"], r["lb2"]):
            tol = 1e-6 * (1.0 + abs(r["opt"]))
            worst = max(worst, b - r["opt"])
            if b > r["opt"] + tol:
                bad = f"{r['name']} root"
        order = qc.order_vertices(r["graph"])
        levels = subtree_minima(r["graph"], r["spec"], order)
        for label, bound in r["sol"].node_bounds:
            sub_opt = levels[len(label)][label_key(label)]
            checked += 1
            if not np.isfinite(sub_opt):
                continue
            worst = max(worst, bound - sub_opt)
            if bound > sub_opt + 1e-6 * (1.0 + abs(sub_opt)):
                bad = f"{r['name']} label {label}"
                break
        if bad:
            break
    report(2, "bound soundness", bad is None,
           f"{checked} node bounds, max overshoot {worst:.2e}" + (f"; {bad}" if bad else ""))


def test_criterion_3_bound_comparison():
    rng = np.random.default_rng(2024)
    wins = 0
    total = 50
    for k in range(total):
        n = int(rng.integers(10, 61))
        dens = float(rng.uniform(0.05, 0.50))
        g = qc.gen_random(n, dens, seed=1000 + k)
        spec = qc.PartitionSpec(n // 2, (n + 1) // 2)
        qp = qc.make_qp(g, spec)
        red = qc.reduce(qp, (), qc.order_vertices(g))
        _, lb1 = qc.solve_convex(qc.build_relaxation(red, qc.sigma_shift(qp.M)))
        _, lb2 = qc.solve_convex(qc.build_relaxation(red, qc.sdp_shift(qp.M)))
        if lb2 >= lb1 - 1e-9:
            wins += 1
    report(3, "sdp bound generally larger", wins >= 0.6 * total, f"LB2 >= LB1 on {wins}/{total}")


def test_criterion_4_tightness_identity():
    rng = np.random.default_rng(7)
    ok = True
    detail = ""
    for n in range(1, 11):
        fs = qc.FeasibleSet(np.zeros(n), np.ones(n), 0.0, float(n))
        slope, offset = qc.affine_underestimate(np.ones(n), fs)
        gap = lambda x: -(x @ x) - (slope @ x + offset)
        center_gap = gap(np.full(n, 0.5))
        sampled = max(gap(rng.random(n)) for _ in range(2000))
        if abs(center_gap - n / 4.0) > 1e-9 or sampled > n / 4.0 + 1e-9:
            ok = False
            detail = f"n={n}: center gap {center_gap}, sampled max {sampled}"
            break
    report(4, "worst-case gap equals n/4 at the center", ok, detail)


def test_criterion_5_sdp_contract(corpus_results):
    ok = True
    detail = ""
    for r in corpus_results:
        if r["sdp"].lam.sum() > r["eig"].lam.sum() + 1e-6:
            ok, detail = False, f"trace dominance violated on {r['name']}"
            break
        try:  # each shift is certified as it stands, with no tolerance
            for kind in ("sdp", "eig"):
                np.linalg.cholesky(np.diag(r[kind].lam) - r["qp"].M)
        except np.linalg.LinAlgError:
            ok, detail = False, f"{kind} shift does not factor on {r['name']}"
            break
    p3 = qc.make_qp(path_graph(3), qc.PartitionSpec(1, 1))
    lam = qc.sdp_shift(p3.M).lam
    if abs(lam.sum() - 7.0) > 1e-4 or not np.allclose(lam, [2.0, 3.0, 2.0], atol=1e-3):
        ok, detail = False, f"path-3 shift {lam.tolist()}"
    report(5, "sdp shift contract", ok, detail or f"checked {len(corpus_results)} instances + path-3")


def test_criterion_6_rounding_monotone(corpus_results):
    rng = np.random.default_rng(99)
    per = -(-10000 // len(corpus_results))  # ceil division
    tried = 0
    ok = True
    detail = ""
    for r in corpus_results:
        qp = r["qp"]
        fs = qp.fset
        for _ in range(per):
            x = random_feasible(qp, rng)
            frozen = (x == 0.0) | (x == 1.0)
            fx = qp.value(x)
            y = qc.round_to_binary(qp, x)  # raises if any move increases f
            tried += 1
            if not (
                np.all((y == 0.0) | (y == 1.0))
                and fs.contains(y, tol=1e-9)
                and qp.value(y) <= fx + 1e-9 * (1.0 + abs(fx))
                and np.array_equal(y[frozen], x[frozen])
            ):
                ok, detail = False, f"violation on {r['name']}"
                break
        if not ok:
            break
    report(6, "rounding monotonicity", ok and tried >= 10000, detail or f"{tried} starts")


def test_criterion_7_optimality_machinery():
    rng = np.random.default_rng(1234)
    agree = 0
    total = 0
    descents_checked = 0
    ok = True
    detail = ""
    while total < 500 and ok:
        seed = total % 40
        n = int(rng.integers(4, 9))
        g = random_graph(n, float(rng.uniform(0.3, 1.0)), seed, low=1, high=9)
        if total % 2:
            spec = qc.PartitionSpec(n // 2, n // 2)
        else:
            spec = qc.PartitionSpec(max(0, n // 2 - 1), min(n, n // 2 + 1))
        qp = qc.make_qp(g, spec)
        red = qc.reduce(qp, ())
        points = [qc.round_to_binary(qp, random_feasible(qp, rng)) for _ in range(8)]
        rep = qc.descend_nonconvex(red, random_feasible(qp, rng), tol=1e-8)
        points.append(qc.round_to_binary(qp, rep.x))
        for x in points:
            a = qc.check_local_min(qp, x)
            total += 1
            if a.local_min == (not improving_move_exists(qp, x)):
                agree += 1
            else:
                ok, detail = False, f"disagreement at n={n}, x={x.tolist()}"
                break
            if not a.local_min and a.p1:
                move = qc.descent_direction(qp, x, a)
                if move is None:
                    ok, detail = False, "missing descent direction"
                    break
                d, alpha_max = move
                step = min(alpha_max, 1e-3)
                if not (qp.value(x + step * d) < qp.value(x)):
                    ok, detail = False, "descent direction failed to decrease"
                    break
                descents_checked += 1
    report(
        7,
        "local-minimum classification",
        ok and agree == total and total >= 500,
        detail or f"{agree}/{total} agree, {descents_checked} descent directions verified",
    )


def test_criterion_8_stationarity_stopping(corpus_results):
    bad = [r["name"] for r in corpus_results if not r["root_converged"]]
    bad += [r["name"] for r in corpus_results if not r["sol"].all_relaxations_converged]
    report(
        8,
        "projected-gradient residual <= 1e-4 within 10^4 iterations",
        not bad,
        f"{len(corpus_results)} instances" + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_9_node_budget():
    g = qc.gen_toroidal(4, 5, seed=1)
    spec = qc.PartitionSpec(10, 10)
    opt, _ = qc.brute_force(g, spec)
    sol = qc.solve(g, spec, BnbConfig(bound="sdp"))
    ok = (
        sol.status == "optimal"
        and sol.value == opt
        and sol.node_count <= 10**4
        and sol.wall_time < 60.0
    )
    report(
        9,
        "20-vertex toroidal budget",
        ok,
        f"{sol.node_count} nodes, {sol.wall_time:.2f}s, value {sol.value}",
    )
