import json
import math
import warnings

import numpy as np
import pytest

import qpcut as qc
from qpcut.cli import main
from helpers import NON_FINITE_MTX, UNREADABLE_MTX


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_on_edge_list(tmp_path, capsys):
    p = tmp_path / "p3.el"
    p.write_text("3 2\n1 2 1\n2 3 1\n")
    code, rep = run_cli(capsys, "solve", "--input", str(p), "--l", "1", "--u", "1")
    assert code == 0
    assert rep["opt_value"] == 1.0
    assert rep["status"] == "optimal"
    assert rep["n"] == 3
    assert sorted(rep["partition"]["v0"] + rep["partition"]["v1"]) == [0, 1, 2]


def test_solve_generated_bisection_matches_oracle(tmp_path, capsys):
    code, rep = run_cli(
        capsys, "solve", "--gen", "toroidal:4x5", "--seed", "1", "--bisection",
        "--json", str(tmp_path / "r.json"),
    )
    assert code == 0 and rep["status"] == "optimal"
    g = qc.gen_toroidal(4, 5, seed=1)
    opt, _ = qc.brute_force(g, qc.PartitionSpec(10, 10))
    assert rep["opt_value"] == opt
    assert rep["node_count"] >= 1
    on_disk = json.loads((tmp_path / "r.json").read_text())
    assert on_disk == rep


def test_solve_reports_solver_health(capsys):
    code, rep = run_cli(capsys, "solve", "--gen", "toroidal:3x4", "--seed", "1", "--bisection")
    assert code == 0 and rep["status"] == "optimal"
    qp = qc.make_qp(qc.gen_toroidal(3, 4, seed=1), qc.PartitionSpec(6, 6))
    shift = qc.sdp_shift(qp.M)
    assert rep["shift_warning"] is shift.warning is False
    assert "psd_tol" not in rep  # the shift factors with no tolerance, so none is reported
    assert rep["relaxations_converged"] is True


def test_node_limit_reports_a_certified_lower_bound(capsys):
    code, rep = run_cli(
        capsys, "solve", "--gen", "mixed:3x4", "--seed", "1", "--bisection", "--max-nodes", "3"
    )
    assert code == 2 and rep["status"] == "node_limit"
    opt, _ = qc.brute_force(qc.gen_mixed(3, 4, seed=1), qc.PartitionSpec(6, 6))
    assert rep["root_lb"] <= rep["lower_bound"] <= opt <= rep["opt_value"]
    assert rep["lower_bound"] < rep["opt_value"]  # the gap is still open


def test_bound_command(capsys):
    code, rep = run_cli(
        capsys, "bound", "--gen", "random:12x0.4", "--seed", "3", "--bisection", "--oracle"
    )
    assert code == 0
    assert rep["lb1"] <= rep["opt"] + 1e-6
    assert rep["lb2"] <= rep["opt"] + 1e-6


def test_bound_oracle_rejects_a_large_instance_before_solving(capsys, monkeypatch):
    # the oracle's n <= 24 guard fails first, so neither root solve is paid for
    def no_solve(*args, **kwargs):
        raise AssertionError("bound --oracle solved an instance the oracle rejects")

    monkeypatch.setattr(qc.cli, "solve", no_solve)
    assert main(["bound", "--gen", "random:25x0.3", "--seed", "1", "--bisection", "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_generate_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "deb.el"
    code, rep = run_cli(capsys, "generate", "--gen", "debruijn:5", "--out", str(out))
    assert code == 0
    assert rep["n"] == 32
    g = qc.load_graph(out)
    assert g.n == 32
    assert np.array_equal(g.weights, qc.gen_debruijn(5).weights)


def test_check_on_oracle_optimum(tmp_path, capsys):
    g = qc.gen_random(8, 0.6, seed=2)
    spec = qc.PartitionSpec(4, 4)
    _, x = qc.brute_force(g, spec)
    gpath = tmp_path / "g.el"
    qc.save_edge_list(g, gpath)
    ppath = tmp_path / "x.txt"
    ppath.write_text("\n".join(str(v) for v in x))
    code, rep = run_cli(
        capsys, "check", "--input", str(gpath), "--point", str(ppath), "--l", "4", "--u", "4"
    )
    assert code == 0
    assert rep["p1"] and rep["local_min"]


def test_check_reports_a_descent_step_that_lowers_the_value(tmp_path, capsys):
    # the all-halves point is stationary, but a fractional pair has a slack
    # pair condition, so the report carries a strictly descending step
    ppath = tmp_path / "x.txt"
    ppath.write_text("0.5\n" * 8)
    code, rep = run_cli(
        capsys, "check", "--gen", "random:8x0.5", "--seed", "1", "--bisection",
        "--point", str(ppath),
    )
    assert code == 0
    assert rep["p1"] and not rep["local_min"] and rep["strict"] is False
    assert rep["witness"] == ["p2", 0, 2]
    # the gradient is zero, and -mean(0) is -0.0: the report must not carry its sign
    assert rep["lambda"] == 0.0 and math.copysign(1.0, rep["lambda"]) == 1.0
    move = rep["descent_direction"]
    assert move["alpha_max"] == 0.5
    qp = qc.make_qp(qc.gen_random(8, 0.5, seed=1), qc.PartitionSpec(4, 4))
    x = np.full(8, 0.5) + move["alpha_max"] * np.array(move["direction"])
    assert qp.fset.contains(x)
    assert qp.value(x) < rep["value"]


def test_oracle_command(capsys):
    code, rep = run_cli(capsys, "oracle", "--gen", "planar:3x3", "--seed", "4", "--l", "4", "--u", "5")
    assert code == 0
    g = qc.gen_planar(3, 3, seed=4)
    opt, _ = qc.brute_force(g, qc.PartitionSpec(4, 5))
    assert rep["opt_value"] == opt


def test_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.el"
    assert main(["solve", "--input", str(missing), "--l", "1", "--u", "1"]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.el"
    bad.write_text("1 1\n1 1 7\n")
    assert main(["solve", "--input", str(bad), "--l", "0", "--u", "1"]) == 1
    capsys.readouterr()
    # infeasible size window
    ok = tmp_path / "ok.el"
    ok.write_text("2 1\n1 2 1\n")
    assert main(["solve", "--input", str(ok), "--l", "3", "--u", "3"]) == 1


def test_limit_exit_code(capsys):
    code = main(["solve", "--gen", "mixed:3x4", "--seed", "1", "--bisection", "--max-nodes", "2"])
    capsys.readouterr()
    assert code == 2


def test_format_override(tmp_path, capsys):
    # an .el file under a neutral extension still loads with --format
    p = tmp_path / "graph.dat"
    p.write_text("3 2\n1 2 1\n2 3 1\n")
    code, rep = run_cli(
        capsys, "solve", "--input", str(p), "--format", "el", "--l", "1", "--u", "1"
    )
    assert code == 0 and rep["opt_value"] == 1.0
    assert main(["solve", "--input", str(p), "--l", "1", "--u", "1"]) == 1  # no inferable format
    capsys.readouterr()


@pytest.mark.parametrize("w12", ["inf", "nan", "-inf", "3e15", "1e200"])
def test_solve_rejects_weights_without_exact_cut_sums(tmp_path, capsys, w12):
    p = tmp_path / "p3.el"
    p.write_text(f"3 2\n1 2 {w12}\n2 3 1\n")
    assert main(["solve", "--input", str(p), "--l", "1", "--u", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("text", NON_FINITE_MTX.values(), ids=NON_FINITE_MTX.keys())
def test_solve_rejects_non_finite_matrix_exchange_entries(tmp_path, capsys, text):
    p = tmp_path / "bad.mtx"
    p.write_text(text)
    assert main(["solve", "--input", str(p), "--l", "1", "--u", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("text", [text for text, _ in UNREADABLE_MTX.values()],
                         ids=UNREADABLE_MTX.keys())
def test_solve_rejects_complex_and_overflowing_matrix_exchange_files(tmp_path, capsys, text):
    p = tmp_path / "bad.mtx"
    p.write_text(text)
    assert main(["solve", "--input", str(p), "--l", "1", "--u", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_solve_just_below_the_exact_range(tmp_path, capsys):
    p = tmp_path / "p3.el"
    p.write_text("3 2\n1 2 2.2e15\n2 3 1\n")
    code, rep = run_cli(capsys, "solve", "--input", str(p), "--l", "1", "--u", "2")
    assert code == 0 and rep["status"] == "optimal"
    g = qc.load_graph(p)
    opt, _ = qc.brute_force(g, qc.PartitionSpec(1, 2))
    assert rep["opt_value"] == opt == 1.0
    side = np.zeros(3)
    side[rep["partition"]["v1"]] = 1.0
    assert qc.cut_weight(g, side) == 1.0


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-nodes", "-1"],
        ["--max-nodes", "1.5"],
        ["--time-limit", "-0.5"],
        ["--time-limit=-inf"],
        ["--max-nodes", "0"],
        ["--max-nodes=-3"],
        ["--time-limit=-1"],
        ["--time-limit", "nan"],
    ],
)
def test_solve_rejects_bad_limits(capsys, flags):
    argv = ["solve", "--gen", "random:8x0.5", "--seed", "1", "--bisection", *flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--l", "1", "--u", "1"],  # neither --input nor --gen
        ["solve", "--gen", "random:8xdense", "--bisection"],  # bad --gen spec
        ["solve", "--gen", "lattice:3x3", "--bisection"],  # unknown generator
        ["solve", "--gen", "random:8x0.5"],  # neither --l/--u nor --bisection
        ["check", "--gen", "random:8x0.5", "--bisection", "--point", "{short}"],
        # 8 values, but as a 2x4 table; an empty file (numpy would warn first)
        ["check", "--gen", "random:8x0.5", "--bisection", "--point", "{table}"],
        ["check", "--gen", "random:8x0.5", "--bisection", "--point", "{empty}"],
        # eight 1s for a bisection of 8; a NaN coordinate
        ["check", "--gen", "random:8x0.5", "--bisection", "--point", "{ones}"],
        ["check", "--gen", "random:8x0.5", "--bisection", "--point", "{nan}"],
        ["solve", "--gen", "random:8x0.5", "--bisection", "--bound", "foo"],
        ["solve", "--gen", "random:8x0.5", "--bisection", "--max-nodes", "abc"],
        ["solve", "--gen", "random:8x0.5", "--bisection", "--tol", "1e-4"],  # no such flag
        ["bound", "--gen", "random:8x0.5", "--bisection", "--tol", "0"],  # no such flag
        # the report file cannot be written: nothing may reach stdout either
        ["oracle", "--gen", "random:6x0.5", "--bisection", "--json", "{tmp}/missing/x.json"],
        # too large to allocate: each dense weight matrix asks for petabytes,
        # so the allocation fails at once, before any weight is drawn
        ["solve", "--gen", "debruijn:24", "--bisection"],
        ["solve", "--gen", "random:20000000x0.1", "--bisection"],
        ["solve", "--gen", "toroidal:5000x5000", "--bisection"],
        ["solve", "--gen", "planar:5000x5000", "--bisection"],
        ["solve", "--gen", "mixed:5000x5000", "--bisection"],
        ["solve", "--input", "{huge}", "--l", "1", "--u", "1"],
        ["solve", "--gen", "random:8x0.5", "--bisection", "--l", "1"],  # two budgets
        ["solve", "--gen", "random:6x0.5", "--bisection", "--seed", "-3"],
        # two weight-1e308 edges: the sum of |M_ij| overflows to inf
        ["solve", "--input", "{overflow}", "--l", "1", "--u", "2"],
        ["bound", "--input", "{overflow}", "--l", "1", "--u", "2"],
        ["check", "--input", "{overflow}", "--l", "1", "--u", "2", "--point", "{short}"],
        ["oracle", "--input", "{overflow}", "--l", "1", "--u", "2"],
    ],
    ids=["no-input", "bad-gen", "unknown-gen", "no-budget", "short-point", "table-point",
         "empty-point", "infeasible-point", "nan-point", "bad-bound",
         "bad-max-nodes", "solve-tol", "bound-tol", "unwritable-json", "huge-gen",
         "huge-random", "huge-toroidal", "huge-planar", "huge-mixed", "huge-input", "bisection-and-l", "negative-seed", "overflow-solve",
         "overflow-bound", "overflow-check", "overflow-oracle"],
)
def test_bad_input_prints_error_and_exits_1(tmp_path, capsys, argv):
    short = tmp_path / "x.txt"
    short.write_text("0\n1\n")  # two values for an 8-vertex graph
    table = tmp_path / "table.txt"
    table.write_text("0 1 0 1\n1 0 1 0\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    ones = tmp_path / "ones.txt"
    ones.write_text("1\n" * 8)
    nan = tmp_path / "nan.txt"
    nan.write_text("0.5\n" * 7 + "nan\n")
    huge = tmp_path / "huge.el"
    huge.write_text("100000000 0\n")
    overflow = tmp_path / "overflow.el"
    overflow.write_text("3 2\n1 2 1e308\n2 3 1e308\n")
    paths = dict(short=short, table=table, empty=empty, ones=ones, nan=nan, huge=huge,
                 overflow=overflow, tmp=tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr ahead of error:
        assert main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    if "{table}" in argv:  # the message names the shape, not a count that matches
        assert "2x4" in captured.err
    if "{ones}" in argv or "{nan}" in argv:
        assert captured.err == "error: point is infeasible\n"
    if "--seed" in argv:  # the seed is at fault, not the --gen spec
        assert "--seed" in captured.err and "--gen" not in captured.err
    if "{overflow}" in argv:  # the weights are at fault, not the budget window
        assert "not finite" in captured.err or "2**53" in captured.err
