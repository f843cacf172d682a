import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import qpcut as qc
from helpers import NON_FINITE_MTX, UNREADABLE_MTX, path_graph, complete_graph, random_graph


def test_edge_list_round_trip(tmp_path):
    p = tmp_path / "p3.el"
    p.write_text("# path on three vertices\n3 2\n1 2 1\n2 3 1\n")
    g = qc.load_graph(p)
    assert g.n == 3
    assert g.weights[0, 1] == 1.0 and g.weights[1, 2] == 1.0 and g.weights[0, 2] == 0.0
    assert np.array_equal(g.weights, path_graph(3).weights)

    out = tmp_path / "copy.el"
    qc.save_edge_list(g, out)
    assert np.array_equal(qc.load_graph(out).weights, g.weights)


@pytest.mark.parametrize(
    "body",
    [
        "3 2\n1 2 1\n",  # edge count mismatch
        "3 2\n1 2 1\n1 2 2\n",  # duplicate edge
        "3 2\n1 2 1\n2 1 2\n",  # duplicate via the other orientation
        "3 2\n1 2 1\n2 4 1\n",  # index out of range
        "3 2\n1 2 1\n3 3 5\n",  # self loop with nonzero weight
        "x y\n",  # unparsable header
    ],
)
def test_edge_list_rejects(tmp_path, body):
    p = tmp_path / "bad.el"
    p.write_text(body)
    with pytest.raises(qc.GraphFormatError):
        qc.load_graph(p)


def test_edge_list_zero_weight_self_loop_tolerated(tmp_path):
    p = tmp_path / "g.el"
    p.write_text("2 2\n1 1 0\n1 2 3\n")
    g = qc.load_graph(p)
    assert g.weights[0, 1] == 3.0


def test_matrix_exchange_symmetric(tmp_path):
    p = tmp_path / "s.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 2\n"
        "1 1 3.0\n"
        "2 1 5.0\n"
    )
    g = qc.load_graph(p)
    assert g.weights[0, 1] == 1.0 and g.weights[1, 0] == 1.0
    assert g.weights[0, 0] == 0.0


def test_matrix_exchange_nonsymmetric_uses_gram_pattern(tmp_path):
    # S = [[1,1],[0,1]] -> S^T S = [[1,1],[1,2]]: off-diagonal support present
    p = tmp_path / "g.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n"
        "1 2 1.0\n"
        "2 2 1.0\n"
    )
    g = qc.load_graph(p)
    assert g.weights[0, 1] == 1.0 and g.weights[1, 0] == 1.0
    assert np.all(np.diag(g.weights) == 0.0)


def test_matrix_exchange_parse_failure(tmp_path):
    p = tmp_path / "junk.mtx"
    p.write_text("not a matrix market file\n")
    with pytest.raises(qc.GraphFormatError):
        qc.load_graph(p)
    with pytest.raises(qc.GraphFormatError):
        qc.load_graph(tmp_path / "noext")


@pytest.mark.parametrize("text", NON_FINITE_MTX.values(), ids=NON_FINITE_MTX.keys())
def test_matrix_exchange_rejects_non_finite_entries(tmp_path, text):
    p = tmp_path / "bad.mtx"
    p.write_text(text)
    with pytest.raises(qc.GraphFormatError, match="weights must be finite"):
        qc.load_graph(p)


@pytest.mark.parametrize("text, match", UNREADABLE_MTX.values(), ids=UNREADABLE_MTX.keys())
def test_matrix_exchange_rejects_complex_and_overflowing_files(tmp_path, text, match):
    p = tmp_path / "bad.mtx"
    p.write_text(text)
    with pytest.raises(qc.GraphFormatError, match=match):
        qc.load_graph(p)


def test_import_loads_no_scipy():
    # only .mtx input needs scipy, so a fresh `import qpcut` must not load it
    code = "import qpcut, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(qc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


def test_matrix_exchange_pattern_and_rectangular(tmp_path):
    p = tmp_path / "pat.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "3 3 2\n"
        "2 1\n"
        "3 2\n"
    )
    g = qc.load_graph(p)
    assert g.n == 3 and g.num_edges == 2

    # rectangular S: adjacency comes from the S^T S pattern
    r = tmp_path / "rect.mtx"
    r.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 2 3\n"
        "1 1 1.0\n"
        "2 1 2.0\n"
        "3 2 1.0\n"
    )
    g2 = qc.load_graph(r)
    assert g2.n == 2
    assert g2.num_edges == 0  # columns share no row support


def test_diagonal_shift_examples():
    assert np.array_equal(qc.build_diagonal_shift(complete_graph(3)), np.ones(3))
    assert np.array_equal(qc.build_diagonal_shift(path_graph(3)), np.ones(3))
    neg = qc.WeightedGraph(np.array([[0.0, -2.0], [-2.0, 0.0]]))
    assert np.array_equal(qc.build_diagonal_shift(neg), np.zeros(2))


def test_diagonal_shift_pair_condition():
    for seed in range(5):
        g = random_graph(8, 0.6, seed)
        d = qc.build_diagonal_shift(g)
        pair = d[:, None] + d[None, :] - 2.0 * g.weights
        assert pair.min() >= 0.0
        assert d.min() >= 0.0


def test_cut_weight_examples():
    p3 = path_graph(3)
    assert qc.cut_weight(p3, [1, 0, 0]) == 1.0
    assert qc.cut_weight(p3, [0, 0, 0]) == 0.0
    assert qc.cut_weight(complete_graph(3), [1, 0, 0]) == 2.0
    with pytest.raises(ValueError):
        qc.cut_weight(p3, [0.5, 0, 0])


def test_cut_weight_equals_objective_on_random_binaries():
    rng = np.random.default_rng(0)
    for seed in range(3):
        g = random_graph(9, 0.5, seed)
        qp = qc.make_qp(g, qc.PartitionSpec(0, g.n))
        for _ in range(1000):
            side = rng.integers(0, 2, size=g.n).astype(float)
            assert qc.cut_weight(g, side) == qp.value(side)


def test_gen_toroidal_counts_and_weights():
    g = qc.gen_toroidal(4, 5, seed=1)
    assert g.n == 20 and g.num_edges == 40
    weights = g.weights[np.triu_indices(20, k=1)]
    weights = weights[weights != 0]
    assert weights.min() >= 1 and weights.max() <= 10
    # degenerate wrap: parallel edges merge by summing, so weights may reach 20
    g2 = qc.gen_toroidal(2, 2, seed=1)
    assert g2.n == 4
    merged = g2.weights[np.triu_indices(4, k=1)]
    merged = merged[merged != 0]
    assert merged.max() <= 20 and merged.min() >= 2
    with pytest.raises(ValueError):
        qc.gen_toroidal(1, 5, seed=0)


def test_gen_planar_counts():
    g = qc.gen_planar(10, 2, seed=0)
    assert g.n == 20 and g.num_edges == 2 * 20 - 10 - 2


def test_gen_mixed_is_complete_with_tiered_weights():
    g = qc.gen_mixed(2, 3, seed=0)
    off = g.weights[np.triu_indices(g.n, k=1)]
    assert np.all(off >= 1) and np.all(off <= 100)
    assert g.num_edges == g.n * (g.n - 1) // 2


def test_gen_random_density_extremes():
    empty = qc.gen_random(7, 0.0, seed=0)
    assert empty.num_edges == 0
    full = qc.gen_random(7, 1.0, seed=0)
    assert full.num_edges == 21
    with pytest.raises(ValueError):
        qc.gen_random(5, 1.5, seed=0)


def test_gen_debruijn():
    g = qc.gen_debruijn(5)
    assert g.n == 32
    assert set(np.unique(g.weights)) <= {0.0, 1.0}
    with pytest.raises(ValueError):
        qc.gen_debruijn(0)


def test_generators_are_reproducible_and_valid():
    for make in (
        lambda: qc.gen_toroidal(3, 4, seed=9),
        lambda: qc.gen_planar(3, 4, seed=9),
        lambda: qc.gen_mixed(2, 4, seed=9),
        lambda: qc.gen_random(9, 0.4, seed=9),
        lambda: qc.gen_debruijn(3),
    ):
        a, b = make(), make()
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.weights, a.weights.T)
        assert np.all(np.diag(a.weights) == 0.0)


def test_weighted_graph_rejects_bad_matrices():
    with pytest.raises(ValueError):
        qc.WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        qc.WeightedGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))  # self loop
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            qc.WeightedGraph(np.array([[0.0, bad], [bad, 0.0]]))


@pytest.mark.parametrize(
    "l, u",
    [(1.5, 2), (0, 2.5), (0, float("inf")), (float("-inf"), 2), (0, float("nan")),
     (float("nan"), 2)],
)
def test_partition_spec_rejects_non_integer_bounds(l, u):
    with pytest.raises(ValueError, match="l and u must be integers"):
        qc.PartitionSpec(l, u)


GENERATOR_SHA256 = {
    ("toroidal", 2, 5, 1): "80735cf57b78c8772b9cf79bf30a0850103f0ef13006e29608c90399708d390d",
    ("toroidal", 2, 5, 2): "0de44c38c59210100a2fc3e69d35c4af359a742202acd8f729ba9e78bb7f1401",
    ("toroidal", 5, 2, 1): "83201103bd2d92242d694799e5154d69a2eb5a96ce5f61fa504df28c3e9d572c",
    ("toroidal", 5, 2, 2): "509e5219b1674c98e8d1a967cc39e2c6b13b791902798500608c2ffffeda6b2f",
    ("toroidal", 4, 5, 1): "b854e81950230bd7851a637bc975e1cde3b9fa41fac1d1230fb0496a9afe60cd",
    ("toroidal", 4, 5, 2): "64d7cd5132afc3ff2cb4de5e00802444a6cb08e1b753d8f74a8488d361a9b445",
    ("planar", 1, 7, 1): "788d1ff06315924e55f3c543616fe56ad273f65cc16159eae4afea17317d0760",
    ("planar", 1, 7, 2): "af9069394a66effa8e28bcc32fc08dfda95ca8968303b5dac206828e312babc6",
    ("planar", 3, 4, 1): "05add29fc4d62fe6ab192c8038c6d38350e3d617f1fdea241909e767415d68aa",
    ("planar", 3, 4, 2): "b5701360f9f4c414dc048bee46ba25638d93b9019cccd23c4d18e450748f66ec",
    ("mixed", 2, 5, 1): "79bd53bd830aed56abda34b6818cfef4d4872482e64babf5042a28c19e9cd6df",
    ("mixed", 2, 5, 2): "af300a8796a3f514f18f55f43990eb13d7f0a7c31ebbe8751137b87226ec0e07",
    ("mixed", 3, 4, 1): "07ca8a30365a4e9bcb84ff56d191541143e86038d40e26c10131e1d8e1d31df4",
    ("mixed", 3, 4, 2): "d88ca00c6939467b2af381b408c0ea4fcab80b437cc149888a4395a6501165f7",
    ("random", 12, 0.6, 1): "0595aba7e01605feac8bfbe0969020a7d6c056d1447eced745c928d2ecc53874",
    ("random", 12, 0.6, 2): "0afe3ba0eacdabed6ba30b3ca41f7f6b8497df07cb545da873e57101c3a67daa",
    ("debruijn", 4): "98bac6f2e744bd9efca190bed2f7b7b801ebcbf85dbba7bbe8afcfc41f8fc3ac",
}


@pytest.mark.parametrize(
    "case", sorted(GENERATOR_SHA256, key=str), ids=lambda c: "-".join(map(str, c))
)
def test_generators_are_bit_identical_to_the_pinned_weights(case):
    # a (kind, parameters, seed) triple names one exact matrix, draw order included
    kind, *params = case
    graph = getattr(qc, f"gen_{kind}")(*params)
    assert hashlib.sha256(graph.weights.tobytes()).hexdigest() == GENERATOR_SHA256[case]
