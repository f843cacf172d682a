import numpy as np
import pytest

import qpcut as qc
from helpers import path_graph, complete_graph, random_graph


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
            assert qc.cut_weight(g, side) == qc.objective(qp, side)


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
