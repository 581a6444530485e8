import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial import cKDTree

from helpers import brute_force_knn_weights, brute_force_objective, random_connected_graph
from varprop import (
    Graph,
    LabelSet,
    build_knn_graph,
    graph_from_edges,
    laplacian_apply,
    objective_value,
    read_edgelist,
    variance,
    weighted_mean,
    write_edgelist,
)
from varprop.errors import FormatError, InvalidInputError, InvalidParameterError


def path_graph(n):
    return graph_from_edges(n, list(range(n - 1)), list(range(1, n)))


class TestKnnConstruction:
    def test_two_identical_points_unit_weight(self):
        g = build_knn_graph(np.array([[1.0, 2.0], [1.0, 2.0]]), 1)
        assert g.adjacency[0, 1] == 1.0
        assert g.edge_count == 1

    def test_collinear_points_match_hand_weights(self):
        g = build_knn_graph(np.array([[0.0], [1.0], [3.0]]), 2)
        W = g.adjacency.toarray()
        # sigma = (3, 2, 3): distance to the 2nd nearest neighbor of each point
        assert W[0, 1] == pytest.approx(math.exp(-1.0 / 6.0), abs=1e-15)
        assert W[1, 2] == pytest.approx(math.exp(-4.0 / 6.0), abs=1e-15)
        assert W[0, 2] == pytest.approx(math.exp(-9.0 / 9.0), abs=1e-15)

    @pytest.mark.parametrize("seed,n,d,k", [(0, 12, 2, 3), (1, 25, 3, 4), (2, 40, 5, 6)])
    def test_matches_brute_force_reference(self, seed, n, d, k):
        rng = np.random.Generator(np.random.Philox(seed))
        X = rng.normal(size=(n, d))
        g = build_knn_graph(X, k)
        expected = brute_force_knn_weights(X, k)
        np.testing.assert_allclose(g.adjacency.toarray(), expected, atol=1e-14)

    @pytest.mark.parametrize("groups,copies,k", [(6, 5, 3), (6, 5, 6), (4, 8, 5), (1, 12, 5)])
    def test_ties_go_to_lower_index(self, groups, copies, k):
        rng = np.random.Generator(np.random.Philox(groups * 100 + copies * 10 + k))
        X = np.repeat(rng.normal(size=(groups, 3)), copies, axis=0)
        X = X[rng.permutation(X.shape[0])]
        g = build_knn_graph(X, k)
        np.testing.assert_allclose(g.adjacency.toarray(), brute_force_knn_weights(X, k), atol=1e-14)

    def test_large_offset_does_not_cancel(self):
        # |x|^2 - 2 x.y + |y|^2 loses every digit of these distances
        rng = np.random.Generator(np.random.Philox(7))
        X = 1e3 + 1e-6 * rng.normal(size=(200, 8))
        g = build_knn_graph(X, 5)
        np.testing.assert_allclose(g.adjacency.toarray(), brute_force_knn_weights(X, 5), atol=1e-14)

    def test_multi_block_pattern_matches_kd_tree(self):
        rng = np.random.Generator(np.random.Philox(11))
        X = rng.normal(size=(3000, 16))
        g = build_knn_graph(X, 10)
        _, idx = cKDTree(X).query(X, k=11)
        assert np.array_equal(idx[:, 0], np.arange(3000))
        directed = sparse.coo_matrix(
            (np.ones(30000), (np.repeat(np.arange(3000), 10), idx[:, 1:].ravel())), shape=(3000, 3000)
        ).tocsr()
        expected = (directed + directed.T).tocsr()
        expected.sort_indices()
        assert np.array_equal(g.adjacency.indptr, expected.indptr)
        assert np.array_equal(g.adjacency.indices, expected.indices)

    def test_k_too_large_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_knn_graph(np.zeros((3, 2)), 3)

    def test_non_finite_features_rejected(self):
        X = np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]])
        with pytest.raises(InvalidInputError):
            build_knn_graph(X, 1)

    def test_single_point_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_knn_graph(np.zeros((1, 2)), 1)

    @given(st.integers(0, 10_000), st.integers(3, 30), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_construction_invariants(self, seed, n, k):
        rng = np.random.Generator(np.random.Philox(seed))
        X = rng.normal(size=(n, 3))
        g = build_knn_graph(X, min(k, n - 1))
        diff = (g.adjacency != g.adjacency.T).nnz
        assert diff == 0
        assert abs(g.degree_weights.sum() - 1.0) <= 1e-12
        assert g.degree_weights.min() > 0
        assert np.all(g.adjacency.diagonal() == 0)
        row_sums = np.asarray(g.adjacency.sum(axis=1)).ravel()
        np.testing.assert_allclose(g.degrees, row_sums, rtol=1e-12)


class TestGraphValidation:
    def test_asymmetric_rejected(self):
        W = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(InvalidInputError, match="symmetric"):
            Graph.from_adjacency(W)

    def test_negative_weight_rejected(self):
        W = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="nonnegative"):
            Graph.from_adjacency(W)

    def test_self_loop_rejected(self):
        W = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="self-loop"):
            Graph.from_adjacency(W)

    def test_isolated_node_rejected(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(InvalidInputError, match="isolated"):
            Graph.from_adjacency(W)

    def test_non_finite_rejected(self):
        W = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(InvalidInputError, match="finite"):
            Graph.from_adjacency(W)

    def test_duplicate_edges_merge_by_max(self):
        g = graph_from_edges(2, [0, 1, 0], [1, 0, 1], [0.5, 0.8, 0.2])
        assert g.adjacency[0, 1] == 0.8
        assert g.adjacency[1, 0] == 0.8

    def test_edge_self_loop_rejected(self):
        with pytest.raises(InvalidInputError, match="elf-loop"):
            graph_from_edges(2, [0, 0], [1, 0])


class TestOperators:
    def test_laplacian_on_constant_is_zero(self):
        g = random_connected_graph(3, 17)
        u = np.full((g.n, 3), 2.5)
        np.testing.assert_allclose(laplacian_apply(g, u), 0.0, atol=1e-10)

    def test_laplacian_path(self):
        g = path_graph(3)
        np.testing.assert_allclose(
            laplacian_apply(g, np.array([0.0, 1.0, 0.0])), [-1.0, 2.0, -1.0]
        )

    def test_laplacian_star(self):
        g = graph_from_edges(4, [0, 0, 0], [1, 2, 3])
        np.testing.assert_allclose(
            laplacian_apply(g, np.array([1.0, 0.0, 0.0, 0.0])), [3.0, -1.0, -1.0, -1.0]
        )

    def test_laplacian_shape_mismatch(self):
        g = path_graph(3)
        with pytest.raises(InvalidInputError):
            laplacian_apply(g, np.zeros((4, 2)))

    def test_weighted_mean_constant(self):
        g = random_connected_graph(5, 11)
        u = np.full((g.n, 2), 3.25)
        np.testing.assert_allclose(weighted_mean(g, u), [3.25, 3.25], atol=1e-14)

    def test_weighted_mean_two_node(self):
        g = graph_from_edges(2, [0], [1])
        assert weighted_mean(g, np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_weighted_mean_of_onehot_rows_is_distribution(self):
        g = random_connected_graph(8, 13)
        rng = np.random.Generator(np.random.Philox(8))
        u = np.zeros((g.n, 4))
        u[np.arange(g.n), rng.integers(0, 4, size=g.n)] = 1.0
        mean = weighted_mean(g, u)
        assert np.all(mean >= 0) and np.all(mean <= 1)
        assert mean.sum() == pytest.approx(1.0, abs=1e-12)

    def test_variance_constant_zero(self):
        g = random_connected_graph(6, 9)
        assert variance(g, np.full((g.n, 2), 7.0)) == pytest.approx(0.0, abs=1e-14)

    def test_variance_two_node(self):
        g = graph_from_edges(2, [0], [1])
        assert variance(g, np.array([0.0, 1.0])) == pytest.approx(0.25)

    def test_objective_constant_zero(self):
        g = random_connected_graph(7, 10)
        assert objective_value(g, np.full((g.n, 2), 1.5), 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_objective_path_ordered_pair_sum(self):
        # four ordered pairs, each contributing 0.5 * 1
        g = path_graph(3)
        assert objective_value(g, np.array([0.0, 1.0, 0.0]), 0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("lam", [-0.1, float("nan"), float("inf")])
    def test_objective_rejects_bad_lambda(self, lam):
        with pytest.raises(InvalidParameterError):
            objective_value(path_graph(3), np.array([0.0, 1.0, 0.0]), lam)

    @given(st.integers(0, 10_000), st.integers(3, 20))
    @settings(max_examples=25, deadline=None)
    def test_objective_matches_edge_loop(self, seed, n):
        g = random_connected_graph(seed, n)
        rng = np.random.Generator(np.random.Philox(seed + 1))
        u = rng.normal(size=(n, 2))
        lam = float(rng.uniform(0.0, 0.5))
        expected = brute_force_objective(g, u, lam)
        assert objective_value(g, u, lam) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    @given(st.integers(0, 10_000), st.integers(3, 25))
    @settings(max_examples=25, deadline=None)
    def test_laplacian_psd_and_objective_nonnegative(self, seed, n):
        g = random_connected_graph(seed, n)
        rng = np.random.Generator(np.random.Philox(seed + 2))
        u = rng.normal(size=(n, 2))
        assert float(np.sum(u * laplacian_apply(g, u))) >= -1e-10
        assert objective_value(g, u, 0.0) >= -1e-10

    @given(st.integers(0, 10_000), st.integers(3, 25))
    @settings(max_examples=25, deadline=None)
    def test_variance_zero_iff_constant(self, seed, n):
        g = random_connected_graph(seed, n)
        rng = np.random.Generator(np.random.Philox(seed + 3))
        u = rng.normal(size=(n, 2))
        if variance(g, u) < 1e-10:
            assert np.allclose(u, u[0], atol=1e-8)
        const = np.tile(rng.normal(size=2), (n, 1))
        assert variance(g, const) <= 1e-10


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = random_connected_graph(11, 23)
        path = tmp_path / "g.edges"
        write_edgelist(g, path)
        g2 = read_edgelist(path)
        assert g2.n == g.n
        assert (g.adjacency != g2.adjacency).nnz == 0

    def test_comments_and_default_weight(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a triangle\n0 1\n1 2 0.5\n\n0 2 2.0\n")
        g = read_edgelist(path)
        assert g.adjacency[0, 1] == 1.0
        assert g.adjacency[1, 2] == 0.5
        assert g.adjacency[0, 2] == 2.0

    def test_self_loop_dropped_with_warning(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 0 1.0\n0 1 1.0\n")
        with pytest.warns(UserWarning, match="self-loop"):
            g = read_edgelist(path)
        assert g.edge_count == 1

    def test_duplicate_edges_max_merged(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 0.5\n1 0 0.8\n")
        g = read_edgelist(path)
        assert g.adjacency[0, 1] == 0.8

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 1.0 9\n")
        with pytest.raises(FormatError, match="line 1"):
            read_edgelist(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n0 x\n")
        with pytest.raises(FormatError, match="line 2"):
            read_edgelist(path)

    def test_index_exceeds_node_count(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 5 1.0\n")
        with pytest.raises(FormatError, match="exceeds"):
            read_edgelist(path, n=3)

    def test_negative_weight_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 -2.0\n")
        with pytest.raises(FormatError, match="nonnegative"):
            read_edgelist(path)

    def test_written_file_is_sorted_and_exact(self, tmp_path):
        g = build_knn_graph(np.array([[0.0], [1.0], [3.0]]), 2)
        path = tmp_path / "g.edges"
        write_edgelist(g, path)
        lines = path.read_text().splitlines()
        assert [ln.split()[:2] for ln in lines] == [["0", "1"], ["0", "2"], ["1", "2"]]
        g2 = read_edgelist(path)
        assert (g.adjacency != g2.adjacency).nnz == 0


class TestLabelSet:
    def test_basic(self):
        ls = LabelSet(k=3, entries=((0, 2), (4, 0)))
        assert ls.l == 2
        np.testing.assert_array_equal(ls.nodes, [0, 4])
        np.testing.assert_array_equal(ls.one_hot(0), [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(ls.onehot_matrix(), [[0, 0, 1], [1, 0, 0]])

    def test_duplicate_node_rejected(self):
        with pytest.raises(InvalidInputError, match="unique"):
            LabelSet(k=2, entries=((0, 0), (0, 1)))

    def test_class_out_of_range(self):
        with pytest.raises(InvalidInputError):
            LabelSet(k=2, entries=((0, 2),))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            LabelSet(k=2, entries=())

    def test_unlabeled_one_hot_lookup_fails(self):
        ls = LabelSet(k=2, entries=((1, 0),))
        with pytest.raises(InvalidInputError):
            ls.one_hot(0)
