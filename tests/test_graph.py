import math
import tracemalloc

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
    graph,
    graph_from_edges,
    laplacian_apply,
    make_cluster_dataset,
    objective_value,
    read_edgelist,
    variance,
    weighted_mean,
    write_edgelist,
)
from varprop.continuum import path_graph
from varprop.errors import FormatError, InvalidInputError, InvalidParameterError


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

    @pytest.mark.parametrize(
        "n,k,scale,column",
        [(5, 2, 1.0, 1.0), (17, 4, 1.0, 1.0), (33, 6, 1.0, 1.0),
         (60, 5, 1e-100, 1.0), (60, 5, 1e100, 1.0), (60, 5, 1.0, 1e6)],
        ids=["n5", "n17", "n33", "scale1e-100", "scale1e100", "column1e6"],
    )
    def test_candidate_pass_edges_match_brute_force(self, n, k, scale, column):
        # n below the column group width or not a multiple of it; features
        # whose float32 copy must be rescaled, or is dominated by one column
        rng = np.random.Generator(np.random.Philox(n))
        X = scale * rng.normal(size=(n, 4))
        X[:, 0] *= column
        g = build_knn_graph(X, k)
        np.testing.assert_allclose(g.adjacency.toarray(), brute_force_knn_weights(X, k), atol=1e-14)

    def test_rounded_near_ties_fill_every_kept_group(self):
        # Each center has k + 5 = pool + 1 neighbors at distances 1 + 1e-9 s,
        # s = 0..k + 4, which float32 cannot order.  They lie in distinct
        # column groups whose other columns are far.  Keeping one group
        # fewer than pool + 1 would drop one of them, possibly a true
        # neighbor, while the first kept value left out would be a far
        # column, so the row would skip the exact re-search.
        k, d = 2, 8
        rng = np.random.Generator(np.random.Philox(0))
        rows = []
        for _ in range(14):
            center = 20.0 * rng.normal(size=d)
            rows.append(center)
            for s in rng.permutation(k + 5):
                rows.append(center + (1.0 + 1e-9 * s) * np.eye(d)[s])
        X = np.array(rows)
        g = build_knn_graph(X, k)
        np.testing.assert_allclose(g.adjacency.toarray(), brute_force_knn_weights(X, k), atol=1e-14)

    def test_features_farther_apart_than_float64_holds(self, silence_runtime_warnings):
        # x - mean(x) overflows, so the float32 copy is scaled but not centered
        X = np.array([[-1.7e308], [1.7e308], [-1.7e308], [1.7e308], [1.7e308]])
        g = build_knn_graph(X, 1)
        np.testing.assert_allclose(g.adjacency.toarray(), brute_force_knn_weights(X, 1), atol=1e-14)

    @pytest.mark.parametrize("data", ["desk", "desk+1e3", "1e3+1e-6N"])
    def test_offsets_need_no_exact_research(self, data, monkeypatch):
        # the float32 copy is centered, so a common offset costs it no digits
        researched = []
        rank = graph._rank

        def counting_rank(X, rows, cand, k):
            if cand.shape[1] == X.shape[0] - 1:
                researched.extend(rows)
            return rank(X, rows, cand, k)

        monkeypatch.setattr(graph, "_rank", counting_rank)
        if data == "1e3+1e-6N":
            X, k = 1e3 + 1e-6 * np.random.Generator(np.random.Philox(3)).normal(size=(600, 64)), 8
        else:
            X, k = make_cluster_dataset(2000, 10)[0] + (1e3 if data == "desk+1e3" else 0.0), 10
        build_knn_graph(X, k)
        assert researched == []

    @pytest.mark.parametrize("rank_bytes", [256 << 10, 16 * 40 * 5], ids=["default", "5pairs"])
    def test_chunked_ranking_matches_one_pass(self, rank_bytes, monkeypatch):
        # a block of 200 rows with 14 candidates each, and the exact
        # re-search of one row over n - 1 candidates, each span several
        # chunks of the gather; a chunk may end inside a row
        def one_pass(X, rows, cand, k):
            diff = X[cand] - X[rows, None, :]
            dist = np.sqrt(np.einsum("rcd,rcd->rc", diff, diff))
            order = np.lexsort((cand, dist))[:, :k]
            return np.take_along_axis(cand, order, axis=1), np.take_along_axis(dist, order, axis=1)

        monkeypatch.setattr(graph, "_KNN_RANK_BYTES", rank_bytes)
        rng = np.random.Generator(np.random.Philox(29))
        X = rng.normal(size=(3000, 40))
        rows = np.arange(200)
        block = (rows[:, None] + rng.integers(1, 3000, size=(200, 14))) % 3000
        research = np.delete(np.arange(3000), 1234)[None, :]
        for rows, cand in ((rows, block), (np.array([1234]), research)):
            assert cand.size * 16 * 40 > 2 * rank_bytes
            for got, expected in zip(graph._rank(X, rows, cand, 10), one_pass(X, rows, cand, 10)):
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "offset,scale,column",
        [(0.0, 1.0, 1.0), (1e3, 1e-6, 1.0), (0.0, 1e-100, 1.0), (0.0, 1e100, 1.0), (0.0, 1.0, 1e6)],
        ids=["normal", "offset1e3", "scale1e-100", "scale1e100", "column1e6"],
    )
    def test_candidate_form_within_slack(self, offset, scale, column):
        rng = np.random.Generator(np.random.Philox(23))
        X = offset + scale * rng.normal(size=(70, 6))
        X[:, 0] *= column
        n = X.shape[0]
        C, sq, s, slack = graph._candidate_copy(X, 16)
        form = graph._candidate_form(C, sq, 0, np.empty((n, n), dtype=np.float32))
        diff = X[:, None, :] - X[None, :, :]
        exact = (s * np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))) ** 2
        assert np.all(np.abs(form.astype(np.float64) + sq[:, None] - exact) <= slack[:, None])

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

    def test_blocks_sized_by_features_match_kd_tree(self):
        # 4.3 MB of features, over the 4 MB floor: the budget is X.nbytes, so
        # blocks of 83 rows, and the last of the 51 blocks holds 50
        rng = np.random.Generator(np.random.Philox(13))
        X = rng.normal(size=(4200, 128))
        assert X.nbytes > 4 << 20
        g = build_knn_graph(X, 10)
        # one leaf: in 128 dimensions the tree prunes nothing, and one leaf queries fastest
        _, idx = cKDTree(X, leafsize=4200).query(X, k=11)
        assert np.array_equal(idx[:, 0], np.arange(4200))
        directed = sparse.coo_matrix(
            (np.ones(42000), (np.repeat(np.arange(4200), 10), idx[:, 1:].ravel())), shape=(4200, 4200)
        ).tocsr()
        expected = (directed + directed.T).tocsr()
        expected.sort_indices()
        assert np.array_equal(g.adjacency.indptr, expected.indptr)
        assert np.array_equal(g.adjacency.indices, expected.indices)

    @pytest.mark.parametrize("shape", [(2100, 256), (4200, 128)], ids=["2100x256", "4200x128"])
    def test_peak_memory_bounded_by_features(self, shape):
        # 4.3 MB of features in each shape.  The search sets the peak: its
        # float32 copy of the features (0.5x X.nbytes) plus one block's
        # temporaries, both paid for from one budget of X.nbytes, and the
        # 256 KB that _rank gathers at a time outside it, reach 1.11x at
        # 2100x256 and 1.18x at 4200x128, where the edge merge that follows
        # peaks at 1.14x
        X = np.random.Generator(np.random.Philox(17)).normal(size=shape)
        tracemalloc.start()
        try:
            build_knn_graph(X, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes

    def test_k_too_large_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_knn_graph(np.zeros((3, 2)), 3)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.nan, True])
    def test_non_integer_k_rejected(self, k):
        # 2.5 used to build the k = 2 graph, and NaN to fail with a bare ValueError
        with pytest.raises(InvalidParameterError, match="an integer"):
            build_knn_graph(np.arange(8.0), k)

    def test_numpy_integer_k_accepted(self):
        a = build_knn_graph(np.arange(8.0), 2).adjacency
        b = build_knn_graph(np.arange(8.0), np.int64(2)).adjacency
        assert (a != b).nnz == 0

    def test_one_dimensional_features_are_one_column(self):
        a = build_knn_graph(np.array([0.0, 1.0, 3.0]), 2).adjacency
        b = build_knn_graph(np.array([[0.0], [1.0], [3.0]]), 2).adjacency
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_three_dimensional_features_rejected(self):
        with pytest.raises(InvalidInputError, match="2-D"):
            build_knn_graph(np.zeros((4, 2, 2)), 1)

    def test_non_finite_features_rejected(self):
        X = np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]])
        with pytest.raises(InvalidInputError):
            build_knn_graph(X, 1)

    def test_overflowing_distances_rejected(self, silence_runtime_warnings):
        # finite features whose squared distances overflow give NaN weights
        X = np.array([[0.0], [1e200], [2e200], [3e200]])
        with pytest.raises(InvalidInputError, match="finite"):
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

    def test_nan_reported_as_non_finite(self):
        W = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(InvalidInputError, match="non-finite"):
            Graph.from_adjacency(W)

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(InvalidInputError, match="square"):
            Graph.from_adjacency(np.array([0.0, 1.0]))

    def test_edgeless_matrix_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one edge"):
            Graph.from_adjacency(np.zeros((1, 1)))

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidParameterError):
            Graph.from_adjacency(np.zeros((0, 0)))

    def test_duplicate_stored_entries_add(self):
        # a non-canonical sparse matrix: each off-diagonal entry stored twice
        W = sparse.csr_matrix((np.full(4, 0.25), [1, 1, 0, 0], [0, 2, 4]), shape=(2, 2))
        assert Graph.from_adjacency(W).adjacency[0, 1] == 0.5

    def test_duplicate_edges_merge_by_max(self):
        g = graph_from_edges(2, [0, 1, 0], [1, 0, 1], [0.5, 0.8, 0.2])
        assert g.adjacency[0, 1] == 0.8
        assert g.adjacency[1, 0] == 0.8

    def test_edge_self_loop_rejected(self):
        with pytest.raises(InvalidInputError, match="elf-loop"):
            graph_from_edges(2, [0, 0], [1, 0])

    @pytest.mark.parametrize("src,dst,weight,match", [
        ([0, 1], [1], None, "equal length"),
        ([0, 1], [1, 3], None, r"endpoints must lie in \[0, 3\)"),
        ([0, 1], [1, 2], [0.0, 0.0], "all edges have zero weight"),
    ], ids=["unequal_lengths", "endpoint_past_n", "all_zero_weights"])
    def test_bad_edge_arrays_rejected(self, src, dst, weight, match):
        with pytest.raises(InvalidInputError, match=match):
            graph_from_edges(3, src, dst, weight)

    @pytest.mark.parametrize("src,dst", [([0.5, 1.7], [1.2, 2.9]), ([0, 1], [1.0, 2.0])],
                             ids=["fractional", "float_dst"])
    def test_non_integer_endpoints_rejected(self, src, dst):
        # truncated, [0.5, 1.7] -> [1.2, 2.9] would be the edges 0-1 and 1-2
        with pytest.raises(InvalidInputError, match="integer dtype"):
            graph_from_edges(3, src, dst)

    @pytest.mark.parametrize("n", [3.5, 3.0, np.nan, True])
    def test_non_integer_node_count_rejected(self, n):
        with pytest.raises(InvalidParameterError, match="an integer"):
            graph_from_edges(n, [0, 1], [1, 2])

    def test_numpy_integer_edges_accepted(self):
        a = graph_from_edges(3, [0, 1], [1, 2]).adjacency
        b = graph_from_edges(np.int32(3), np.array([0, 1], np.uint8), np.array([1, 2], np.int32))
        assert (a != b.adjacency).nnz == 0

    def test_node_count_past_edge_ends_rejected_before_allocation(self):
        # n > 2 * edges leaves a node isolated; nothing of size n is built
        with pytest.raises(InvalidInputError, match=r"2999999999 isolated node\(s\), e\.g\. node 1;"):
            graph_from_edges(3_000_000_001, [0], [3_000_000_000])


# a 4-cycle with one chord; every builder below yields this graph or a k-NN one
CHORDED_CYCLE = np.array(
    [[0.0, 0.5, 0.75, 0.25], [0.5, 0.0, 1.0, 0.0], [0.75, 1.0, 0.0, 2.0], [0.25, 0.0, 2.0, 0.0]]
)


def _stored_zeros_matrix():
    r, c = np.nonzero(CHORDED_CYCLE)
    W = sparse.csr_matrix(
        (np.r_[CHORDED_CYCLE[r, c], 0.0, 0.0, 0.0], (np.r_[r, 0, 3, 1], np.r_[c, 0, 3, 3])),
        shape=(4, 4),
    )
    assert W.nnz == r.size + 3  # explicit zeros, two of them on the diagonal
    return W


def _via_edgelist(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1 0.5\n1 2 1.0\n2 3 2.0\n3 0 0.25\n0 2 0.75\n")
    return read_edgelist(path)


BUILDERS = {
    "graph_from_edges": lambda tmp_path: graph_from_edges(
        4, [0, 1, 2, 3, 0], [1, 2, 3, 0, 2], [0.5, 1.0, 2.0, 0.25, 0.75]
    ),
    "from_adjacency_dense": lambda tmp_path: Graph.from_adjacency(CHORDED_CYCLE),
    "from_adjacency_stored_zeros": lambda tmp_path: Graph.from_adjacency(_stored_zeros_matrix()),
    "build_knn_graph": lambda tmp_path: build_knn_graph(
        np.random.Generator(np.random.Philox(3)).normal(size=(30, 3)), 4
    ),
    "read_edgelist": _via_edgelist,
}


class TestOneBuildPath:
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_every_builder_gives_canonical_csr_array(self, builder, tmp_path):
        g = BUILDERS[builder](tmp_path)
        A = g.adjacency
        assert isinstance(A, sparse.csr_array)
        assert A.shape == (g.n, g.n)
        assert A.has_canonical_format
        assert (A != A.T).nnz == 0
        assert np.all(A.diagonal() == 0)
        assert np.all(A.data > 0)
        np.testing.assert_allclose(g.degrees, A.toarray().sum(axis=1), rtol=1e-15)
        if builder != "build_knn_graph":
            assert np.array_equal(A.toarray(), CHORDED_CYCLE)

    @pytest.mark.parametrize("as_input", [np.asarray, sparse.csr_matrix, sparse.csr_array])
    def test_from_adjacency_is_graph_from_edges_on_upper_triangle(self, as_input):
        W = random_connected_graph(5, 40).adjacency.toarray()
        r, c = np.nonzero(np.triu(W))
        a = Graph.from_adjacency(as_input(W))
        b = graph_from_edges(40, r, c, W[r, c])
        assert a.n == b.n
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a.adjacency, name), getattr(b.adjacency, name))
        assert np.array_equal(a.degrees, b.degrees)
        assert np.array_equal(a.degree_weights, b.degree_weights)


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

    def test_laplacian_three_dimensional_rejected(self):
        with pytest.raises(InvalidInputError, match="1-D or 2-D"):
            laplacian_apply(path_graph(3), np.zeros((3, 2, 2)))

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

    def test_class_count_below_one_rejected(self):
        with pytest.raises(InvalidParameterError, match="k must be >= 1"):
            LabelSet(k=0, entries=((0, 0),))

    @pytest.mark.parametrize("k", [2.5, 2.0, np.nan, True])
    def test_non_integer_class_count_rejected(self, k):
        with pytest.raises(InvalidParameterError, match="an integer"):
            LabelSet(k=k, entries=((0, 0),))

    @pytest.mark.parametrize("entries", [((1.5, 0), (3, 1)), ((1, 0), (3, 1.9)), ((1.0, 0),),
                                         ((True, 0), (3, 1))],
                             ids=["node1.5", "class1.9", "node1.0", "node_True"])
    def test_non_integer_indices_rejected(self, entries):
        # truncated, ((1.5, 0), (3, 1.9)) would be the valid ((1, 0), (3, 1))
        with pytest.raises(InvalidInputError, match="integers"):
            LabelSet(k=2, entries=entries)

    def test_numpy_integer_indices_accepted(self):
        ls = LabelSet(k=2, entries=((np.int64(1), np.int32(0)), (np.uint8(3), 1)))
        assert ls.entries == ((1, 0), (3, 1))

    def test_negative_node_rejected(self):
        with pytest.raises(InvalidInputError, match="node index must be >= 0"):
            LabelSet(k=2, entries=((-1, 0), (2, 1)))
