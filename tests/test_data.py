import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varprop
import varprop.data
from varprop import (
    ContinuumConfig,
    Dataset,
    Graph,
    LabelSet,
    graph_from_edges,
    load_feature_dataset,
    load_graph_dataset,
    sample_label_set,
    second_difference,
    with_knn_graph,
)
from varprop.continuum import write_residual_csv
from varprop.data import (
    derive_trial_seed,
    read_edgelist,
    read_feature_csv,
    read_label_file,
    read_labeled_nodes,
    write_feature_csv,
    write_edgelist,
    write_label_file,
)
from varprop.errors import (
    FormatError,
    InsufficientLabelsError,
    InvalidInputError,
    InvalidParameterError,
)


def make_dataset(labels, k=None):
    labels = np.asarray(labels)
    k = k if k is not None else int(labels.max()) + 1
    features = np.arange(labels.size * 2, dtype=float).reshape(labels.size, 2)
    return Dataset(name="toy", k=k, true_labels=labels, features=features)


class TestFeatureLoading:
    def test_two_row_file(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("0.0,1.0\n1.0,0.0\n")
        l = tmp_path / "l.txt"
        l.write_text("0\n1\n")
        ds = load_feature_dataset(f, l)
        assert (ds.n, ds.features.shape[1], ds.k) == (2, 2, 2)

    def test_ragged_row_reports_line(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("0.0,1.0\n1.0\n")
        (tmp_path / "l.txt").write_text("0\n1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_feature_dataset(f, tmp_path / "l.txt")

    def test_non_numeric_reports_line(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("0.0,1.0\n1.0,abc\n")
        (tmp_path / "l.txt").write_text("0\n1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_feature_dataset(f, tmp_path / "l.txt")

    def test_row_count_mismatch_names_both(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("0.0\n1.0\n2.0\n")
        l = tmp_path / "l.txt"
        l.write_text("0\n1\n")
        with pytest.raises(FormatError, match="3.*2"):
            load_feature_dataset(f, l)

    def test_negative_label_rejected(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("0.0\n1.0\n")
        l = tmp_path / "l.txt"
        l.write_text("0\n-1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_feature_dataset(f, l)

    def test_gap_in_labels_warns_about_empty_class(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("0.0\n1.0\n")
        l = tmp_path / "l.txt"
        l.write_text("0\n2\n")
        with pytest.warns(UserWarning, match=r"classes \[1\]"):
            ds = load_feature_dataset(f, l)
        assert ds.k == 3
        with pytest.raises(InsufficientLabelsError):
            sample_label_set(ds, 1, seed=0)

    def test_non_finite_feature_rejected(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("0.0\nnan\n")
        (tmp_path / "l.txt").write_text("0\n1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_feature_dataset(f, tmp_path / "l.txt")

    def test_whitespace_only_line_skipped(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("0.5,1.0\n   \n2.0,3.0\n")
        np.testing.assert_array_equal(read_feature_csv(f), [[0.5, 1.0], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "text,line",
        [("1,2\n\n3\n", "line 3"), ("1,2\ninf,3\n", "line 2"), ("1,2\n3,4,\n", "line 2")],
    )
    def test_error_line_counts_every_line(self, tmp_path, text, line):
        f = tmp_path / "f.csv"
        f.write_text(text)
        with pytest.raises(FormatError, match=line):
            read_feature_csv(f)

    def test_empty_file_rejected_without_warning(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="no data rows"):
                read_feature_csv(f)

    def test_written_file_reads_back_bitwise(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(3))
        X = rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-8, 8, size=(50, 7))
        write_feature_csv(tmp_path / "f.csv", X)
        Y = read_feature_csv(tmp_path / "f.csv")
        assert Y.dtype == np.float64 and Y.shape == X.shape
        assert np.array_equal(Y.view(np.int64), X.view(np.int64))


# Each text format: its reader, two valid lines, one line it rejects, and
# whether it skips '#' comment lines.
FORMATS = {
    "feature csv": (read_feature_csv, ("1,2", "3,4"), "x,2", False),
    "label file": (read_label_file, ("1", "0"), "x", False),
    "labeled nodes": (read_labeled_nodes, ("0 1", "1 0"), "x 1", True),
    "edge list": (read_edgelist, ("0 1", "1 2"), "x 1", True),
}


def _comparable(parsed):
    if isinstance(parsed, Graph):
        return parsed.adjacency.toarray()
    if isinstance(parsed, LabelSet):
        return np.array(parsed.entries)
    return parsed


@pytest.mark.parametrize("fmt", FORMATS)
class TestLineReader:
    def test_error_line_counts_blank_and_whitespace_lines(self, tmp_path, fmt):
        reader, good, bad, _ = FORMATS[fmt]
        f = tmp_path / "in.txt"
        f.write_text(f"{good[0]}\n\n  \n{bad}")
        with pytest.raises(FormatError, match="line 4:"):
            reader(f)

    def test_comment_lines(self, tmp_path, fmt):
        reader, good, _, skips_comments = FORMATS[fmt]
        f = tmp_path / "in.txt"
        f.write_text(f"{good[0]}\n# note\n{good[1]}\n")
        if skips_comments:
            plain = tmp_path / "plain.txt"
            plain.write_text(f"{good[0]}\n{good[1]}\n")
            np.testing.assert_array_equal(_comparable(reader(f)), _comparable(reader(plain)))
        else:
            with pytest.raises(FormatError, match="line 2:"):
                reader(f)

    def test_crlf_parses_like_lf(self, tmp_path, fmt):
        reader, good, _, _ = FORMATS[fmt]
        text = f"{good[0]}\n\n{good[1]}\n"
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        np.testing.assert_array_equal(_comparable(reader(crlf)), _comparable(reader(lf)))


def test_public_names_pinned():
    assert varprop.read_edgelist is varprop.data.read_edgelist
    assert varprop.write_edgelist is varprop.data.write_edgelist
    assert sorted(varprop.__all__) == [
        "ContinuumConfig", "Dataset", "Graph", "LabelSet", "METHODS", "PathGraphReport",
        "RefinementReport", "ResidualStats", "SolveResult", "SolverConfig", "TrialReport",
        "accuracy_on_unlabeled", "build_knn_graph", "dense_oracle_solve", "derive_trial_seed",
        "discrete_vs_continuum", "emit_table", "estimate_stability_limit", "graph_from_edges",
        "laplacian_apply", "load_feature_dataset", "load_graph_dataset", "make_cluster_dataset",
        "objective_value", "ode_residual_check", "predict", "read_edgelist",
        "residual_refinement_ratio", "run_trials", "sample_label_set", "second_difference",
        "solve", "variance", "weighted_mean", "with_knn_graph", "write_edgelist",
    ]


class TestGraphLoading:
    def test_triangle(self, tmp_path):
        e = tmp_path / "g.edges"
        e.write_text("0 1\n0 2\n1 2\n")
        l = tmp_path / "l.txt"
        l.write_text("0\n1\n0\n")
        ds = load_graph_dataset(e, l)
        assert ds.graph.n == 3 and ds.graph.edge_count == 3 and ds.k == 2

    def test_self_loop_dropped_with_warning(self, tmp_path):
        e = tmp_path / "g.edges"
        e.write_text("0 0 1.0\n0 1\n1 2\n")
        l = tmp_path / "l.txt"
        l.write_text("0\n1\n0\n")
        with pytest.warns(UserWarning, match="self-loop"):
            ds = load_graph_dataset(e, l)
        assert ds.graph.edge_count == 2

    def test_duplicate_edges_merge_by_max(self, tmp_path):
        e = tmp_path / "g.edges"
        e.write_text("0 1 0.5\n0 1 0.8\n1 2 1.0\n")
        l = tmp_path / "l.txt"
        l.write_text("0\n1\n0\n")
        ds = load_graph_dataset(e, l)
        assert ds.graph.adjacency[0, 1] == 0.8

    def test_edge_index_beyond_labels_rejected(self, tmp_path):
        e = tmp_path / "g.edges"
        e.write_text("0 5 1.0\n")
        l = tmp_path / "l.txt"
        l.write_text("0\n1\n")
        with pytest.raises(FormatError, match="exceeds"):
            load_graph_dataset(e, l)


class TestLabeledNodeFile:
    def test_pairs_with_comments(self, tmp_path):
        p = tmp_path / "lab.txt"
        p.write_text("# fixture\n0 0\n\n2 1\n")
        ls = read_labeled_nodes(p)
        assert ls.entries == ((0, 0), (2, 1))
        assert ls.k == 2

    def test_bad_pair_reports_line(self, tmp_path):
        p = tmp_path / "lab.txt"
        p.write_text("0 0\n1 2 3\n")
        with pytest.raises(FormatError, match="line 2"):
            read_labeled_nodes(p)


class TestRoundTrip:
    def test_feature_dataset_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(7))
        X = rng.normal(size=(12, 5))
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]
        write_feature_csv(tmp_path / "f.csv", X)
        write_label_file(tmp_path / "l.txt", labels)
        ds = load_feature_dataset(tmp_path / "f.csv", tmp_path / "l.txt")
        np.testing.assert_array_equal(ds.features, X)
        np.testing.assert_array_equal(ds.true_labels, labels)

    def test_graph_dataset_round_trip(self, tmp_path):
        ds = make_dataset([0, 1, 0, 1, 0, 1, 0, 1])
        ds = with_knn_graph(ds, 3)
        write_edgelist(ds.graph, tmp_path / "g.edges")
        write_label_file(tmp_path / "l.txt", ds.true_labels)
        ds2 = load_graph_dataset(tmp_path / "g.edges", tmp_path / "l.txt")
        assert (ds.graph.adjacency != ds2.graph.adjacency).nnz == 0
        np.testing.assert_array_equal(ds.true_labels, ds2.true_labels)

    def test_writers_pin_bytes(self, tmp_path):
        def g17(values):
            return [f"{v:.17g}" for v in values]

        X = np.array([[-0.0, 5e-324, 1e308], [0.1, 1 / 3, -2.5e-7]])
        write_feature_csv(tmp_path / "f.csv", X)
        assert (tmp_path / "f.csv").read_text() == "".join(",".join(g17(r)) + "\n" for r in X)
        assert (tmp_path / "f.csv").read_text().startswith("-0,4.9406564584124654e-324,1e+308\n")

        write_label_file(tmp_path / "l.txt", [0, 7, 123456])
        assert (tmp_path / "l.txt").read_text() == "0\n7\n123456\n"

        w = [0.1, 1 / 3, 2.5]
        write_edgelist(graph_from_edges(3, [1, 2, 2], [0, 0, 1], w), tmp_path / "g.edges")
        a, b, c = g17(w)
        assert (tmp_path / "g.edges").read_text() == f"0 1 {a}\n0 2 {b}\n1 2 {c}\n"

        cfg = ContinuumConfig(n_grid=16, lam=1.0)
        write_residual_csv(cfg, tmp_path / "r.csv")
        x = np.linspace(0.0, 1.0, 16)
        v = np.cos(x)
        r = second_difference(v, x[1] - x[0]) + v[1:-1]
        lines = (tmp_path / "r.csv").read_text().splitlines(keepends=True)
        assert lines[:2] == ["x,value,residual\n", ",".join(g17([x[1], v[1], r[0]])) + "\n"]
        assert len(lines) == 15


class TestSampler:
    def test_identical_inputs_identical_output(self):
        ds = make_dataset([0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
        a = sample_label_set(ds, 2, seed=42)
        b = sample_label_set(ds, 2, seed=42)
        assert a.entries == b.entries

    def test_exact_class_balance(self):
        ds = make_dataset([0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
        ls = sample_label_set(ds, 2, seed=9)
        counts = np.bincount(ls.classes, minlength=3)
        np.testing.assert_array_equal(counts, [2, 2, 2])
        for node, c in ls.entries:
            assert ds.true_labels[node] == c

    def test_exhaustive_draw_covers_every_node(self):
        ds = make_dataset([0, 0, 1, 1])
        ls = sample_label_set(ds, 2, seed=3)
        assert sorted(ls.nodes.tolist()) == [0, 1, 2, 3]

    def test_one_per_class_gives_k_nodes(self):
        ds = make_dataset([0, 0, 1, 1, 2, 2])
        ls = sample_label_set(ds, 1, seed=5)
        assert ls.l == 3

    def test_insufficient_members_rejected(self):
        ds = make_dataset([0, 0, 1])
        with pytest.raises(InsufficientLabelsError, match="class 1"):
            sample_label_set(ds, 2, seed=0)

    def test_known_stream_frozen(self):
        # frozen draw guards against accidental generator changes
        ds = make_dataset([0, 0, 0, 0, 0, 0, 0, 0, 0, 0], k=1)
        ls = sample_label_set(ds, 3, seed=123)
        assert ls.entries == sample_label_set(ds, 3, seed=123).entries
        assert len(set(ls.nodes.tolist())) == 3

    @given(st.integers(0, 2**63), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_balance_and_determinism_property(self, seed, m):
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
        ds = make_dataset(labels)
        a = sample_label_set(ds, m, seed=seed)
        b = sample_label_set(ds, m, seed=seed)
        assert a.entries == b.entries
        counts = np.bincount(a.classes, minlength=3)
        assert counts.tolist() == [m, m, m]
        assert len(set(a.nodes.tolist())) == 3 * m

    def test_seed_changes_output(self):
        labels = np.repeat(np.arange(3), 50)
        ds = make_dataset(labels)
        draws = {sample_label_set(ds, 2, seed=s).entries for s in range(20)}
        assert len(draws) > 1


class TestTrialSeeds:
    def test_derive_is_pure(self):
        assert derive_trial_seed(7, 3) == derive_trial_seed(7, 3)
        assert derive_trial_seed(7, 3) != derive_trial_seed(7, 4)
        assert derive_trial_seed(8, 3) != derive_trial_seed(7, 3)

    def test_derived_seeds_fit_in_uint64(self):
        for t in range(100):
            assert 0 <= derive_trial_seed(123, t) < 2**64


class TestDatasetValidation:
    def test_needs_a_source(self):
        with pytest.raises(InvalidInputError):
            Dataset(name="x", k=2, true_labels=np.array([0, 1]))

    def test_label_range_checked(self):
        with pytest.raises(InvalidInputError):
            Dataset(name="x", k=2, true_labels=np.array([0, 2]), features=np.zeros((2, 1)))

    def test_graph_size_must_match(self):
        ds = make_dataset([0, 1, 0, 1])
        g = with_knn_graph(ds, 1).graph
        with pytest.raises(InvalidInputError):
            Dataset(name="x", k=2, true_labels=np.array([0, 1]), graph=g)

    def test_with_knn_graph_requires_features(self, tmp_path):
        e = tmp_path / "g.edges"
        e.write_text("0 1\n")
        l = tmp_path / "l.txt"
        l.write_text("0\n1\n")
        ds = load_graph_dataset(e, l)
        with pytest.raises(InvalidParameterError):
            with_knn_graph(ds, 1)
