import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csgraph

from varprop import (
    Dataset,
    LabelSet,
    SolverConfig,
    accuracy_on_unlabeled,
    emit_table,
    graph_from_edges,
    make_cluster_dataset,
    run_trials,
    with_knn_graph,
)
from varprop.bench import TrialReport, report_to_dict
from varprop.errors import InvalidParameterError, LayoutError


def two_cluster_feature_dataset():
    """Two tight, far-apart clusters; the k-NN graph is disconnected between them."""
    rng = np.random.Generator(np.random.Philox(99))
    a = rng.normal(0.0, 0.05, size=(12, 2))
    b = rng.normal(0.0, 0.05, size=(12, 2)) + 50.0
    X = np.vstack([a, b])
    labels = np.array([0] * 12 + [1] * 12)
    return with_knn_graph(Dataset(name="clusters", k=2, true_labels=labels, features=X), 3)


@pytest.fixture(scope="module")
def desk_dataset():
    """The README desk data: 2000 samples in 10 classes on its 10-NN graph."""
    X, y = make_cluster_dataset(2000, 10)
    return with_knn_graph(Dataset(name="desk", k=10, true_labels=y, features=X), 10)


def bridged_cliques(m=6, eps=1e-3):
    src, dst, w = [], [], []
    for i in range(m):
        for j in range(i + 1, m):
            src += [i, m + i]
            dst += [j, m + j]
            w += [1.0, 1.0]
    src.append(0)
    dst.append(m)
    w.append(eps)
    g = graph_from_edges(2 * m, src, dst, w)
    labels = np.array([0] * m + [1] * m)
    return Dataset(name="bridged", k=2, true_labels=labels, graph=g)


class TestAccuracy:
    def test_counts_only_unlabeled_nodes(self):
        truth = np.array([0, 1, 0, 1])
        ls = LabelSet(k=2, entries=((0, 0),))
        pred = np.array([1, 1, 0, 0])  # wrong at the labeled node, 2/3 right elsewhere
        assert accuracy_on_unlabeled(pred, truth, ls) == pytest.approx(2 / 3)

    def test_everything_labeled_is_an_error(self):
        truth = np.array([0, 1])
        ls = LabelSet(k=2, entries=((0, 0), (1, 1)))
        with pytest.raises(InvalidParameterError, match="no unlabeled"):
            accuracy_on_unlabeled(np.array([0, 1]), truth, ls)


class TestRunTrials:
    def test_separated_clusters_are_exact_for_laplace(self):
        ds = two_cluster_feature_dataset()
        ncomp, comp = csgraph.connected_components(ds.graph.adjacency, directed=False)
        assert ncomp == 2  # no k-NN edges cross the gap
        assert len(set(comp[:12])) == 1 and len(set(comp[12:])) == 1
        report = run_trials(ds, "laplace", 1, trials=6, base_seed=4)
        assert report.failures == 0
        assert report.accuracies == (1.0,) * 6
        assert report.mean == 1.0 and report.std == 0.0

    def test_identical_inputs_identical_report(self):
        ds = bridged_cliques()
        a = run_trials(ds, "poisson", 1, trials=6, base_seed=9)
        b = run_trials(ds, "poisson", 1, trials=6, base_seed=9)
        assert a == b

    def test_report_prefix_is_stable(self):
        # labels that cut across the cliques make each accuracy depend on its draw
        ds = replace(bridged_cliques(), true_labels=np.tile([0, 1], 6))
        short = run_trials(ds, "laplace", 2, trials=4, base_seed=5)
        long = run_trials(ds, "laplace", 2, trials=8, base_seed=5)
        assert len(set(long.accuracies)) > 1
        assert short.seeds == long.seeds[:4]
        assert short.accuracies == long.accuracies[:4]

    def test_mean_std_recomputable_from_accuracies(self):
        ds = bridged_cliques()
        report = run_trials(ds, "poisson", 2, trials=10, base_seed=2)
        arr = np.array(report.accuracies)
        assert report.mean == pytest.approx(arr.mean(), abs=1e-12)
        assert report.std == pytest.approx(arr.std(), abs=1e-12)
        assert all(0.0 <= a <= 1.0 for a in report.accuracies)

    def test_all_nodes_labeled_raises(self):
        ds = bridged_cliques(m=2)
        with pytest.raises(InvalidParameterError, match="no unlabeled"):
            run_trials(ds, "laplace", 2, trials=2, base_seed=0)

    def test_failed_trials_recorded_not_dropped(self, silence_runtime_warnings):
        ds = bridged_cliques()
        cfg = SolverConfig(lam=1e6)
        report = run_trials(ds, "v_poisson", 1, trials=4, base_seed=0, cfg=cfg)
        assert report.failures == 4
        assert report.accuracies == ()
        assert report.mean is None and report.std is None
        assert len(report.seeds) == 4

    def test_nonconverged_trials_are_failures(self):
        ds = bridged_cliques()
        cfg = SolverConfig(max_iter=1)
        report = run_trials(ds, "laplace", 1, trials=4, base_seed=0, cfg=cfg)
        assert report.failures == 4
        assert report.accuracies == ()
        assert report.mean is None and report.std is None

    def test_graphless_dataset_rejected(self):
        ds = Dataset(name="x", k=2, true_labels=np.array([0, 1]), features=np.zeros((2, 2)))
        with pytest.raises(InvalidParameterError, match="graph"):
            run_trials(ds, "laplace", 1, trials=1, base_seed=0)

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameterError, match="trials must be >= 1"):
            run_trials(bridged_cliques(), "laplace", 1, trials=0, base_seed=0)

    @pytest.mark.parametrize("labels_per_class,trials",
                             [(1.5, 2), (1, 2.0), (np.nan, 2), (True, 2), (1, True)],
                             ids=["labels_per_class1.5", "trials2.0", "labels_per_class_nan",
                                  "labels_per_class_True", "trials_True"])
    def test_non_integer_counts_rejected(self, labels_per_class, trials):
        # 1.5 labels per class used to draw 1 and report 1.5
        with pytest.raises(InvalidParameterError, match="an integer"):
            run_trials(bridged_cliques(), "laplace", labels_per_class, trials=trials, base_seed=0)

    def test_non_integer_base_seed_rejected(self):
        # truncated, base_seed=1.9 would rerun the trials of seed 1
        with pytest.raises(InvalidParameterError, match="integers"):
            run_trials(bridged_cliques(), "laplace", 1, trials=2, base_seed=1.9)

    def test_numpy_integer_counts_accepted(self):
        ds = bridged_cliques()
        plain = run_trials(ds, "laplace", 1, trials=2, base_seed=0)
        report = run_trials(ds, "laplace", np.int64(1), trials=np.int32(2), base_seed=0)
        assert report == plain
        # the counts are stored as int, which json takes and a numpy integer is not
        assert json.dumps(report_to_dict(report)) == json.dumps(report_to_dict(plain))

    def test_majority_share_of_exact_predictions(self):
        # 11 unlabeled nodes in each of the two clusters, all predicted right
        report = run_trials(two_cluster_feature_dataset(), "laplace", 1, trials=3, base_seed=4)
        assert report.accuracies == (1.0,) * 3
        assert report.majority_share == 0.5

    def test_majority_share_none_without_scored_trials(self, silence_runtime_warnings):
        cfg = SolverConfig(lam=1e6)
        report = run_trials(bridged_cliques(), "v_poisson", 1, trials=2, base_seed=0, cfg=cfg)
        assert report.failures == 2 and report.majority_share is None

    @pytest.mark.parametrize("method,m,accuracy,share", [
        ("laplace", 1, 13.5, 94.4),
        ("laplace", 5, 44.6, 46.2),
        ("poisson", 1, 57.3, 15.1),
        ("poisson", 5, 67.6, 14.8),
    ])
    def test_desk_collapse_cells(self, desk_dataset, method, m, accuracy, share):
        # the baseline cells of the collapse table: laplace puts most
        # unlabeled nodes in one class at 1 label per class, poisson does not
        report = run_trials(desk_dataset, method, m, trials=20, base_seed=11)
        assert report.failures == 0
        assert round(100 * report.mean, 1) == accuracy
        assert round(100 * report.majority_share, 1) == share

    def test_desk_cell_at_a_fraction_of_lambda_2(self, desk_dataset):
        # the v_laplace row of the collapse table at 0.9 lambda_2: the
        # variance term lifts accuracy and cuts the majority share
        lam = 0.9 * desk_dataset.graph._stability_limit
        report = run_trials(desk_dataset, "v_laplace", 1, trials=20, base_seed=11,
                            cfg=SolverConfig(lam=lam))
        assert report.failures == 0 and report.lam == lam
        assert round(100 * report.mean, 1) == 24.6
        assert round(100 * report.majority_share, 1) == 72.7

    @pytest.mark.parametrize("method,lam", [("laplace", 0.0), ("poisson", 0.0),
                                            ("v_laplace", 0.3), ("v_poisson", 0.3)])
    def test_report_lam_is_the_variance_weight(self, method, lam):
        report = run_trials(bridged_cliques(), method, 1, trials=2, base_seed=0,
                            cfg=SolverConfig(lam=0.3))
        assert report.lam == lam

    def test_vpl_threads_is_not_read(self, monkeypatch):
        ds = bridged_cliques()
        monkeypatch.delenv("VPL_THREADS", raising=False)
        plain = run_trials(ds, "poisson", 1, trials=6, base_seed=8)
        monkeypatch.setenv("VPL_THREADS", "junk")
        assert run_trials(ds, "poisson", 1, trials=6, base_seed=8) == plain


def report_fixture(method="poisson", m=1, mean=0.613, std=0.049, lam=0.0):
    return TrialReport(
        dataset="fixture",
        method=method,
        lam=lam,
        labels_per_class=m,
        trials=2,
        accuracies=(mean - std, mean + std),
        failures=0,
        seeds=(1, 2),
        mean=mean,
        std=std,
        majority_share=0.5,
    )


class TestEmitTable:
    def test_cell_format_one_decimal_percent(self):
        text = emit_table([report_fixture()])
        assert "61.3 (4.9)" in text

    def test_text_layout(self):
        reports = [
            report_fixture("laplace", 1, 0.17, 0.066),
            report_fixture("laplace", 2, 0.317, 0.1),
            report_fixture("poisson", 1, 0.604, 0.047),
            report_fixture("poisson", 2, 0.663, 0.04),
        ]
        lines = emit_table(reports).splitlines()
        assert lines[0].split() == ["method", "1", "2"]
        assert lines[1].startswith("laplace") and "17.0 (6.6)" in lines[1]
        assert lines[2].startswith("poisson") and "60.4 (4.7)" in lines[2]

    def test_method_with_several_lams_labels_each_row(self):
        reports = [
            report_fixture("laplace", 1, 0.17, 0.066),
            report_fixture("v_laplace", 1, 0.2, 0.05, lam=0.5),
            report_fixture("v_laplace", 1, 0.3, 0.05, lam=1.25),
        ]
        lines = emit_table(reports).splitlines()
        assert [line.split("  ")[0].rstrip() for line in lines] == [
            "method", "laplace", "v_laplace lam=0.5", "v_laplace lam=1.25"]
        assert "30.0 (5.0)" in lines[3]

    def test_same_cell_at_two_lams_is_not_a_duplicate(self):
        reports = [report_fixture(lam=0.5), report_fixture(lam=0.5), report_fixture(lam=1.0)]
        with pytest.raises(LayoutError, match="duplicate"):
            emit_table(reports)
        assert len(emit_table(reports[1:]).splitlines()) == 3

    def test_empty_rejected(self):
        with pytest.raises(LayoutError):
            emit_table([])

    def test_inconsistent_columns_rejected(self):
        reports = [report_fixture("laplace", 1), report_fixture("poisson", 2)]
        with pytest.raises(LayoutError, match="different"):
            emit_table(reports)

    def test_duplicate_cell_rejected(self):
        with pytest.raises(LayoutError, match="duplicate"):
            emit_table([report_fixture(), report_fixture()])

    def test_json_round_trip_equals_source(self):
        ds = bridged_cliques()
        reports = [
            run_trials(ds, method, 1, trials=4, base_seed=3)
            for method in ("laplace", "poisson")
        ]
        docs = [report_to_dict(r) for r in reports]
        assert json.loads(json.dumps(docs)) == docs

    def test_report_dict_schema(self):
        doc = report_to_dict(report_fixture())
        assert sorted(doc.keys()) == [
            "accuracies",
            "dataset",
            "failures",
            "labels_per_class",
            "lam",
            "majority_share",
            "mean",
            "method",
            "seeds",
            "std",
            "trials",
        ]
