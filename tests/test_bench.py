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

    def test_vpl_threads_is_not_read(self, monkeypatch):
        ds = bridged_cliques()
        monkeypatch.delenv("VPL_THREADS", raising=False)
        plain = run_trials(ds, "poisson", 1, trials=6, base_seed=8)
        monkeypatch.setenv("VPL_THREADS", "junk")
        assert run_trials(ds, "poisson", 1, trials=6, base_seed=8) == plain


def report_fixture(method="poisson", m=1, mean=0.613, std=0.049):
    return TrialReport(
        dataset="fixture",
        method=method,
        labels_per_class=m,
        trials=2,
        accuracies=(mean - std, mean + std),
        failures=0,
        seeds=(1, 2),
        mean=mean,
        std=std,
    )


class TestEmitTable:
    def test_cell_format_one_decimal_percent(self):
        text = emit_table([report_fixture()], "text")
        assert "61.3 (4.9)" in text

    def test_text_layout(self):
        reports = [
            report_fixture("laplace", 1, 0.17, 0.066),
            report_fixture("laplace", 2, 0.317, 0.1),
            report_fixture("poisson", 1, 0.604, 0.047),
            report_fixture("poisson", 2, 0.663, 0.04),
        ]
        lines = emit_table(reports, "text").splitlines()
        assert lines[0].split() == ["method", "1", "2"]
        assert lines[1].startswith("laplace") and "17.0 (6.6)" in lines[1]
        assert lines[2].startswith("poisson") and "60.4 (4.7)" in lines[2]

    def test_tsv_variant(self):
        tsv = emit_table([report_fixture()], "tsv")
        assert tsv.splitlines()[0] == "method\t1"
        assert tsv.splitlines()[1] == "poisson\t61.3 (4.9)"

    def test_empty_rejected(self):
        with pytest.raises(LayoutError):
            emit_table([], "text")

    def test_inconsistent_columns_rejected(self):
        reports = [report_fixture("laplace", 1), report_fixture("poisson", 2)]
        with pytest.raises(LayoutError, match="different"):
            emit_table(reports, "text")

    def test_duplicate_cell_rejected(self):
        with pytest.raises(LayoutError, match="duplicate"):
            emit_table([report_fixture(), report_fixture()], "text")

    def test_json_round_trip_equals_source(self):
        ds = bridged_cliques()
        reports = [
            run_trials(ds, method, 1, trials=4, base_seed=3)
            for method in ("laplace", "poisson")
        ]
        assert json.loads(emit_table(reports, "json")) == [report_to_dict(r) for r in reports]

    def test_report_dict_schema(self):
        doc = report_to_dict(report_fixture())
        assert sorted(doc.keys()) == [
            "accuracies",
            "dataset",
            "failures",
            "labels_per_class",
            "mean",
            "method",
            "seeds",
            "std",
            "trials",
        ]
