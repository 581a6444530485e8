"""Seeded repeated-trial benchmark harness with table and JSON reporting.

A trial draws a per-class label split, runs one solver, and scores
accuracy over the unlabeled nodes only (scoring clamped labeled nodes
would inflate the clamping methods).  Trial seeds derive from
(base_seed, trial index), so reports are independent of execution order.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, derive_trial_seed, sample_label_set
from .errors import (
    DivergenceError,
    IllPosedError,
    InvalidParameterError,
    LayoutError,
)
from .graph import LabelSet
from .solvers import SolverConfig, predict, solve

__all__ = [
    "TrialReport",
    "accuracy_on_unlabeled",
    "run_trials",
    "emit_table",
    "report_to_dict",
]


@dataclass(frozen=True)
class TrialReport:
    dataset: str
    method: str
    labels_per_class: int
    trials: int
    accuracies: tuple
    failures: int
    seeds: tuple
    mean: float
    std: float


def _summarize(accuracies):
    if not accuracies:
        return None, None
    arr = np.asarray(accuracies, dtype=np.float64)
    return float(arr.mean()), float(arr.std())  # population std


def accuracy_on_unlabeled(predicted, true_labels, labels: LabelSet) -> float:
    """Fraction of unlabeled nodes whose predicted class matches the truth."""
    predicted = np.asarray(predicted)
    true_labels = np.asarray(true_labels)
    mask = np.ones(true_labels.size, dtype=bool)
    mask[labels.nodes] = False
    if not mask.any():
        raise InvalidParameterError("every node is labeled; no unlabeled nodes to score")
    return float(np.mean(predicted[mask] == true_labels[mask]))


def run_trials(
    ds: Dataset,
    method: str,
    labels_per_class: int,
    trials: int,
    base_seed: int,
    cfg: SolverConfig = None,
) -> TrialReport:
    """Run ``trials`` seeded label-sampling rounds of one method and aggregate.

    A trial fails when its solver diverges, finds the problem ill-posed, or
    returns a result with ``converged=False``; failed trials are counted in
    ``failures`` and left out of ``accuracies`` and the mean.  Dataset-level
    problems (too few class members, nothing unlabeled to score) propagate
    immediately.

    Trials run one after another in the calling thread.  A thread pool over
    trials competed with the BLAS threads inside each solve for the cores:
    on 2 cores it was slower than this loop, and used more memory, on every
    benchmark sweep measured.
    """
    if ds.graph is None:
        raise InvalidParameterError("dataset has no graph; attach one with with_knn_graph")
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    cfg = replace(cfg or SolverConfig(), method=method)
    seeds = tuple(derive_trial_seed(base_seed, t) for t in range(trials))

    accuracies = []
    for seed in seeds:
        label_set = sample_label_set(ds, labels_per_class, seed)
        try:
            result = solve(ds.graph, label_set, cfg)
        except (DivergenceError, IllPosedError):
            continue
        if result.converged:
            accuracies.append(accuracy_on_unlabeled(predict(result.u), ds.true_labels, label_set))
    mean, std = _summarize(accuracies)
    return TrialReport(
        dataset=ds.name,
        method=method,
        labels_per_class=labels_per_class,
        trials=trials,
        accuracies=tuple(accuracies),
        failures=trials - len(accuracies),
        seeds=seeds,
        mean=mean,
        std=std,
    )


def report_to_dict(report: TrialReport) -> dict:
    return {
        "dataset": report.dataset,
        "method": report.method,
        "labels_per_class": report.labels_per_class,
        "trials": report.trials,
        "mean": report.mean,
        "std": report.std,
        "accuracies": list(report.accuracies),
        "failures": report.failures,
        "seeds": list(report.seeds),
    }


def _cell(report: TrialReport) -> str:
    if report.mean is None:
        return "failed"
    return f"{100.0 * report.mean:.1f} ({100.0 * report.std:.1f})"


def emit_table(reports, fmt: str = "text") -> str:
    """Render TrialReports as a table: rows are methods, columns labels-per-class.

    ``text`` and ``tsv`` print accuracy cells as percent "mean (std)" with
    one decimal; ``json`` dumps the full-precision report list.
    """
    reports = list(reports)
    if not reports:
        raise LayoutError("no reports to lay out")
    if fmt == "json":
        return json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True)
    if fmt not in ("text", "tsv"):
        raise LayoutError(f"unknown table format {fmt!r}")

    methods = []
    grid = {}
    for r in reports:
        if r.method not in methods:
            methods.append(r.method)
        key = (r.method, r.labels_per_class)
        if key in grid:
            raise LayoutError(f"duplicate report for method={r.method} m={r.labels_per_class}")
        grid[key] = r
    columns = sorted(lp for (m, lp) in grid if m == methods[0])
    for m in methods:
        if sorted(lp for (mm, lp) in grid if mm == m) != columns:
            raise LayoutError("methods cover different labels-per-class sets")

    header = ["method"] + [str(c) for c in columns]
    rows = [[m] + [_cell(grid[(m, c)]) for c in columns] for m in methods]
    if fmt == "tsv":
        return "\n".join("\t".join(row) for row in [header] + rows)
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    lines = []
    for row in [header] + rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
