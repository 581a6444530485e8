"""Seeded repeated-trial benchmark harness with table and JSON reporting.

A trial draws a per-class label split, runs one solver, and scores
accuracy over the unlabeled nodes only (scoring clamped labeled nodes
would inflate the clamping methods).  Trial seeds derive from
(base_seed, trial index), so reports are independent of execution order.
"""

from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Dataset, derive_trial_seed, sample_label_set
from .errors import (
    DivergenceError,
    IllPosedError,
    InvalidParameterError,
    LayoutError,
    checked_int,
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
    lam: float
    labels_per_class: int
    trials: int
    accuracies: tuple
    failures: int
    seeds: tuple
    mean: float
    std: float
    majority_share: float


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
    ``failures`` and left out of ``accuracies``, the mean and
    ``majority_share``.  ``lam`` is the variance weight the trials ran
    with, ``cfg.variance_weight``: 0.0 for laplace and poisson.
    Dataset-level problems (too few class members, nothing unlabeled to
    score) propagate immediately.  ``trials``, like ``labels_per_class``, is
    an integer >= 1 by :func:`errors.checked_int`.

    ``majority_share`` is the share of unlabeled nodes predicted to be in
    the most-predicted class, averaged over the scored trials (None when
    none scored): 1 / k for predictions spread evenly over k classes, 1
    when every unlabeled node gets one class, the low-label degeneracy of
    Laplace learning (Calder, Cook, Thorpe & Slepcev 2020, "Poisson
    Learning").

    Trials run one after another in the calling thread.  A thread pool over
    trials competed with the BLAS threads inside each solve for the cores:
    on 2 cores it was slower than this loop, and used more memory, on every
    benchmark sweep measured.
    """
    if ds.graph is None:
        raise InvalidParameterError("dataset has no graph; attach one with with_knn_graph")
    trials = checked_int(trials, "trials", low=1)
    labels_per_class = checked_int(labels_per_class, "labels_per_class", low=1)
    cfg = replace(cfg or SolverConfig(), method=method)
    seeds = tuple(derive_trial_seed(base_seed, t) for t in range(trials))

    accuracies, shares = [], []
    for seed in seeds:
        label_set = sample_label_set(ds, labels_per_class, seed)
        try:
            result = solve(ds.graph, label_set, cfg)
        except (DivergenceError, IllPosedError):
            continue
        if result.converged:
            predicted = predict(result.u)
            accuracies.append(accuracy_on_unlabeled(predicted, ds.true_labels, label_set))
            free = np.delete(predicted, label_set.nodes)
            shares.append(np.bincount(free).max() / free.size)
    mean, std = _summarize(accuracies)
    return TrialReport(
        dataset=ds.name,
        method=method,
        lam=cfg.variance_weight,
        labels_per_class=labels_per_class,
        trials=trials,
        accuracies=tuple(accuracies),
        failures=trials - len(accuracies),
        seeds=seeds,
        mean=mean,
        std=std,
        majority_share=_summarize(shares)[0],
    )


def report_to_dict(report: TrialReport) -> dict:
    """Every field of ``report``, with the tuples as lists, ready for JSON."""
    return {**asdict(report), "accuracies": list(report.accuracies), "seeds": list(report.seeds)}


def _cell(report: TrialReport) -> str:
    if report.mean is None:
        return "failed"
    return f"{100.0 * report.mean:.1f} ({100.0 * report.std:.1f})"


def emit_table(reports) -> str:
    """Render TrialReports as a text table: rows are (method, lam) pairs,
    columns labels-per-class, cells percent "mean (std)" with one decimal.
    A method with one ``lam`` is labeled by its name alone, one with several
    by its name and ``lam``."""
    reports = list(reports)
    if not reports:
        raise LayoutError("no reports to lay out")

    rows = []
    grid = {}
    for r in reports:
        row = (r.method, r.lam)
        if row not in rows:
            rows.append(row)
        if (row, r.labels_per_class) in grid:
            raise LayoutError(
                f"duplicate report for method={r.method} lam={r.lam:g} m={r.labels_per_class}"
            )
        grid[(row, r.labels_per_class)] = r
    columns = sorted(lp for row, lp in grid if row == rows[0])
    for row in rows:
        if sorted(lp for rr, lp in grid if rr == row) != columns:
            raise LayoutError("methods cover different labels-per-class sets")

    lams = Counter(method for method, _ in rows)
    header = ["method"] + [str(c) for c in columns]
    body = [
        [method if lams[method] == 1 else f"{method} lam={lam:g}"]
        + [_cell(grid[((method, lam), c)]) for c in columns]
        for method, lam in rows
    ]
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
