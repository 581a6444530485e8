#!/usr/bin/env python3
"""Desk-scale benchmark: all four methods over a labels-per-class sweep.

Generates the synthetic pixel dataset, builds a k-NN graph once, runs
seeded trials for every (method, labels-per-class) cell, and prints the
accuracy table.  With --full the trial count rises to 100 per cell.
At one label per class the clamped harmonic method collapses toward a
constant while the source-term methods stay informative; the printed
table shows that gap directly.
"""

import argparse
import json
import time
import warnings

from varprop import (
    Dataset,
    METHODS,
    SolverConfig,
    build_knn_graph,
    emit_table,
    make_cluster_dataset,
    run_trials,
)
from varprop.bench import report_to_dict


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--knn-k", type=int, default=10)
    parser.add_argument("--labels-per-class", default="1,2,3,4,5")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--full", action="store_true", help="run 100 trials per cell")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", help="optional JSON report path")
    args = parser.parse_args()

    trials = 100 if args.full else args.trials
    m_values = [int(v) for v in args.labels_per_class.split(",")]

    t0 = time.perf_counter()
    X, y = make_cluster_dataset(n_samples=args.samples, n_classes=args.classes)
    graph = build_knn_graph(X, args.knn_k)
    ds = Dataset(name="synthetic_pixels", k=args.classes, true_labels=y, features=X, graph=graph)
    print(f"dataset ready: n={ds.n} d={X.shape[1]} k={ds.k} "
          f"edges={graph.edge_count} ({time.perf_counter() - t0:.1f}s)")

    cfg = SolverConfig(lam=args.lam)
    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for method in METHODS:
            for m in m_values:
                t1 = time.perf_counter()
                report = run_trials(ds, method, m, trials, args.seed, cfg)
                reports.append(report)
                if report.mean is None:
                    summary = "failed"
                else:
                    summary = f"mean={100 * report.mean:.1f}% std={100 * report.std:.1f}"
                print(f"  {method:<10s} m={m} {summary} failures={report.failures} "
                      f"({time.perf_counter() - t1:.1f}s)")

    print()
    print(emit_table(reports, "text"))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"reports": [report_to_dict(r) for r in reports]}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nreport written to {args.out}")


if __name__ == "__main__":
    main()
