"""Command-line front end: build-graph, solve, bench, and verify-pde subcommands.

Exit codes: 0 success, 2 usage or file-format error, 3 ill-posed problem,
4 divergence, 5 verification failure.  Every JSON output echoes the flags
it was produced with.
"""

import argparse
import json
import sys

from .bench import emit_table, report_to_dict, run_trials
from .continuum import (
    ContinuumConfig,
    discrete_vs_continuum,
    format_report,
    residual_refinement_ratio,
    write_residual_csv,
)
from .data import (
    load_feature_dataset,
    load_graph_dataset,
    read_edgelist,
    read_feature_csv,
    read_labeled_nodes,
    with_knn_graph,
    write_edgelist,
)
from .errors import (
    DivergenceError,
    FormatError,
    IllPosedError,
    InsufficientLabelsError,
    InvalidInputError,
    InvalidParameterError,
    LayoutError,
    OracleSizeError,
    ScanError,
)
from .graph import build_knn_graph, objective_value
from .solvers import METHODS, SolverConfig, predict, solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ILL_POSED = 3
EXIT_DIVERGENCE = 4
EXIT_VERIFY = 5

_USAGE_ERRORS = (
    FormatError,
    InvalidInputError,
    InvalidParameterError,
    InsufficientLabelsError,
    LayoutError,
    OracleSizeError,
    OSError,
)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _add_solver_options(p):
    """--lambda, --tol and --max-iter, with the defaults of SolverConfig()."""
    defaults = SolverConfig()
    p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                   help=f"variance weight (default {defaults.lam:g})")
    p.add_argument("--tol", type=float, default=defaults.tol)
    p.add_argument("--max-iter", type=_positive_int, default=defaults.max_iter)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varprop",
        description="Graph label propagation: build graphs, solve, benchmark, verify.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build-graph", help="build a k-NN graph from a feature CSV")
    p.add_argument("--features", required=True, help="feature CSV, one sample per row")
    p.add_argument("--k", required=True, type=_positive_int, help="neighbors per node")
    p.add_argument("--out", required=True, help="edge-list output path")
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("solve", help="run one solver on a graph")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--labels", required=True,
                   help="labeled-node file: one 'node class' pair per line")
    p.add_argument("--method", required=True, choices=METHODS)
    _add_solver_options(p)
    p.add_argument("--out", required=True,
                   help="predictions output, one class per line; JSON sidecar at OUT.json")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="repeated-trial benchmark over methods and label counts")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset-features", help="feature CSV (k-NN graph built once)")
    src.add_argument("--dataset-graph", help="prebuilt edge-list graph")
    p.add_argument("--dataset-labels", required=True, help="true labels, one per line")
    p.add_argument("--knn-k", type=_positive_int, default=10,
                   help="neighbors for the k-NN graph (feature datasets only)")
    p.add_argument("--methods", required=True,
                   help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--labels-per-class", required=True,
                   help="comma-separated labeled-node counts per class")
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_solver_options(p)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify-pde", help="1-D discretization consistency checks")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--grid", type=int, required=True,
                   help="grid points, at least 16; refined to 2*GRID-1, which --lambda bounds")
    p.add_argument("--csv", help="optional CSV of (x, value, residual)")
    p.set_defaults(func=_cmd_verify_pde)

    return parser


def _cmd_build_graph(args) -> int:
    features = read_feature_csv(args.features)
    g = build_knn_graph(features, args.k)
    write_edgelist(g, args.out)
    w = g.adjacency.data
    print(
        f"nodes={g.n} edges={g.edge_count} "
        f"min_weight={w.min():.6g} max_weight={w.max():.6g}"
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = SolverConfig(lam=args.lam, tol=args.tol, max_iter=args.max_iter, method=args.method)
    g = read_edgelist(args.graph)
    labels = read_labeled_nodes(args.labels)
    result = solve(g, labels, cfg)
    predictions = predict(result.u)
    with open(args.out, "w") as fh:
        fh.write("\n".join(str(int(c)) for c in predictions) + "\n")
    sidecar = {
        "flags": {
            "graph": args.graph,
            "labels": args.labels,
            "method": args.method,
            "lambda": args.lam,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "out": args.out,
        },
        "iterations": result.iterations,
        "final_residual": result.final_residual,
        "converged": result.converged,
        "objective_value": objective_value(g, result.u, cfg.variance_weight),
    }
    with open(args.out + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"method={args.method} converged={result.converged} "
        f"iterations={result.iterations} residual={result.final_residual:.3g}"
    )
    return EXIT_OK


def _unique(values, name: str):
    """``values`` in first-seen order; repeats are dropped with a warning."""
    kept, repeats = [], []
    for v in values:
        (repeats if v in kept else kept).append(v)
    if repeats:
        print(f"warning: duplicate {name}(s) removed: {','.join(map(str, repeats))}",
              file=sys.stderr)
    return kept


def _parse_methods(text: str):
    requested = [m.strip() for m in text.split(",") if m.strip()]
    if not requested:
        raise InvalidParameterError("no methods given")
    for m in requested:
        if m not in METHODS:
            raise InvalidParameterError(f"unknown method {m!r}; choose from {METHODS}")
    return _unique(requested, "method")


def _parse_labels_per_class(text: str):
    try:
        requested = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InvalidParameterError(
            f"--labels-per-class must be comma-separated integers, got {text!r}"
        ) from None
    if not requested:
        raise InvalidParameterError("no labels-per-class values given")
    if min(requested) < 1:
        raise InvalidParameterError(f"--labels-per-class values must be >= 1, got {text!r}")
    return _unique(requested, "labels-per-class value")


def _cmd_bench(args) -> int:
    methods = _parse_methods(args.methods)
    m_values = _parse_labels_per_class(args.labels_per_class)
    cfg = SolverConfig(lam=args.lam, tol=args.tol, max_iter=args.max_iter)
    if args.dataset_features:
        ds = load_feature_dataset(args.dataset_features, args.dataset_labels)
        ds = with_knn_graph(ds, args.knn_k)
    else:
        ds = load_graph_dataset(args.dataset_graph, args.dataset_labels)
    reports = [
        run_trials(ds, method, m, args.trials, args.seed, cfg)
        for method in methods
        for m in m_values
    ]
    print(emit_table(reports))
    if args.out:
        doc = {
            "dataset": ds.name,
            "flags": {
                "dataset_features": args.dataset_features,
                "dataset_graph": args.dataset_graph,
                "dataset_labels": args.dataset_labels,
                "knn_k": args.knn_k,
                "methods": ",".join(methods),
                "labels_per_class": ",".join(str(m) for m in m_values),
                "trials": args.trials,
                "seed": args.seed,
                "lambda": args.lam,
                "tol": args.tol,
                "max_iter": args.max_iter,
            },
            "reports": [report_to_dict(r) for r in reports],
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _cmd_verify_pde(args) -> int:
    cfg = ContinuumConfig(n_grid=args.grid, lam=args.lam)
    refinement = residual_refinement_ratio(cfg)
    path_report = discrete_vs_continuum(cfg)
    print(format_report(refinement, path_report))
    if args.csv:
        write_residual_csv(cfg, args.csv)
    ratio_ok = 3.5 <= refinement.ratio <= 4.5
    corr_ok = path_report.correlation >= 0.999
    print(f"{'PASS' if ratio_ok else 'FAIL'}: refinement ratio {refinement.ratio:.4f} in [3.5, 4.5]")
    print(
        f"{'PASS' if corr_ok else 'FAIL'}: sinusoid correlation "
        f"{path_report.correlation:.8f} >= 0.999"
    )
    return EXIT_OK if (ratio_ok and corr_ok) else EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IllPosedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ILL_POSED
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ScanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
