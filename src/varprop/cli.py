"""Command-line front end: build-graph, solve, bench, and verify-pde subcommands.

``verify-pde --grid N`` checks the four solvers and the pencil (L, diag q)
against their closed forms on the N-node path graph (see ``continuum``).

Exit codes: 0 success, 2 usage or file-format error, 3 ill-posed problem,
4 divergence or no convergence within ``--max-iter``, 5 verification
failure.  Every flag value is checked before any file is read: argparse
checks each flag's form, and the subcommand builds its config before it
reads.  Every JSON output echoes the flags it was produced with, except
that ``bench`` leaves out ``--out``, so that reruns written to different
paths are byte-identical, and leaves out ``--lambda`` under
``--lambda-frac``, which sets every lambda it runs.
"""

import argparse
import json
import sys
from dataclasses import replace

from .bench import emit_table, report_to_dict, run_trials
from .continuum import closed_form_checks, discrete_vs_continuum, path_graph, path_graph_shift
from .data import (
    load_feature_dataset,
    load_graph_dataset,
    plain_ascii,
    read_edgelist,
    read_feature_csv,
    read_labeled_nodes,
    with_knn_graph,
    write_edgelist,
    write_label_file,
)
from .errors import (
    DivergenceError,
    FormatError,
    IllPosedError,
    InsufficientLabelsError,
    InvalidInputError,
    InvalidParameterError,
    LayoutError,
    checked_int,
    checked_lam,
)
from .graph import build_knn_graph, objective_value
from .solvers import METHODS, SolverConfig, estimate_stability_limit, predict, solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ILL_POSED = 3
EXIT_DIVERGENCE = 4
EXIT_VERIFY = 5

# the exit code of each exception a subcommand may raise; any other propagates
_EXIT_CODES = {
    FormatError: EXIT_USAGE,
    InvalidInputError: EXIT_USAGE,
    InvalidParameterError: EXIT_USAGE,
    InsufficientLabelsError: EXIT_USAGE,
    LayoutError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    IllPosedError: EXIT_ILL_POSED,
    DivergenceError: EXIT_DIVERGENCE,
}


def _plain(convert):
    """argparse type: ``convert`` on :func:`data.plain_ascii` text only, so
    that flags read numbers as the text readers do ('1_0' is not 10)."""
    def parse(text):
        if not plain_ascii(text):
            raise ValueError(text)
        return convert(text)
    parse.__name__ = convert.__name__  # argparse names it: "invalid int value: '1_0'"
    return parse


_int, _float = _plain(int), _plain(float)


def _positive_int(text):
    try:
        return checked_int(_int(text), "value", low=1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}") from None


def _fraction(text):
    try:
        return checked_lam(_float(text), "fraction")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}") from None


def _method(text):
    if text not in METHODS:
        raise argparse.ArgumentTypeError(f"unknown method {text!r}; choose from {METHODS}")
    return text


def _comma_list(item, name):
    """argparse type for a comma-separated list of ``item`` values.

    Values keep their first-seen order; repeats are dropped with a warning.
    """
    def parse(text):
        kept, repeats = [], []
        for v in [item(part.strip()) for part in text.split(",") if part.strip()]:
            (repeats if v in kept else kept).append(v)
        if not kept:
            raise argparse.ArgumentTypeError(f"no {name}s given")
        if repeats:
            print(f"warning: duplicate {name}(s) removed: {','.join(map(str, repeats))}",
                  file=sys.stderr)
        return kept
    return parse


def _add_solver_options(p, lam_group=None):
    """--lambda (in ``lam_group`` if given), --tol and --max-iter, with the
    defaults of SolverConfig()."""
    defaults = SolverConfig()
    (lam_group or p).add_argument("--lambda", dest="lam", type=_float, default=defaults.lam,
                                  help=f"variance weight (default {defaults.lam:g})")
    p.add_argument("--tol", type=_float, default=defaults.tol)
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
    p.add_argument("--methods", required=True, type=_comma_list(_method, "method"),
                   help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--labels-per-class", required=True,
                   type=_comma_list(_positive_int, "labels-per-class value"),
                   help="comma-separated labeled-node counts per class")
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=_int, default=0)
    lam = p.add_mutually_exclusive_group()
    _add_solver_options(p, lam)
    # absent from the parsed flags unless given: a run without it echoes no lambda_frac
    lam.add_argument("--lambda-frac", type=_comma_list(_fraction, "lambda fraction"),
                     default=argparse.SUPPRESS,
                     help="comma-separated fractions F of the graph's lambda_2; "
                          "v_laplace and v_poisson run once at each lambda = F * lambda_2")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify-pde",
                       help="check the solvers and the pencil against their path-graph closed forms")
    p.add_argument("--grid", type=_int, required=True, help="path-graph nodes, 16 to 2201")
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


def _flags(args, *omit):
    """The flags a JSON output echoes: every parsed option except ``omit``,
    ``--lambda`` under its own name and list values joined by commas."""
    flags = {}
    for dest, value in vars(args).items():
        if dest not in ("subcommand", "func", *omit):
            if isinstance(value, list):
                value = ",".join(map(str, value))
            flags["lambda" if dest == "lam" else dest] = value
    return flags


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_solve(args) -> int:
    cfg = SolverConfig(lam=args.lam, tol=args.tol, max_iter=args.max_iter, method=args.method)
    g = read_edgelist(args.graph)
    labels = read_labeled_nodes(args.labels)
    result = solve(g, labels, cfg)
    write_label_file(args.out, predict(result.u))
    _write_json(args.out + ".json", {
        "flags": _flags(args),
        "iterations": result.iterations,
        "final_residual": result.final_residual,
        "converged": result.converged,
        "objective_value": objective_value(g, result.u, cfg.variance_weight),
    })
    print(
        f"method={args.method} converged={result.converged} "
        f"iterations={result.iterations} residual={result.final_residual:.3g}"
    )
    if not result.converged:  # after the outputs, which record the last iterate
        raise DivergenceError(f"{args.method} did not converge in {result.iterations} block "
                              f"steps (residual {result.final_residual:.3g})")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = SolverConfig(lam=args.lam, tol=args.tol, max_iter=args.max_iter)
    fractions = getattr(args, "lambda_frac", None)
    if args.dataset_features:
        ds = load_feature_dataset(args.dataset_features, args.dataset_labels)
        ds = with_knn_graph(ds, args.knn_k)
    else:
        ds = load_graph_dataset(args.dataset_graph, args.dataset_labels)
    configs, scale = [cfg], {}
    if fractions:
        lambda_2 = ds.graph._stability_limit
        if lambda_2 == 0:
            raise IllPosedError("--lambda-frac needs lambda_2 > 0; it is 0 on a disconnected graph")
        scale = {"lambda_2": lambda_2}
        configs = [replace(cfg, lam=f * lambda_2) for f in fractions]
    reports = []
    for method in args.methods:
        # one run per variance weight: laplace and poisson run once, at 0
        weights = {replace(c, method=method).variance_weight: c for c in configs}
        reports += [run_trials(ds, method, m, args.trials, args.seed, c)
                    for c in weights.values() for m in args.labels_per_class]
    print(emit_table(reports))
    if args.out:
        _write_json(args.out, {
            "dataset": ds.name,
            "flags": _flags(args, "out", *(("lam",) if fractions else ())),
            "reports": [report_to_dict(r) for r in reports],
            **scale,
        })
    return EXIT_OK


def _listed(fractions) -> str:
    """Fractions of lambda_2 as '0.9, 0.99', or 'none'."""
    return ", ".join(f"{f:g}" for f in fractions) or "none"


def _cmd_verify_pde(args) -> int:
    n = args.grid
    path_report = discrete_vs_continuum(n)
    print(f"path graph    n={n} shift={path_report.shift:.6g} "
          f"fitted_lambda={path_report.fitted_lambda:.6g} "
          f"correlation={path_report.correlation:.8f}")
    verdicts = []
    for check in closed_form_checks(n):
        # solve's near-bound warning: v_poisson at 0.9 lambda_2 and above
        expected = tuple(f for f in check.fractions if check.method == "v_poisson" and f >= 0.9)
        at = f" at {_listed(check.fractions)} lambda_2" if any(check.fractions) else ""
        verdicts.append((check.error <= 1e-8 and check.warned == expected,
                         f"{check.method}{at} = closed form to relative {check.error:.1e} "
                         f"<= 1e-8; warned at {_listed(check.warned)}, "
                         f"expect {_listed(expected)}"))
    closed = path_graph_shift(n)
    estimate = estimate_stability_limit(path_graph(n))
    shift_err = abs(path_report.shift - closed) / closed
    estimate_err = abs(estimate - path_report.shift) / estimate
    verdicts += [
        (path_report.correlation >= 0.999,
         f"sinusoid correlation {path_report.correlation:.8f} >= 0.999"),
        (shift_err <= 1e-8,
         f"path-graph shift = 2(n-1)(1-cos(pi/(n-1))) to relative {shift_err:.1e} <= 1e-8"),
        (estimate_err <= 1e-8,
         f"stability estimate = path-graph shift to relative {estimate_err:.1e} <= 1e-8"),
    ]
    for ok, text in verdicts:
        print(f"{'PASS' if ok else 'FAIL'}: {text}")
    return EXIT_OK if all(ok for ok, _ in verdicts) else EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[t] for t in type(exc).__mro__ if t in _EXIT_CODES)

if __name__ == "__main__":
    raise SystemExit(main())
