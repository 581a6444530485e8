"""The benchmark workloads: two CSV-to-graph sweeps and a stream of solves.

Each workload runs in one process with a single caller in a closed loop:
the next call starts when the previous one has returned.  Inputs come
from ``make_cluster_dataset`` and from label draws seeded by the run's
seed, and are written before any timing starts.  Every function timed here is a public function of
``varprop.data``, ``varprop.graph``, ``varprop.solvers`` or
``varprop.bench``.

A run returns ``(outcome, metrics, layers, log)``: the correctness tally,
the end-to-end metrics, the per-layer metrics of the traced pass and the
details that go to the trace file.
"""

import time
from collections import Counter
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import varprop.bench
import varprop.data
from varprop import (
    METHODS,
    Dataset,
    SolverConfig,
    accuracy_on_unlabeled,
    build_knn_graph,
    derive_trial_seed,
    estimate_stability_limit,
    load_feature_dataset,
    make_cluster_dataset,
    predict,
    run_trials,
    sample_label_set,
    solve,
    with_knn_graph,
)
from varprop.data import read_feature_csv, write_feature_csv, write_label_file
from varprop.errors import DivergenceError, IllPosedError

from checks import check
from tracer import Tracer

# Every dataset is make_cluster_dataset at its default generator seed (the
# README's desk dataset at n=2000); the run's seed picks the label sets.
# Seeding the generator too made accuracy_pct range over 41-61% and the
# solver timings over +-20% across seeds, from the datasets alone.
N_CLASSES = 10
K_NEIGHBORS = 10
LAM = 0.1
MIN_REPS = 3  # set-up is repeated at least this often, and its median reported
WARMUP_SAMPLES = 500
SOLVE_ERRORS = (DivergenceError, IllPosedError)


@dataclass(frozen=True)
class Sweep:
    samples: int
    labels_per_class: tuple
    trials: int


SWEEPS = {
    "desk_sweep": Sweep(2000, (1, 2, 3, 4, 5), 6),
    "ingest_8k": Sweep(8000, (1,), 2),
}

STREAM_SAMPLES = 2000
# (method, lam, labels per class).  v_laplace at 1 label per class and
# lam >= 20 diverges on some label sets today, so it is left to the
# traced probe below instead of failing timed operations.
STREAM_SCHEDULE = (
    (("laplace", LAM, 1), ("laplace", LAM, 5), ("poisson", LAM, 1), ("poisson", LAM, 5))
    + tuple(("v_laplace", lam, m) for lam, m in ((0.1, 1), (0.1, 5), (5, 1), (5, 5), (20, 5), (40, 5)))
    + tuple(("v_poisson", lam, m) for lam in (0.1, 5, 20, 40) for m in (1, 5))
)
STREAM_MIN_CALLS = 100  # at least 10 samples beyond p90
PROBE = ("v_laplace", 40.0, 1)


@dataclass
class Outcome:
    """Operations attempted and failed, failures by kind, output checks."""

    attempted: int = 0
    failed: int = 0
    kinds: Counter = field(default_factory=Counter)
    correct: bool = True
    problems: list = field(default_factory=list)
    residual_max: float = 0.0

    def wrong(self, message):
        self.correct = False
        if message not in self.problems:
            self.problems.append(message)


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def _tracing(tracer):
    """Wrap the calls made inside varprop's loaders and run_trials."""

    def before_sample(args):
        tracer.set_trial(tracer.trial_of_seed.get(args[2], -1))

    def record_solve(args, result, error, seconds):
        tracer.record_call(args[1], args[2], result, error, seconds)

    def record_accuracy(args, result, error, seconds):
        tracer.record_accuracy(result)

    stack = ExitStack()
    stack.enter_context(tracer.wrap(varprop.data, "read_feature_csv", "data.read_feature_csv"))
    stack.enter_context(tracer.wrap(varprop.data, "build_knn_graph", "graph.build_knn_graph"))
    stack.enter_context(
        tracer.wrap(varprop.bench, "sample_label_set", "data.sample_label_set", before=before_sample)
    )
    stack.enter_context(tracer.wrap(varprop.bench, "solve", "solvers.solve", record=record_solve))
    stack.enter_context(tracer.wrap(varprop.bench, "predict", "solvers.predict"))
    stack.enter_context(
        tracer.wrap(
            varprop.bench, "accuracy_on_unlabeled", "bench.accuracy_on_unlabeled",
            record=record_accuracy,
        )
    )
    return stack


def _check_calls(calls, graph, outcome):
    """Check every traced solve; return the keys of the failed ones."""
    bad = set()
    for call in calls:
        kind = call.error
        if kind is None:
            kind, res = check(graph, call.labels, call.cfg, call.result)
            outcome.residual_max = max(outcome.residual_max, res)
            if kind == "residual":
                outcome.wrong(f"{call.cfg.method} trial {call.trial}: residual {res:.3g} "
                              "on a result reported as converged")
        if kind is not None:
            outcome.kinds[kind] += 1
            bad.add(call.key)
    return bad


def warm_up(seed, workdir):
    """One untimed pass through every timed function on a small input."""
    X, y = make_cluster_dataset(n_samples=WARMUP_SAMPLES, n_classes=N_CLASSES)
    csv, lbl = workdir / "warmup.csv", workdir / "warmup_labels.txt"
    write_feature_csv(csv, X)
    write_label_file(lbl, y)
    ds = with_knn_graph(load_feature_dataset(csv, lbl), K_NEIGHBORS)
    for method in METHODS:
        run_trials(ds, method, 1, 1, seed, SolverConfig(lam=LAM))


def _probes(ds, seed):
    """Stand-alone probes of per-solve set-up and of the known divergence."""
    graph = ds.graph
    lap = []
    for _ in range(10):
        t0 = time.perf_counter()
        graph.laplacian_matrix()
        lap.append(time.perf_counter() - t0)
    stab = []
    for _ in range(3):
        t0 = time.perf_counter()
        estimate_stability_limit(graph)
        stab.append(time.perf_counter() - t0)
    method, lam, m = PROBE
    labels = sample_label_set(ds, m, derive_trial_seed(seed, 0))
    cfg = SolverConfig(method=method, lam=lam)
    t0 = time.perf_counter()
    try:
        result = solve(graph, labels, cfg)
    except SOLVE_ERRORS:
        result = None
    spent = time.perf_counter() - t0
    failed = result is None or check(graph, labels, cfg, result)[0] is not None
    return {
        "graph.laplacian_matrix.ms": (1e3 * median(lap), "ms"),
        "solvers.estimate_stability_limit.ms": (1e3 * median(stab), "ms"),
        "probe.v_laplace_lam40_m1.failed": (int(failed), "count"),
        "probe.v_laplace_lam40_m1.s": (spent, "s"),
    }


def _layers(tracer, graph, harness, csv_bytes, outcome, overhead):
    """Per-layer metrics of one traced pass."""
    csv_s = tracer.total("data.read_feature_csv")
    out = {
        "data.read_feature_csv.s": (csv_s, "s"),
        "data.read_feature_csv.mb_per_s": (csv_bytes / 1e6 / csv_s if csv_s else 0.0, "MB/s"),
        "graph.build_knn_graph.s": (tracer.total("graph.build_knn_graph"), "s"),
        "graph.edges": (graph.edge_count, "count"),
    }
    nnz = graph.adjacency.nnz + graph.n
    flop = 0.0
    for method in METHODS:
        done = [c for c in tracer.calls if c.cfg.method == method and c.result is not None]
        iters = sum(c.result.iterations for c in done)
        busy = sum(c.seconds for c in done)
        times = [c.seconds for c in tracer.calls if c.cfg.method == method]
        flop += 2.0 * nnz * N_CLASSES * iters
        out[f"solvers.iterations.{method}"] = (iters, "count")
        out[f"solvers.ms_per_iter.{method}"] = (1e3 * busy / iters if iters else 0.0, "ms")
        out[f"solvers.solve.ms_p50.{method}"] = (1e3 * median(times) if times else 0.0, "ms")
    harness_s = tracer.total(harness)
    solve_s = tracer.total("solvers.solve")
    scored = sum(c.accuracy is not None for c in tracer.calls)
    out.update({
        "solvers.solve.s": (solve_s, "s"),
        "bench.run_trials.s": (harness_s, "s"),
        "bench.self_s": (tracer.self_time(harness), "s"),
        "bench.concurrency": (solve_s / harness_s if harness_s else 0.0, "ratio"),
        "bench.scored_ratio": (scored / len(tracer.calls) if tracer.calls else 0.0, "ratio"),
        "data.sample_label_set.s": (tracer.total("data.sample_label_set"), "s"),
        "bench.accuracy_on_unlabeled.s": (tracer.total("bench.accuracy_on_unlabeled"), "s"),
        "solvers.predict.s": (tracer.total("solvers.predict"), "s"),
        "solvers.nonconverged": (outcome.kinds["nonconverged"], "count"),
        "solvers.divergence_errors": (outcome.kinds["DivergenceError"], "count"),
        "solvers.illposed_errors": (outcome.kinds["IllPosedError"], "count"),
        "solvers.residual_max": (outcome.residual_max, "ratio"),
        "solvers.matvec_gflop_computed": (flop / 1e9, "GFLOP"),
        "trace.overhead_frac": (overhead, "ratio"),
        "failed_frac": (outcome.failed / outcome.attempted, "ratio"),
    })
    return out


def _percentiles(samples):
    ms = 1e3 * np.asarray(samples)
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 90))


def _sweep_rep(spec, seed, csv, lbl, tracer=None, ds=None):
    """One pass of the CLI bench path: load, build the graph, run every cell."""
    t0 = time.perf_counter()
    if ds is None:
        ds = with_knn_graph(load_feature_dataset(csv, lbl, name="bench"), K_NEIGHBORS)
    t1 = time.perf_counter()
    cells = []
    for method in METHODS:
        for m in spec.labels_per_class:
            c0 = time.perf_counter()
            with _span(tracer, "bench.run_trials"):
                report = run_trials(ds, method, m, spec.trials, seed, SolverConfig(lam=LAM))
            cells.append((report, time.perf_counter() - c0))
    t2 = time.perf_counter()
    return ds, {"setup": t1 - t0, "sweep": t2 - t1, "wall": t2 - t0, "cells": cells}


def run_sweep(name, seed, seconds, trace, workdir):
    spec = SWEEPS[name]
    X, y = make_cluster_dataset(n_samples=spec.samples, n_classes=N_CLASSES)
    csv, lbl = workdir / "features.csv", workdir / "labels.txt"
    write_feature_csv(csv, X)
    write_label_file(lbl, y)
    del X
    warm_up(seed, workdir)

    reps = []
    graphs = set()
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        ds, rep = _sweep_rep(spec, seed, csv, lbl)
        graphs.add((ds.graph.edge_count, float(ds.graph.adjacency.sum())))
        reps.append(rep)

    # The traced pass repeats the same trials with every inner call wrapped.
    # Without --trace it reuses the last graph and only checks the results.
    tracer = Tracer()
    tracer.trial_of_seed = {derive_trial_seed(seed, t): t for t in range(spec.trials)}
    with _tracing(tracer):
        t0 = time.perf_counter()
        ds, traced = _sweep_rep(spec, seed, csv, lbl, tracer, None if trace else ds)
        traced_wall = time.perf_counter() - t0
    graphs.add((ds.graph.edge_count, float(ds.graph.adjacency.sum())))

    outcome = Outcome()
    if len(graphs) != 1:
        outcome.wrong(f"set-up built {len(graphs)} different graphs from one input")
    bad = _check_calls(tracer.calls, ds.graph, outcome)
    traced_accuracies = {}
    for c in sorted(tracer.calls, key=lambda c: c.trial):
        if c.accuracy is not None:
            traced_accuracies.setdefault((c.cfg.method, c.labels_per_class), []).append(c.accuracy)
    ok_trials = 0
    for rep in reps:
        for report, _ in rep["cells"]:
            key = (report.method, report.labels_per_class)
            expected = tuple(traced_accuracies.get(key, ()))
            got = report.accuracies
            mismatched = abs(len(got) - len(expected)) + sum(a != b for a, b in zip(got, expected))
            if mismatched:
                outcome.kinds["mismatch"] += mismatched
                outcome.wrong(f"{key}: {mismatched} accuracies differ from the traced pass")
            failed = min(report.trials, mismatched + sum(k[:2] == key for k in bad))
            outcome.attempted += report.trials
            outcome.failed += failed
            ok_trials += report.trials - failed

    # run_trials hides individual solves, so a sweep's latency sample is the
    # time per trial of one whole repetition.  Per-cell samples were no
    # use: the light cells' times moved by up to 2x between processes.
    per_rep = sum(r.trials for r, _ in reps[0]["cells"])
    p50, p90 = _percentiles([rep["sweep"] / per_rep for rep in reps])
    means = [r.mean for r, _ in reps[0]["cells"] if r.mean is not None]
    metrics = {
        "setup_s": (median([r["setup"] for r in reps]), "s"),
        "wall_s": (median([r["wall"] for r in reps]), "s"),
        "trials_per_s": (ok_trials / sum(r["sweep"] for r in reps), "1/s"),
        "solve_ms_p50": (p50, "ms"),
        "solve_ms_p90": (p90, "ms"),
        "accuracy_pct": (100.0 * float(np.mean(means)) if means else 0.0, "%"),
    }
    layers = {}
    if trace:
        untraced = median([r["wall"] for r in reps])
        layers = _layers(tracer, ds.graph, "bench.run_trials", csv.stat().st_size,
                         outcome, traced_wall / untraced - 1.0)
        layers.update(_probes(ds, seed))
    log = {
        "reps": len(reps),
        "solve_ms_samples": len(reps),
        "trials_per_rep": per_rep,
        "trace": tracer.to_json(),
    }
    return outcome, metrics, layers, log


def _stream_call(ds, graph, seed, index, entry, tracer=None):
    """One caller operation: draw labels, solve, decode, score."""
    method, lam, m = entry
    cfg = SolverConfig(method=method, lam=lam)
    t0 = time.perf_counter()
    with _span(tracer, "data.sample_label_set"):
        labels = sample_label_set(ds, m, derive_trial_seed(seed, index))
    t1 = time.perf_counter()
    result, error = None, None
    try:
        with _span(tracer, "solvers.solve"):
            result = solve(graph, labels, cfg)
    except SOLVE_ERRORS as exc:
        error = type(exc).__name__
    t2 = time.perf_counter()
    accuracy = None
    if result is not None:
        with _span(tracer, "solvers.predict"):
            predicted = predict(result.u)
        with _span(tracer, "bench.accuracy_on_unlabeled"):
            accuracy = accuracy_on_unlabeled(predicted, ds.true_labels, labels)
    t3 = time.perf_counter()
    return labels, cfg, result, error, accuracy, t2 - t1, t3 - t0


def run_stream(name, seed, seconds, trace, workdir):
    X, y = make_cluster_dataset(n_samples=STREAM_SAMPLES, n_classes=N_CLASSES)
    warm_up(seed, workdir)

    outcome = Outcome()
    setups, graphs = [], set()
    for _ in range(MIN_REPS):
        t0 = time.perf_counter()
        graph = build_knn_graph(X, K_NEIGHBORS)
        setups.append(time.perf_counter() - t0)
        graphs.add((graph.edge_count, float(graph.adjacency.sum())))
    if len(graphs) != 1:
        outcome.wrong(f"set-up built {len(graphs)} different graphs from one input")
    ds = Dataset(name="stream", k=N_CLASSES, true_labels=y, graph=graph)

    latencies, accuracies, first_pass = [], [], []
    pass_walls, ok_calls = [], 0
    index = 0
    start = time.perf_counter()
    while len(latencies) < STREAM_MIN_CALLS or time.perf_counter() - start < seconds:
        wall = 0.0
        for entry in STREAM_SCHEDULE:
            labels, cfg, result, error, accuracy, solve_s, op_s = _stream_call(
                ds, graph, seed, index, entry)
            latencies.append(solve_s)
            wall += op_s
            outcome.attempted += 1
            kind = error
            if result is not None:
                kind, res = check(graph, labels, cfg, result)
                outcome.residual_max = max(outcome.residual_max, res)
                if kind == "residual":
                    outcome.wrong(f"{entry} call {index}: residual {res:.3g} "
                                  "on a result reported as converged")
            if kind is None:
                ok_calls += 1
                accuracies.append(accuracy)
            else:
                outcome.failed += 1
                outcome.kinds[kind] += 1
            if index < len(STREAM_SCHEDULE):
                first_pass.append(accuracy)
            index += 1
        pass_walls.append(wall)

    # Every call draws a fresh label set, so passes are not the same work and
    # their median is noisy; the pass time and the throughput are taken over
    # the whole measured window instead.
    p50, p90 = _percentiles(latencies)
    mean_pass = sum(pass_walls) / len(pass_walls)
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (mean_pass, "s"),
        "trials_per_s": (ok_calls / sum(pass_walls), "1/s"),
        "solve_ms_p50": (p50, "ms"),
        "solve_ms_p90": (p90, "ms"),
        "accuracy_pct": (100.0 * float(np.mean(accuracies)) if accuracies else 0.0, "%"),
    }
    log = {"passes": len(pass_walls), "solve_ms_samples": len(latencies)}
    if not trace:
        return outcome, metrics, {}, log

    # Traced pass: the first pass of the schedule again, every call in a span,
    # plus a stand-alone parse of the same features from CSV.
    tracer = Tracer()
    csv = workdir / "features.csv"
    write_feature_csv(csv, X)
    with tracer.span("data.read_feature_csv"):
        read_feature_csv(csv)
    with tracer.span("graph.build_knn_graph"):
        build_knn_graph(X, K_NEIGHBORS)
    t0 = time.perf_counter()
    with tracer.span("bench.stream_pass"):
        for i, entry in enumerate(STREAM_SCHEDULE):
            tracer.set_trial(i)
            labels, cfg, result, error, accuracy, solve_s, _ = _stream_call(
                ds, graph, seed, i, entry, tracer)
            tracer.record_call(labels, cfg, result, error, solve_s)
            tracer.record_accuracy(accuracy)
    traced_wall = time.perf_counter() - t0
    for call, expected in zip(tracer.calls, first_pass):
        if call.accuracy != expected:
            outcome.failed += 1
            outcome.kinds["mismatch"] += 1
            outcome.wrong(f"call {call.trial}: accuracy differs from the traced pass")
    layers = _layers(tracer, graph, "bench.stream_pass", csv.stat().st_size,
                     outcome, traced_wall / mean_pass - 1.0)
    layers.update(_probes(ds, seed))
    log["trace"] = tracer.to_json()
    return outcome, metrics, layers, log


RUNNERS = {"desk_sweep": run_sweep, "ingest_8k": run_sweep, "solve_stream": run_stream}
