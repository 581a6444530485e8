"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured statistic (run with ``pytest -s tests/test_acceptance.py`` to
see them).  Tolerances are pinned here and nowhere else.
"""

import json
import time
import warnings

import numpy as np
import pytest
from scipy.sparse import csgraph

from helpers import dense_reference, random_connected_graph, random_label_set
from varprop import (
    Dataset,
    METHODS,
    SolverConfig,
    build_knn_graph,
    discrete_vs_continuum,
    laplacian_apply,
    make_cluster_dataset,
    objective_value,
    run_trials,
    solve,
    weighted_mean,
)
from varprop.cli import main
from varprop.continuum import closed_form_checks


def oracle_suite():
    """50 seeded random connected graphs with label draws and a lam cycle."""
    cases = []
    for trial in range(50):
        n = 20 + (trial % 31)
        k = 2 + (trial % 2)
        lam = (0.0, 0.05, 0.1)[trial % 3]
        g = random_connected_graph(1000 + trial, n)
        labels = random_label_set(trial, n, k, 2)
        cases.append((g, labels, lam))
    return cases


@pytest.fixture(scope="module")
def suite_solutions():
    """Iterative and dense reference solutions for every method over the 50-graph suite."""
    t0 = time.perf_counter()
    solutions = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for g, labels, lam in oracle_suite():
            per_method = {}
            for method in METHODS:
                cfg = SolverConfig(lam=lam, method=method)
                per_method[method] = (solve(g, labels, cfg), dense_reference(g, labels, method, lam))
            solutions.append((g, labels, lam, per_method))
    return solutions, time.perf_counter() - t0


def test_oracle_equivalence(suite_solutions):
    solutions, elapsed = suite_solutions
    worst = 0.0
    for _, _, _, per_method in solutions:
        for method, (iterative, reference) in per_method.items():
            assert iterative.converged, method
            worst = max(worst, float(np.abs(iterative.u - reference).max()))
    assert worst <= 1e-6
    assert elapsed < 10.0
    print(f"\nPASS: oracle equivalence, 50 graphs x 4 methods, "
          f"max |iterative - dense| = {worst:.2e} <= 1e-6, {elapsed:.1f}s < 10s")


def test_lambda_zero_reduction():
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for g, labels, _ in oracle_suite():
            for base, variant in (("laplace", "v_laplace"), ("poisson", "v_poisson")):
                u_base = solve(g, labels, SolverConfig(lam=0.0, method=base)).u
                u_var = solve(g, labels, SolverConfig(lam=0.0, method=variant)).u
                worst = max(worst, float(np.abs(u_base - u_var).max()))
    assert worst <= 1e-8
    print(f"\nPASS: lam=0 reduction, max |v_method - method| = {worst:.2e} <= 1e-8")


def test_gradient_check():
    step = 1e-5
    lam = 0.1
    worst = 0.0
    for seed in range(20):
        n = 8 + (seed % 13)
        g = random_connected_graph(seed + 2000, n)
        labels = random_label_set(seed, n, 2, 1)
        rng = np.random.Generator(np.random.Philox(seed + 3000))
        u = rng.normal(size=(n, 2))
        u[labels.nodes] = labels.onehot_matrix()
        unl = np.setdiff1d(np.arange(n), labels.nodes)
        ubar = weighted_mean(g, u)
        analytic = 2.0 * laplacian_apply(g, u)[unl] - 2.0 * lam * g.degree_weights[
            unl, None
        ] * (u[unl] - ubar)
        fd = np.zeros_like(analytic)
        for row, i in enumerate(unl):
            for c in range(2):
                up, down = u.copy(), u.copy()
                up[i, c] += step
                down[i, c] -= step
                fd[row, c] = (objective_value(g, up, lam) - objective_value(g, down, lam)) / (
                    2 * step
                )
        rel = float(np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    assert worst <= 1e-4
    print(f"\nPASS: gradient check, 20 instances, worst relative error = {worst:.2e} <= 1e-4")


def test_conservation(suite_solutions):
    solutions, _ = suite_solutions
    worst_source = 0.0
    worst_mean = 0.0
    for g, labels, _, per_method in solutions:
        y = labels.onehot_matrix()
        source_sum = np.abs((y - y.mean(axis=0)).sum(axis=0)).max()
        worst_source = max(worst_source, float(source_sum))
        for method in ("poisson", "v_poisson"):
            iterative, reference = per_method[method]
            for u in (iterative.u, reference):
                worst_mean = max(worst_mean, float(np.abs(weighted_mean(g, u)).max()))
    assert worst_source <= 1e-12
    assert worst_mean <= 1e-8
    print(f"\nPASS: conservation, source zero-sum = {worst_source:.2e} <= 1e-12, "
          f"zero q-mean = {worst_mean:.2e} <= 1e-8")


def test_maximum_principle(suite_solutions):
    solutions, _ = suite_solutions
    worst = 0.0
    for g, labels, _, per_method in solutions:
        u = per_method["laplace"][0].u
        y = labels.onehot_matrix()
        unl = np.setdiff1d(np.arange(g.n), labels.nodes)
        for c in range(labels.k):
            lo, hi = y[:, c].min(), y[:, c].max()
            worst = max(worst, float(lo - u[unl, c].min()), float(u[unl, c].max() - hi))
    assert worst <= 1e-8
    print(f"\nPASS: maximum principle, worst range excursion = {worst:.2e} <= 1e-8")


@pytest.mark.parametrize("lam", [0.01, 0.1])
def test_objective_dominance(lam):
    worst = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for seed in range(20):
            g = random_connected_graph(seed + 4000, 30)
            labels = random_label_set(seed, 30, 2, 2)
            u_v = solve(g, labels, SolverConfig(lam=lam, method="v_laplace")).u
            u_l = solve(g, labels, SolverConfig(lam=lam, method="laplace")).u
            gap = objective_value(g, u_v, lam) - objective_value(g, u_l, lam)
            worst = max(worst, gap)
            assert gap <= 1e-8
    print(f"\nPASS: objective dominance at lam={lam}, worst J(v_laplace) - J(laplace) "
          f"= {worst:.2e} <= 1e-8")


def test_continuum_consistency():
    t0 = time.perf_counter()
    report = discrete_vs_continuum(128)
    assert report.correlation >= 0.999
    worst = max(check.error for check in closed_form_checks(128))
    assert worst <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS: continuum check, correlation = {report.correlation:.6f} >= 0.999, "
          f"solvers = path-graph closed forms to relative {worst:.1e} <= 1e-8, {elapsed:.1f}s < 5s")


def test_qualitative_gap_low_label_degeneracy():
    t0 = time.perf_counter()
    X, y = make_cluster_dataset(n_samples=2000, n_classes=10)
    g = build_knn_graph(X, 10)
    ncomp, _ = csgraph.connected_components(g.adjacency, directed=False)
    assert ncomp == 1, "gap fixture must be connected"
    ds = Dataset(name="synthetic_pixels", k=10, true_labels=y, features=X, graph=g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        laplace = run_trials(ds, "laplace", 1, trials=20, base_seed=11)
        poisson = run_trials(ds, "poisson", 1, trials=20, base_seed=11)
    elapsed = time.perf_counter() - t0
    assert laplace.failures == 0 and poisson.failures == 0
    gap = poisson.mean - laplace.mean
    assert gap >= 0.10
    assert elapsed < 120.0
    print(f"\nPASS: qualitative gap, poisson {100 * poisson.mean:.1f}% vs laplace "
          f"{100 * laplace.mean:.1f}% (gap {100 * gap:.1f}pp >= 10pp), {elapsed:.0f}s < 120s")


def test_bench_determinism(tmp_path, capsys, silence_runtime_warnings):
    m = 6
    lines = []
    for i in range(m):
        for j in range(i + 1, m):
            lines.append(f"{i} {j} 1.0")
            lines.append(f"{m + i} {m + j} 1.0")
    lines.append(f"0 {m} 0.001")
    edges = tmp_path / "g.edges"
    edges.write_text("\n".join(lines) + "\n")
    labels = tmp_path / "l.txt"
    labels.write_text("\n".join(["0"] * m + ["1"] * m) + "\n")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = [
        "bench", "--dataset-graph", str(edges), "--dataset-labels", str(labels),
        "--methods", "laplace,poisson,v_laplace,v_poisson",
        "--labels-per-class", "1,2", "--trials", "5", "--seed", "42",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    json.loads(b1)  # well-formed
    print("\nPASS: bench determinism, repeated invocations byte-identical "
          f"({len(b1)} bytes)")
