import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varprop.cli as cli
from varprop.cli import main
from varprop.data import read_edgelist, read_labeled_nodes
from varprop.graph import objective_value
from varprop.solvers import SolverConfig, solve


@pytest.fixture
def path3(tmp_path):
    graph = tmp_path / "p3.edges"
    graph.write_text("0 1\n1 2\n")
    labels = tmp_path / "p3.labels"
    labels.write_text("0 0\n2 1\n")
    return graph, labels


@pytest.fixture
def k3(tmp_path):
    graph = tmp_path / "k3.edges"
    graph.write_text("0 1\n0 2\n1 2\n")
    labels = tmp_path / "k3.labels"
    labels.write_text("0 0\n1 1\n")
    return graph, labels


@pytest.fixture
def bridged(tmp_path):
    m = 6
    lines = []
    for i in range(m):
        for j in range(i + 1, m):
            lines.append(f"{i} {j} 1.0")
            lines.append(f"{m + i} {m + j} 1.0")
    lines.append(f"0 {m} 0.001")
    edges = tmp_path / "bridge.edges"
    edges.write_text("\n".join(lines) + "\n")
    labels = tmp_path / "bridge.labels"
    labels.write_text("\n".join(["0"] * m + ["1"] * m) + "\n")
    return edges, labels


class TestBuildGraph:
    def test_collinear_fixture_writes_hand_checked_weights(self, tmp_path, capsys):
        feat = tmp_path / "pts.csv"
        feat.write_text("0.0\n1.0\n3.0\n")
        out = tmp_path / "g.edges"
        assert main(["build-graph", "--features", str(feat), "--k", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "nodes=3" in printed and "edges=3" in printed
        rows = {}
        for line in out.read_text().splitlines():
            i, j, w = line.split()
            rows[(i, j)] = float(w)
        assert rows[("0", "1")] == pytest.approx(math.exp(-1 / 6), abs=1e-15)
        assert rows[("1", "2")] == pytest.approx(math.exp(-4 / 6), abs=1e-15)
        assert rows[("0", "2")] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_rerun_is_byte_identical(self, tmp_path):
        feat = tmp_path / "pts.csv"
        rng = np.random.Generator(np.random.Philox(3))
        feat.write_text("\n".join(f"{a},{b}" for a, b in rng.normal(size=(20, 2))) + "\n")
        out1, out2 = tmp_path / "a.edges", tmp_path / "b.edges"
        main(["build-graph", "--features", str(feat), "--k", "3", "--out", str(out1)])
        main(["build-graph", "--features", str(feat), "--k", "3", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_k_zero_is_usage_error(self, tmp_path, capsys):
        feat = tmp_path / "pts.csv"
        feat.write_text("0.0\n1.0\n")
        assert main(["build-graph", "--features", str(feat), "--k", "0", "--out", "x"]) == 2
        capsys.readouterr()

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["build-graph", "--features", str(tmp_path / "no.csv"), "--k", "1", "--out", "x"]) == 2
        capsys.readouterr()


class TestSolve:
    def test_path3_laplace_predictions_and_sidecar(self, path3, tmp_path, capsys):
        graph, labels = path3
        out = tmp_path / "pred.txt"
        code = main([
            "solve", "--graph", str(graph), "--labels", str(labels),
            "--method", "laplace", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text() == "0\n0\n1\n"  # midpoint ties toward class 0
        sidecar = json.loads((tmp_path / "pred.txt.json").read_text())
        assert sidecar["converged"] is True
        assert sidecar["final_residual"] <= 1e-8
        assert sidecar["flags"]["method"] == "laplace"
        # laplace solves without the variance term, whatever --lambda says
        g = read_edgelist(str(graph))
        u = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        assert sidecar["objective_value"] == pytest.approx(objective_value(g, u, 0.0), abs=1e-12)
        assert objective_value(g, u, 0.0) != pytest.approx(objective_value(g, u, 0.1))
        capsys.readouterr()

    def test_k3_poisson_predictions(self, k3, tmp_path, capsys):
        graph, labels = k3
        out = tmp_path / "pred.txt"
        assert main([
            "solve", "--graph", str(graph), "--labels", str(labels),
            "--method", "poisson", "--out", str(out),
        ]) == 0
        assert out.read_text() == "0\n1\n0\n"
        capsys.readouterr()

    def test_v_poisson_objective_uses_lambda(self, k3, tmp_path, capsys):
        graph, labels = k3
        out = tmp_path / "pred.txt"
        assert main([
            "solve", "--graph", str(graph), "--labels", str(labels),
            "--method", "v_poisson", "--lambda", "0.5", "--out", str(out),
        ]) == 0
        sidecar = json.loads((tmp_path / "pred.txt.json").read_text())
        g = read_edgelist(str(graph))
        u = solve(g, read_labeled_nodes(str(labels)), SolverConfig(lam=0.5, method="v_poisson")).u
        assert sidecar["objective_value"] == pytest.approx(objective_value(g, u, 0.5), abs=1e-12)
        assert objective_value(g, u, 0.5) != pytest.approx(objective_value(g, u, 0.0))
        capsys.readouterr()

    def test_v_poisson_lambda_zero_matches_poisson(self, k3, tmp_path, capsys):
        graph, labels = k3
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["solve", "--graph", str(graph), "--labels", str(labels), "--method", "poisson", "--out", str(a)])
        main(["solve", "--graph", str(graph), "--labels", str(labels), "--method", "v_poisson",
              "--lambda", "0", "--out", str(b)])
        assert a.read_text() == b.read_text()
        capsys.readouterr()

    def test_ill_posed_exit_three(self, tmp_path, capsys):
        graph = tmp_path / "d.edges"
        graph.write_text("0 1\n2 3\n")
        labels = tmp_path / "d.labels"
        labels.write_text("0 0\n1 1\n")
        code = main(["solve", "--graph", str(graph), "--labels", str(labels),
                     "--method", "laplace", "--out", str(tmp_path / "p.txt")])
        assert code == 3
        assert "component" in capsys.readouterr().err

    def test_divergence_exit_four(self, k3, tmp_path, capsys, silence_runtime_warnings):
        graph, labels = k3
        code = main(["solve", "--graph", str(graph), "--labels", str(labels),
                     "--method", "v_poisson", "--lambda", "1e9", "--out", str(tmp_path / "p.txt")])
        assert code == 4
        capsys.readouterr()

    def test_format_error_exit_two(self, tmp_path, capsys):
        graph = tmp_path / "bad.edges"
        graph.write_text("0 x\n")
        labels = tmp_path / "l.txt"
        labels.write_text("0 0\n")
        code = main(["solve", "--graph", str(graph), "--labels", str(labels),
                     "--method", "laplace", "--out", str(tmp_path / "p.txt")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lambda", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_is_usage_error(self, k3, tmp_path, capsys, flag, value):
        graph, labels = k3
        out = tmp_path / "p.txt"
        code = main(["solve", "--graph", str(graph), "--labels", str(labels),
                     "--method", "v_poisson", flag, value, "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "p.txt.json").exists()

    def test_tol_below_machine_epsilon_is_usage_error(self, k3, tmp_path, capsys):
        graph, labels = k3
        out = tmp_path / "p.txt"
        code = main(["solve", "--graph", str(graph), "--labels", str(labels),
                     "--method", "v_poisson", "--tol", "1e-17", "--out", str(out)])
        assert code == 2
        assert "machine epsilon" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "p.txt.json").exists()

    def test_unknown_flag_rejected(self, path3, capsys):
        graph, labels = path3
        code = main(["solve", "--graph", str(graph), "--labels", str(labels),
                     "--method", "laplace", "--out", "x", "--frobnicate", "1"])
        assert code == 2
        capsys.readouterr()


class TestBench:
    def test_bridged_cliques_both_methods_perfect(self, bridged, tmp_path, capsys):
        edges, labels = bridged
        out = tmp_path / "report.json"
        code = main([
            "bench", "--dataset-graph", str(edges), "--dataset-labels", str(labels),
            "--methods", "laplace,poisson", "--labels-per-class", "1",
            "--trials", "5", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert table.count("100.0 (0.0)") == 2
        doc = json.loads(out.read_text())
        assert {r["method"] for r in doc["reports"]} == {"laplace", "poisson"}
        assert doc["flags"]["seed"] == 7

    def test_duplicate_methods_deduplicated_with_warning(self, bridged, tmp_path, capsys):
        edges, labels = bridged
        code = main([
            "bench", "--dataset-graph", str(edges), "--dataset-labels", str(labels),
            "--methods", "laplace,laplace", "--labels-per-class", "1",
            "--trials", "2", "--seed", "0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "duplicate method" in captured.err
        assert captured.out.count("laplace") == 1

    def test_rerun_json_byte_identical(self, bridged, tmp_path, capsys):
        edges, labels = bridged
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["bench", "--dataset-graph", str(edges), "--dataset-labels", str(labels),
                "--methods", "laplace,poisson", "--labels-per-class", "1,2",
                "--trials", "4", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_feature_dataset_path(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.Philox(11))
        a = rng.normal(0, 0.05, size=(8, 2))
        b = rng.normal(0, 0.05, size=(8, 2)) + 40.0
        feat = tmp_path / "f.csv"
        feat.write_text("\n".join(f"{x},{y}" for x, y in np.vstack([a, b])) + "\n")
        labels = tmp_path / "l.txt"
        labels.write_text("\n".join(["0"] * 8 + ["1"] * 8) + "\n")
        code = main([
            "bench", "--dataset-features", str(feat), "--dataset-labels", str(labels),
            "--knn-k", "3", "--methods", "laplace", "--labels-per-class", "1",
            "--trials", "3", "--seed", "1",
        ])
        assert code == 0
        assert "100.0 (0.0)" in capsys.readouterr().out

    def test_duplicate_labels_per_class_deduplicated_with_warning(self, bridged, tmp_path,
                                                                  capsys):
        edges, labels = bridged
        out = tmp_path / "report.json"
        code = main([
            "bench", "--dataset-graph", str(edges), "--dataset-labels", str(labels),
            "--methods", "laplace", "--labels-per-class", "1,1",
            "--trials", "2", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "duplicate labels-per-class value(s) removed: 1" in captured.err
        assert captured.out.splitlines()[0].split() == ["method", "1"]
        doc = json.loads(out.read_text())
        assert doc["flags"]["labels_per_class"] == "1"
        assert len(doc["reports"]) == 1

    def test_bad_labels_per_class_is_usage_error(self, bridged, capsys):
        edges, labels = bridged
        code = main(["bench", "--dataset-graph", str(edges), "--dataset-labels", str(labels),
                     "--methods", "laplace", "--labels-per-class", "one", "--trials", "2"])
        assert code == 2
        capsys.readouterr()


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["solve", "--graph", "g", "--labels", "l", "--method", "laplace", "--out", "o"],
        ["bench", "--dataset-graph", "g", "--dataset-labels", "l", "--methods", "laplace",
         "--labels-per-class", "1"],
    ])
    def test_solver_defaults_come_from_config(self, argv):
        args = cli._build_parser().parse_args(argv)
        defaults = SolverConfig()
        assert (args.lam, args.tol, args.max_iter) == (defaults.lam, defaults.tol, defaults.max_iter)

    @pytest.mark.parametrize("argv", [
        ["bench", "--dataset-features", "f.csv", "--dataset-labels", "l.txt",
         "--methods", "lapalce", "--labels-per-class", "1"],
        ["solve", "--graph", "g", "--labels", "l", "--method", "laplace", "--tol", "nan",
         "--out", "o"],
        ["bench", "--dataset-features", "f.csv", "--dataset-labels", "l.txt",
         "--methods", "laplace", "--labels-per-class", "0"],
        ["bench", "--dataset-features", "f.csv", "--dataset-labels", "l.txt",
         "--methods", "laplace", "--labels-per-class", "2,-1"],
    ])
    def test_bad_flag_fails_before_any_file_is_read(self, argv, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("a file was read before the flags were checked")

        monkeypatch.setattr(cli, "load_feature_dataset", unexpected)
        monkeypatch.setattr(cli, "read_edgelist", unexpected)
        assert main(argv) == 2
        capsys.readouterr()


class TestVerifyPde:
    def test_passes_at_lambda4_grid128(self, capsys):
        assert main(["verify-pde", "--lambda", "4", "--grid", "128"]) == 0
        out = capsys.readouterr().out
        assert "PASS: refinement ratio" in out
        assert "PASS: sinusoid correlation" in out

    def test_passes_at_lambda1_grid256(self, capsys):
        assert main(["verify-pde", "--lambda", "1", "--grid", "256"]) == 0
        capsys.readouterr()

    def test_grid_below_minimum_is_usage_error(self, capsys):
        assert main(["verify-pde", "--lambda", "4", "--grid", "8"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("lam,grid", [("0.01", "256"), ("0.1", "512"), ("4", "3000"), ("4", "4096")])
    def test_grid_past_double_precision_is_usage_error(self, lam, grid, capsys):
        assert main(["verify-pde", "--lambda", lam, "--grid", grid]) == 2
        assert "largest n_grid accepted" in capsys.readouterr().err

    @pytest.mark.parametrize("lam,grid", [("1500", "16"), ("2000", "16"), ("5000", "16"),
                                          ("1e4", "43")])
    def test_grid_too_coarse_for_lambda_is_usage_error(self, lam, grid, capsys):
        assert main(["verify-pde", "--lambda", lam, "--grid", grid]) == 2
        assert "smallest n_grid accepted" in capsys.readouterr().err

    @pytest.mark.parametrize("lam,grid", [("400", "16"), ("1e4", "60")])
    def test_large_lambda_on_resolving_grid_passes(self, lam, grid, capsys):
        assert main(["verify-pde", "--lambda", lam, "--grid", grid]) == 0
        capsys.readouterr()

    def test_nan_lambda_is_usage_error(self, capsys):
        assert main(["verify-pde", "--lambda", "nan", "--grid", "64"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_csv_side_output(self, tmp_path, capsys):
        csv = tmp_path / "resid.csv"
        assert main(["verify-pde", "--lambda", "4", "--grid", "64", "--csv", str(csv)]) == 0
        assert csv.read_text().startswith("x,value,residual")
        capsys.readouterr()

    def test_check_failure_exits_five(self, capsys, monkeypatch):
        from varprop.continuum import PathGraphReport

        def broken(cfg):
            return PathGraphReport(n_grid=cfg.n_grid, shift=0.1, fitted_lambda=1.0, correlation=0.5)

        monkeypatch.setattr(cli, "discrete_vs_continuum", broken)
        assert main(["verify-pde", "--lambda", "4", "--grid", "64"]) == 5
        assert "FAIL: sinusoid correlation" in capsys.readouterr().out


def run_python(*args):
    """Run the interpreter with this checkout's ``src`` importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(*args):
    """Run ``python -m varprop`` with this checkout's ``src`` importable."""
    return run_python("-m", "varprop", *args)


class TestEntryPoint:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.ndimage too: only verify-pde and the synthetic generator need them
        proc = run_python("-c", "import sys, varprop; "
                          "print([m in sys.modules for m in ('scipy.optimize', 'scipy.ndimage')])")
        assert proc.returncode == 0 and proc.stdout.strip() == "[False, False]"

    def test_module_invocation(self):
        proc = run_module("verify-pde", "--lambda", "4", "--grid", "32")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_no_subcommand_is_usage_error(self):
        proc = run_module()
        assert proc.returncode == 2
