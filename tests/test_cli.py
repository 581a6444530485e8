import filecmp
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import varprop.cli as cli
from varprop.cli import main
from varprop.data import read_edgelist, read_labeled_nodes
from varprop.errors import (
    DivergenceError,
    FormatError,
    IllPosedError,
    InsufficientLabelsError,
    InvalidInputError,
    InvalidParameterError,
    LayoutError,
)
from varprop.graph import objective_value
from varprop.solvers import SolverConfig, estimate_stability_limit, solve


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

    def test_no_convergence_exits_four_after_writing(self, tmp_path, capsys):
        graph = tmp_path / "p30.edges"
        graph.write_text("".join(f"{i} {i + 1}\n" for i in range(29)))
        labels = tmp_path / "p30.labels"
        labels.write_text("0 0\n29 1\n")
        out = tmp_path / "p.txt"
        code = main(["solve", "--graph", str(graph), "--labels", str(labels),
                     "--method", "poisson", "--max-iter", "1", "--out", str(out)])
        assert code == 4
        sidecar = json.loads((tmp_path / "p.txt.json").read_text())
        assert sidecar["converged"] is False and sidecar["iterations"] == 1
        assert len(out.read_text().splitlines()) == 30
        err = capsys.readouterr().err
        assert err.startswith("error: poisson did not converge in 1 block steps (residual ")

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

    def test_empty_methods_is_usage_error(self, bridged, capsys):
        edges, labels = bridged
        code = main(["bench", "--dataset-graph", str(edges), "--dataset-labels", str(labels),
                     "--methods", ",", "--labels-per-class", "1"])
        assert code == 2
        assert "no methods given" in capsys.readouterr().err

    def test_bad_labels_per_class_is_usage_error(self, bridged, capsys):
        edges, labels = bridged
        code = main(["bench", "--dataset-graph", str(edges), "--dataset-labels", str(labels),
                     "--methods", "laplace", "--labels-per-class", "one", "--trials", "2"])
        assert code == 2
        capsys.readouterr()


class TestLambdaFrac:
    def bench_argv(self, bridged, *extra):
        edges, labels = bridged
        return ["bench", "--dataset-graph", str(edges), "--dataset-labels", str(labels),
                "--methods", "laplace,v_laplace,v_poisson", "--labels-per-class", "1",
                "--trials", "2", "--seed", "3", *extra]

    def test_fractions_parse_as_a_list(self, bridged):
        args = cli._build_parser().parse_args(self.bench_argv(bridged, "--lambda-frac", "0.5, 1,0"))
        assert args.lambda_frac == [0.5, 1.0, 0.0]
        # absent unless given, so that a run without the flag echoes no lambda_frac
        assert not hasattr(cli._build_parser().parse_args(self.bench_argv(bridged)), "lambda_frac")

    @pytest.mark.parametrize("extra", [
        ["--lambda-frac", "-0.5"], ["--lambda-frac", "0.5,nan"], ["--lambda-frac", "inf"],
        ["--lambda-frac", "0.5,abc"], ["--lambda-frac", ","],
        ["--lambda", "0.1", "--lambda-frac", "0.5"], ["--lambda-frac", "0.5", "--lambda", "0.1"],
    ], ids=["negative", "nan", "inf", "not_a_number", "empty", "lambda_first", "lambda_last"])
    def test_bad_fraction_exits_2_before_any_file_is_read(self, extra, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("a file was read before the flags were checked")

        monkeypatch.setattr(cli, "load_graph_dataset", unexpected)
        assert main(self.bench_argv(("g", "l"), *extra)) == 2
        err = capsys.readouterr().err
        assert "--lambda-frac" in err and "Traceback" not in err

    def test_disconnected_graph_is_ill_posed(self, tmp_path, capsys):
        edges = tmp_path / "two.edges"
        edges.write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
        labels = tmp_path / "two.labels"
        labels.write_text("0\n0\n0\n1\n1\n1\n")
        code = main(self.bench_argv((edges, labels), "--lambda-frac", "0.5"))
        assert code == 3
        captured = capsys.readouterr()
        assert "lambda_2" in captured.err and captured.out == ""

    def test_lambda_is_the_fraction_of_lambda_2(self, bridged, tmp_path, capsys):
        out = tmp_path / "frac.json"
        assert main(self.bench_argv(bridged, "--lambda-frac", "0.5,0.8", "--out", str(out))) == 0
        table = capsys.readouterr().out.splitlines()
        doc = json.loads(out.read_text())
        lambda_2 = estimate_stability_limit(read_edgelist(bridged[0]))
        assert doc["lambda_2"] == lambda_2 > 0
        assert doc["flags"]["lambda_frac"] == "0.5,0.8" and "lambda" not in doc["flags"]
        assert [(r["method"], r["lam"]) for r in doc["reports"]] == [
            ("laplace", 0.0),
            ("v_laplace", 0.5 * lambda_2), ("v_laplace", 0.8 * lambda_2),
            ("v_poisson", 0.5 * lambda_2), ("v_poisson", 0.8 * lambda_2),
        ]
        assert [line.split("  ")[0] for line in table[:3]] == [
            "method", "laplace", f"v_laplace lam={0.5 * lambda_2:g}"]

    def test_without_the_flag_no_lambda_2(self, bridged, tmp_path, capsys):
        out = tmp_path / "plain.json"
        assert main(self.bench_argv(bridged, "--out", str(out))) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["dataset", "flags", "reports"]
        assert [r["lam"] for r in doc["reports"]] == [0.0, 0.1, 0.1]

    def test_rerun_json_byte_identical(self, bridged, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = self.bench_argv(bridged, "--lambda-frac", "0.5,0.8")
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert filecmp.cmp(out1, out2, shallow=False)


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

    @pytest.mark.parametrize("argv", [
        ["build-graph", "--features", "f.csv", "--k", "abc", "--out", "o"],
        ["bench", "--dataset-graph", "g", "--dataset-labels", "l", "--methods", "laplace",
         "--labels-per-class", "1", "--trials", "abc"],
        ["bench", "--dataset-features", "f.csv", "--dataset-labels", "l", "--methods", "laplace",
         "--labels-per-class", "1", "--knn-k", "abc"],
        ["solve", "--graph", "g", "--labels", "l", "--method", "laplace", "--max-iter", "abc",
         "--out", "o"],
        ["bench", "--dataset-graph", "g", "--dataset-labels", "l", "--methods", "laplace",
         "--labels-per-class", "1,abc"],
        # numbers that only Python's int() and float() read: '1_0' as 10, Arabic-Indic '١٠' too
        ["build-graph", "--features", "f.csv", "--out", "o", "--k", "1_0"],
        ["build-graph", "--features", "f.csv", "--out", "o", "--k", "١٠"],
        ["bench", "--dataset-graph", "g", "--dataset-labels", "l", "--methods", "laplace",
         "--labels-per-class", "1", "--seed", "1_0"],
        ["bench", "--dataset-graph", "g", "--dataset-labels", "l", "--methods", "laplace",
         "--labels-per-class", "1", "--lambda", "0_1"],
        ["solve", "--graph", "g", "--labels", "l", "--method", "laplace", "--out", "o",
         "--tol", "١e-8"],
        ["verify-pde", "--grid", "1_28"],
    ])
    def test_non_integer_count_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        # the flag whose value is 'abc', or holds '_' or a non-ASCII character
        flag, bad = next((f, v) for f, v in zip(argv, argv[1:]) if re.search(r"abc|_|[^ -~]", v))
        rejection = {"--seed": "invalid int value:", "--grid": "invalid int value:",
                     "--lambda": "invalid float value:", "--tol": "invalid float value:"}
        expected = rejection.get(flag, "must be a positive integer, got")
        assert f"{expected} {bad.split(',')[-1]!r}" in err
        assert "_positive_int" not in err

    @pytest.mark.parametrize("subcommand", ["solve", "bench"])
    def test_json_flags_echo_every_parsed_option(self, subcommand, bridged, path3, tmp_path,
                                                 capsys):
        if subcommand == "solve":
            graph, seeds = path3
            argv = ["solve", "--graph", str(graph), "--labels", str(seeds),
                    "--method", "poisson", "--out", str(tmp_path / "p.txt")]
            out, omitted = tmp_path / "p.txt.json", set()
        else:
            edges, labels = bridged
            argv = ["bench", "--dataset-graph", str(edges), "--dataset-labels", str(labels),
                    "--methods", "poisson,laplace", "--labels-per-class", "2,1", "--trials", "2",
                    "--out", str(tmp_path / "r.json")]
            out, omitted = tmp_path / "r.json", {"out"}
        assert main(argv) == 0
        capsys.readouterr()
        parsed = vars(cli._build_parser().parse_args(argv))
        flags = json.loads(out.read_text())["flags"]
        assert set(flags) == set(parsed) - {"subcommand", "func", "lam"} - omitted | {"lambda"}
        assert flags["lambda"] == parsed["lam"]
        if subcommand == "bench":
            assert flags["methods"] == "poisson,laplace"
            assert flags["labels_per_class"] == "2,1"


class TestExitCodes:
    @pytest.mark.parametrize("exc,code", [
        (FormatError, 2), (InvalidInputError, 2), (InvalidParameterError, 2),
        (InsufficientLabelsError, 2), (LayoutError, 2),
        (FileNotFoundError, 2), (IllPosedError, 3), (DivergenceError, 4),
    ])
    def test_listed_exception_maps_to_its_code(self, exc, code, monkeypatch, capsys):
        def fail(n):
            raise exc("boom")

        monkeypatch.setattr(cli, "discrete_vs_continuum", fail)
        assert main(["verify-pde", "--grid", "64"]) == code
        assert capsys.readouterr().err == "error: boom\n"

    @pytest.mark.parametrize("exc", [KeyError, ValueError, RuntimeError])
    def test_unlisted_exception_propagates(self, exc, monkeypatch):
        def fail(n):
            raise exc("boom")

        monkeypatch.setattr(cli, "discrete_vs_continuum", fail)
        with pytest.raises(exc):
            main(["verify-pde", "--grid", "64"])


class TestVerifyPde:
    @pytest.mark.parametrize("grid", ["16", "128", "2201"])
    def test_seven_verdicts_pass(self, grid, capsys):
        assert main(["verify-pde", "--grid", grid]) == 0
        captured = capsys.readouterr()
        verdicts = [line for line in captured.out.splitlines()
                    if line.startswith(("PASS", "FAIL"))]
        assert [v.split(":")[0] for v in verdicts] == ["PASS"] * 7
        for verdict, method in zip(verdicts, ("laplace", "poisson", "v_laplace", "v_poisson")):
            assert verdict.startswith(f"PASS: {method} ")
            assert "= closed form to relative" in verdict and "<= 1e-8" in verdict
        assert "at 0.5, 0.9, 0.99 lambda_2" in verdicts[3]
        assert verdicts[3].endswith("warned at 0.9, 0.99, expect 0.9, 0.99")
        assert "PASS: sinusoid correlation" in verdicts[4]
        assert "PASS: path-graph shift = 2(n-1)(1-cos(pi/(n-1)))" in verdicts[5]
        assert "PASS: stability estimate = path-graph shift" in verdicts[6]
        assert captured.err == ""

    @pytest.mark.parametrize("grid", ["8", "15", "2202"])
    def test_grid_outside_range_is_usage_error(self, grid, capsys):
        assert main(["verify-pde", "--grid", grid]) == 2
        assert f"n_grid must be >= 16 and < 2202 and an integer, got {grid}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--lambda", "4"), ("--csv", "r.csv")])
    def test_removed_flag_is_unknown(self, flag, value, capsys):
        assert main(["verify-pde", "--grid", "128", flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_check_failure_exits_five(self, capsys, monkeypatch):
        from varprop.continuum import PathGraphReport

        def broken(n):
            return PathGraphReport(n_grid=n, shift=0.1, fitted_lambda=1.0, correlation=0.5)

        monkeypatch.setattr(cli, "discrete_vs_continuum", broken)
        assert main(["verify-pde", "--grid", "64"]) == 5
        assert "FAIL: sinusoid correlation" in capsys.readouterr().out

    @pytest.mark.parametrize("method,change,failure", [
        ("laplace", {"error": 2e-8}, "relative 2.0e-08 <= 1e-8"),
        ("v_poisson", {"warned": (0.99,)}, "warned at 0.99, expect 0.9, 0.99"),
        ("v_laplace", {"warned": (0.5,)}, "warned at 0.5, expect none"),
    ])
    def test_closed_form_failure_exits_five(self, method, change, failure, capsys, monkeypatch):
        from varprop.continuum import closed_form_checks

        def broken(n):
            return [replace(c, **change) if c.method == method else c
                    for c in closed_form_checks(n)]

        monkeypatch.setattr(cli, "closed_form_checks", broken)
        assert main(["verify-pde", "--grid", "64"]) == 5
        verdicts = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith(("PASS", "FAIL"))]
        assert [v for v in verdicts if v.startswith("FAIL")] == [
            next(v for v in verdicts if v.startswith(f"FAIL: {method} "))]
        assert failure in next(v for v in verdicts if v.startswith("FAIL"))

    def test_wrong_shift_exits_five(self, capsys, monkeypatch):
        # the eigenvector still samples cos(pi x): only the shift's scale is off
        from varprop.continuum import discrete_vs_continuum

        def scaled(n):
            report = discrete_vs_continuum(n)
            return replace(report, shift=report.shift * (1 + 1e-6))

        monkeypatch.setattr(cli, "discrete_vs_continuum", scaled)
        assert main(["verify-pde", "--grid", "64"]) == 5
        out = capsys.readouterr().out
        assert "PASS: sinusoid correlation" in out
        assert "FAIL: path-graph shift" in out
        assert "FAIL: stability estimate" in out

    def test_wrong_stability_estimate_exits_five(self, capsys, monkeypatch):
        estimate = cli.estimate_stability_limit
        monkeypatch.setattr(cli, "estimate_stability_limit", lambda g: 1.01 * estimate(g))
        assert main(["verify-pde", "--grid", "64"]) == 5
        out = capsys.readouterr().out
        assert "PASS: path-graph shift" in out
        assert "FAIL: stability estimate" in out


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

    def test_verify_pde_leaves_scipy_optimize_unloaded(self):
        proc = run_python("-c", "import sys; from varprop.cli import main; "
                          "code = main(['verify-pde', '--grid', '32']); "
                          "print(code, 'scipy.optimize' in sys.modules)")
        assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "0 False"

    def test_module_invocation(self):
        proc = run_module("verify-pde", "--grid", "32")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        assert proc.stderr == ""  # the v_poisson near-bound warnings are recorded, not shown

    def test_no_subcommand_is_usage_error(self):
        proc = run_module()
        assert proc.returncode == 2

    @pytest.mark.parametrize("subcommand,graph,labels", [
        ("solve", "0 1\n99999999999999999999 2\n", "0 0\n2 1\n"),
        ("solve", "0 1\n1 2\n", "0 0\n99999999999999999999 1\n"),
        ("bench", "0 1\n1 2\n", "0\n99999999999999999999\n1\n"),
    ], ids=["solve-graph", "solve-labels", "bench-labels"])
    def test_integer_past_int64_is_format_error(self, subcommand, graph, labels, tmp_path):
        (tmp_path / "g.edges").write_text(graph)
        (tmp_path / "l.txt").write_text(labels)
        if subcommand == "solve":
            argv = ["solve", "--graph", str(tmp_path / "g.edges"),
                    "--labels", str(tmp_path / "l.txt"), "--method", "laplace",
                    "--out", str(tmp_path / "p.txt")]
        else:
            argv = ["bench", "--dataset-graph", str(tmp_path / "g.edges"),
                    "--dataset-labels", str(tmp_path / "l.txt"), "--methods", "laplace",
                    "--labels-per-class", "1", "--trials", "1"]
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert "line 2:" in proc.stderr and "Traceback" not in proc.stderr

    def test_largest_int64_node_is_isolated_node_error(self, tmp_path):
        # the inferred node count 2**63 fits no int64; the graph is rejected first
        (tmp_path / "g.edges").write_text("0 9223372036854775807\n")
        (tmp_path / "l.txt").write_text("0 0\n")
        proc = run_module("solve", "--graph", str(tmp_path / "g.edges"),
                          "--labels", str(tmp_path / "l.txt"), "--method", "laplace",
                          "--out", str(tmp_path / "p.txt"))
        assert proc.returncode == 2
        assert "isolated node(s), e.g. node 1;" in proc.stderr
        assert "Traceback" not in proc.stderr
