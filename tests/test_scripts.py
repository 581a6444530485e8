import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from varprop import Dataset, SolverConfig, make_cluster_dataset, run_trials, with_knn_graph
from varprop.bench import report_to_dict
from varprop.errors import InvalidParameterError

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    """Run ``python ARGS`` with this checkout's ``src`` importable."""
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestDeskBench:
    """The README desk sweep: make_synthetic_pixels.py, then ``varprop bench``."""

    def test_all_trials_failed_cell_prints_failed(self, tmp_path, silence_runtime_warnings):
        proc = run_python(
            str(ROOT / "scripts" / "make_synthetic_pixels.py"),
            "--out-dir", str(tmp_path), "--samples", "200",
        )
        assert proc.returncode == 0, proc.stderr
        report = tmp_path / "report.json"
        proc = run_python(
            "-m", "varprop", "bench",
            "--dataset-features", str(tmp_path / "features.csv"),
            "--dataset-labels", str(tmp_path / "labels.txt"),
            "--methods", "laplace,poisson,v_laplace,v_poisson", "--labels-per-class", "1",
            "--trials", "2", "--lambda", "1e6", "--out", str(report),
        )
        assert proc.returncode == 0, proc.stderr
        rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()}
        assert rows["v_laplace"] == ["failed"]
        assert rows["v_poisson"] == ["failed"]
        cells = json.loads(report.read_text())["reports"]
        for cell in cells[2:]:
            assert cell["failures"] == 2 and cell["mean"] is None

        # the CSV round trip leaves the reports of the in-memory dataset unchanged
        X, y = make_cluster_dataset(n_samples=200)
        ds = with_knn_graph(Dataset(name="features", k=10, true_labels=y, features=X), 10)
        cfg = SolverConfig(lam=1e6)
        expected = [
            report_to_dict(run_trials(ds, method, 1, 2, 0, cfg))
            for method in ("laplace", "poisson", "v_laplace", "v_poisson")
        ]
        assert cells == expected


class TestSyntheticPixels:
    @pytest.mark.parametrize("samples", ["205", "-10", "0"])
    def test_bad_sample_count_is_usage_error(self, tmp_path, samples):
        out = tmp_path / "out"
        proc = run_python(
            str(ROOT / "scripts" / "make_synthetic_pixels.py"),
            "--out-dir", str(out), "--samples", samples,
        )
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "--samples" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("n_samples,n_classes", [(205, 10), (-10, 10), (0, 10), (20, 1), (10, 0)])
    def test_generator_rejects_bad_sizes(self, n_samples, n_classes):
        with pytest.raises(InvalidParameterError, match="positive multiple"):
            make_cluster_dataset(n_samples=n_samples, n_classes=n_classes)
