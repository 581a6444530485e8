import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """Run ``scripts/<name>`` with this checkout's ``src`` importable."""
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env,
    )


class TestDeskBench:
    def test_all_trials_failed_cell_prints_failed(self):
        proc = run_script(
            "run_desk_bench.py",
            "--samples", "200", "--trials", "2", "--labels-per-class", "1", "--lambda", "1e6",
        )
        assert proc.returncode == 0, proc.stderr
        assert "v_laplace  m=1 failed failures=2" in proc.stdout
        assert "v_poisson  m=1 failed failures=2" in proc.stdout
