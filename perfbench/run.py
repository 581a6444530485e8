#!/usr/bin/env python3
"""varprop benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a varprop checkout; the package is imported from its
``src/`` directory.  Human-readable lines (environment, sample counts,
failures by kind) come first.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separately traced pass with ``--trace 1``.  The spans, the environment and
the failure counts are also written to ``.bench_out/`` in the checkout.
See perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("desk_sweep", "ingest_8k", "solve_stream")


def _import_program():
    package = ROOT / "src" / "varprop"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no varprop package at {package}; run from a varprop checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import varprop

    if Path(varprop.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported varprop from {varprop.__file__}, not from {package}")


def environment():
    """Versions, core count, BLAS build and the thread settings inherited
    from the caller; runs with different settings are not comparable."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {v: os.environ.get(v) for v in ("VPL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import RUNNERS

    env = environment()
    print("env:", json.dumps(env, sort_keys=True))
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome, metrics, layers, log = RUNNERS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["ok_pct"] = (100.0 * (outcome.attempted - outcome.failed) / outcome.attempted, "%")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    trace = log.pop("trace", None)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        **log,
        "attempted": outcome.attempted,
        "failures": dict(outcome.kinds),
        "problems": outcome.problems,
    }
    print("run:", json.dumps(summary, sort_keys=True))
    chosen = layers if args.trace else metrics
    for name, (value, unit) in sorted(chosen.items()):
        print(f"  {name:40s} {value:14.6g} {unit}")
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "run": summary, "metrics": metrics, "layers": layers, "trace": trace},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))


if __name__ == "__main__":
    main()
