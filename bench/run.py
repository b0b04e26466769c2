"""Benchmark entry point for conceptspace.

Run from the repository root:

    python3 bench/run.py --workload fit --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``fit`` trains the shared model, ``grid``
trains and evaluates every model reproduce runs for one seed, ``serve``
evaluates and queries a shipped, fully trained checkpoint.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics from a traced run, which also
writes its spans to ``.bench_out/``. Times in the result are scaled to a
reference machine speed (see ``reference.py``). Human-readable lines
come first and give them as measured; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. BLAS runs on one thread.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with code 2 and prints no result.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def _import_library():
    """Import conceptspace from this checkout's src/, or fail."""
    if not (SRC / "conceptspace" / "__init__.py").is_file():
        raise ImportError(f"no conceptspace package under {SRC}")
    sys.path.insert(0, str(SRC))
    import conceptspace

    if Path(conceptspace.__file__).resolve().parent != SRC / "conceptspace":
        raise ImportError(f"conceptspace was imported from {conceptspace.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "grid", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import workloads

    print("environment: " + json.dumps(environment(), sort_keys=True))
    try:
        result = workloads.execute(args.workload, args.seed, args.seconds,
                                   bool(args.trace), work_dir=ROOT / ".bench_out")
    except (workloads.SetupError, OSError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 3
    for line in result.lines:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.ledger.attempted,
        "failed": result.ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
