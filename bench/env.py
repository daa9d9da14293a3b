"""Process set-up shared by the benchmark's entry points.

``configure`` must run before numpy is imported: it pins the BLAS and
OpenMP pools to one thread, because every workload is defined as
single-threaded, and puts the checkout's ``src`` first on the import
path, because the benchmark runs the program from source.
"""
from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "tsvqvco").is_dir():
        raise SystemExit(f"benchmark: no tsvqvco sources under {src}")
    sys.path.insert(0, str(src))


def spec() -> dict:
    """BENCHMARK.json: the run length and the declared metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def describe() -> dict:
    """Interpreter, library and host facts recorded with every result."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
