"""Process set-up shared by the benchmark's entry scripts.

BLAS policy: one BLAS thread per process.  The sweep workload runs two pool
workers on a two-core machine, and OpenBLAS would otherwise start one thread
per core in each of them.  The variables must be set before numpy loads.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def prepare_process() -> None:
    """Pin BLAS threads and put the checkout's `src` and root on sys.path."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]


def missing_sources() -> list[str]:
    """Paths the benchmark needs that this checkout lacks."""
    needed = [os.path.join("src", "partialner", "__init__.py"),
              os.path.join("configs", "experiment_full.json")]
    return [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
