"""The environment block and the hygiene applied before any run.

BLAS and OpenMP thread variables are recorded as found. They are left
alone on the process-pool workloads: pinning them there would hide the
BLAS oversubscription those workloads exist to show. Only a workload
that runs every task in the driver process may cap them (see
``run.BLAS_THREADS``); the block records the cap next to what was found.
"""

from __future__ import annotations

import os
import platform
import sys

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def scrub_repro_env(environ) -> list[str]:
    """Remove every ``REPRO_*`` variable; returns the names removed."""
    removed = sorted(name for name in environ if name.startswith("REPRO_"))
    for name in removed:
        del environ[name]
    return removed


def thread_vars(environ) -> dict:
    """The BLAS and OpenMP thread variables, ``None`` where unset."""
    return {name: environ.get(name) for name in THREAD_VARS}


def cap_blas_threads(environ, threads: int) -> None:
    """Set every thread variable to ``threads``. Takes effect only when
    done before numpy is first imported."""
    for name in THREAD_VARS:
        environ[name] = str(threads)


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead of returning
        return {"name": "unknown", "version": "unknown"}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "config": blas.get("openblas configuration", ""),
    }


def environment(removed: list[str], found: dict, cap: "int | None") -> dict:
    import numpy as np

    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "cpu_affinity": affinity,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_vars": found,
        "blas_threads_cap": cap,
        "repro_vars_removed": removed,
    }
