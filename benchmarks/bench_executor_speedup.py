"""Executor backends — real wall-clock speedup on the Table 1 workload.

Unlike the other benchmarks, which validate *simulated* cluster time,
this one measures the real time this process spends running a Table-1
style G-means workload under each (executor backend × data plane)
cell. It asserts two things:

* equivalence — every cell produces byte-identical results (centers,
  k, iterations, simulated time), pickled or zero-copy;
* speedup — ``processes`` with 4 workers over the shared-memory data
  plane beats ``serial`` by >= 2x. The assertion needs real cores: on
  machines with fewer CPUs than workers the test is *skipped* after
  recording (a process pool cannot outrun the serial loop without
  cores to run on, and silently recording a sub-1x ratio as a pass
  would be misleading) — ``BENCH_executors.json`` still archives the
  measured ratios and each cell's data-plane mode for the record.
"""

from __future__ import annotations

import os
import pathlib
import time

import pytest

from repro.core.config import MRGMeansConfig
from repro.core.gmeans_mr import MRGMeans
from repro.data.generator import paper_family_dataset
from repro.evaluation.benchjson import write_bench_json
from repro.evaluation.experiments import EXPERIMENT_ALPHA
from repro.evaluation.harness import build_world
from repro.mapreduce.executors import shutdown_shared_pools

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_executors.json"

K_REAL = 16
N_POINTS = 60_000
SEED = 3
NUM_WORKERS = 4

#: The measured matrix: serial/pickled is the reference; processes runs
#: the zero-copy plane (its speedup case) and is also measured with
#: pickled splits to isolate the plane's win.
CELLS = (
    ("serial", "pickled"),
    ("processes", "pickled"),
    ("processes", "shared"),
)


def run_once(backend: str, data_plane: str) -> tuple[dict, float]:
    """One Table-1 G-means run; returns (result signature, wall seconds)."""
    mixture = paper_family_dataset(n_clusters=K_REAL, n_points=N_POINTS, rng=SEED)
    world = build_world(
        mixture,
        nodes=4,
        target_splits=16,
        seed=SEED,
        executor=backend,
        num_workers=NUM_WORKERS,
        data_plane=data_plane,
    )
    config = MRGMeansConfig(seed=SEED, alpha=EXPERIMENT_ALPHA)
    start = time.perf_counter()
    result = MRGMeans(world.runtime, config).fit(world.dataset)
    elapsed = time.perf_counter() - start
    world.dfs.release()
    signature = {
        "k_found": result.k_found,
        "iterations": result.iterations,
        "completed": result.completed,
        "centers_sha": result.centers.tobytes().hex()[:64],
        "simulated_seconds": result.simulated_seconds,
    }
    return signature, elapsed


def test_executor_speedup(report):
    measurements = {}
    signatures = {}
    for backend, plane in CELLS:
        if backend == "processes":
            # Pay pool start-up before the measured run, as a long-lived
            # driver would (pools are shared process-wide).
            shutdown_shared_pools()
            _, _ = run_once(backend, plane)
        cell = f"{backend}/{plane}"
        signatures[cell], measurements[cell] = run_once(backend, plane)

    reference = signatures["serial/pickled"]
    for cell, signature in signatures.items():
        assert signature == reference, cell

    serial_s = measurements["serial/pickled"]
    speedup = serial_s / measurements["processes/shared"]
    plane_gain = measurements["processes/pickled"] / measurements["processes/shared"]
    cpus = os.cpu_count() or 1
    write_bench_json(
        BENCH_JSON,
        "executor_speedup_table1",
        workload={
            "algorithm": "gmeans_mr",
            "clusters": K_REAL,
            "n_points": N_POINTS,
            "dimensions": 10,
            "seed": SEED,
            "num_workers": NUM_WORKERS,
        },
        metrics={
            "wall_seconds": {k: round(v, 3) for k, v in measurements.items()},
            "data_plane": {f"{b}/{p}": p for b, p in CELLS},
            "speedup_processes_vs_serial": round(speedup, 3),
            "shared_vs_pickled_processes": round(plane_gain, 3),
            "speedup_asserted": cpus >= NUM_WORKERS,
            "results_byte_identical": True,
        },
    )

    lines = ["executor backends — wall-clock on the Table 1 workload", ""]
    for cell, seconds in measurements.items():
        lines.append(f"  {cell:<20} {seconds:8.2f} s")
    lines.append("")
    lines.append(
        f"  processes/shared vs serial: {speedup:.2f}x "
        f"({NUM_WORKERS} workers on {cpus} CPUs)"
    )
    lines.append(f"  shared vs pickled (processes): {plane_gain:.2f}x")
    report("executor_speedup", "\n".join(lines))

    if cpus < NUM_WORKERS:
        pytest.skip(
            f"speedup assertion needs >= {NUM_WORKERS} CPUs, have {cpus} "
            "(ratios recorded in BENCH_executors.json)"
        )
    assert speedup >= 2.0, (
        f"expected >= 2x speedup with {NUM_WORKERS} workers on "
        f"{cpus} CPUs, measured {speedup:.2f}x"
    )
