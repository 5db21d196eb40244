"""Shared setup for the experiment suite.

Every benchmark builds its world the same way: generate a synthetic
mixture, place it on an in-memory DFS with a split size that yields a
sensible number of map tasks, and wire a runtime for the requested
cluster topology. The helpers here keep those choices consistent
across tables and figures (and documented in one place).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.rng import ensure_rng
from repro.common.validation import check_positive
from repro.data.generator import GaussianMixture
from repro.data.loader import write_points
from repro.data.textio import bytes_per_record
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.costmodel import CostParameters
from repro.mapreduce.executors import RuntimeConfig
from repro.mapreduce.hdfs import DFSFile, InMemoryDFS
from repro.mapreduce.runtime import MapReduceRuntime


#: Cost parameters used by the experiment suite. The paper's datasets
#: are ~300x larger than the scaled-down ones used here, so the
#: real-hardware defaults of :class:`CostParameters` would leave
#: simulated time dominated by per-job fixed costs; these constants
#: rebalance the model so per-point compute dominates, exactly as it
#: does at the paper's scale. (Only simulated *time* is affected —
#: counters, heap accounting and results are identical.)
BENCH_COST = CostParameters(
    seconds_per_coordinate_op=1e-6,
    task_startup_seconds=0.05,
    job_startup_seconds=0.3,
)


def target_split_bytes(
    n_points: int, dimensions: int, target_splits: int
) -> int:
    """Split size that chops ``n_points`` into ``~target_splits`` splits."""
    check_positive("n_points", n_points)
    check_positive("target_splits", target_splits)
    per_record = bytes_per_record(dimensions)
    records_per_split = max(1, n_points // target_splits)
    return max(per_record, records_per_split * per_record)


@dataclass
class World:
    """One experiment's substrate: DFS + runtime + dataset."""

    dfs: InMemoryDFS
    runtime: MapReduceRuntime
    dataset: DFSFile
    mixture: GaussianMixture

    @property
    def points(self) -> np.ndarray:
        return self.mixture.points


def build_world(
    mixture: GaussianMixture,
    nodes: int = 4,
    target_splits: int = 16,
    task_heap_mb: int = 1024,
    map_slots_per_node: int = 8,
    reduce_slots_per_node: int = 8,
    cost: CostParameters | None = None,
    seed: int = 0,
    dataset_name: str = "dataset",
    executor: str | None = None,
    num_workers: int | None = None,
    journal=None,
    profile_tasks: bool | None = None,
    data_plane: str | None = None,
) -> World:
    """Wire a DFS, a cluster runtime and the dataset for one experiment.

    ``target_splits`` controls map parallelism *and* the size of the
    per-split samples the mapper-side test sees; the defaults keep both
    realistic at laptop scale (the paper's 64 MB splits over 10M-point
    files behave like ~16 splits over our scaled datasets).

    ``executor``/``num_workers``/``data_plane`` pick the task-execution
    backend and how record blocks reach its workers; left as ``None``
    they defer to ``REPRO_EXECUTOR``/``REPRO_NUM_WORKERS``/
    ``REPRO_DATA_PLANE`` (and ultimately to the serial, pickled
    defaults). Backends and data planes never change results, only
    wall-clock time.
    """
    split_bytes = target_split_bytes(
        mixture.n_points, mixture.dimensions, target_splits
    )
    dfs = InMemoryDFS(split_size_bytes=split_bytes, data_plane=data_plane)
    dataset = write_points(dfs, dataset_name, mixture.points)
    cluster = ClusterConfig(
        nodes=nodes,
        map_slots_per_node=map_slots_per_node,
        reduce_slots_per_node=reduce_slots_per_node,
        task_heap_mb=task_heap_mb,
    )
    if executor is None and num_workers is None:
        config = None  # defer to REPRO_EXECUTOR / REPRO_NUM_WORKERS
    else:
        base = RuntimeConfig.from_env()
        config = RuntimeConfig(
            executor=executor or base.executor,
            num_workers=num_workers if num_workers is not None else base.num_workers,
        )
    runtime = MapReduceRuntime(
        dfs,
        cluster=cluster,
        cost=cost or BENCH_COST,
        rng=ensure_rng(seed),
        config=config,
        journal=journal,
        profile_tasks=profile_tasks,
    )
    return World(dfs=dfs, runtime=runtime, dataset=dataset, mixture=mixture)
