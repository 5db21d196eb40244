"""Executor backends: byte-identical results across serial/processes."""

import os
import pickle

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, JobFailedError
from repro.core.kmeans_job import decode_kmeans_output, make_kmeans_job
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.executors import (
    EXECUTOR_ENV,
    EXECUTOR_KINDS,
    NUM_WORKERS_ENV,
    ProcessPoolTaskExecutor,
    RuntimeConfig,
    SerialExecutor,
    TaskExecutor,
    create_executor,
)
from repro.mapreduce.faults import FaultModel
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import Job, Mapper, Reducer
from repro.mapreduce.runtime import MapReduceRuntime


def _norm(value):
    """Normalise a value so equality means byte equality."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, str(value.dtype), value.tobytes())
    if isinstance(value, tuple):
        return tuple(_norm(v) for v in value)
    if isinstance(value, list):
        return [_norm(v) for v in value]
    return value


def fingerprint(result) -> bytes:
    """Everything observable about a job run, as comparable bytes."""
    payload = {
        "output": _norm(result.output),
        "counters": result.counters.as_dict(),
        "timing": (
            result.timing.startup_seconds,
            result.timing.map_seconds,
            result.timing.shuffle_seconds,
            result.timing.reduce_seconds,
        ),
        "map_task_seconds": result.map_task_seconds,
        "reduce_task_seconds": result.reduce_task_seconds,
        "num_map_tasks": result.num_map_tasks,
        "num_reduce_tasks": result.num_reduce_tasks,
        "max_reduce_heap_bytes": result.max_reduce_heap_bytes,
    }
    return pickle.dumps(payload)


def make_points(n=240, d=3, seed=11):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) + rng.integers(0, 4, size=(n, 1)) * 5.0


def run_kmeans(
    backend: str,
    faults: "FaultModel | None" = None,
    seed=123,
    data_plane=None,
    num_workers=4,
):
    from repro.data.loader import write_points
    from repro.data.textio import bytes_per_record

    points = make_points()
    per_record = bytes_per_record(points.shape[1])
    dfs = InMemoryDFS(
        split_size_bytes=per_record * 30, data_plane=data_plane
    )  # 8 splits
    f = write_points(dfs, "pts", points)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2),
        rng=seed,
        faults=faults,
        config=RuntimeConfig(executor=backend, num_workers=num_workers),
    )
    centers = points[:4].copy()
    job = make_kmeans_job(centers, num_reduce_tasks=4)
    result = runtime.run(job, f), centers
    dfs.release()
    return result


@pytest.mark.parametrize("backend", ["processes"])
def test_kmeans_byte_identical_to_serial(backend):
    serial, centers = run_kmeans("serial")
    other, _ = run_kmeans(backend)
    assert fingerprint(other) == fingerprint(serial)
    # and the decoded centers agree exactly, not just approximately
    ours, _ = decode_kmeans_output(other.output, centers)
    ref, _ = decode_kmeans_output(serial.output, centers)
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("plane", ["pickled", "shared"])
def test_processes_byte_identical_across_planes(plane):
    """Wave submission is a pure scheduling change on either plane.

    Three workers over 8 map and 4 reduce tasks: neither phase divides
    evenly, so the strided stripes are uneven and must still reassemble
    into the exact task order.
    """
    serial, _ = run_kmeans("serial", data_plane="pickled")
    other, _ = run_kmeans("processes", data_plane=plane, num_workers=3)
    assert other.num_map_tasks % 3 and other.num_reduce_tasks % 3
    assert fingerprint(other) == fingerprint(serial)


@pytest.mark.parametrize("backend", ["processes"])
def test_kmeans_byte_identical_under_faults(backend):
    faults = FaultModel(
        task_failure_probability=0.3,
        straggler_probability=0.25,
        speculative_execution=True,
    )
    serial, _ = run_kmeans("serial", faults=faults)
    other, _ = run_kmeans(backend, faults=faults)
    assert fingerprint(other) == fingerprint(serial)


class SeededMapper(Mapper):
    """Output depends on the per-task RNG: catches seed-order bugs."""

    def map(self, key, value, ctx):
        ctx.emit(int(ctx.rng.integers(50)), 1)


class CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def run_seeded(backend: str, seed=7):
    dfs = InMemoryDFS(split_size_bytes=16)
    f = dfs.write("d", list(range(40)), bytes_per_record=8)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2),
        rng=seed,
        config=RuntimeConfig(executor=backend, num_workers=3),
    )
    job = Job(name="seeded", mapper=SeededMapper, reducer=CountReducer)
    return runtime.run(job, f)


@pytest.mark.parametrize("backend", ["processes"])
def test_per_task_rng_independent_of_schedule(backend):
    assert fingerprint(run_seeded(backend)) == fingerprint(run_seeded("serial"))


class ExplodingMapper(Mapper):
    """Fails on the split whose first record matches config["boom"]."""

    def map(self, key, value, ctx):
        if value in ctx.config["boom"]:
            raise ValueError(f"boom on {value}")
        ctx.emit(value, 1)


@pytest.mark.parametrize("backend", EXECUTOR_KINDS)
def test_lowest_index_failure_wins(backend):
    """Several tasks fail; every backend reports the serial-first one."""
    dfs = InMemoryDFS(split_size_bytes=8)  # 1 record per split
    f = dfs.write("d", list(range(12)), bytes_per_record=8)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2),
        rng=0,
        config=RuntimeConfig(executor=backend, num_workers=4),
    )
    job = Job(
        name="explode",
        mapper=ExplodingMapper,
        reducer=CountReducer,
        config={"boom": (3, 9, 10)},
    )
    with pytest.raises(ValueError, match="boom on 3"):
        runtime.run(job, f)


# -- configuration ------------------------------------------------------


def test_runtime_config_defaults():
    config = RuntimeConfig()
    assert config.executor == "serial"
    assert config.num_workers is None


def test_runtime_config_rejects_unknown_backend():
    with pytest.raises(ConfigurationError):
        RuntimeConfig(executor="gpu")


def test_runtime_config_rejects_bad_worker_count():
    with pytest.raises(ConfigurationError):
        RuntimeConfig(num_workers=0)


def test_runtime_config_from_env():
    env = {EXECUTOR_ENV: "processes", NUM_WORKERS_ENV: "5"}
    config = RuntimeConfig.from_env(env)
    assert config == RuntimeConfig(executor="processes", num_workers=5)
    assert RuntimeConfig.from_env({}) == RuntimeConfig()
    with pytest.raises(ConfigurationError):
        RuntimeConfig.from_env({NUM_WORKERS_ENV: "four"})


def test_runtime_config_rejects_removed_settings():
    """The threads backend, the dispatch mode and the runtime-level data
    plane are gone: asking for them fails loudly, never silently."""
    assert EXECUTOR_KINDS == ("serial", "processes")
    with pytest.raises(ConfigurationError, match=r"\('serial', 'processes'\)"):
        RuntimeConfig(executor="threads")
    with pytest.raises(ConfigurationError, match=r"\('serial', 'processes'\)"):
        RuntimeConfig.from_env({EXECUTOR_ENV: "threads"})
    for removed in ("dispatch", "data_plane"):
        with pytest.raises(TypeError):
            RuntimeConfig(**{removed: None})


def test_create_executor_kinds():
    assert isinstance(create_executor(RuntimeConfig()), SerialExecutor)
    assert isinstance(
        create_executor(RuntimeConfig(executor="processes")),
        ProcessPoolTaskExecutor,
    )
    for kind in EXECUTOR_KINDS:
        executor = create_executor(RuntimeConfig(executor=kind))
        assert isinstance(executor, TaskExecutor)
        assert executor.name == kind


def test_runtime_accepts_backend_name_string():
    dfs = InMemoryDFS(split_size_bytes=16)
    with MapReduceRuntime(dfs, config="processes") as runtime:
        assert runtime.executor.name == "processes"


def test_runtime_reads_environment(monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV, "processes")
    monkeypatch.setenv(NUM_WORKERS_ENV, "2")
    runtime = MapReduceRuntime(InMemoryDFS(split_size_bytes=16))
    assert runtime.executor.name == "processes"
    assert runtime.executor.num_workers == 2


# -- picklability regressions -------------------------------------------
#
# Everything that crosses the worker-process boundary must survive a
# pickle round-trip. Each entry below was once a lambda, a closure or a
# custom-__new__ class that broke the processes backend (an unpicklable
# *result* is especially nasty: it surfaces as BrokenProcessPool in the
# parent, with the workers killed before they can report anything).


def _pickle_roundtrip_cases():
    from repro.common.errors import JavaHeapSpaceError
    from repro.core.test_clusters import ProjectionHeapCost, TestVerdict
    from repro.core.test_few_clusters import MapperVote
    from repro.mapreduce.counters import Counters
    from repro.mapreduce.faults import TaskPermanentlyFailedError
    from repro.mapreduce.partitioners import WeightBalancedPartitioner

    counters = Counters()
    counters.inc("g", "n", 3)
    return [
        MapperVote(1.25, 40, True, False),
        TestVerdict(0.5, 100, True, True),
        ProjectionHeapCost(16),
        WeightBalancedPartitioner({1: 10.0, 2: 3.0}, 4),
        counters,
        JavaHeapSpaceError(100, 10, "t-0"),
        JobFailedError("job died", cause=ValueError("x")),
        TaskPermanentlyFailedError("t-1", 4),
    ]


@pytest.mark.parametrize(
    "obj", _pickle_roundtrip_cases(), ids=lambda o: type(o).__name__
)
def test_boundary_objects_pickle_roundtrip(obj):
    clone = pickle.loads(pickle.dumps(obj))
    assert type(clone) is type(obj)
    if isinstance(obj, tuple):
        assert tuple(clone) == tuple(obj)


def test_mapper_vote_roundtrip_preserves_fields():
    from repro.core.test_few_clusters import MapperVote

    vote = MapperVote(2.5, 31, True, True)
    clone = pickle.loads(pickle.dumps(vote))
    assert (clone.statistic, clone.n, clone.decided, clone.rejected) == (
        2.5,
        31,
        True,
        True,
    )


def test_job_with_kmeans_config_is_picklable():
    job = make_kmeans_job(np.zeros((3, 2)), num_reduce_tasks=2)
    clone = pickle.loads(pickle.dumps(job))
    assert clone.name == job.name
