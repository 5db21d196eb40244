"""The job executor: semantics, counters, heap failures, determinism."""

import numpy as np
import pytest

from repro.common.errors import JavaHeapSpaceError, JobFailedError
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.counters import (
    FRAMEWORK_GROUP,
    USER_GROUP,
    Counters,
    MRCounter,
)
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import Job, Mapper, Reducer
from repro.mapreduce.runtime import MapReduceRuntime


class WordMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


# Jobs must be built from module-level (picklable) callables so the
# whole suite can also run under REPRO_EXECUTOR=processes.


class TaskTagReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, (ctx.task_id, len(values)))


class IdentityMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value)


class HookCountingMapper(Mapper):
    """Reports lifecycle hooks through counters (worker-process safe)."""

    def setup(self, ctx):
        ctx.count("SETUP_CALLS")

    def map(self, key, value, ctx):
        pass

    def close(self, ctx):
        ctx.count("CLOSE_CALLS")


class BigValueMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit("big", np.zeros(1000))


class SpreadMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value, np.zeros(1000))


class RandomishMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(int(ctx.rng.integers(100)), 1)


def ten_times_nbytes(value) -> int:
    return value.nbytes * 10


def half_heap_per_value(value) -> int:
    return 500 * 1024


def build(split_size=32, nodes=2, heap_mb=64, seed=7):
    dfs = InMemoryDFS(split_size_bytes=split_size)
    runtime = MapReduceRuntime(
        dfs, cluster=ClusterConfig(nodes=nodes, task_heap_mb=heap_mb), rng=seed
    )
    return dfs, runtime


def write_lines(dfs, lines, per_record=16):
    return dfs.write("text", lines, bytes_per_record=per_record)


def wordcount_job(**kwargs) -> Job:
    defaults = dict(
        name="wc",
        mapper=WordMapper,
        reducer=SumReducer,
        combiner=SumReducer,
        num_reduce_tasks=3,
    )
    defaults.update(kwargs)
    return Job(**defaults)


def test_wordcount_correctness():
    dfs, runtime = build()
    f = write_lines(dfs, ["a b a", "c a b", "b b"])
    result = runtime.run(wordcount_job(), f)
    assert sorted(result.output) == [("a", 3), ("b", 4), ("c", 1)]


def test_output_dict_groups_values():
    dfs, runtime = build()
    f = write_lines(dfs, ["x y", "x"])
    result = runtime.run(wordcount_job(), f)
    assert result.output_dict() == {"x": [2], "y": [1]}


def test_run_by_file_name():
    dfs, runtime = build()
    write_lines(dfs, ["a"])
    result = runtime.run(wordcount_job(), "text")
    assert result.output == [("a", 1)]


def test_framework_counters_exact():
    dfs, runtime = build(split_size=32)  # 2 records per split
    f = write_lines(dfs, ["a b", "a c", "b b"])
    assert f.num_splits == 2
    result = runtime.run(wordcount_job(), f)
    c = result.counters
    assert c.get(FRAMEWORK_GROUP, MRCounter.MAP_TASKS) == 2
    assert c.get(FRAMEWORK_GROUP, MRCounter.MAP_INPUT_RECORDS) == 3
    assert c.get(FRAMEWORK_GROUP, MRCounter.MAP_OUTPUT_RECORDS) == 6
    assert c.get(FRAMEWORK_GROUP, MRCounter.REDUCE_TASKS) == 3
    assert c.get(FRAMEWORK_GROUP, MRCounter.DATASET_READS) == 1
    assert c.get(FRAMEWORK_GROUP, MRCounter.HDFS_BYTES_READ) == f.size_bytes
    # combiner output feeds reducers
    assert (
        c.get(FRAMEWORK_GROUP, MRCounter.REDUCE_INPUT_RECORDS)
        == c.get(FRAMEWORK_GROUP, MRCounter.COMBINE_OUTPUT_RECORDS)
    )


def test_combiner_reduces_shuffle_bytes():
    dfs, runtime = build(split_size=1024)
    lines = ["a a a a a a a a"] * 4
    f = write_lines(dfs, lines)
    with_combiner = runtime.run(wordcount_job(name="with"), f)
    without_combiner = runtime.run(wordcount_job(name="without", combiner=None), f)
    assert sorted(with_combiner.output) == sorted(without_combiner.output)
    assert with_combiner.counters.get(
        FRAMEWORK_GROUP, MRCounter.SHUFFLE_BYTES
    ) < without_combiner.counters.get(FRAMEWORK_GROUP, MRCounter.SHUFFLE_BYTES)


def test_same_key_lands_in_one_reduce_task():
    dfs, runtime = build(split_size=16)  # 1 record per split
    f = write_lines(dfs, ["k v", "k w", "k x"])
    job = Job(name="tag", mapper=WordMapper, reducer=TaskTagReducer, num_reduce_tasks=4)
    result = runtime.run(job, f)
    groups = result.output_dict()
    # "k" appears in all three splits but is reduced exactly once.
    assert len(groups["k"]) == 1
    assert groups["k"][0][1] == 3


def test_map_only_job():
    dfs, runtime = build()
    f = write_lines(dfs, ["a b"])
    result = runtime.run(Job(name="id", mapper=IdentityMapper), f)
    assert result.num_reduce_tasks == 0
    assert result.output == [(0, "a b")]


def test_mapper_lifecycle_hooks_called_per_task():
    dfs, runtime = build(split_size=16)
    f = write_lines(dfs, ["a", "b", "c"])
    result = runtime.run(
        Job(name="hooks", mapper=HookCountingMapper, reducer=SumReducer), f
    )
    assert result.counters.get(USER_GROUP, "SETUP_CALLS") == f.num_splits
    assert result.counters.get(USER_GROUP, "CLOSE_CALLS") == f.num_splits


def test_reduce_heap_failure_wrapped_as_job_failure():
    dfs, runtime = build(heap_mb=1)  # 1 MiB heap
    f = write_lines(dfs, ["x"] * 200)
    job = Job(
        name="heap",
        mapper=BigValueMapper,
        reducer=SumReducer,
        num_reduce_tasks=1,
        heap_bytes_per_value=ten_times_nbytes,  # 80 KB per value
    )
    with pytest.raises(JobFailedError) as exc_info:
        runtime.run(job, f)
    assert isinstance(exc_info.value.cause, JavaHeapSpaceError)


def test_reduce_heap_freed_between_groups():
    """Each key group is charged separately; many small groups fit."""
    dfs, runtime = build(heap_mb=1)
    f = write_lines(dfs, [f"k{i}" for i in range(100)])
    job = Job(
        name="groups",
        mapper=SpreadMapper,
        reducer=SumReducer,
        num_reduce_tasks=1,
        heap_bytes_per_value=half_heap_per_value,  # half the heap per group
    )
    result = runtime.run(job, f)  # must not raise
    assert result.max_reduce_heap_bytes == 500 * 1024


def test_determinism_same_seed_same_output():
    outputs = []
    for _ in range(2):
        dfs, runtime = build(seed=42)
        f = write_lines(dfs, [f"r{i}" for i in range(20)])
        job = Job(name="rand", mapper=RandomishMapper, reducer=SumReducer)
        outputs.append(sorted(runtime.run(job, f).output))
    assert outputs[0] == outputs[1]


def test_cached_run_counts_cached_read():
    dfs, runtime = build()
    f = write_lines(dfs, ["a"])
    result = runtime.run(wordcount_job(), f, cached=True)
    c = result.counters
    assert c.get(FRAMEWORK_GROUP, MRCounter.CACHED_READS) == 1
    assert c.get(FRAMEWORK_GROUP, MRCounter.DATASET_READS) == 0
    assert c.get(FRAMEWORK_GROUP, MRCounter.HDFS_BYTES_READ) == 0


def test_simulated_time_positive_and_composed():
    dfs, runtime = build()
    f = write_lines(dfs, ["a b c"] * 10)
    result = runtime.run(wordcount_job(), f)
    t = result.timing
    assert result.simulated_seconds == pytest.approx(
        t.startup_seconds + t.map_seconds + t.shuffle_seconds + t.reduce_seconds
    )
    assert result.simulated_seconds > 0


def test_num_reduce_defaults_to_cluster_capacity():
    dfs, runtime = build(nodes=2)
    f = write_lines(dfs, ["a"])
    job = wordcount_job(num_reduce_tasks=0)
    result = runtime.run(job, f)
    assert result.num_reduce_tasks == runtime.cluster.total_reduce_slots


# -- job-level retry with backoff ---------------------------------------


def flaky_runtime(max_job_retries, seed=11, failure_probability=0.3):
    from repro.mapreduce.executors import RuntimeConfig
    from repro.mapreduce.faults import FaultModel

    dfs = InMemoryDFS(split_size_bytes=32)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2),
        rng=seed,
        faults=FaultModel(
            task_failure_probability=failure_probability, max_attempts=1
        ),
        config=RuntimeConfig(
            max_job_retries=max_job_retries, retry_backoff_seconds=30.0
        ),
    )
    f = write_lines(dfs, ["a b", "a c", "b b", "c a"])
    return runtime, f


def test_no_retries_by_default_job_fails():
    runtime, f = flaky_runtime(max_job_retries=0)
    with pytest.raises(JobFailedError):
        runtime.run(wordcount_job(), f)


def test_job_retry_recovers_and_charges_backoff():
    runtime, f = flaky_runtime(max_job_retries=25)
    result = runtime.run(wordcount_job(), f)
    # Retried jobs produce the same answer a fault-free run would.
    assert sorted(result.output) == [("a", 3), ("b", 3), ("c", 2)]
    assert result.job_retries > 0
    assert result.counters.get(FRAMEWORK_GROUP, MRCounter.JOB_RETRIES) == (
        result.job_retries
    )
    # The wait between submissions is charged on top of execution time.
    assert result.overhead_seconds >= 30.0
    assert result.simulated_seconds == pytest.approx(
        result.timing.total_seconds + result.overhead_seconds
    )


def test_job_retry_results_match_fault_free_run():
    clean_runtime, clean_f = flaky_runtime(
        max_job_retries=0, failure_probability=0.0
    )
    clean = clean_runtime.run(wordcount_job(), clean_f)
    runtime, f = flaky_runtime(max_job_retries=25)
    retried = runtime.run(wordcount_job(), f)
    assert sorted(retried.output) == sorted(clean.output)


def test_retries_exhausted_reraises():
    runtime, f = flaky_runtime(max_job_retries=2, failure_probability=1.0)
    with pytest.raises(JobFailedError):
        runtime.run(wordcount_job(), f)


def test_backoff_grows_exponentially():
    from repro.mapreduce.executors import RuntimeConfig

    dfs = InMemoryDFS(split_size_bytes=32)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2),
        rng=0,
        config=RuntimeConfig(
            max_job_retries=4,
            retry_backoff_seconds=10.0,
            retry_backoff_factor=2.0,
            retry_jitter=0.1,
        ),
    )
    delays = [runtime._retry_backoff_seconds(retry) for retry in (1, 2, 3)]
    for retry, delay in enumerate(delays, start=1):
        base = 10.0 * 2.0 ** (retry - 1)
        assert base <= delay <= base * 1.1
    assert delays[0] < delays[1] < delays[2]


def test_backoff_is_capped_and_deep_retry_chains_stay_on_the_clock_grid():
    """Retry 40 at 0.7 s doubling would wait 0.7 * 2**39 s (about 3.8e11
    s), far past the 2**23 s below which on-grid seconds add exactly.
    The capped delays keep every journalled backoff, and their sum, in
    that range."""
    from repro.core.config import MRGMeansConfig
    from repro.core.gmeans_mr import MRGMeans
    from repro.data.generator import generate_gaussian_mixture
    from repro.data.loader import write_points
    from repro.mapreduce.costmodel import CLOCK_LIMIT, quantize
    from repro.mapreduce.executors import RuntimeConfig
    from repro.mapreduce.faults import FaultModel
    from repro.mapreduce.runtime import MAX_RETRY_BACKOFF_SECONDS
    from repro.observability.journal import InMemoryJournalSink, Journal

    mixture = generate_gaussian_mixture(
        n_points=600, n_clusters=3, dimensions=2, rng=7
    )
    dfs = InMemoryDFS(split_size_bytes=4096)
    write_points(dfs, "points", mixture.points, replication=2)
    sink = InMemoryJournalSink()
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=3, task_heap_mb=64),
        rng=99,
        journal=Journal(sink),
        faults=FaultModel(task_failure_probability=0.1, max_attempts=1),
        config=RuntimeConfig(max_job_retries=40, retry_backoff_seconds=0.7),
    )
    with pytest.raises(JobFailedError):
        MRGMeans(runtime, MRGMeansConfig(seed=5)).fit("points")
    delays = [
        record["attrs"]["backoff_seconds"]
        for record in sink.records
        if record.get("name") == "job_retry"
    ]
    assert len(delays) == 40  # the job ran out of retries
    assert max(delays) == MAX_RETRY_BACKOFF_SECONDS
    assert all(quantize(delay) == delay for delay in delays)
    assert sum(delays) < CLOCK_LIMIT
    # Below the cap the doubling is untouched.
    assert delays[0] <= 0.7 * 1.1 and delays[4] >= 0.7 * 2**4
    # Past 2**1024 the growth itself overflows a float: still the cap.
    assert runtime._retry_backoff_seconds(5000) == MAX_RETRY_BACKOFF_SECONDS


def test_clock_range_errors_are_typed():
    from repro.common.errors import ReproError, SimulatedClockError
    from repro.mapreduce.costmodel import CLOCK_LIMIT, check_total, quantize
    from repro.mapreduce.driver import JobChainDriver

    for bad in (CLOCK_LIMIT, 1.9e11, float("inf"), float("nan")):
        with pytest.raises(SimulatedClockError) as excinfo:
            quantize(bad)
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.what == "duration"
        with pytest.raises(SimulatedClockError):
            check_total(bad)
    # The largest float64 below the limit is already on the grid.
    assert quantize(CLOCK_LIMIT - 2.0**-30) == CLOCK_LIMIT - 2.0**-30
    assert check_total(CLOCK_LIMIT - 1.0) == CLOCK_LIMIT - 1.0

    # A chain whose running total would reach the limit fails loudly
    # instead of folding an inexact sum.
    dfs = InMemoryDFS(split_size_bytes=32)
    f = write_lines(dfs, ["a b", "a c"])
    driver = JobChainDriver(MapReduceRuntime(dfs, cluster=ClusterConfig(nodes=2)))
    driver.totals.simulated_seconds = CLOCK_LIMIT - 1.0
    with pytest.raises(SimulatedClockError) as excinfo:
        driver.run(wordcount_job(), f)
    assert excinfo.value.what == "total"


# -- DFS block faults surfacing through jobs ----------------------------


def test_replica_failover_charged_to_job_counters():
    dfs = InMemoryDFS(split_size_bytes=32)
    runtime = MapReduceRuntime(dfs, cluster=ClusterConfig(nodes=2), rng=3)
    f = write_lines(dfs, ["a b", "c d", "e f", "g h"])
    dfs.lose_replica("text", 0)
    dfs.lose_replica("text", 1)
    result = runtime.run(wordcount_job(), f)
    c = result.counters
    assert c.get(FRAMEWORK_GROUP, MRCounter.REPLICA_READS) == 2
    assert c.get(FRAMEWORK_GROUP, MRCounter.BLOCKS_LOST) == 0
    # Wasted failover reads and healing writes land in the byte counters.
    split = f.splits[0].size_bytes
    assert (
        c.get(FRAMEWORK_GROUP, MRCounter.HDFS_BYTES_READ)
        == f.size_bytes + 2 * split
    )
    assert c.get(FRAMEWORK_GROUP, MRCounter.HDFS_BYTES_WRITTEN) >= 2 * split
    assert result.overhead_seconds > 0


def test_unrecoverable_block_loss_fails_job():
    from repro.common.errors import SplitUnavailableError

    dfs = InMemoryDFS(split_size_bytes=32)
    runtime = MapReduceRuntime(dfs, cluster=ClusterConfig(nodes=2), rng=3)
    f = write_lines(dfs, ["a b", "c d"])
    dfs.lose_block("text", 0)
    with pytest.raises(JobFailedError) as err:
        runtime.run(wordcount_job(), f)
    assert isinstance(err.value.cause, SplitUnavailableError)
