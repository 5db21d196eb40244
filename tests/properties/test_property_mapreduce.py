"""Property-based tests of MapReduce runtime invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.costmodel import makespan
from repro.mapreduce.counters import FRAMEWORK_GROUP, MRCounter
from repro.mapreduce.executors import RuntimeConfig
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import Job, Mapper, Reducer
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.types import sizeof_value, stable_hash


class TokenMapper(Mapper):
    def map(self, key, value, ctx):
        for token in value:
            ctx.emit(token, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


@given(
    st.lists(
        st.lists(st.integers(0, 20), min_size=0, max_size=8),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 8),
    st.integers(1, 64),
)
@settings(max_examples=40, deadline=None)
def test_wordcount_invariant_under_splits_and_reducers(
    records, num_reducers, split_size
):
    """Token counts are independent of split layout and reducer count
    (the combiner is associative and partitioning is total)."""
    expected: dict[int, int] = {}
    for record in records:
        for token in record:
            expected[token] = expected.get(token, 0) + 1

    dfs = InMemoryDFS(split_size_bytes=split_size)
    f = dfs.write("data", records, bytes_per_record=8)
    runtime = MapReduceRuntime(dfs, cluster=ClusterConfig(nodes=2), rng=0)
    job = Job(
        name="wc",
        mapper=TokenMapper,
        reducer=SumReducer,
        combiner=SumReducer,
        num_reduce_tasks=num_reducers,
    )
    result = runtime.run(job, f)
    assert dict(result.output) == expected


@given(
    st.lists(
        st.lists(st.integers(0, 20), min_size=0, max_size=8),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=25, deadline=None)
def test_combiner_does_not_change_output(records):
    outputs = []
    for combiner in (SumReducer, None):
        dfs = InMemoryDFS(split_size_bytes=16)
        f = dfs.write("data", records, bytes_per_record=8)
        runtime = MapReduceRuntime(dfs, rng=0)
        job = Job(
            name="wc",
            mapper=TokenMapper,
            reducer=SumReducer,
            combiner=combiner,
            num_reduce_tasks=3,
        )
        outputs.append(dict(runtime.run(job, f).output))
    assert outputs[0] == outputs[1]


class SeedUsingMapper(Mapper):
    """Mixes the per-task RNG into the output: catches any scheduling
    leak (seed assignment, merge order) a pure mapper would hide."""

    def map(self, key, value, ctx):
        for token in value:
            ctx.emit((token + int(ctx.rng.integers(3))) % 23, 1)


@given(
    st.lists(
        st.lists(st.integers(0, 20), min_size=0, max_size=6),
        min_size=1,
        max_size=25,
    ),
    st.integers(1, 6),
    st.just("processes"),
    st.integers(1, 4),
)
@settings(max_examples=20, deadline=None)
def test_results_invariant_to_backend_and_num_workers(
    records, num_reducers, backend, num_workers
):
    """Partitioning, shuffle and per-task RNG draws are a function of
    the data and the seed alone — never of the executor backend or its
    worker count."""

    def run(config: RuntimeConfig):
        dfs = InMemoryDFS(split_size_bytes=16)
        f = dfs.write("data", records, bytes_per_record=8)
        runtime = MapReduceRuntime(
            dfs, cluster=ClusterConfig(nodes=2), rng=5, config=config
        )
        job = Job(
            name="inv",
            mapper=SeedUsingMapper,
            reducer=SumReducer,
            combiner=SumReducer,
            num_reduce_tasks=num_reducers,
        )
        result = runtime.run(job, f)
        return (
            sorted(result.output),
            result.counters.snapshot(),
            result.map_task_seconds,
            result.reduce_task_seconds,
        )

    reference = run(RuntimeConfig())
    assert run(RuntimeConfig(executor=backend, num_workers=num_workers)) == reference


@given(st.lists(st.floats(0.0, 1e3), min_size=0, max_size=60), st.integers(1, 16))
def test_makespan_bounds(tasks, slots):
    """max(task) <= makespan <= sum(tasks); and more slots never hurt."""
    total = sum(tasks)
    span = makespan(tasks, slots)
    if tasks:
        assert max(tasks) - 1e-9 <= span <= total + 1e-9
    assert makespan(tasks, slots + 1) <= span + 1e-9


@given(
    st.one_of(
        st.integers(-(2**62), 2**62),
        st.text(max_size=20),
        st.tuples(st.integers(0, 100), st.integers(0, 100)),
    ),
    st.integers(1, 32),
)
def test_stable_hash_partitions_in_range(key, n):
    p = stable_hash(key) % n
    assert 0 <= p < n


@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.integers(-1000, 1000),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=10),
        ),
        lambda children: st.lists(children, max_size=4).map(tuple),
        max_leaves=10,
    )
)
def test_sizeof_value_nonnegative(value):
    assert sizeof_value(value) >= 0
