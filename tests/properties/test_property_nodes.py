"""Property: node-fault schedules never break the determinism contract.

Whatever the (failure, recovery, seed) schedule does to the cluster,
the job's *results* stay byte-identical and its canonical journal stays
record-identical across every executor backend and both data planes —
node loss perturbs capacity and time, never output.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.executors import RuntimeConfig
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import Job, Mapper, Reducer
from repro.mapreduce.nodes import NodeFaultModel
from repro.mapreduce.runtime import MapReduceRuntime
from repro.observability.journal import (
    InMemoryJournalSink,
    Journal,
    canonical_records,
)

BACKENDS = ("serial", "processes")
PLANES = ("pickled", "shared")


class ModMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value % 7, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def run_with_node_faults(backend, plane, model):
    from repro.mapreduce import dataplane

    dfs = InMemoryDFS(split_size_bytes=128, data_plane=plane)
    f = dfs.write("data", list(range(200)), bytes_per_record=8, replication=2)
    sink = InMemoryJournalSink()
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=3, reduce_slots_per_node=2),
        rng=11,
        node_faults=model,
        config=RuntimeConfig(executor=backend, num_workers=3),
        journal=Journal(sink),
    )
    job = Job(
        name="j", mapper=ModMapper, reducer=SumReducer, num_reduce_tasks=4
    )
    # Two runs over the same runtime so node deaths from the first job
    # reshape the capacity the second is scheduled on.
    first = runtime.run(job, f)
    second = runtime.run(job, f, cached=True)
    dfs.release()
    assert dataplane.orphaned_system_segments() == []
    return (
        sorted(first.output),
        sorted(second.output),
        first.counters.as_dict(),
        first.simulated_seconds + second.simulated_seconds,
        canonical_records(sink.records),
    )


@given(
    st.floats(0.0, 0.3),
    st.floats(0.0, 0.5),
    st.integers(0, 2**31 - 1),
)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_node_fault_schedules_byte_identical_across_backends_and_planes(
    failure_p, recovery_p, seed
):
    model = NodeFaultModel(
        node_failure_probability=failure_p,
        node_recovery_probability=recovery_p,
        seed=seed,
    )
    reference = None
    for backend in BACKENDS:
        for plane in PLANES:
            outcome = run_with_node_faults(backend, plane, model)
            if reference is None:
                reference = outcome
                continue
            assert outcome[0] == reference[0]
            assert outcome[1] == reference[1]
            assert outcome[2] == reference[2]
            assert outcome[3] == reference[3]
            assert outcome[4] == reference[4]
