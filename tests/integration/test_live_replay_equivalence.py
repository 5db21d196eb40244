"""Live telemetry and offline replay are one fold of the journal stream.

For seeded chaos, node-chaos and SLO-abort-then-resume runs with the
anomaly detectors armed, everything :class:`LiveRunState` reports while
the run streams past must equal what :func:`replay_records` derives
from the journal the run wrote, and re-running the detectors offline
must reproduce exactly the firings the live watchdog emitted.
"""

import io
from collections import Counter

import pytest

from repro.common.errors import SLOViolationError
from repro.core.config import MRGMeansConfig
from repro.core.gmeans_mr import MRGMeans
from repro.data.generator import generate_gaussian_mixture
from repro.data.loader import write_points
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.executors import RuntimeConfig
from repro.mapreduce.faults import FaultModel
from repro.mapreduce.hdfs import BlockFaultModel, InMemoryDFS
from repro.mapreduce.nodes import NodeFaultModel
from repro.mapreduce.runtime import MapReduceRuntime
from repro.observability.anomaly import (
    AnomalyWatchdog,
    detect_anomalies,
    parse_anomaly_spec,
)
from repro.observability.journal import InMemoryJournalSink, Journal
from repro.observability.live import LiveRunState, TelemetrySink
from repro.observability.replay import left_fold_seconds, replay_records
from repro.observability.slo import SLOWatchdog, parse_slo_rules

MIXTURE = generate_gaussian_mixture(
    n_points=600, n_clusters=3, dimensions=2, rng=7
)
CONFIG = dict(seed=5, checkpoint_dir="ck/gmeans", max_iterations=10)
SPEC = (
    "straggler_ratio=1.2,straggler_min_tasks=3,heap_fraction=0.0001,"
    "storm_window_seconds=30,storm_events=2"
)


@pytest.fixture(autouse=True)
def _clean_data_plane():
    from repro.mapreduce import dataplane

    dataplane.release_all()
    yield
    dataplane.release_all()


def armed(slo=None):
    """A journal teed into live state with the detectors armed."""
    sink = InMemoryJournalSink()
    state = LiveRunState()
    watchdog = (
        SLOWatchdog(parse_slo_rules(slo), stream=io.StringIO()) if slo else None
    )
    tee = TelemetrySink(sink, state=state, watchdog=watchdog)
    journal = Journal(tee)
    tee.anomaly = AnomalyWatchdog(journal, parse_anomaly_spec(SPEC))
    return journal, sink, state, tee.anomaly


def chaos_runtime(journal, dfs=None):
    if dfs is None:
        dfs = InMemoryDFS(
            split_size_bytes=4096,
            fault_model=BlockFaultModel(replica_loss_probability=0.02, seed=3),
        )
        write_points(dfs, "points", MIXTURE.points)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2, task_heap_mb=64),
        rng=99,
        config=RuntimeConfig(max_job_retries=20, retry_backoff_seconds=5.0),
        journal=journal,
        faults=FaultModel(task_failure_probability=0.12, max_attempts=2),
    )
    return dfs, runtime


def node_chaos_runtime(journal):
    dfs = InMemoryDFS(split_size_bytes=4096)
    write_points(dfs, "points", MIXTURE.points, replication=2)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=3, reduce_slots_per_node=1, task_heap_mb=64),
        rng=99,
        node_faults=NodeFaultModel(node_failure_probability=0.02, seed=0),
        journal=journal,
    )
    return dfs, runtime


def assert_live_matches_replay(state, watchdog, records):
    replay = replay_records(records)
    restores = replay.restored_baselines()
    jobs = replay.successful_jobs()
    assert state.counters.as_dict() == replay.total_counters().as_dict()
    # The live clock folds in record order; these journals restore
    # their baseline before any job runs.
    assert state.simulated_seconds == left_fold_seconds(
        [float(event.attrs.get("simulated_seconds") or 0.0) for event in restores]
        + [float(job.get("simulated_seconds") or 0.0) for job in jobs]
    )
    assert state.simulated_seconds == pytest.approx(
        replay.total_simulated_seconds(), rel=1e-12
    )
    assert state.jobs_ok == len(jobs) + sum(
        int(event.attrs.get("jobs") or 0) for event in restores
    )
    assert state.k_trajectory == [
        int(iteration.end["k_after"])
        for iteration in replay.iterations()
        if iteration.complete and iteration.end.get("k_after") is not None
    ]
    assert state.anomaly_counts == dict(
        Counter(event.attrs["anomaly"] for event in replay.anomaly_events())
    )
    assert detect_anomalies(records) == watchdog.fired


def test_chaos_run_live_state_equals_replay():
    journal, sink, state, watchdog = armed()
    _dfs, runtime = chaos_runtime(journal)
    result = MRGMeans(runtime, MRGMeansConfig(**CONFIG)).fit("points")
    assert watchdog.fired
    assert state.simulated_seconds == result.totals.simulated_seconds
    assert_live_matches_replay(state, watchdog, sink.records)


def test_node_chaos_run_live_state_equals_replay():
    journal, sink, state, watchdog = armed()
    _dfs, runtime = node_chaos_runtime(journal)
    result = MRGMeans(runtime, MRGMeansConfig(**CONFIG)).fit("points")
    assert any(record.get("name") == "node_lost" for record in sink.records)
    assert state.simulated_seconds == result.totals.simulated_seconds
    assert_live_matches_replay(state, watchdog, sink.records)


def test_slo_abort_then_resume_live_state_equals_replay():
    journal, sink, state, watchdog = armed(slo="max_k=2")
    dfs, runtime = chaos_runtime(journal)
    with pytest.raises(SLOViolationError):
        MRGMeans(runtime, MRGMeansConfig(**CONFIG)).fit("points")
    assert_live_matches_replay(state, watchdog, sink.records)

    journal, sink, state, watchdog = armed()
    _dfs, revived = chaos_runtime(journal, dfs=dfs)
    result = MRGMeans(revived, MRGMeansConfig(**CONFIG)).fit(
        "points", resume_from="latest"
    )
    assert replay_records(sink.records).restored_baselines()
    assert state.simulated_seconds == result.totals.simulated_seconds
    assert_live_matches_replay(state, watchdog, sink.records)
