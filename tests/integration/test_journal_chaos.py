"""The journal acceptance test: record a chaos run, replay it, and
cross-check the reconstruction against the live run's own accounting.

A journal is only trustworthy if a replay of its records reproduces
exactly what the run reported about itself: the final counter totals,
the simulated runtime, every retried attempt, every fault event, and —
for a killed-and-resumed chain — the checkpoint baseline the revived
driver started from.
"""

import pytest

from repro.common.errors import JobFailedError
from repro.core.config import MRGMeansConfig
from repro.core.gmeans_mr import MRGMeans
from repro.data.generator import generate_gaussian_mixture
from repro.data.loader import write_points
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.counters import FRAMEWORK_GROUP, MRCounter
from repro.mapreduce.executors import RuntimeConfig
from repro.mapreduce.faults import TASK_FAILURES, FaultModel
from repro.mapreduce.hdfs import BlockFaultModel, InMemoryDFS
from repro.mapreduce.runtime import MapReduceRuntime
from repro.observability.journal import InMemoryJournalSink, Journal
from repro.observability.replay import replay_records

MIXTURE = generate_gaussian_mixture(
    n_points=600, n_clusters=3, dimensions=2, rng=7
)

RUNTIME_SEED = 99
CONFIG = dict(seed=5, checkpoint_dir="ck/gmeans", max_iterations=10)


@pytest.fixture(autouse=True)
def _clean_data_plane():
    """Isolate each test's shared-segment accounting (earlier tests may
    run under ``$REPRO_DATA_PLANE=shared`` without releasing)."""
    from repro.mapreduce import dataplane

    dataplane.release_all()
    yield
    dataplane.release_all()


def chaos_world(journal, dfs=None, data_plane=None, executor="serial"):
    """A flaky world: task faults, lossy blocks, retries — journalled."""
    if dfs is None:
        dfs = InMemoryDFS(
            split_size_bytes=4096,
            fault_model=BlockFaultModel(replica_loss_probability=0.02, seed=3),
            data_plane=data_plane,
        )
        write_points(dfs, "points", MIXTURE.points)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2, task_heap_mb=64),
        rng=RUNTIME_SEED,
        faults=FaultModel(task_failure_probability=0.12, max_attempts=2),
        config=RuntimeConfig(
            max_job_retries=20,
            retry_backoff_seconds=5.0,
            executor=executor,
            num_workers=2,
        ),
        journal=journal,
    )
    return dfs, runtime


def test_chaos_journal_replay_matches_live_accounting():
    """Replay totals == the run's own Counters and simulated seconds."""
    sink = InMemoryJournalSink()
    _dfs, runtime = chaos_world(Journal(sink))
    result = MRGMeans(runtime, MRGMeansConfig(**CONFIG)).fit("points")
    replay = replay_records(sink.records)

    # The headline cross-check: folding the journal's successful job
    # spans back together reproduces the live run's totals exactly.
    totals = result.totals
    assert replay.total_counters().snapshot() == totals.counters.snapshot()
    assert replay.total_simulated_seconds() == totals.simulated_seconds

    # The chaos actually happened and was recorded as it happened:
    # retried attempts appear as failed job spans next to retry events,
    counters = totals.counters
    retries = counters.get(FRAMEWORK_GROUP, MRCounter.JOB_RETRIES)
    assert retries > 0
    failed = [j for j in replay.jobs() if j.get("status") == "failed"]
    assert len(failed) == retries
    assert len(replay.events_named("job_retry")) == retries
    assert len(replay.successful_jobs()) == totals.jobs

    # task-level faults surface as events under their phase spans,
    assert counters.get(FRAMEWORK_GROUP, TASK_FAILURES) > 0
    assert replay.events_named("task_attempt_failures")

    # block loss shows up as replica failovers + healing re-replication,
    assert replay.events_named("replica_failover")
    assert replay.events_named("re_replication")

    # and every iteration's checkpoint write is on the record.
    writes = replay.events_named("checkpoint_write")
    assert len(writes) == result.iterations
    assert all(w.attrs["bytes"] > 0 for w in writes)


def test_chaos_journal_canonical_form_identical_across_planes():
    """The same chaotic run journals identically on either data plane.

    Fault injection draws from seeded RNGs in the submitting process,
    so even the retries, replica failovers and re-replications land in
    the same order whether splits travel by pickle or shared memory —
    the canonical journals must match record for record."""
    from repro.mapreduce import dataplane
    from repro.observability.journal import canonical_records

    journals = {}
    for plane in ("pickled", "shared"):
        sink = InMemoryJournalSink()
        dfs, runtime = chaos_world(Journal(sink), data_plane=plane)
        MRGMeans(runtime, MRGMeansConfig(**CONFIG)).fit("points")
        dfs.release()
        journals[plane] = canonical_records(sink.records)
    assert dataplane.active_segments() == []
    assert journals["pickled"]
    assert journals["shared"] == journals["pickled"]


def test_resumed_run_journal_carries_checkpoint_baseline():
    """Kill mid-chain, resume under a fresh journal: the new journal's
    checkpoint_restore baseline + its own jobs == the final totals."""

    class KillingRuntime(MapReduceRuntime):
        def run(self, job, input_file, cached=False):
            if job.name.startswith("KMeans-i3"):
                raise JobFailedError(f"injected failure at {job.name}")
            return super().run(job, input_file, cached=cached)

    dfs = InMemoryDFS(split_size_bytes=4096)
    write_points(dfs, "points", MIXTURE.points)
    killer = KillingRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2, task_heap_mb=64),
        rng=RUNTIME_SEED,
        journal=Journal(InMemoryJournalSink()),
    )
    with pytest.raises(JobFailedError, match="injected failure"):
        MRGMeans(killer, MRGMeansConfig(**CONFIG)).fit("points")

    # Driver restart: new runtime, new journal, same DFS checkpoints.
    sink = InMemoryJournalSink()
    revived = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2, task_heap_mb=64),
        rng=RUNTIME_SEED,
        journal=Journal(sink),
    )
    resumed = MRGMeans(revived, MRGMeansConfig(**CONFIG)).fit(
        "points", resume_from="latest"
    )
    replay = replay_records(sink.records)

    restores = replay.restored_baselines()
    assert len(restores) == 1
    assert restores[0].attrs["name"] == "ck/gmeans/iter-00002"
    baseline_seconds = restores[0].attrs["simulated_seconds"]
    assert 0.0 < baseline_seconds < resumed.totals.simulated_seconds

    # Totals still reconcile exactly: restored baseline + resumed jobs.
    totals = resumed.totals
    assert replay.total_counters().snapshot() == totals.counters.snapshot()
    assert replay.total_simulated_seconds() == totals.simulated_seconds
    assert (
        len(replay.successful_jobs()) + restores[0].attrs["jobs"]
        == totals.jobs
    )


def test_chaos_critical_path_reconciles_across_backend_plane_matrix():
    """Exact reconciliation survives chaos in every matrix cell, and the
    canonical critical path is byte-identical across cells.

    Retries, replica failovers and heartbeat charges all ride the
    journal's simulated accounting; the critical-path extractor
    replicates the replay's exact float fold, so in every (executor
    backend × data plane) cell the path length equals both the replay's
    and the live run's simulated seconds bit for bit — and, because it
    reads canonical fields only, serializes to the same bytes."""
    import json

    from repro.mapreduce import dataplane
    from repro.observability.critical import critical_path

    paths = {}
    for backend in ("serial", "processes"):
        for plane in ("pickled", "shared"):
            sink = InMemoryJournalSink()
            dfs, runtime = chaos_world(
                Journal(sink), data_plane=plane, executor=backend
            )
            result = MRGMeans(runtime, MRGMeansConfig(**CONFIG)).fit("points")
            dfs.release()
            replay = replay_records(sink.records)
            path = critical_path(replay)
            assert path.reconciled, (backend, plane)
            assert path.total_seconds == result.totals.simulated_seconds
            assert path.off_path, "chaos produced no failed attempts"
            assert path.blame["retries"] > 0
            paths[backend, plane] = json.dumps(path.as_dict(), sort_keys=True)
    assert dataplane.active_segments() == []
    reference = paths["serial", "pickled"]
    for cell, payload in paths.items():
        assert payload == reference, cell
