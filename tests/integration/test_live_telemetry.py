"""Live telemetry acceptance: telemetry and profiling never perturb
results, an SLO abort is checkpointed and resumable, and the file
journal stays canonical under the processes executor with telemetry
armed.
"""

import io

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
from repro.mapreduce.runtime import MapReduceRuntime
from repro.observability.journal import (
    FileJournalSink,
    InMemoryJournalSink,
    Journal,
    canonical_records,
    load_journal,
)
from repro.observability.live import LiveRunState, TelemetrySink
from repro.observability.slo import SLOWatchdog, parse_slo_rules

MIXTURE = generate_gaussian_mixture(
    n_points=600, n_clusters=3, dimensions=2, rng=7
)

RUNTIME_SEED = 99
CONFIG = dict(seed=5, checkpoint_dir="ck/gmeans", max_iterations=10)
CHAOS = dict(
    faults=FaultModel(task_failure_probability=0.12, max_attempts=2),
)


def chaos_world(journal, dfs=None, profile_tasks=False, config=None):
    """The flaky world from the journal chaos suite, telemetry-ready."""
    if dfs is None:
        dfs = InMemoryDFS(
            split_size_bytes=4096,
            fault_model=BlockFaultModel(replica_loss_probability=0.02, seed=3),
        )
        write_points(dfs, "points", MIXTURE.points)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2, task_heap_mb=64),
        rng=RUNTIME_SEED,
        config=config
        or RuntimeConfig(max_job_retries=20, retry_backoff_seconds=5.0),
        journal=journal,
        profile_tasks=profile_tasks,
        **CHAOS,
    )
    return dfs, runtime


def signature(result):
    return {
        "k_found": result.k_found,
        "iterations": result.iterations,
        "completed": result.completed,
        "centers": result.centers.tobytes(),
        "shape": result.centers.shape,
        "seconds": result.totals.simulated_seconds,
        "counters": result.totals.counters.snapshot(),
        "history": [
            (s.iteration, s.k_before, s.k_after, s.clusters_split,
             s.strategy, s.centers.tobytes())
            for s in result.history
        ],
    }


def test_chaos_run_with_telemetry_and_profiling_is_byte_identical():
    """The determinism acceptance test: telemetry observes, never perturbs."""
    plain_sink = InMemoryJournalSink()
    _dfs, plain_runtime = chaos_world(Journal(plain_sink))
    baseline = MRGMeans(plain_runtime, MRGMeansConfig(**CONFIG)).fit("points")

    teed = InMemoryJournalSink()
    state = LiveRunState()
    watchdog = SLOWatchdog(
        parse_slo_rules("warn:max_k=1000"), stream=io.StringIO()
    )
    sink = TelemetrySink(teed, state=state, watchdog=watchdog)
    _dfs2, live_runtime = chaos_world(Journal(sink), profile_tasks=True)
    live = MRGMeans(live_runtime, MRGMeansConfig(**CONFIG)).fit("points")

    # Same bytes out, same canonical journal — profiling measurements
    # travel in wall-prefixed keys and vanish under canonicalisation.
    assert signature(live) == signature(baseline)
    assert canonical_records(teed.records) == canonical_records(
        plain_sink.records
    )
    profiled = [
        record
        for record in teed.records
        if record.get("type") == "task" and "wall_cpu_seconds" in record
    ]
    tasks = [r for r in teed.records if r.get("type") == "task"]
    assert profiled and len(profiled) == len(tasks)  # CPU on every task
    sampled = [r for r in profiled if "wall_peak_memory_bytes" in r]
    # Memory peaks are sampled: first task per phase, geometrically
    # sampled jobs (1, 2, 4, 8, ...) only.
    assert sampled and len(sampled) < len(profiled)

    # The live aggregate reconciles exactly with the run's own accounting.
    assert state.model.roots and all(root.complete for root in state.model.roots)
    assert state.k_current == baseline.k_found
    assert len(state.k_trajectory) == baseline.iterations
    assert state.counters.snapshot() == baseline.totals.counters.snapshot()
    assert state.simulated_seconds == pytest.approx(
        baseline.totals.simulated_seconds
    )
    assert state.job_retries > 0  # the chaos showed up in the aggregate


def test_slo_abort_checkpoints_then_resumes_byte_identical():
    """A ``max_k`` breach aborts with the typed error at a clean point;
    relaxing the rule and resuming finishes the exact baseline run."""
    plain_sink = InMemoryJournalSink()
    _dfs, plain_runtime = chaos_world(Journal(plain_sink))
    baseline = MRGMeans(plain_runtime, MRGMeansConfig(**CONFIG)).fit("points")
    limit = baseline.k_found - 1
    assert limit >= 1

    watchdog = SLOWatchdog(
        parse_slo_rules(f"max_k={limit}"), stream=io.StringIO()
    )
    sink = TelemetrySink(InMemoryJournalSink(), watchdog=watchdog)
    dfs, guarded_runtime = chaos_world(Journal(sink))
    with pytest.raises(SLOViolationError) as excinfo:
        MRGMeans(guarded_runtime, MRGMeansConfig(**CONFIG)).fit("points")
    assert excinfo.value.rule == "max_k"
    assert excinfo.value.observed > limit
    # The abort landed after the iteration's checkpoint was written.
    checkpoints = [
        name for name in dfs.listdir() if name.startswith("ck/gmeans/iter-")
    ]
    assert checkpoints

    # Driver restart without the rule: resume completes the run and the
    # result is byte-identical to the never-aborted baseline.
    _dfs3, revived = chaos_world(Journal(InMemoryJournalSink()), dfs=dfs)
    resumed = MRGMeans(revived, MRGMeansConfig(**CONFIG)).fit(
        "points", resume_from="latest"
    )
    assert signature(resumed) == signature(baseline)


def test_file_journal_under_processes_executor_with_telemetry(tmp_path):
    """Concurrent workers + live telemetry still append one totally
    ordered, canonical journal (emission stays in the submitting
    process) — and the results match the serial chaos baseline."""
    plain_sink = InMemoryJournalSink()
    _dfs, serial_runtime = chaos_world(Journal(plain_sink))
    serial = MRGMeans(serial_runtime, MRGMeansConfig(**CONFIG)).fit("points")

    path = tmp_path / "procs.jsonl"
    state = LiveRunState()
    journal = Journal(TelemetrySink(FileJournalSink(str(path)), state=state))
    _dfs2, procs_runtime = chaos_world(
        journal,
        profile_tasks=True,
        config=RuntimeConfig(
            executor="processes",
            num_workers=3,
            max_job_retries=20,
            retry_backoff_seconds=5.0,
        ),
    )
    procs = MRGMeans(procs_runtime, MRGMeansConfig(**CONFIG)).fit("points")
    journal.close()

    assert signature(procs) == signature(serial)
    records = load_journal(str(path))
    assert [record["seq"] for record in records] == list(range(len(records)))
    assert canonical_records(records) == canonical_records(plain_sink.records)
    assert state.model.roots and all(root.complete for root in state.model.roots)
    assert state.counters.snapshot() == serial.totals.counters.snapshot()
