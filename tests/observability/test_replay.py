"""Replay: folding a record stream back into a span tree."""

import math
import random

import pytest

from repro.mapreduce.costmodel import quantize
from repro.mapreduce.counters import Counters
from repro.observability.journal import InMemoryJournalSink, Journal
from repro.observability.render import (
    render_iteration_table,
    render_job_gantts,
    render_timeline,
    render_trace,
)
from repro.observability.replay import replay_records


def recorded_run():
    """A small hand-driven run: 1 run, 2 iterations, retries + events."""
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans", dataset="d") as run:
        with journal.span("iteration", "iteration-1", iteration=1, k_before=1) as it:
            with journal.span("job", "KMeans-1", attempt=1) as job:
                with journal.span("phase", "map", tasks=2, slots=2):
                    journal.task("KMeans-1-m-00000", 0, 1.0, 0.0)
                    journal.task("KMeans-1-m-00001", 1, 2.0, 0.0)
                job.set(status="failed", error="TaskPermanentlyFailedError")
            journal.event("job_retry", job="KMeans-1", retry=1, backoff_seconds=5.0)
            with journal.span("job", "KMeans-1", attempt=2) as job:
                with journal.span("phase", "map", tasks=2, slots=2):
                    journal.task("KMeans-1-m-00000", 0, 1.0, 0.0)
                    journal.task("KMeans-1-m-00001", 1, 2.0, 0.0)
                job.set(
                    status="ok",
                    retries=1,
                    simulated_seconds=8.0,
                    counters={"framework": {"MAP_TASKS": 2, "JOB_RETRIES": 1}},
                )
            it.set(k_after=2, simulated_seconds=8.0,
                   counters={"framework": {"MAP_TASKS": 2, "JOB_RETRIES": 1}})
        with journal.span("iteration", "iteration-2", iteration=2, k_before=2) as it:
            with journal.span("job", "KMeans-2", attempt=1) as job:
                job.set(status="ok", simulated_seconds=3.0,
                        counters={"framework": {"MAP_TASKS": 2}})
            it.set(k_after=2, simulated_seconds=3.0,
                   counters={"framework": {"MAP_TASKS": 2}})
        run.set(status="ok", k_found=2, simulated_seconds=11.0)
    return sink.records


def test_replay_reconstructs_hierarchy():
    replay = replay_records(recorded_run())
    assert len(replay.runs()) == 1
    assert len(replay.iterations()) == 2
    assert len(replay.jobs()) == 3  # both attempts plus iteration 2's job
    run = replay.runs()[0]
    assert [child.kind for child in run.children] == ["iteration", "iteration"]
    assert run.get("k_found") == 2


def test_replay_surfaces_failed_attempts():
    replay = replay_records(recorded_run())
    attempts = replay.jobs()
    assert attempts[0].get("status") == "failed"
    assert attempts[0].get("error") == "TaskPermanentlyFailedError"
    assert len(replay.successful_jobs()) == 2
    retry_events = replay.events_named("job_retry")
    assert len(retry_events) == 1
    assert retry_events[0].attrs["backoff_seconds"] == 5.0


def test_replay_tasks_attach_to_phases():
    replay = replay_records(recorded_run())
    phases = replay.phases()
    assert len(phases) == 2
    assert [task.index for task in phases[0].tasks] == [0, 1]
    assert phases[0].tasks[1].sim_seconds == 2.0


def test_total_accounting_skips_failed_attempts():
    replay = replay_records(recorded_run())
    totals = replay.total_counters()
    assert totals.get("framework", "MAP_TASKS") == 4  # 2 + 2, not 6
    assert totals.get("framework", "JOB_RETRIES") == 1
    assert replay.total_simulated_seconds() == 11.0


def test_restored_baseline_counts_into_totals():
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    journal.event(
        "checkpoint_restore",
        name="ck/iter-00002",
        iteration=2,
        jobs=6,
        simulated_seconds=20.0,
        counters={"framework": {"MAP_TASKS": 12}},
    )
    with journal.span("job", "J", attempt=1) as job:
        job.set(status="ok", simulated_seconds=5.0,
                counters={"framework": {"MAP_TASKS": 2}})
    replay = replay_records(sink.records)
    assert replay.total_simulated_seconds() == 25.0
    assert replay.total_counters().get("framework", "MAP_TASKS") == 14


def _runtime_journal(kind):
    """Records of one seeded G-means run under a fault scenario, plus
    the run's own simulated total."""
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

    scenarios = {
        "chaos": dict(
            faults=FaultModel(task_failure_probability=0.12, max_attempts=2),
            config=RuntimeConfig(max_job_retries=20, retry_backoff_seconds=5.0),
        ),
        "node-chaos": dict(
            node_faults=NodeFaultModel(
                node_failure_probability=0.1,
                node_recovery_probability=0.3,
                heartbeat_timeout_seconds=0.3,
                seed=1,
            ),
            locality=True,
        ),
        "speculative": dict(
            faults=FaultModel(
                task_failure_probability=0.05,
                straggler_probability=0.3,
                speculative_execution=True,
            ),
        ),
        "job-retry": dict(
            faults=FaultModel(task_failure_probability=0.01, max_attempts=1),
            config=RuntimeConfig(max_job_retries=10, retry_backoff_seconds=0.7),
        ),
    }
    mixture = generate_gaussian_mixture(
        n_points=600, n_clusters=3, dimensions=2, rng=7
    )
    dfs = InMemoryDFS(
        split_size_bytes=4096,
        fault_model=BlockFaultModel(replica_loss_probability=0.05, seed=3)
        if kind == "chaos"
        else None,
    )
    write_points(dfs, "points", mixture.points, replication=2)
    sink = InMemoryJournalSink()
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=3, task_heap_mb=64),
        rng=99,
        journal=Journal(sink),
        **scenarios[kind],
    )
    result = MRGMeans(runtime, MRGMeansConfig(seed=5)).fit("points")
    return sink.records, result.simulated_seconds


def _clock_values(records):
    """Every simulated-seconds value a journal carries, by where it was
    found: task durations, and any ``*_seconds`` attribute (phase
    ``timing.*`` included) or wasted-compute counter of a span or
    event."""
    def walk(where, attrs):
        for key, value in attrs.items():
            if isinstance(value, dict):
                yield from walk(f"{where}.{key}", value)
            elif key.endswith("_seconds") or key == "WASTED_COMPUTE_SECONDS":
                yield f"{where}.{key}", value

    for record in records:
        if record["type"] == "task":
            yield "task.sim_seconds", record["sim_seconds"]
        else:
            where = record.get("name") or record.get("kind") or record["type"]
            yield from walk(where, record.get("attrs") or {})


@pytest.mark.parametrize("kind", ["chaos", "node-chaos", "speculative", "job-retry"])
def test_journalled_seconds_lie_on_the_clock_grid(kind):
    """Every duration the runtime journals is a whole number of clock
    ticks, so the run total is an exact sum: the same under sum(),
    math.fsum and any order, and equal to the running clock."""
    records, run_seconds = _runtime_journal(kind)
    values = list(_clock_values(records))
    keys = {where.rsplit(".", 1)[-1] for where, _ in values}
    assert {"sim_seconds", "simulated_seconds", "overhead_seconds"} <= keys
    assert {"map_seconds", "shuffle_seconds", "startup_seconds"} <= keys
    expected = {
        "chaos": {"backoff_seconds", "WASTED_COMPUTE_SECONDS"},
        "node-chaos": {"heartbeat_timeout_seconds", "WASTED_COMPUTE_SECONDS"},
        "speculative": {"WASTED_COMPUTE_SECONDS"},
        "job-retry": {"backoff_seconds"},
    }[kind]
    assert expected <= keys
    off_grid = [(where, v) for where, v in values if quantize(v) != v]
    assert off_grid == []

    replay = replay_records(records)
    jobs = [float(job.get("simulated_seconds")) for job in replay.successful_jobs()]
    assert len(jobs) > 5
    total = replay.total_simulated_seconds()
    assert total == run_seconds == replay.simulated_seconds
    assert sum(jobs) == math.fsum(jobs) == total
    rng = random.Random(kind)
    for _ in range(50):
        rng.shuffle(jobs)
        assert sum(jobs) == total


def test_truncated_journal_yields_incomplete_spans():
    records = recorded_run()
    # Kill the run mid-flight: drop everything after the first task.
    truncated = records[:6]
    replay = replay_records(truncated)
    run = replay.runs()[0]
    assert not run.complete
    assert "[interrupted]" in render_timeline(replay)
    # accounting over a truncated journal still works (no successful jobs)
    assert replay.total_simulated_seconds() == 0.0
    assert replay.total_counters().as_dict() == {}


def test_span_counters_parse_into_counters_object():
    replay = replay_records(recorded_run())
    counters = replay.successful_jobs()[0].counters()
    assert isinstance(counters, Counters)
    assert counters.get("framework", "MAP_TASKS") == 2


def test_render_timeline_shows_attempts_and_events():
    text = render_timeline(replay_records(recorded_run()))
    assert "run 'gmeans'" in text
    assert "attempt 1: failed" in text
    assert "attempt 2: ok" in text
    assert "! job_retry" in text
    assert "[survived 1 retries]" in text


def test_render_iteration_table_rows():
    text = render_iteration_table(replay_records(recorded_run()))
    lines = text.splitlines()
    assert len(lines) == 3  # header + two iterations
    assert "1->2" in lines[1]
    assert "retries" in lines[0]


def test_render_job_gantts_rebuilds_schedules():
    text = render_job_gantts(replay_records(recorded_run()), width=20)
    assert "map phase (2 tasks over 2 slots)" in text
    assert "slot" in text


def test_render_trace_assembles_sections():
    text = render_trace(replay_records(recorded_run()), gantt=True)
    assert "== run timeline" in text
    assert "== per-iteration counters" in text
    assert "== job gantts" in text


def test_empty_journal_renders_gracefully():
    replay = replay_records([])
    assert "(empty journal)" in render_timeline(replay)
    assert "(no iterations recorded)" in render_iteration_table(replay)
    assert "(no jobs recorded)" in render_job_gantts(replay)


def test_node_events_filters_lifecycle_in_journal_order():
    """node_events() is exactly the lifecycle subset (lost / recovered /
    blacklisted), in global seq order — even when the events hang off
    different spans at different depths."""
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans") as run:
        journal.event("node_lost", node="node-0", deaths=1)
        with journal.span("iteration", "iteration-1", iteration=1) as it:
            journal.event("job_retry", job="KMeans-1", retry=1)
            with journal.span("job", "KMeans-1", attempt=1) as job:
                journal.event("node_recovered", node="node-0", recoveries=1)
                journal.event("node_lost", node="node-1", deaths=1)
                job.set(status="ok", simulated_seconds=1.0, counters={})
            journal.event("node_blacklisted", node="node-1", deaths=3)
            it.set(simulated_seconds=1.0)
        run.set(status="ok")
    replay = replay_records(sink.records)

    lifecycle = replay.node_events()
    assert [e.name for e in lifecycle] == [
        "node_lost",
        "node_recovered",
        "node_lost",
        "node_blacklisted",
    ]
    # Journal order is seq order, strictly increasing.
    seqs = [e.seq for e in lifecycle]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    # Which nodes, in order of occurrence.
    assert [e.attrs["node"] for e in lifecycle] == [
        "node-0",
        "node-0",
        "node-1",
        "node-1",
    ]
    # Non-lifecycle events are excluded but still in replay.events.
    assert "job_retry" in [e.name for e in replay.events]
