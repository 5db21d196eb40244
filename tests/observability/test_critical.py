"""Critical-path extraction: reconciliation, blame, slack, off-path."""

from repro.observability.critical import (
    BLAME_CATEGORIES,
    critical_path,
    render_critical,
)
from repro.observability.journal import InMemoryJournalSink, Journal
from repro.observability.replay import replay_records


def chaotic_run():
    """One resumed run: restored baseline, a failed attempt + retry,
    and a winning attempt that lost a node mid-flight.

    Hand-picked numbers make every blame category non-zero and easy to
    assert: restore 10s; winning job sim 15s = startup 5 + map 3 +
    shuffle 1 + reduce 2 + overhead 4 (retries 2.5 + heartbeat 1.0 +
    recovery residue 0.5).
    """
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans", dataset="d") as run:
        journal.event(
            "checkpoint_restore",
            name="iter-0001",
            iteration=1,
            jobs=2,
            simulated_seconds=10.0,
            counters={},
        )
        with journal.span("iteration", "iteration-2", iteration=2, k_before=2) as it:
            with journal.span("job", "KMeans-2", attempt=1) as job:
                job.set(status="failed", error="TaskPermanentlyFailedError")
            journal.event("job_retry", job="KMeans-2", retry=1, backoff_seconds=2.5)
            with journal.span("job", "KMeans-2", attempt=2) as job:
                with journal.span("phase", "map", tasks=2, slots=2):
                    journal.task("KMeans-2-m-00000", 0, 3.0, 0.0)
                    journal.task("KMeans-2-m-00001", 1, 1.0, 0.0)
                with journal.span("phase", "reduce", tasks=1, slots=2):
                    journal.task("KMeans-2-r-00000", 0, 2.0, 0.0)
                journal.event(
                    "node_lost",
                    node="node-1",
                    deaths=1,
                    heartbeat_timeout_seconds=1.0,
                    blocks_lost=0,
                )
                job.set(
                    status="ok",
                    simulated_seconds=15.0,
                    overhead_seconds=4.0,
                    retries=1,
                    timing={
                        "startup_seconds": 5.0,
                        "map_seconds": 3.0,
                        "shuffle_seconds": 1.0,
                        "reduce_seconds": 2.0,
                    },
                    counters={},
                )
            it.set(k_after=2, simulated_seconds=15.0)
        run.set(status="ok", k_found=2, simulated_seconds=25.0)
    return replay_records(sink.records)


def test_reconciles_exactly_with_journal_accounting():
    replay = chaotic_run()
    path = critical_path(replay)
    assert path.total_seconds == replay.total_simulated_seconds()
    assert path.total_seconds == 25.0
    assert path.reconciled


def test_segments_tile_the_makespan():
    path = critical_path(chaotic_run())
    assert len(path.restores) == 1
    assert len(path.jobs) == 1
    restore = path.restores[0]
    assert (restore.start, restore.end, restore.seconds) == (0.0, 10.0, 10.0)
    assert restore.name == "iter-0001"
    assert restore.iteration == 1
    job = path.jobs[0]
    assert (job.start, job.end) == (10.0, 25.0)
    assert job.attempt == 2
    assert job.sim_seconds == 15.0
    # Consecutive segments abut: no gaps, no overlaps.
    assert job.start == restore.end


def test_blame_breakdown_values():
    path = critical_path(chaotic_run())
    assert path.blame["checkpointing"] == 10.0
    assert path.blame["startup"] == 5.0
    # compute = balanced bound: map 4/2 + reduce 2/2.
    assert path.blame["compute"] == 3.0
    # stragglers = recorded phase seconds above the balanced bound.
    assert path.blame["stragglers"] == 2.0
    assert path.blame["shuffle"] == 1.0
    assert path.blame["retries"] == 2.5
    assert path.blame["heartbeat"] == 1.0
    # overhead 4.0 minus the named causes lands in recovery.
    assert path.blame["recovery"] == 0.5
    assert set(path.blame) == set(BLAME_CATEGORIES)
    assert abs(path.blame_seconds - path.total_seconds) < 1e-9


def test_task_slack_and_critical_chain():
    path = critical_path(chaotic_run())
    map_phase = path.jobs[0].phases[0]
    assert map_phase.phase == "map"
    # LPT over [3.0, 1.0] on 2 slots: task 0 alone on the longest slot.
    assert map_phase.chain == [0]
    assert map_phase.chain_seconds == 3.0
    slack = {task.index: task for task in map_phase.tasks}
    assert slack[0].critical and slack[0].slack == 0.0
    assert not slack[1].critical and slack[1].slack == 2.0
    sims = [3.0, 1.0]
    assert sum(sims[index] for index in map_phase.chain) == map_phase.chain_seconds
    reduce_phase = path.jobs[0].phases[1]
    assert reduce_phase.chain == [0]
    assert all(task.slack == 0.0 for task in reduce_phase.tasks if task.critical)


def test_failed_attempts_are_off_path_with_zero_clock():
    path = critical_path(chaotic_run())
    assert len(path.off_path) == 1
    attempt = path.off_path[0]
    assert attempt.job == "KMeans-2"
    assert attempt.attempt == 1
    assert attempt.status == "failed"
    # The failed attempt contributes nothing to the path total; its
    # backoff is blamed on the winning attempt instead.
    assert path.total_seconds == 25.0


def test_overspent_overhead_does_not_reconcile(tmp_path, capsys):
    """The runtime charges every retry backoff and heartbeat timeout
    into the winning attempt's ``overhead_seconds``, so a journal whose
    backoff + heartbeat exceed that overhead cannot come from it: the
    path does not reconcile and ``repro analyze`` exits 1."""
    import json

    from repro.cli import main

    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans") as run:
        with journal.span("iteration", "iteration-1", iteration=1) as it:
            journal.event("job_retry", job="KMeans-1", retry=1, backoff_seconds=3.0)
            with journal.span("job", "KMeans-1", attempt=2) as job:
                # overhead 1.0 < backoff 3.0
                job.set(
                    status="ok",
                    simulated_seconds=10.0,
                    overhead_seconds=1.0,
                    retries=1,
                    timing={"startup_seconds": 9.0},
                    counters={},
                )
            it.set(simulated_seconds=10.0)
        run.set(status="ok", simulated_seconds=10.0)
    path = critical_path(replay_records(sink.records))
    assert path.total_seconds == path.journal_seconds
    assert path.reconciled is False
    assert path.blame["retries"] == 3.0
    assert path.blame["recovery"] == -2.0
    assert "residual" not in path.blame
    assert "NOT RECONCILED" in render_critical(path)

    journal_file = tmp_path / "overspent.jsonl"
    journal_file.write_text(
        "".join(json.dumps(record) + "\n" for record in sink.records)
    )
    assert main(["analyze", str(journal_file)]) == 1
    assert "does not reconcile" in capsys.readouterr().err


def test_empty_journal_reconciles_trivially():
    path = critical_path(replay_records([]))
    assert path.total_seconds == 0.0
    assert path.journal_seconds == 0.0
    assert path.reconciled
    assert path.jobs == [] and path.restores == [] and path.off_path == []
    assert "(empty run)" in render_critical(path)


def test_reconciliation_is_bitwise_under_awkward_floats():
    """On-grid seconds spanning twelve orders of magnitude sum exactly,
    so the same segments journalled in any order reconcile bit for bit
    and give one total, equal to math.fsum's correctly rounded sum."""
    import math
    import random

    from repro.mapreduce.costmodel import quantize

    rng = random.Random(3)
    seconds = [
        quantize(rng.uniform(0.5, 2.0) * 10.0 ** rng.randint(-8, 4))
        for _ in range(120)
    ]

    def journalled(restores, jobs):
        sink = InMemoryJournalSink()
        journal = Journal(sink)
        with journal.span("run", "gmeans") as run:
            for i, value in enumerate(restores):
                journal.event(
                    "checkpoint_restore",
                    name=f"iter-{i:04d}",
                    iteration=i,
                    jobs=1,
                    simulated_seconds=value,
                    counters={},
                )
            with journal.span("iteration", "iteration-8", iteration=8) as it:
                for j, value in enumerate(jobs):
                    with journal.span("job", f"KMeans-{j}", attempt=1) as job:
                        job.set(status="ok", simulated_seconds=value, counters={})
                it.set(simulated_seconds=sum(jobs))
            run.set(status="ok")
        return replay_records(sink.records)

    totals = set()
    orders = [sorted(seconds), sorted(seconds, reverse=True), seconds]
    for order in orders:
        replay = journalled(order[:7], order[7:])
        path = critical_path(replay)
        assert path.reconciled
        assert path.total_seconds == replay.total_simulated_seconds()
        assert path.jobs[-1].end == path.total_seconds
        # Each placement is its segment's exact partial sum.
        for job in path.jobs:
            assert job.end - job.start == job.sim_seconds
        totals.add(path.total_seconds)
    assert totals == {math.fsum(seconds)}


def test_as_dict_is_json_ready_and_canonical():
    import json

    path = critical_path(chaotic_run())
    payload = path.as_dict()
    text = json.dumps(payload, sort_keys=True)
    assert "wall" not in text
    assert payload["reconciled"] is True
    assert payload["blame"]["retries"] == 2.5
    assert len(payload["jobs"]) == 1 and len(payload["off_path"]) == 1


def test_render_mentions_verdict_and_off_path():
    text = render_critical(critical_path(chaotic_run()))
    assert "reconciled exactly" in text
    assert "1 failed/abandoned attempts" in text
    assert "checkpointing 10.00s" in text
    assert "heartbeat 1.00s" in text
