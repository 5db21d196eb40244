"""Renderer edge cases: near-empty journals, degraded/skipped rounds.

The happy path is exercised in ``test_replay.py`` over a full
hand-driven run; these journals are the awkward ones — a resume that
restored everything and ran nothing, runs that degraded or skipped
iterations — which the renderers must survive without special-casing
by the caller.
"""

from repro.observability.journal import InMemoryJournalSink, Journal
from repro.observability.render import (
    render_iteration_table,
    render_job_gantts,
    render_timeline,
    render_trace,
)
from repro.observability.replay import replay_records


def test_empty_journal_every_view():
    replay = replay_records([])
    assert render_timeline(replay) == "(empty journal)"
    assert render_iteration_table(replay) == "(no iterations recorded)"
    assert render_job_gantts(replay) == "(no jobs recorded)"
    text = render_trace(replay, gantt=True)
    assert "(empty journal)" in text
    assert "(no jobs recorded)" in text


def restore_only_records():
    """A resumed run that found everything done: baseline, no jobs."""
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    journal.event(
        "checkpoint_restore",
        name="ck/iter-00003",
        iteration=3,
        jobs=9,
        simulated_seconds=42.0,
        counters={"framework": {"MAP_TASKS": 18}},
    )
    return sink.records


def test_restore_only_journal_renders_and_accounts():
    replay = replay_records(restore_only_records())
    timeline = render_timeline(replay)
    assert "! checkpoint_restore" in timeline
    assert "(empty journal)" not in timeline
    assert render_iteration_table(replay) == "(no iterations recorded)"
    assert render_job_gantts(replay) == "(no jobs recorded)"
    # The restored baseline still flows into the run totals.
    assert replay.total_counters().get("framework", "MAP_TASKS") == 18
    assert replay.total_simulated_seconds() == 42.0


def degraded_run_records():
    """Two iterations: one degraded, one skipped by resume."""
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans") as run:
        with journal.span(
            "iteration", "iteration-1", iteration=1, k_before=2
        ) as it:
            with journal.span("job", "TestClusters-i1", attempt=1) as job:
                job.set(status="failed", error="TaskPermanentlyFailedError")
            journal.event(
                "degraded_iteration",
                iteration=1,
                job="TestClusters-i1",
                clusters_kept=2,
            )
            it.set(k_after=2, degraded=True, simulated_seconds=1.5,
                   counters={"framework": {"MAP_TASKS": 2}})
        with journal.span(
            "iteration", "iteration-2", iteration=2, k_before=2
        ) as it:
            journal.event("iteration_skipped", iteration=2, reason="resume")
            it.set(k_after=2, simulated_seconds=0.0)
        run.set(status="ok", k_found=2, simulated_seconds=1.5)
    return sink.records


def test_degraded_iteration_is_visible_everywhere():
    replay = replay_records(degraded_run_records())
    timeline = render_timeline(replay)
    assert "[degraded]" in timeline
    assert "! degraded_iteration" in timeline
    table = render_iteration_table(replay)
    lines = table.splitlines()
    assert lines[0].rstrip().endswith("degraded")
    assert lines[1].rstrip().endswith("yes")  # iteration 1 flagged
    assert not lines[2].rstrip().endswith("yes")


def test_skipped_iteration_renders_without_jobs():
    replay = replay_records(degraded_run_records())
    assert "! iteration_skipped" in render_timeline(replay)
    table = render_iteration_table(replay)
    assert len(table.splitlines()) == 3  # header + both iterations
    # the failed attempt recorded no tasks: its job line still shows,
    # with no chart under it, and nothing blows up
    gantts = render_job_gantts(replay)
    assert "TestClusters-i1" in gantts
    assert "phase (" not in gantts
