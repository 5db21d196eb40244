"""Live telemetry: state aggregation, tee sink, renderer, HTTP endpoint,
journal tailing and the environment wiring."""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.observability.journal import (
    ITERATION,
    JOB,
    PHASE,
    RUN,
    FileJournalSink,
    InMemoryJournalSink,
    Journal,
    canonical_records,
)
from repro.observability.live import (
    LIVE_ENV,
    METRICS_PORT_ENV,
    LiveRenderer,
    LiveRunState,
    MetricsServer,
    TelemetrySink,
    follow_journal,
    telemetry_journal_from_env,
    telemetry_requested,
)
from repro.observability.anomaly import ANOMALY_ENV
from repro.observability.slo import SLO_ENV

MIB = 1024 * 1024


def drive_run(journal, iterations=2):
    """Emit a small synthetic G-means-shaped run through ``journal``."""
    with journal.span(RUN, "gmeans", algorithm="gmeans", k_init=2) as run:
        k = 2
        for i in range(1, iterations + 1):
            with journal.span(
                ITERATION, f"iteration-{i}", iteration=i, k_before=k
            ) as iteration:
                with journal.span(JOB, f"KMeans-i{i}", attempt=1) as job:
                    with journal.span(PHASE, "map", tasks=2):
                        journal.task("m0", 0, 1.0, 0.01)
                        journal.task("m1", 1, 1.0, 0.01)
                    with journal.span(PHASE, "reduce", tasks=1):
                        journal.task("r0", 0, 1.0, 0.01)
                    job.set(
                        status="ok",
                        counters={"framework": {"MAP_TASKS": 2}},
                        simulated_seconds=10.0,
                        heap_bytes=64 * MIB,
                        max_reduce_heap_bytes=32 * MIB,
                    )
                split = 1 if i < iterations else 0
                iteration.set(
                    k_after=k + split,
                    clusters_split=split,
                    strategy="all",
                    simulated_seconds=10.0,
                )
                k += split
        run.set(status="ok", k_found=k)


def telemetry_journal(**kwargs):
    inner = InMemoryJournalSink()
    sink = TelemetrySink(inner, **kwargs)
    return Journal(sink), inner, sink.state


# -- LiveRunState aggregation --------------------------------------------


def test_state_aggregates_run_stream():
    journal, _, state = telemetry_journal()
    drive_run(journal)
    assert state.run_name == "gmeans"
    assert state.run_status == "ok"
    assert state.iterations_done == 2
    assert state.k_trajectory == [3, 3]
    assert state.k_current == 3
    assert state.jobs_ok == 2
    assert state.jobs_failed == 0
    assert state.counters.get("framework", "MAP_TASKS") == 4
    assert state.simulated_seconds == pytest.approx(20.0)
    assert state.max_heap_fraction == pytest.approx(0.5)
    assert state.last_iteration["clusters_split"] == 0


def test_eta_scales_last_iteration_by_k_growth():
    journal, _, state = telemetry_journal()
    with journal.span(RUN, "gmeans", k_init=2):
        with journal.span(ITERATION, "iteration-1", iteration=1, k_before=2) as it:
            it.set(k_after=4, clusters_split=2, simulated_seconds=10.0)
        # Mid-run after a splitting iteration: next round ~ 10s * 4/2.
        assert state.eta_simulated_seconds() == pytest.approx(20.0)
    # Run closed: nothing left to estimate.
    assert state.eta_simulated_seconds() == 0.0


def test_eta_zero_when_nothing_split():
    journal, _, state = telemetry_journal()
    drive_run(journal, iterations=1)  # single iteration splits nothing
    assert state.eta_simulated_seconds() == 0.0


def test_task_records_and_ticks_drive_phase_progress():
    journal, _, state = telemetry_journal()
    with journal.span(RUN, "gmeans"):
        with journal.span(ITERATION, "iteration-1", iteration=1, k_before=2):
            with journal.span(JOB, "KMeans-i1", attempt=1):
                with journal.span(PHASE, "map", tasks=3):
                    assert (state.phase_tasks_done, state.phase_tasks_total) == (0, 3)
                    # Executor ticks arrive before the task records do.
                    journal.sink.task_progress("map", 1, 3)
                    assert state.phase_tasks_done == 1
                    journal.task("m0", 0, 1.0, 0.01)
                    journal.task("m1", 1, 1.0, 0.01)
                    # Records after ticks never overshoot the total.
                    assert state.phase_tasks_done <= 3
                # Phase end clamps to complete.
                assert state.phase_tasks_done == 3


def test_event_counting_and_checkpoint_restore_baseline():
    journal, _, state = telemetry_journal()
    with journal.span(RUN, "gmeans"):
        journal.event("job_retry", job="KMeans-i1")
        journal.event(
            "checkpoint_restore",
            iteration=3,
            counters={"framework": {"MAP_TASKS": 12}},
            simulated_seconds=33.0,
            jobs=6,
        )
    assert state.job_retries == 1
    assert state.counters.get("framework", "MAP_TASKS") == 12
    assert state.simulated_seconds == pytest.approx(33.0)
    assert state.jobs_ok == 6


def test_node_lifecycle_events_drive_node_health_and_gauges():
    journal, _, state = telemetry_journal()
    capacity = dict(schedulable_nodes=2, total_map_slots=16, total_reduce_slots=16)
    with journal.span(RUN, "gmeans"):
        journal.event("node_lost", node=1, **capacity)
        journal.event("node_blacklisted", node=2, schedulable_nodes=1)
        journal.event("node_recovered", node=1, **capacity)
    assert state.snapshot(now=0.0)["node_health"] == {
        "nodes": {"1": "alive", "2": "blacklisted"},
        "capacity": capacity,
    }
    gauges = state.live_gauges(now=0.0)
    assert gauges["live_nodes_dead"] == 0.0
    assert gauges["live_nodes_blacklisted"] == 1.0
    assert gauges["live_total_map_slots"] == 16.0


def test_live_gauges_and_snapshot_are_json_ready():
    journal, _, state = telemetry_journal()
    drive_run(journal)
    gauges = state.live_gauges(now=0.0)
    assert gauges["live_k"] == 3.0
    assert gauges["live_iterations_done"] == 2.0
    assert gauges["live_jobs_ok"] == 2.0
    assert gauges["live_run_complete"] == 1.0
    assert all(name.startswith("live_") for name in gauges)
    snap = state.snapshot(now=0.0)
    json.dumps(snap)  # must round-trip as JSON
    assert snap["run_status"] == "ok"
    assert snap["k_trajectory"] == [3, 3]
    assert snap["counters"]["framework"]["MAP_TASKS"] == 4


# -- TelemetrySink tee ----------------------------------------------------


def test_telemetry_sink_tees_records_unmodified():
    plain = Journal(InMemoryJournalSink())
    drive_run(plain)
    teed, inner, _ = telemetry_journal()
    drive_run(teed)
    assert canonical_records(inner.records) == canonical_records(
        plain.sink.records
    )


def test_telemetry_sink_notifies_listeners():
    seen = []
    inner = InMemoryJournalSink()
    sink = TelemetrySink(inner, listeners=[lambda rec, st: seen.append(rec)])
    journal = Journal(sink)
    drive_run(journal, iterations=1)
    assert seen == inner.records


# -- LiveRenderer ---------------------------------------------------------


def test_renderer_non_tty_prints_one_line_per_iteration():
    stream = io.StringIO()  # StringIO.isatty() is False
    journal, _, _ = telemetry_journal(renderer=LiveRenderer(stream=stream))
    drive_run(journal, iterations=2)
    journal.close()
    lines = [line for line in stream.getvalue().splitlines() if line]
    # Two iteration closes + the run close, nothing else, no ANSI.
    assert len(lines) == 3
    assert all(line.startswith("[live]") for line in lines)
    assert "\x1b[" not in stream.getvalue()


class _FakeTTY(io.StringIO):
    def isatty(self):
        return True


def test_renderer_tty_repaints_in_place_with_throttle():
    stream = _FakeTTY()
    ticks = iter(float(i) for i in range(1000))
    renderer = LiveRenderer(stream=stream, min_interval=10.0, clock=lambda: next(ticks))
    state = LiveRunState()
    state.consume(
        {"type": "span_start", "span": 0, "kind": RUN, "name": "gmeans", "attrs": {}}
    )
    renderer.update(state, None)  # first paint
    painted = stream.getvalue()
    assert "[live]" in painted
    renderer.update(state, None)  # throttled: clock moved only 1s < 10s
    assert stream.getvalue() == painted
    # A span boundary bypasses the throttle and repaints in place.
    renderer.update(state, {"type": "span_end", "span": 0, "attrs": {"status": "ok"}})
    assert "\x1b[" in stream.getvalue()
    renderer.finish(state)
    assert stream.getvalue().endswith("\n")


# -- MetricsServer --------------------------------------------------------


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def test_metrics_server_serves_metrics_healthz_and_state():
    journal, _, state = telemetry_journal()
    drive_run(journal)
    server = MetricsServer(state, port=0)
    try:
        assert server.port > 0
        status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        text = body.decode("utf-8")
        assert "repro_framework_map_tasks 4" in text
        assert "repro_live_k 3.0" in text
        assert "# HELP repro_live_k" in text

        status, _, body = _get(server.url + "/healthz")
        assert (status, body) == (200, b"ok\n")

        status, ctype, body = _get(server.url + "/state")
        assert status == 200
        assert ctype == "application/json"
        snap = json.loads(body)
        assert snap["run"] == "gmeans"
        assert snap["jobs_ok"] == 2

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404
    finally:
        server.close()


# -- follow_journal -------------------------------------------------------


def test_follow_journal_tails_a_growing_file(tmp_path):
    path = str(tmp_path / "follow.jsonl")
    first = Journal(InMemoryJournalSink())
    drive_run(first)
    records = first.sink.records
    split = len(records) // 2

    sink = FileJournalSink(path)
    for record in records[:split]:
        sink.emit(record)
    sink.close()

    def grow(_interval):
        tail = FileJournalSink(path)
        for record in records[split:]:
            tail.emit(record)
        tail.close()

    updates = []
    replay = follow_journal(
        path, lambda rep, recs: updates.append(len(recs)), interval=0.0, sleep=grow
    )
    assert updates == [split, len(records)]
    assert replay.roots and all(root.complete for root in replay.roots)


def test_follow_journal_tolerates_missing_file_and_truncated_tail(tmp_path):
    path = str(tmp_path / "late.jsonl")
    first = Journal(InMemoryJournalSink())
    drive_run(first, iterations=1)

    def appear(_interval):
        sink = FileJournalSink(path)
        for record in first.sink.records:
            sink.emit(record)
        sink.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type":"span_sta')  # killed mid-write

    updates = []
    replay = follow_journal(
        path,
        lambda rep, recs: updates.append(len(recs)),
        interval=0.0,
        sleep=appear,
        max_polls=5,
    )
    assert updates == [len(first.sink.records)]  # truncated tail dropped
    assert replay is not None and replay.roots[0].complete


def test_follow_journal_tolerates_mid_character_truncation(tmp_path):
    # Regression: a record killed mid-way through a multi-byte UTF-8
    # character used to raise UnicodeDecodeError out of load_journal
    # (text-mode read decodes the torn byte sequence before the
    # line-level truncation tolerance can drop it).
    path = str(tmp_path / "torn.jsonl")
    first = Journal(InMemoryJournalSink())
    drive_run(first, iterations=1)

    def appear(_interval):
        sink = FileJournalSink(path)
        for record in first.sink.records:
            sink.emit(record)
        sink.close()
        payload = '{"type":"event","name":"café-prob'.encode("utf-8")
        with open(path, "ab") as fh:
            fh.write(payload[:-6])  # cut inside the two-byte "é"

    updates = []
    replay = follow_journal(
        path,
        lambda rep, recs: updates.append(len(recs)),
        interval=0.0,
        sleep=appear,
        max_polls=5,
    )
    assert updates == [len(first.sink.records)]  # torn tail dropped
    assert replay is not None and replay.roots[0].complete


def test_follow_journal_picks_up_completed_truncated_record(tmp_path):
    # A mid-line tail is not corruption, just an in-flight write: once
    # the writer finishes the line on a later poll, the record lands.
    path = str(tmp_path / "inflight.jsonl")
    first = Journal(InMemoryJournalSink())
    drive_run(first, iterations=1)
    records = first.sink.records
    sink = FileJournalSink(path)
    for record in records[:-1]:
        sink.emit(record)
    sink.close()
    import json as _json

    last_line = _json.dumps(records[-1], separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(last_line[:12])  # the final record is mid-write

    def finish(_interval):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(last_line[12:] + "\n")

    updates = []
    replay = follow_journal(
        path,
        lambda rep, recs: updates.append(len(recs)),
        interval=0.0,
        sleep=finish,
        max_polls=5,
    )
    assert updates[0] == len(records) - 1  # partial tail dropped...
    assert updates[-1] == len(records)  # ...then completed next poll
    assert replay.roots[0].complete


def test_follow_journal_respects_max_polls(tmp_path):
    path = str(tmp_path / "stalled.jsonl")
    sink = FileJournalSink(path)
    sink.emit(
        {"type": "span_start", "span": 0, "parent": None, "kind": RUN,
         "name": "gmeans", "attrs": {}, "seq": 0}
    )
    sink.close()
    polls = []
    replay = follow_journal(
        path, lambda rep, recs: None, interval=0.0,
        sleep=lambda s: polls.append(s), max_polls=3,
    )
    assert len(polls) == 2  # max_polls bounds the wait on a stalled run
    assert replay is not None and not replay.roots[0].complete


# -- environment wiring ---------------------------------------------------


def test_telemetry_requested_switches():
    assert not telemetry_requested({})
    assert not telemetry_requested({LIVE_ENV: "0"})
    assert not telemetry_requested({ANOMALY_ENV: "off"})
    assert telemetry_requested({LIVE_ENV: "1"})
    assert telemetry_requested({METRICS_PORT_ENV: "8787"})
    assert telemetry_requested({SLO_ENV: "max_k=4"})
    assert telemetry_requested({ANOMALY_ENV: "1"})
    assert telemetry_requested({ANOMALY_ENV: "storm_events=3"})


def test_telemetry_journal_from_env_builds_and_caches():
    assert telemetry_journal_from_env({}) is None
    env = {SLO_ENV: "max_k=123456"}  # unique spec: the cache is process-wide
    journal = telemetry_journal_from_env(env)
    assert journal is not None and journal.enabled
    assert isinstance(journal.sink, TelemetrySink)
    assert journal.sink.watchdog is not None
    assert not journal.sink.inner.enabled  # no journal path: null inner
    assert telemetry_journal_from_env(env) is journal  # cached per config


def test_telemetry_from_env_arms_anomaly_watchdog():
    from repro.observability.anomaly import AnomalyConfig, AnomalyWatchdog

    env = {ANOMALY_ENV: "straggler_ratio=123.5"}  # unique: process-wide cache
    journal = telemetry_journal_from_env(env)
    assert journal is not None and journal.enabled
    assert isinstance(journal.sink.anomaly, AnomalyWatchdog)
    assert journal.sink.anomaly.journal is journal  # emits re-entrantly
    assert journal.sink.anomaly.config == AnomalyConfig(straggler_ratio=123.5)
    assert journal.sink.watchdog is None  # no SLO rules requested
    assert telemetry_journal_from_env(env) is journal  # spec is a cache key


def test_journal_from_env_composes_anomaly_with_file_and_slo(tmp_path):
    # Journal.from_env is the runtime's single entry point: a file
    # journal, SLO rules and the anomaly detectors must all compose
    # into one telemetry journal from the same environment.
    from repro.observability.anomaly import AnomalyWatchdog
    from repro.observability.journal import JOURNAL_ENV, FileJournalSink

    path = str(tmp_path / "combo.jsonl")
    env = {
        JOURNAL_ENV: path,
        SLO_ENV: "max_k=123457",  # unique: process-wide cache
        ANOMALY_ENV: "1",
    }
    journal = Journal.from_env(environ=env)
    assert journal.enabled
    assert isinstance(journal.sink, TelemetrySink)
    assert isinstance(journal.sink.inner, FileJournalSink)
    assert journal.sink.watchdog is not None
    assert isinstance(journal.sink.anomaly, AnomalyWatchdog)
    # The anomaly spec is part of the cache key: flipping it builds a
    # distinct journal instead of reusing the armed one.
    assert Journal.from_env(environ=env) is journal
    other = Journal.from_env(environ={**env, ANOMALY_ENV: "off"})
    assert other is not journal
    assert other.sink.anomaly is None
