"""Live telemetry: state aggregation, tee sink, journal tailing and the
environment wiring."""

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
    assert state.k_trajectory == [3, 3]
    assert state.k_current == 3
    assert state.jobs_ok == 2
    assert state.counters.get("framework", "MAP_TASKS") == 4
    assert state.simulated_seconds == pytest.approx(20.0)
    assert state.max_heap_fraction == pytest.approx(0.5)
    assert state.wall_seconds() >= 0.0


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


# -- TelemetrySink tee ----------------------------------------------------


def test_telemetry_sink_tees_records_unmodified():
    plain = Journal(InMemoryJournalSink())
    drive_run(plain)
    teed, inner, _ = telemetry_journal()
    drive_run(teed)
    assert canonical_records(inner.records) == canonical_records(
        plain.sink.records
    )


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


class _ReadLog(dict):
    """An environment mapping that records every variable read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_telemetry_requested_switches():
    assert not telemetry_requested({})
    assert not telemetry_requested({ANOMALY_ENV: "off"})
    assert telemetry_requested({SLO_ENV: "max_k=4"})
    assert telemetry_requested({ANOMALY_ENV: "1"})
    assert telemetry_requested({ANOMALY_ENV: "storm_events=3"})
    # SLO rules and anomaly detectors are the only live consumers left,
    # so no other environment variable can switch telemetry on.
    env = _ReadLog()
    assert not telemetry_requested(env)
    assert env.read == {SLO_ENV, ANOMALY_ENV}


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
