"""Live run telemetry: consume the journal stream *while it happens*.

The journal and its analytics are post-hoc — you learn a run doubled k
past budget only after it ends. This module tees the same record
stream into an in-process aggregate as it is emitted, so an in-flight
run can be guarded:

* :class:`TelemetrySink` — a journal sink that forwards every record
  to an inner sink (file or null) *and* folds it into a
  :class:`LiveRunState`, then lets the anomaly detectors and the SLO
  watchdog react;
* :class:`LiveRunState` — the live view: it feeds the run's one
  :class:`~repro.observability.replay.RunReplay` model and derives
  from it the quantities the SLO rules read (k, simulated seconds,
  heap high-water fraction, job retries, anomaly counts, wall time);
* :func:`follow_journal` — ``repro trace --follow``: tail a growing
  file-sink journal, folding only the new records into one model, and
  re-render.

Determinism contract: telemetry *observes* the record stream and
nothing here touches an RNG stream; results and canonical journals are
byte-identical with telemetry on or off. The one sanctioned emitter is
the opt-in anomaly watchdog (``--anomaly`` /
:mod:`repro.observability.anomaly`): its firings are pure functions of
simulated quantities, emitted through the journal's own re-entrant
sequencing, so journals with detectors armed stay byte-identical
across backends too — and exactly re-derivable offline.
"""

from __future__ import annotations

import os
import threading
import time

from repro.mapreduce.counters import Counters
from repro.observability.journal import (
    JOURNAL_ENV,
    RUN,
    FileJournalSink,
    Journal,
    JournalSink,
    NullJournalSink,
    load_journal,
)
from repro.observability.replay import RunReplay, SpanNode


class LiveRunState:
    """The in-process view of a run's journal stream so far.

    :meth:`consume` folds each record the :class:`TelemetrySink` emits
    into :attr:`model` — the same incremental
    :class:`~repro.observability.replay.RunReplay` that ``repro trace``
    builds offline and the anomaly detectors read — and every view
    below is derived from it. Records arrive from the journal, which
    emits them one at a time under its own lock, and the one reader
    during a run, the SLO watchdog, runs inside that same emission, so
    the state needs no lock of its own.
    """

    def __init__(self) -> None:
        self.model = RunReplay()

    def consume(self, record: dict) -> None:
        """Fold one journal record into the model."""
        self.model.consume(record)

    # -- views derived from the model ------------------------------------

    @property
    def counters(self) -> Counters:
        return self.model.counters

    @property
    def simulated_seconds(self) -> float:
        return self.model.simulated_seconds

    @property
    def jobs_ok(self) -> int:
        return self.model.jobs_ok

    @property
    def k_current(self) -> "int | None":
        """The latest k reported: an iteration's ``k_after`` or
        ``k_before``, else the first run's ``k_init``."""
        for iteration in reversed(self.model.iterations()):
            k = (iteration.end or {}).get("k_after")
            k = iteration.attrs.get("k_before") if k is None else k
            if k is not None:
                return int(k)
        for run in self.model.runs():
            if run.attrs.get("k_init") is not None:
                return int(run.attrs["k_init"])
        return None

    @property
    def k_trajectory(self) -> "list[int]":
        return [
            int(iteration.end["k_after"])
            for iteration in _ended(self.model.iterations())
            if iteration.end.get("k_after") is not None
        ]

    @property
    def max_heap_fraction(self) -> float:
        fraction = 0.0
        for job in _ended(self.model.jobs()):
            heap_bytes = job.end.get("heap_bytes")
            max_heap = job.end.get("max_reduce_heap_bytes")
            if job.end.get("status") == "ok" and heap_bytes and max_heap is not None:
                fraction = max(fraction, float(max_heap) / float(heap_bytes))
        return fraction

    @property
    def job_retries(self) -> int:
        return len(self.model.events_named("job_retry"))

    @property
    def anomaly_counts(self) -> "dict[str, int]":
        """Detector firings per anomaly type — what the SLO
        ``on_anomaly`` rules read."""
        return self.model.anomaly_counts()

    def wall_seconds(self, now: "float | None" = None) -> float:
        """Real seconds since the run span opened (0 before it does)."""
        run = self.model.latest(RUN)
        if run is None or run.wall_start is None:
            return 0.0
        now = now if now is not None else time.time()
        return max(0.0, now - run.wall_start)


def _ended(spans: "list[SpanNode]") -> "list[SpanNode]":
    return [span for span in spans if span.end is not None]


class TelemetrySink:
    """A journal sink that tees records into live telemetry.

    Every record goes to ``inner`` first (the durable journal — a
    :class:`FileJournalSink`, or a null sink when the run wants live
    telemetry without a journal file), then into the
    :class:`LiveRunState`, then past the optional anomaly detectors and
    SLO watchdog. Apart from the anomaly watchdog's deterministic
    firings, telemetry consumers never emit records of their own, so
    the journal a telemetry run writes is byte-identical to the one a
    plain run writes plus exactly the anomaly events the detectors
    derive.
    """

    enabled = True

    def __init__(
        self,
        inner: "JournalSink | None" = None,
        state: "LiveRunState | None" = None,
        watchdog=None,
        anomaly=None,
    ):
        self.inner = inner if inner is not None else NullJournalSink()
        self.state = state if state is not None else LiveRunState()
        self.watchdog = watchdog
        # The in-flight anomaly watchdog (set after the journal exists
        # — it emits its firings back through the journal, nested
        # behind the record that triggered them, so anomaly events are
        # the one sanctioned exception to "telemetry never emits").
        self.anomaly = anomaly

    def emit(self, record: dict) -> None:
        if self.inner.enabled:
            self.inner.emit(record)
        self.state.consume(record)
        if self.anomaly is not None:
            self.anomaly.observe_record(record)
        if self.watchdog is not None:
            self.watchdog.observe(self.state)

    def close(self) -> None:
        self.inner.close()
        _forget_telemetry_journal(self)


# -- journal tailing (repro trace --follow) ------------------------------


def follow_journal(
    path: str,
    on_update,
    interval: float = 1.0,
    sleep=time.sleep,
    max_polls: "int | None" = None,
):
    """Tail a growing journal file, re-rendering as records land.

    Polls ``path`` every ``interval`` seconds; whenever the journal has
    grown, folds the newly read records into one incremental
    :class:`~repro.observability.replay.RunReplay` and calls
    ``on_update(replay, records)`` with every record read so far.
    Reads with ``load_journal(strict_tail=False)``: a tailer races the
    file sink by construction, so catching it mid-write never errors —
    even between the runs of a multi-run journal, where a strict read
    would flag the half-written last line — the partial line simply
    shows up whole on the next poll. Returns the replay when the
    top-level run span closes (or when ``max_polls`` is exhausted;
    ``None`` polls forever).

    Tolerates every transient state a racing writer can leave behind:
    a missing file, a partially-written (mid-line, even mid-character)
    trailing record, and a read that momentarily looks corrupt — the
    poll simply retries and the partial record shows up whole next
    time.
    """
    from repro.common.errors import JournalCorruptError

    replay = None
    polls = 0
    while True:
        try:
            records = load_journal(path, strict_tail=False)
        except (FileNotFoundError, JournalCorruptError):
            records = []
        seen = len(replay.records) if replay is not None else 0
        if len(records) > seen:
            if replay is None:
                replay = RunReplay()
            for record in records[seen:]:
                replay.consume(record)
            replay.records = records
            on_update(replay, records)
            if replay.roots and all(root.complete for root in replay.roots):
                return replay
        polls += 1
        if max_polls is not None and polls >= max_polls:
            return replay
        sleep(interval)


# -- environment wiring --------------------------------------------------

_TELEMETRY_JOURNALS: dict[tuple, Journal] = {}
_TELEMETRY_LOCK = threading.Lock()


def _forget_telemetry_journal(sink: TelemetrySink) -> None:
    """Drop the shared journal of a closed sink from the process cache.

    A closed journal can record nothing more, and its run model would
    otherwise live as long as the process.
    """
    with _TELEMETRY_LOCK:
        for key, journal in list(_TELEMETRY_JOURNALS.items()):
            if journal.sink is sink:
                del _TELEMETRY_JOURNALS[key]


def telemetry_requested(env) -> bool:
    """True when an SLO rule spec or an anomaly spec is set."""
    from repro.observability.anomaly import ANOMALY_ENV, parse_anomaly_spec
    from repro.observability.slo import SLO_ENV

    return bool(
        (env.get(SLO_ENV) or "").strip()
        or parse_anomaly_spec(env.get(ANOMALY_ENV)) is not None
    )


def telemetry_journal_from_env(env) -> "Journal | None":
    """The live-telemetry counterpart of :func:`~repro.observability.journal.file_journal`.

    Returns ``None`` when neither ``$REPRO_SLO`` nor ``$REPRO_ANOMALY``
    is set — the caller falls back to plain journalling. Otherwise
    builds (once per configuration, shared process-wide so every
    runtime a run constructs feeds one aggregate) a journal whose sink
    tees into a fresh :class:`LiveRunState` with the requested SLO
    watchdog and anomaly detectors attached.
    """
    from repro.observability.anomaly import (
        ANOMALY_ENV,
        AnomalyWatchdog,
        parse_anomaly_spec,
    )
    from repro.observability.slo import SLO_ENV, SLOWatchdog, parse_slo_rules

    if not telemetry_requested(env):
        return None
    path = (env.get(JOURNAL_ENV) or "").strip()
    slo_spec = (env.get(SLO_ENV) or "").strip()
    anomaly_spec = (env.get(ANOMALY_ENV) or "").strip()
    key = (os.path.abspath(path) if path else "", slo_spec, anomaly_spec)
    with _TELEMETRY_LOCK:
        journal = _TELEMETRY_JOURNALS.get(key)
        if journal is not None:
            return journal
        inner = FileJournalSink(key[0]) if path else NullJournalSink()
        watchdog = SLOWatchdog(parse_slo_rules(slo_spec)) if slo_spec else None
        journal = Journal(TelemetrySink(inner, watchdog=watchdog))
        anomaly_config = parse_anomaly_spec(anomaly_spec)
        if anomaly_config is not None:
            # Bound after construction: the watchdog emits back through
            # the journal it observes.
            journal.sink.anomaly = AnomalyWatchdog(journal, anomaly_config)
        _TELEMETRY_JOURNALS[key] = journal
        return journal
