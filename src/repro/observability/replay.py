"""Reconstruct a recorded run from its journal.

A journal is a flat, append-only record stream; this module folds it
back into the span tree it came from, so the trace CLI (and the
integration suite) can ask run-level questions: which job attempts ran
(including the retried and failed ones), what each phase and task
cost, where the faults and checkpoints were, and whether the journal's
accounting adds up to the totals the run reported.

The replay is defensive about truncation: a run killed mid-chain
leaves spans without end records, which replay surfaces as spans with
``end is None`` instead of failing — reconstructing interrupted runs
is precisely the point.

Every seconds value the runtime journals lies on the simulated clock's
grid (:func:`repro.mapreduce.costmodel.quantize`), so the totals below
are exact sums: the running clock, ``sum()`` over any subset and the
critical-path placements agree bit for bit whatever the order.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field

from repro.mapreduce.counters import Counters
from repro.observability.journal import (
    EVENT,
    ITERATION,
    JOB,
    PHASE,
    RUN,
    SPAN_END,
    SPAN_START,
    TASK,
    load_journal,
)


#: Node lifecycle event names, each with the node status it leaves.
NODE_STATUS = {
    "node_lost": "dead",
    "node_recovered": "alive",
    "node_blacklisted": "blacklisted",
}


@dataclass
class TaskRecord:
    """One executed task, as recorded under its phase span.

    ``cpu_seconds`` and ``peak_memory_bytes`` are present only when the
    run profiled its tasks (``--profile-tasks``); they come from the
    ``wall_cpu_seconds`` / ``wall_peak_memory_bytes`` journal keys.
    """

    task_id: str
    index: int
    sim_seconds: float
    wall_seconds: float
    cpu_seconds: "float | None" = None
    peak_memory_bytes: "int | None" = None

    @property
    def profiled(self) -> bool:
        """True when this task carries real resource measurements."""
        return self.cpu_seconds is not None or self.peak_memory_bytes is not None


@dataclass
class EventRecord:
    """One point-in-time event (fault, retry, checkpoint, ...)."""

    seq: int
    name: str
    parent: "int | None"
    attrs: dict
    wall_time: "float | None" = None


@dataclass
class SpanNode:
    """One reconstructed span with its children, tasks and events.

    ``parent`` resolves while the replay that built the node is alive:
    the replay owns every node, and a node holds its parent weakly, so
    a dropped replay is freed at once, not by the cycle collector.
    """

    id: int
    kind: str
    name: str
    attrs: dict = field(default_factory=dict)
    end: "dict | None" = None
    children: "list[SpanNode]" = field(default_factory=list)
    tasks: "list[TaskRecord]" = field(default_factory=list)
    events: "list[EventRecord]" = field(default_factory=list)
    start_seq: int = 0
    wall_start: "float | None" = None
    wall_end: "float | None" = None
    _parent: "weakref.ref | None" = field(default=None, repr=False, compare=False)

    @property
    def parent(self) -> "SpanNode | None":
        """The enclosing span, if it is in the same replay."""
        return self._parent() if self._parent is not None else None

    @property
    def complete(self) -> bool:
        """False when the run died before this span could end."""
        return self.end is not None

    def get(self, key: str, default=None):
        """Look up ``key`` in the end attrs, falling back to the start."""
        if self.end is not None and key in self.end:
            return self.end[key]
        return self.attrs.get(key, default)

    def find(self, kind: str) -> "list[SpanNode]":
        """All descendant spans of ``kind``, in journal order."""
        found = []
        for child in self.children:
            if child.kind == kind:
                found.append(child)
            found.extend(child.find(kind))
        return found

    def counters(self) -> Counters:
        """The counter delta this span recorded (empty if none)."""
        return Counters.from_dict(self.get("counters") or {})


@dataclass
class RunReplay:
    """A journal reconstructed as far as it has been read.

    :meth:`consume` folds one record in; :func:`replay_records` is a
    loop over it, and the live telemetry sink feeds one instance as
    the run emits, so every journal tool reads the same model. Spans
    of each kind are kept in start order, and the running totals below
    follow the one accounting rule: restored checkpoint baselines plus
    successful job attempts, never failed ones.
    """

    #: The records the model was read from; :meth:`consume` leaves it
    #: to the reader (the live model keeps none).
    records: "list[dict]" = field(default_factory=list)
    roots: "list[SpanNode]" = field(default_factory=list)
    spans: "dict[int, SpanNode]" = field(default_factory=dict)
    events: "list[EventRecord]" = field(default_factory=list)
    #: Simulated seconds of the restored baselines.
    restored_seconds: float = 0.0
    #: The run's simulated clock: restored baselines plus successful
    #: attempts, as the runtime advances it.
    simulated_seconds: float = 0.0
    #: Counter totals accounted so far, in record order.
    counters: Counters = field(default_factory=Counters)
    #: Successful attempts plus the jobs restored baselines report.
    jobs_ok: int = 0
    _kinds: "dict[str, list[SpanNode]]" = field(default_factory=dict, repr=False)
    _named: "dict[str, list[EventRecord]]" = field(default_factory=dict, repr=False)

    # -- ingestion -------------------------------------------------------

    def consume(self, record: dict) -> None:
        """Fold one journal record into the model."""
        kind = record.get("type")
        if kind == SPAN_START:
            node = SpanNode(
                id=record["span"],
                kind=record.get("kind", ""),
                name=record.get("name", ""),
                attrs=record.get("attrs") or {},
                start_seq=record.get("seq", 0),
                wall_start=record.get("wall_time"),
            )
            self.spans[node.id] = node
            self._kinds.setdefault(node.kind, []).append(node)
            parent = self.spans.get(record.get("parent"))
            if parent is not None:
                node._parent = weakref.ref(parent)
                parent.children.append(node)
            else:
                self.roots.append(node)
        elif kind == SPAN_END:
            node = self.spans.get(record.get("span"))
            if node is not None:
                node.end = record.get("attrs") or {}
                node.wall_end = record.get("wall_time")
                if node.kind == JOB and node.end.get("status") == "ok":
                    self._charge(node.end, 1)
        elif kind == TASK:
            parent = self.spans.get(record.get("parent"))
            cpu = record.get("wall_cpu_seconds")
            peak = record.get("wall_peak_memory_bytes")
            task = TaskRecord(
                task_id=record.get("task_id", ""),
                index=int(record.get("index", 0)),
                sim_seconds=float(record.get("sim_seconds", 0.0)),
                wall_seconds=float(record.get("wall_seconds", 0.0)),
                cpu_seconds=float(cpu) if cpu is not None else None,
                peak_memory_bytes=int(peak) if peak is not None else None,
            )
            if parent is not None:
                parent.tasks.append(task)
        elif kind == EVENT:
            event = EventRecord(
                seq=record.get("seq", 0),
                name=record.get("name", ""),
                parent=record.get("parent"),
                attrs=record.get("attrs") or {},
                wall_time=record.get("wall_time"),
            )
            self.events.append(event)
            self._named.setdefault(event.name, []).append(event)
            parent = self.spans.get(event.parent)
            if parent is not None:
                parent.events.append(event)
            if event.name == "checkpoint_restore":
                self.restored_seconds += float(
                    event.attrs.get("simulated_seconds") or 0.0
                )
                self._charge(event.attrs, int(event.attrs.get("jobs") or 0))

    def _charge(self, attrs: dict, jobs: int) -> None:
        """Advance the running totals by one clock-charged segment."""
        self.simulated_seconds += float(attrs.get("simulated_seconds") or 0.0)
        self.counters.merge(Counters.from_dict(attrs.get("counters") or {}))
        self.jobs_ok += jobs

    # -- views -----------------------------------------------------------

    def runs(self) -> "list[SpanNode]":
        return self._of_kind(RUN)

    def iterations(self) -> "list[SpanNode]":
        return self._of_kind(ITERATION)

    def jobs(self) -> "list[SpanNode]":
        """Every job *attempt* span, in submission order."""
        return self._of_kind(JOB)

    def phases(self) -> "list[SpanNode]":
        return self._of_kind(PHASE)

    def _of_kind(self, kind: str) -> "list[SpanNode]":
        return list(self._kinds.get(kind, ()))

    def latest(self, kind: str) -> "SpanNode | None":
        """The most recently started span of ``kind``, if any."""
        spans = self._kinds.get(kind)
        return spans[-1] if spans else None

    def events_named(self, name: str) -> "list[EventRecord]":
        return list(self._named.get(name, ()))

    def node_events(self) -> "list[EventRecord]":
        """Node lifecycle events (lost / recovered / blacklisted), in
        journal order — the raw material of the per-node availability
        report in ``repro analyze``."""
        return [event for event in self.events if event.name in NODE_STATUS]

    def anomaly_events(self) -> "list[EventRecord]":
        """The in-flight detector firings (``anomaly`` events), in
        journal order. Each event's attrs carry the anomaly type under
        ``anomaly`` plus the detector's inputs; ``repro anomalies
        JOURNAL --check`` proves they re-derive exactly."""
        return self.events_named("anomaly")

    def anomaly_counts(self) -> "dict[str, int]":
        """Detector firings per anomaly type, in first-firing order."""
        return dict(
            Counter(
                str(event.attrs.get("anomaly") or "unknown")
                for event in self.anomaly_events()
            )
        )

    # -- accounting cross-checks -----------------------------------------

    def successful_jobs(self) -> "list[SpanNode]":
        return [job for job in self.jobs() if job.get("status") == "ok"]

    def failed_jobs(self) -> "list[SpanNode]":
        """Every job attempt that did not end ``ok`` (failed, or cut
        off by the end of the journal)."""
        return [job for job in self.jobs() if job.get("status") != "ok"]

    def failed_attempt_seconds(self) -> float:
        """Simulated seconds spent on failed job attempts: compute the
        runtime discards, recoverable only from the journal."""
        return sum(
            (
                float(job.get("simulated_seconds") or 0.0)
                for job in self.failed_jobs()
            ),
            0.0,
        )

    def restored_baselines(self) -> "list[EventRecord]":
        """``checkpoint_restore`` events carry the totals a resumed run
        inherited; replay accounting must add them back in."""
        return self.events_named("checkpoint_restore")

    def total_counters(self) -> Counters:
        """Counters the journal accounts for: every successful job's
        delta, plus any totals restored from a checkpoint.

        Failed attempts contribute nothing — exactly as the runtime
        discards a failed attempt's counters — so this must equal the
        run's final reported ``Counters``.
        """
        totals = Counters()
        for restore in self.restored_baselines():
            totals.merge(Counters.from_dict(restore.attrs.get("counters") or {}))
        for job in self.successful_jobs():
            totals.merge(job.counters())
        return totals

    def total_simulated_seconds(self) -> float:
        """Simulated seconds the journal accounts for (see above): the
        restored baselines plus the successful jobs."""
        return self.simulated_seconds


def replay_records(records: "list[dict]") -> RunReplay:
    """Fold a record list back into a :class:`RunReplay`."""
    replay = RunReplay(records=records)
    for record in records:
        replay.consume(record)
    return replay


def replay_journal(path: str) -> RunReplay:
    """Load and reconstruct the journal file at ``path``."""
    return replay_records(load_journal(path))
