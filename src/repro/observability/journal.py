"""The structured run journal: hierarchical spans over an append-only
JSON-lines event stream.

The cost model can say how long a chained G-means run *should* take;
the journal records what one run actually *did* — every job attempt
(including the retried ones), every map/shuffle/reduce phase, every
task, every fault-tolerance event (task failures, job retries, replica
failovers, checkpoint writes and restores) — as a flat sequence of
JSON-serialisable records that :mod:`repro.observability.replay` can
reconstruct into a span tree long after the run's Python objects are
gone.

Span hierarchy::

    run                 one algorithm fit (gmeans / xmeans / multi_kmeans)
    └── iteration       one algorithm round
        └── job         one MapReduce job *attempt* (retries are siblings)
            └── phase   map / reduce
                └── task    one map or reduce task (a single record)

Determinism contract
--------------------

Journal emission happens in the submitting process only, in the same
deterministic order on every backend, and never touches an RNG stream:

* results are byte-identical with the journal on or off;
* journals recorded on the ``serial`` and ``processes`` backends are
  identical *modulo wall-clock fields* — every
  nondeterministic value lives in a key starting with ``wall``, and
  :func:`canonical_records` strips exactly those keys.

The journal is off by default (a :class:`NullJournalSink` whose every
emission is a single early return); ``--journal PATH`` or
``$REPRO_JOURNAL`` opts a whole run in.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Iterable, Iterator, Protocol, runtime_checkable

#: Environment variable holding the journal file path (the CLI's
#: ``--journal`` flag writes it); unset or empty means journalling off.
JOURNAL_ENV = "REPRO_JOURNAL"

#: Record types emitted by :class:`Journal`.
SPAN_START = "span_start"
SPAN_END = "span_end"
TASK = "task"
EVENT = "event"

#: Span kinds, outermost first (see the module docstring).
RUN = "run"
ITERATION = "iteration"
JOB = "job"
PHASE = "phase"
SPAN_KINDS = (RUN, ITERATION, JOB, PHASE)


def _jsonable(value):
    """Coerce numpy scalars (and other oddballs) into plain JSON types."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (bytes, str)):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


@runtime_checkable
class JournalSink(Protocol):
    """Destination of journal records (strategy interface).

    ``enabled`` lets instrumentation skip building attribute dicts
    entirely when nobody is listening; ``emit`` receives one record
    dict per call, already fully formed.
    """

    enabled: bool

    def emit(self, record: dict) -> None:
        """Persist one journal record."""
        ...

    def close(self) -> None:
        """Flush and release sink resources."""
        ...


class NullJournalSink:
    """The off switch: drops everything, costs one attribute check."""

    enabled = False

    def emit(self, record: dict) -> None:  # pragma: no cover - never called
        pass

    def close(self) -> None:
        pass


class InMemoryJournalSink:
    """Buffers records in ``self.records`` (tests, ad-hoc inspection)."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class FileJournalSink:
    """Appends one JSON line per record to ``path``.

    The stream is flushed on every span and event boundary — task
    records, the bulk of the volume, ride along with their enclosing
    phase — so a run killed mid-chain leaves a journal valid up to the
    last phase that started, which is what makes a chaos run
    reconstructible post mortem (an OS-buffer flush per *task* would
    triple the journalling overhead for no added insight: replay marks
    a phase without its end record as interrupted either way).
    """

    enabled = True

    def __init__(self, path: str):
        self.path = str(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def emit(self, record: dict) -> None:
        # No sort_keys: records of one type are always built with the
        # same key order, so the output is deterministic without paying
        # a per-record sort.
        self._fh.write(
            json.dumps(record, separators=(",", ":"), default=_jsonable)
        )
        self._fh.write("\n")
        if record.get("type") != TASK:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


class _SpanHandle:
    """What ``Journal.span`` yields: collects the span-end attributes."""

    __slots__ = ("id", "attrs")

    def __init__(self, span_id: int):
        self.id = span_id
        self.attrs: dict = {}

    def set(self, **attrs) -> None:
        """Attach attributes to the span's end record."""
        self.attrs.update(attrs)


class _NoopHandle:
    """Shared stand-in handle when the journal is disabled."""

    __slots__ = ()
    id = -1

    def set(self, **attrs) -> None:
        pass


_NOOP_HANDLE = _NoopHandle()


class Journal:
    """The recorder: stamps, numbers and nests records onto a sink.

    One journal serves a whole run (runtime, drivers and algorithm all
    share the instance hanging off :class:`MapReduceRuntime`), so the
    sequence numbers give a total order over everything that happened.
    All emission happens from the submitting thread; the lock below
    only guards against *accidental* concurrent use (e.g. two runtimes
    sharing a file journal), it is not a concurrency feature.
    """

    def __init__(self, sink: "JournalSink | None" = None):
        self.sink = sink if sink is not None else NullJournalSink()
        self._seq = 0
        self._next_span = 0
        self._stack: list[int] = []
        # Re-entrant: the live anomaly watchdog emits its events from
        # *inside* sink.emit (while _emit holds the lock), so a firing
        # lands at the very next sequence number, nested right behind
        # the record that triggered it.
        self._lock = threading.RLock()

    @property
    def enabled(self) -> bool:
        """True when records actually go somewhere."""
        return self.sink.enabled

    # -- emission --------------------------------------------------------

    def _emit(self, record: dict) -> None:
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            self.sink.emit(record)

    def _current(self) -> "int | None":
        return self._stack[-1] if self._stack else None

    def start_span(self, kind: str, name: str, /, **attrs) -> int:
        """Open a span; returns its id (also pushed on the nesting stack)."""
        if not self.enabled:
            return -1
        span_id = self._next_span
        self._next_span += 1
        self._emit(
            {
                "type": SPAN_START,
                "span": span_id,
                "parent": self._current(),
                "kind": kind,
                "name": name,
                "attrs": attrs,
                "wall_time": time.time(),
            }
        )
        self._stack.append(span_id)
        return span_id

    def end_span(self, span_id: int, /, **attrs) -> None:
        """Close a span opened by :meth:`start_span`."""
        if not self.enabled:
            return
        if span_id in self._stack:
            # Pop through abandoned inner spans (an exception unwound
            # past them); the journal must never wedge the run.
            while self._stack and self._stack[-1] != span_id:
                self._stack.pop()
            self._stack.pop()
        self._emit(
            {
                "type": SPAN_END,
                "span": span_id,
                "attrs": attrs,
                "wall_time": time.time(),
            }
        )

    @contextmanager
    def span(self, kind: str, name: str, /, **attrs) -> Iterator["_SpanHandle"]:
        """Context manager around start/end; yields a handle whose
        ``set(**attrs)`` calls accumulate into the span-end record. An
        exception escaping the block stamps ``status: "error"`` (unless
        the instrumentation already set a status) and propagates."""
        if not self.enabled:
            yield _NOOP_HANDLE
            return
        handle = _SpanHandle(self.start_span(kind, name, **attrs))
        try:
            yield handle
        except BaseException as err:
            handle.attrs.setdefault("status", "error")
            handle.attrs.setdefault("error", type(err).__name__)
            raise
        finally:
            self.end_span(handle.id, **handle.attrs)

    def event(self, name: str, /, **attrs) -> None:
        """Record a point-in-time event under the current span."""
        if not self.enabled:
            return
        self._emit(
            {
                "type": EVENT,
                "name": name,
                "parent": self._current(),
                "attrs": attrs,
                "wall_time": time.time(),
            }
        )

    def task(
        self,
        task_id: str,
        index: int,
        sim_seconds: float,
        wall_seconds: float,
        cpu_seconds: "float | None" = None,
        peak_memory_bytes: "int | None" = None,
    ) -> None:
        """Record one executed task under the current (phase) span.

        ``cpu_seconds`` and ``peak_memory_bytes`` carry the opt-in
        profiling measurements (``--profile-tasks``); they travel under
        ``wall``-prefixed keys because they are host measurements, not
        simulation outputs — canonical journals stay byte-identical
        with profiling on or off.
        """
        if not self.enabled:
            return
        span_id = self._next_span
        self._next_span += 1
        record = {
            "type": TASK,
            "span": span_id,
            "parent": self._current(),
            "task_id": task_id,
            "index": index,
            "sim_seconds": sim_seconds,
            "wall_seconds": wall_seconds,
        }
        if cpu_seconds is not None:
            record["wall_cpu_seconds"] = cpu_seconds
        if peak_memory_bytes is not None:
            record["wall_peak_memory_bytes"] = peak_memory_bytes
        self._emit(record)

    def close(self) -> None:
        """Close the underlying sink."""
        self.sink.close()

    # -- construction ----------------------------------------------------

    @classmethod
    def from_env(cls, environ=None) -> "Journal":
        """The opt-in switch: a shared file journal when
        ``$REPRO_JOURNAL`` names a path, a disabled journal otherwise.

        File journals are shared per absolute path, so every runtime a
        run constructs appends to one record stream with one global
        sequence numbering.

        When SLO rules (``$REPRO_SLO``) or the anomaly detectors
        (``$REPRO_ANOMALY``) are requested the journal instead tees its
        records through a live
        :class:`~repro.observability.live.TelemetrySink` (imported
        lazily — :mod:`live` imports this module).
        """
        env = os.environ if environ is None else environ
        from repro.observability.live import telemetry_journal_from_env

        telemetry = telemetry_journal_from_env(env)
        if telemetry is not None:
            return telemetry
        path = (env.get(JOURNAL_ENV) or "").strip()
        if not path:
            return cls(NullJournalSink())
        return file_journal(path)


_FILE_JOURNALS: dict[str, Journal] = {}
_FILE_JOURNALS_LOCK = threading.Lock()


def file_journal(path: str) -> Journal:
    """Get-or-create the process-wide journal appending to ``path``."""
    key = os.path.abspath(path)
    with _FILE_JOURNALS_LOCK:
        journal = _FILE_JOURNALS.get(key)
        if journal is None:
            journal = Journal(FileJournalSink(key))
            _FILE_JOURNALS[key] = journal
        return journal


# -- canonical form ------------------------------------------------------


def canonical_record(record: dict) -> dict:
    """The record minus its wall-clock fields.

    Everything nondeterministic (real timestamps, per-task wall
    durations) lives in keys starting with ``wall``; what remains is
    identical across executor backends for the same seeded run.
    """
    return {
        key: value
        for key, value in record.items()
        if not key.startswith("wall")
    }


def canonical_records(records: Iterable[dict]) -> list[dict]:
    """Canonical form of a whole journal (see :func:`canonical_record`)."""
    return [canonical_record(record) for record in records]


def replace_journal(fresh: str, path: str) -> bool:
    """Move the journal at ``fresh`` to ``path``, unless both have equal
    :func:`canonical_records`: a re-recorded seeded run then differs
    only in wall-clock fields, so ``path`` is kept byte for byte and
    ``fresh`` deleted. Returns True when ``path`` was replaced."""
    if os.path.exists(path) and canonical_records(
        load_journal(path)
    ) == canonical_records(load_journal(fresh)):
        os.unlink(fresh)
        return False
    os.replace(fresh, path)
    return True


def load_journal(path: str, strict_tail: bool = True) -> list[dict]:
    """Read a JSON-lines journal file back into record dicts.

    A journal being written concurrently (``repro trace --follow``, a
    tailer racing the file sink) or a run killed mid-write (the chaos
    scenario) leaves a partial final line; that truncated tail is
    silently dropped — the journal is valid up to the last complete
    record, which is exactly what replay reconstructs and what the
    next poll of a tailer re-reads whole.

    ``strict_tail`` qualifies the tolerance: when the records *before*
    the partial line show every run span already ended, nothing more
    was legitimately being appended, so the truncated tail is real
    corruption and raises
    :class:`~repro.common.errors.JournalCorruptError` (pass
    ``strict_tail=False`` — as the live tailer does — to tolerate it
    regardless, e.g. between the runs of a multi-run journal still
    being written). A malformed record anywhere before the tail, or a
    line that is valid JSON but not an object, always raises.
    """
    from repro.common.errors import JournalCorruptError

    # Read bytes and decode tolerantly: a tailer can catch the writer
    # mid-record — including mid multi-byte character, where a strict
    # text-mode read would raise UnicodeDecodeError before the tail
    # tolerance below ever ran. Replacement characters make such a tail
    # undecodable JSON, which is exactly the truncated-line case.
    with open(path, "rb") as fh:
        lines = fh.read().decode("utf-8", errors="replace").split("\n")
    records: list[dict] = []
    open_run_ids: set = set()
    saw_run = False
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if any(rest.strip() for rest in lines[lineno:]):
                raise JournalCorruptError(path, lineno, str(exc)) from exc
            # Truncated final record. Mid-run (some run span still
            # open, or no run started yet) this is a concurrent writer
            # caught mid-line: tolerated. After the last run_end there
            # is no legitimate writer left, so it is corruption.
            if strict_tail and saw_run and not open_run_ids:
                raise JournalCorruptError(
                    path,
                    lineno,
                    "truncated record after the final run_end: "
                    + str(exc),
                ) from exc
            break
        if not isinstance(record, dict):
            raise JournalCorruptError(
                path, lineno, f"expected a JSON object, got {type(record).__name__}"
            )
        if record.get("type") == SPAN_START and record.get("kind") == RUN:
            saw_run = True
            open_run_ids.add(record.get("span"))
        elif record.get("type") == SPAN_END:
            open_run_ids.discard(record.get("span"))
        records.append(record)
    return records
