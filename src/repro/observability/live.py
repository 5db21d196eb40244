"""Live run telemetry: consume the journal stream *while it happens*.

PR 3's journal and PR 4's analytics are post-hoc — you learn a run
doubled k past budget or stalled on a straggler only after it ends.
This module tees the same record stream into an in-process aggregator
as it is emitted, so an in-flight run can be watched, scraped and
guarded:

* :class:`TelemetrySink` — a journal sink that forwards every record
  to an inner sink (file or null) *and* folds it into a
  :class:`LiveRunState`, then lets a renderer, an SLO watchdog and ad
  hoc listeners react;
* :class:`LiveRunState` — the live view: it feeds the run's one
  :class:`~repro.observability.replay.RunReplay` model and derives
  from it the current iteration and k-trajectory, counter totals,
  fault-event counts, heap high-water fraction and a
  cost-model-flavoured ETA, adding the sub-phase task progress and
  SLO breaches the journal does not carry;
* :class:`LiveRenderer` — a ``--live`` TTY progress view (bars +
  rolling counters, repainted in place), degrading to one plain
  status line per iteration on non-TTY streams;
* :class:`MetricsServer` — an opt-in ``--metrics-port`` HTTP thread
  serving ``/metrics`` (Prometheus text of the live counters),
  ``/healthz`` and a JSON ``/state`` snapshot, so a run can be
  scraped mid-flight;
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

import json
import os
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.mapreduce.counters import Counters
from repro.observability.journal import (
    ITERATION,
    JOB,
    JOURNAL_ENV,
    PHASE,
    RUN,
    SPAN_END,
    SPAN_START,
    TASK,
    FileJournalSink,
    Journal,
    JournalSink,
    NullJournalSink,
    load_journal,
)
from repro.observability.metrics import render_prometheus
from repro.observability.replay import NODE_STATUS, RunReplay, SpanNode

#: Environment variables wired to the CLI's live-telemetry flags.
LIVE_ENV = "REPRO_LIVE"
METRICS_PORT_ENV = "REPRO_METRICS_PORT"


class LiveRunState:
    """The in-process view of a run's journal stream so far.

    :meth:`consume` folds each record the :class:`TelemetrySink` emits
    into :attr:`model` — the same incremental
    :class:`~repro.observability.replay.RunReplay` that ``repro trace``
    builds offline and the anomaly detectors read — and every run-level
    view below is derived from it. The state itself keeps only what the
    journal cannot say: the executor's sub-phase progress ticks
    (:meth:`progress`; task *records* are journalled only after a phase
    completes), SLO breaches, and wall time. All access happens under
    one lock, so the metrics-server thread can snapshot safely mid-run.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.model = RunReplay()
        self.phase_name: "str | None" = None
        self.phase_tasks_total: int = 0
        self.phase_tasks_done: int = 0
        # SLO breaches land here (the watchdog appends); part of /state.
        self.breaches: list[dict] = []

    # -- ingestion -------------------------------------------------------

    def consume(self, record: dict) -> None:
        """Fold one journal record into the model and the progress bar."""
        with self._lock:
            self.model.consume(record)
            rtype = record.get("type")
            if rtype == SPAN_START and record.get("kind") == PHASE:
                self.phase_name = record.get("name")
                self.phase_tasks_total = int(
                    (record.get("attrs") or {}).get("tasks") or 0
                )
                self.phase_tasks_done = 0
            elif rtype == SPAN_END and self.kind_of(record.get("span")) == PHASE:
                self.phase_tasks_done = self.phase_tasks_total
            elif rtype == TASK and self.kind_of(record.get("parent")) == PHASE:
                self.phase_tasks_done = min(
                    self.phase_tasks_total or self.phase_tasks_done + 1,
                    self.phase_tasks_done + 1,
                )

    def progress(self, phase: str, done: int, total: int) -> None:
        """Task-completion tick from the runtime (sub-phase granularity)."""
        with self._lock:
            self.phase_name = phase
            self.phase_tasks_total = int(total)
            self.phase_tasks_done = max(self.phase_tasks_done, int(done))

    def kind_of(self, span) -> "str | None":
        """The kind of span ``span`` (``None`` if it never started)."""
        node = self.model.spans.get(span)
        return node.kind if node is not None else None

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
    def run_name(self) -> "str | None":
        run = self.model.latest(RUN)
        return run.name if run is not None else None

    @property
    def run_status(self) -> "str | None":
        run = self.model.latest(RUN)
        if run is None or run.end is None:
            return None if run is None else "running"
        return str(run.end.get("status") or "ok")

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
    def iterations_done(self) -> int:
        return len(_ended(self.model.iterations()))

    @property
    def last_iteration(self) -> dict:
        iterations = self.model.iterations()
        for index in range(len(iterations) - 1, -1, -1):
            attrs = iterations[index].end
            if attrs is not None:
                return {
                    "iteration": _iteration_number(iterations[: index + 1]),
                    "k_before": iterations[index].attrs.get("k_before"),
                    "k_after": attrs.get("k_after"),
                    "clusters_split": attrs.get("clusters_split"),
                    "strategy": attrs.get("strategy"),
                    "degraded": bool(attrs.get("degraded")),
                    "simulated_seconds": attrs.get("simulated_seconds"),
                }
        return {}

    @property
    def jobs_failed(self) -> int:
        jobs = _ended(self.model.jobs())
        return sum(1 for job in jobs if job.end.get("status") == "failed")

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
        """Detector firings per anomaly type — what the panel badge,
        /state and the SLO ``on_anomaly`` rules read."""
        return self.model.anomaly_counts()

    # -- derived views ---------------------------------------------------

    def wall_seconds(self, now: "float | None" = None) -> float:
        """Real seconds since the run span opened (0 before it does)."""
        with self._lock:
            run = self.model.latest(RUN)
            if run is None or run.wall_start is None:
                return 0.0
            now = now if now is not None else time.time()
            return max(0.0, now - run.wall_start)

    def eta_simulated_seconds(self) -> float:
        """Crude cost-model ETA for the *next* round of work.

        G-means iterations cost roughly linearly in k (the cost model's
        per-point terms dominate), so while clusters keep splitting the
        next round is estimated as the last round's simulated seconds
        scaled by the k growth factor; once an iteration splits nothing
        the chain is about to terminate and the ETA is zero. A
        heuristic, not a promise — shown as ``~eta``.
        """
        with self._lock:
            last = self.last_iteration
            if not last or self.run_status not in (None, "running"):
                return 0.0
            if not last.get("clusters_split"):
                return 0.0
            seconds = float(last.get("simulated_seconds") or 0.0)
            k_before = int(last.get("k_before") or 1) or 1
            k_after = int(last.get("k_after") or k_before)
            return seconds * (k_after / k_before)

    def counters_copy(self) -> Counters:
        """Thread-safe copy of the accounted counter totals so far."""
        with self._lock:
            return self.counters.copy()

    def live_gauges(self, now: "float | None" = None) -> dict[str, float]:
        """Run-level gauges for the Prometheus endpoint, read off
        :meth:`snapshot`.

        All names live under the ``live_`` prefix, which no counter
        group uses — the telemetry endpoint can therefore never collide
        with a journal-derived ``repro_<group>_<name>`` counter.
        """
        snap = self.snapshot(now)
        gauges = {f"live_{key}": float(snap[key] or 0) for key in _GAUGE_KEYS}
        gauges["live_slo_breaches"] = float(len(snap["slo_breaches"]))
        gauges["live_anomalies"] = float(len(snap["anomalies"]))
        gauges["live_run_complete"] = float(
            snap["run_status"] not in ("pending", "running")
        )
        for kind, count in snap["anomaly_counts"].items():
            gauges[f"live_anomalies_{kind}"] = float(count)
        health = snap.get("node_health")
        if health:
            statuses = list(health["nodes"].values())
            gauges["live_nodes_dead"] = float(statuses.count("dead"))
            gauges["live_nodes_blacklisted"] = float(statuses.count("blacklisted"))
            for key in ("total_map_slots", "total_reduce_slots"):
                if key in health["capacity"]:
                    gauges[f"live_{key}"] = float(health["capacity"][key])
        return gauges

    def snapshot(self, now: "float | None" = None) -> dict:
        """JSON-ready view of the whole run so far (the ``/state`` body)."""
        with self._lock:
            model = self.model
            run = model.latest(RUN)
            job = model.latest(JOB)
            snap = {
                "run": self.run_name,
                "run_status": self.run_status or "pending",
                "run_attrs": dict(run.attrs) if run is not None else {},
                "iteration": _iteration_number(model.iterations()),
                "iterations_done": self.iterations_done,
                "k": self.k_current,
                "k_trajectory": self.k_trajectory,
                "last_iteration": self.last_iteration,
                "job": job.name if job is not None else None,
                "job_attempt": job.attrs.get("attempt") if job is not None else None,
                "jobs_ok": self.jobs_ok,
                "jobs_failed": self.jobs_failed,
                "phase": self.phase_name,
                "phase_tasks_done": self.phase_tasks_done,
                "phase_tasks_total": self.phase_tasks_total,
                "simulated_seconds": self.simulated_seconds,
                "max_heap_fraction": self.max_heap_fraction,
                "job_retries": self.job_retries,
                "events": dict(Counter(event.name for event in model.events)),
                "counters": self.counters.as_dict(),
                "slo_breaches": [dict(b) for b in self.breaches],
                "anomalies": [dict(e.attrs) for e in model.anomaly_events()],
                "anomaly_counts": self.anomaly_counts,
            }
            nodes: dict[int, str] = {}
            for event in model.node_events():
                attrs = event.attrs
                if attrs.get("node") is not None:
                    nodes[int(attrs["node"])] = NODE_STATUS[event.name]
                keys = ("schedulable_nodes", "total_map_slots", "total_reduce_slots")
                capacity = {key: attrs[key] for key in keys if key in attrs}
            if nodes:
                snap["node_health"] = {
                    "nodes": {str(node): nodes[node] for node in sorted(nodes)},
                    "capacity": capacity,
                }
            snap["wall_seconds"] = self.wall_seconds(now)
            snap["eta_simulated_seconds"] = self.eta_simulated_seconds()
        return snap


#: Snapshot fields exported one-for-one as ``live_<field>`` gauges.
_GAUGE_KEYS = (
    "iteration", "iterations_done", "k", "phase_tasks_done",
    "phase_tasks_total", "jobs_ok", "jobs_failed", "job_retries",
    "simulated_seconds", "max_heap_fraction", "eta_simulated_seconds",
    "wall_seconds",
)


def _ended(spans: "list[SpanNode]") -> "list[SpanNode]":
    return [span for span in spans if span.end is not None]


def _iteration_number(iterations: "list[SpanNode]") -> int:
    """The number of the last of ``iterations``: its own ``iteration``
    attr, else one more than the one before it."""
    after = 0
    for iteration in reversed(iterations):
        if iteration.attrs.get("iteration"):
            return int(iteration.attrs["iteration"]) + after
        after += 1
    return after


class TelemetrySink:
    """A journal sink that tees records into live telemetry.

    Every record goes to ``inner`` first (the durable journal — a
    :class:`FileJournalSink`, or a null sink when the run wants live
    telemetry without a journal file), then into the
    :class:`LiveRunState`, then past the optional anomaly detectors,
    SLO watchdog, renderer and listeners. Apart from the anomaly
    watchdog's deterministic firings, telemetry consumers never emit
    records of their own, so the journal a telemetry run writes is
    byte-identical to the one a plain run writes plus exactly the
    anomaly events the detectors derive.
    """

    enabled = True

    def __init__(
        self,
        inner: "JournalSink | None" = None,
        state: "LiveRunState | None" = None,
        watchdog=None,
        renderer: "LiveRenderer | None" = None,
        server: "MetricsServer | None" = None,
        listeners=(),
        anomaly=None,
    ):
        self.inner = inner if inner is not None else NullJournalSink()
        self.state = state if state is not None else LiveRunState()
        self.watchdog = watchdog
        self.renderer = renderer
        self.server = server
        self.listeners = list(listeners)
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
        if self.renderer is not None:
            self.renderer.update(self.state, record)
        for listener in self.listeners:
            listener(record, self.state)

    def task_progress(self, phase: str, done: int, total: int) -> None:
        """Sub-phase completion tick (called by the runtime's executors)."""
        self.state.progress(phase, done, total)
        if self.renderer is not None:
            self.renderer.update(self.state, None)

    def close(self) -> None:
        if self.renderer is not None:
            self.renderer.finish(self.state)
        self.inner.close()
        _forget_telemetry_journal(self)


# -- TTY progress rendering ----------------------------------------------


class LiveRenderer:
    """Renders :class:`LiveRunState` to a terminal as the run advances.

    On a TTY the status block is repainted in place (cursor-up + clear)
    and throttled to ``min_interval`` seconds, except on iteration and
    run boundaries which always paint. On a non-TTY stream (CI logs,
    pipes) it degrades to one plain status line per iteration — no
    ANSI, no repaint, no flooding.
    """

    def __init__(
        self,
        stream=None,
        min_interval: float = 0.1,
        clock=time.monotonic,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = float(min_interval)
        self._clock = clock
        self._last_paint = float("-inf")
        self._painted_lines = 0
        self._isatty = bool(getattr(self.stream, "isatty", lambda: False)())

    def update(self, state: LiveRunState, record: "dict | None") -> None:
        boundary = record is not None and (
            record.get("type") == SPAN_END or record.get("type") == SPAN_START
        )
        if self._isatty:
            now = self._clock()
            if not boundary and now - self._last_paint < self.min_interval:
                return
            self._last_paint = now
            self._paint(state)
        elif record is not None and record.get("type") == SPAN_END:
            # One line per closed iteration (and the run close) only.
            from repro.observability.render import render_live_line

            if state.kind_of(record.get("span")) in (ITERATION, RUN):
                self.stream.write(render_live_line(state.snapshot()) + "\n")
                self.stream.flush()

    def finish(self, state: LiveRunState) -> None:
        """Final paint + newline so the shell prompt lands cleanly."""
        if self._isatty:
            self._paint(state)
            self.stream.write("\n")
            self.stream.flush()

    def _paint(self, state: LiveRunState) -> None:
        from repro.observability.render import render_live_status

        text = render_live_status(state.snapshot())
        lines = text.split("\n")
        if self._painted_lines:
            # Move to the top of the previous block and clear downward.
            self.stream.write(f"\x1b[{self._painted_lines}F\x1b[J")
        self.stream.write("\n".join(lines) + "\n")
        self.stream.flush()
        self._painted_lines = len(lines)


# -- HTTP metrics endpoint -----------------------------------------------


class MetricsServer:
    """Opt-in HTTP endpoint over a :class:`LiveRunState`.

    A stdlib :class:`ThreadingHTTPServer` on a daemon thread; routes:

    * ``/metrics`` — Prometheus text: the accounted counter totals so
      far plus the ``live_*`` gauges (scrape an in-flight run);
    * ``/healthz`` — liveness (200 ``ok``);
    * ``/state`` — the full JSON snapshot.

    ``port=0`` binds an ephemeral port (tests); the bound port is in
    ``self.port``.
    """

    def __init__(self, state: LiveRunState, port: int = 0, host: str = "127.0.0.1"):
        self.state = state
        metrics_server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # pragma: no cover - quiet
                pass

            def do_GET(self) -> None:
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = metrics_server.render_metrics().encode("utf-8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif path == "/healthz":
                    body, ctype = b"ok\n", "text/plain; charset=utf-8"
                elif path == "/state":
                    body = (
                        json.dumps(metrics_server.state.snapshot(), default=str)
                        + "\n"
                    ).encode("utf-8")
                    ctype = "application/json"
                else:
                    self.send_error(404, "unknown path")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._server = ThreadingHTTPServer((host, int(port)), Handler)
        self.host = host
        self.port = int(self._server.server_address[1])
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def render_metrics(self) -> str:
        """The ``/metrics`` body (also handy for tests)."""
        return render_prometheus(
            self.state.counters_copy(), extra=self.state.live_gauges()
        )

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)


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
    """True when any live-telemetry environment switch is set."""
    from repro.observability.anomaly import ANOMALY_ENV, parse_anomaly_spec
    from repro.observability.profiling import env_flag
    from repro.observability.slo import SLO_ENV

    return bool(
        env_flag(env.get(LIVE_ENV))
        or (env.get(METRICS_PORT_ENV) or "").strip()
        or (env.get(SLO_ENV) or "").strip()
        or parse_anomaly_spec(env.get(ANOMALY_ENV)) is not None
    )

def telemetry_journal_from_env(env) -> "Journal | None":
    """The live-telemetry counterpart of :func:`~repro.observability.journal.file_journal`.

    Returns ``None`` when no live switch (``$REPRO_LIVE``,
    ``$REPRO_METRICS_PORT``, ``$REPRO_SLO``, ``$REPRO_ANOMALY``) is set
    — the caller falls back to plain journalling. Otherwise builds
    (once per configuration, shared process-wide so every runtime a run
    constructs feeds one aggregate) a journal whose sink tees into a
    fresh :class:`LiveRunState` with the requested renderer, metrics
    server, SLO watchdog and anomaly detectors attached. The metrics
    endpoint's bound address is announced on stderr once.
    """
    from repro.observability.anomaly import (
        ANOMALY_ENV,
        AnomalyWatchdog,
        parse_anomaly_spec,
    )
    from repro.observability.profiling import env_flag
    from repro.observability.slo import SLO_ENV, SLOWatchdog, parse_slo_rules

    if not telemetry_requested(env):
        return None
    path = (env.get(JOURNAL_ENV) or "").strip()
    live = env_flag(env.get(LIVE_ENV))
    port = (env.get(METRICS_PORT_ENV) or "").strip()
    slo_spec = (env.get(SLO_ENV) or "").strip()
    anomaly_spec = (env.get(ANOMALY_ENV) or "").strip()
    key = (
        os.path.abspath(path) if path else "",
        live,
        port,
        slo_spec,
        anomaly_spec,
    )
    with _TELEMETRY_LOCK:
        journal = _TELEMETRY_JOURNALS.get(key)
        if journal is not None:
            return journal
        inner = FileJournalSink(key[0]) if path else NullJournalSink()
        state = LiveRunState()
        watchdog = SLOWatchdog(parse_slo_rules(slo_spec)) if slo_spec else None
        renderer = LiveRenderer() if live else None
        server = MetricsServer(state, port=int(port)) if port else None
        if server is not None:
            print(
                f"[repro] live metrics endpoint on {server.url} "
                "(/metrics /healthz /state)",
                file=sys.stderr,
            )
        journal = Journal(
            TelemetrySink(
                inner,
                state=state,
                watchdog=watchdog,
                renderer=renderer,
                server=server,
            )
        )
        anomaly_config = parse_anomaly_spec(anomaly_spec)
        if anomaly_config is not None:
            # Bound after construction: the watchdog emits back through
            # the journal it observes.
            journal.sink.anomaly = AnomalyWatchdog(journal, anomaly_config)
        _TELEMETRY_JOURNALS[key] = journal
        return journal
