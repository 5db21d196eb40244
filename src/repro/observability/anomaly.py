"""In-flight anomaly detection: deterministic run-health watchdogs.

Every detector in the repo so far — ``repro analyze``'s skew and heap
audits, the critical-path and what-if layers — runs post hoc on a
finished journal: a heap breach or a straggler collapse is explained
only after the run has died. This module runs the same deterministic
math *online*, against the journal record stream as the
:class:`~repro.observability.live.TelemetrySink` tees it past, and
journals each finding as a typed ``anomaly`` event the moment its
inputs exist:

* ``straggler_onset`` — per-phase task-duration statistics (the exact
  :class:`~repro.observability.analyze.DurationStats` math) crossing a
  max/p50 ratio threshold;
* ``skew_drift`` — reduce-bucket record imbalance drifting past a
  multiple of the *run's own* first-seen baseline for the same job
  family;
* ``heap_breach_predicted`` — the paper's Figure-2 reducer-heap model
  projected forward: scale the family's last observed per-key heap
  high-water by the just-finished map phase's output growth, and fire
  *before the reduce phase runs* when the projection exceeds the
  usable heap the latest Section-3.2 ``strategy_decision`` recorded;
* ``cost_model_drift`` — the journalled per-phase seconds diverging
  from the cost model's LPT/shuffle predictions (the ``repro analyze``
  residual math) by more than a relative threshold;
* ``fault_storm`` — fault-tolerance events (retries, lost blocks and
  nodes, failovers) clustering inside one simulated-time window.

Determinism contract
--------------------

Detector inputs are simulated quantities only — task ``sim_seconds``,
counters, span attributes, the simulated clock — never wall time, so
journals recorded with detectors enabled stay byte-identical across
the executor-backend × data-plane matrix. Emission rides the journal's
own re-entrant sequence numbering: an anomaly fired while record *n*
is being sunk lands at sequence *n+1*, immediately after its trigger,
with the parent span the journal's nesting stack held at that instant
(for a phase ``span_end`` trigger that is the enclosing job — which is
how a heap-breach prediction lands *between* map and reduce).

Because every input and the emission discipline are deterministic,
re-running the detectors over a finished journal must re-derive every
live-emitted event exactly — sequence numbers, parents, attributes.
:func:`reconcile_anomalies` enforces that invariant (the CLI's
``repro anomalies JOURNAL --check``), making anomaly events part of
the repo's exact-accounting contract rather than advisory log lines.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, fields

from repro.common.errors import ConfigurationError
from repro.mapreduce.costmodel import CostParameters
from repro.observability.analyze import DurationStats, _job_residual
from repro.observability.journal import (
    EVENT,
    JOB,
    PHASE,
    SPAN_END,
    SPAN_START,
    canonical_record,
)
from repro.observability.replay import RunReplay, SpanNode

#: Environment variable carrying the anomaly-detector spec (the CLI's
#: ``--anomaly`` flag writes it); unset/empty/off means detectors off.
ANOMALY_ENV = "REPRO_ANOMALY"

#: Journal event names the watchdog emits.
ANOMALY = "anomaly"
ANOMALY_CONFIG = "anomaly_config"

#: Anomaly types, in the order the detectors evaluate.
STRAGGLER_ONSET = "straggler_onset"
SKEW_DRIFT = "skew_drift"
HEAP_BREACH_PREDICTED = "heap_breach_predicted"
COST_MODEL_DRIFT = "cost_model_drift"
FAULT_STORM = "fault_storm"
ANOMALY_TYPES = (
    STRAGGLER_ONSET,
    SKEW_DRIFT,
    HEAP_BREACH_PREDICTED,
    COST_MODEL_DRIFT,
    FAULT_STORM,
)

#: Fault-tolerance event names that count toward a fault storm. All are
#: journalled from simulated fault draws, so storm windows are as
#: deterministic as everything else.
FAULT_STORM_EVENTS = (
    "job_retry",
    "task_attempt_failures",
    "blocks_lost",
    "replica_failover",
    "node_lost",
    "tasks_rescheduled",
)

_SPEC_ON = ("1", "true", "yes", "on")
_SPEC_OFF = ("", "0", "false", "no", "off")

#: Job names carry their iteration suffix (``TestClusters-i3``,
#: ``KMeans-i2s1``); the family is the name with that suffix stripped,
#: so baselines learned in one iteration apply to the next.
_FAMILY_SUFFIX = re.compile(r"-i\d+(s\d+)?$")


def job_family(name: str) -> str:
    """The job name minus its per-iteration suffix."""
    return _FAMILY_SUFFIX.sub("", name or "")


@dataclass(frozen=True)
class AnomalyConfig:
    """Detector thresholds (all comparisons are strict ``>``).

    The defaults are deliberately conservative — a clean seeded run
    fires nothing — and every knob is overridable from the ``--anomaly``
    spec so chaos demos and tests can arm tighter trip-wires.
    """

    #: Fire ``straggler_onset`` when a phase's max/p50 task-duration
    #: ratio exceeds this (analyze's ``straggler_ratio``), given at
    #: least ``straggler_min_tasks`` tasks to make the p50 meaningful.
    straggler_ratio: float = 4.0
    straggler_min_tasks: int = 4
    #: Fire ``skew_drift`` when a reduce phase's bucket-record
    #: imbalance (max/mean) exceeds this multiple of the first
    #: imbalance seen for the same job family.
    skew_factor: float = 2.0
    #: Fire ``heap_breach_predicted`` when the projected per-key
    #: reducer heap exceeds this fraction of the strategy layer's
    #: usable heap.
    heap_fraction: float = 1.0
    #: Fire ``cost_model_drift`` when |recorded - predicted| / recorded
    #: for a phase exceeds this.
    residual_threshold: float = 0.25
    #: Fire ``fault_storm`` when at least ``storm_events`` fault events
    #: land inside one ``storm_window_seconds`` window of simulated time.
    storm_window_seconds: float = 60.0
    storm_events: int = 8

    def __post_init__(self) -> None:
        for name in (
            "straggler_ratio",
            "skew_factor",
            "heap_fraction",
            "residual_threshold",
            "storm_window_seconds",
        ):
            if not getattr(self, name) > 0:
                raise ConfigurationError(
                    f"anomaly threshold {name} must be positive, "
                    f"got {getattr(self, name)!r}"
                )
        for name in ("straggler_min_tasks", "storm_events"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"anomaly threshold {name} must be at least 1, "
                    f"got {getattr(self, name)!r}"
                )

    def as_dict(self) -> dict:
        """JSON-ready thresholds (the ``anomaly_config`` event attrs)."""
        return {
            field.name: getattr(self, field.name) for field in fields(self)
        }

    @classmethod
    def from_dict(cls, attrs: dict) -> "AnomalyConfig":
        """Rebuild a config from journalled ``anomaly_config`` attrs.

        Unknown keys are ignored (a newer journal read by older code
        still reconciles the detectors both sides know about).
        """
        known = {field.name: field.type for field in fields(cls)}
        kwargs = {}
        for key, value in (attrs or {}).items():
            if key not in known:
                continue
            kwargs[key] = (
                int(value) if key in ("straggler_min_tasks", "storm_events")
                else float(value)
            )
        return cls(**kwargs)


def parse_anomaly_spec(spec: "str | None") -> "AnomalyConfig | None":
    """Parse a ``--anomaly`` / ``$REPRO_ANOMALY`` spec.

    ``""``/``"off"``/``"0"`` → ``None`` (detectors off); ``"1"``/``"on"``
    → defaults; otherwise a comma-separated ``knob=value`` list over
    the :class:`AnomalyConfig` fields, e.g.
    ``"straggler_ratio=1.5,storm_events=3"``.
    """
    text = (spec or "").strip().lower()
    if text in _SPEC_OFF:
        return None
    if text in _SPEC_ON:
        return AnomalyConfig()
    known = {field.name for field in fields(AnomalyConfig)}
    overrides: dict = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigurationError(
                f"anomaly spec chunk {chunk!r} is not of the form knob=value"
            )
        name, _, raw = chunk.partition("=")
        name = name.strip()
        if name not in known:
            raise ConfigurationError(
                f"unknown anomaly knob {name!r}; choose from "
                + ", ".join(sorted(known))
            )
        if name in overrides:
            raise ConfigurationError(f"duplicate anomaly knob {name!r}")
        try:
            value = (
                int(raw.strip())
                if name in ("straggler_min_tasks", "storm_events")
                else float(raw.strip())
            )
        except ValueError:
            raise ConfigurationError(
                f"anomaly knob {name} has a non-numeric value {raw.strip()!r}"
            ) from None
        overrides[name] = value
    return AnomalyConfig(**overrides)


class AnomalyDetectors:
    """The pure detection engine: journal records in, firings out.

    :meth:`consume` returns the anomaly attribute dicts one record
    triggers, in evaluation order. Span kinds, names, parents, tasks,
    slots, end attributes and the simulated clock all come from
    ``model``, the run's :class:`~repro.observability.replay.RunReplay`:
    the live :class:`AnomalyWatchdog` shares the telemetry sink's, which
    the sink has already advanced; built without one, the engine folds
    each record into a fresh model of its own. It emits nothing itself,
    which is what makes ``repro anomalies --check`` an exact
    re-derivation rather than a best-effort comparison.
    """

    def __init__(
        self,
        config: "AnomalyConfig | None" = None,
        model: "RunReplay | None" = None,
    ):
        self.config = config if config is not None else AnomalyConfig()
        self.model = model if model is not None else RunReplay()
        self._feeds_model = model is None
        self._params = CostParameters()
        self._heap_baseline: dict = {}
        self._skew_baseline: dict = {}
        self._skew_fired: set = set()
        self._storm_counts: dict = {}

    # -- ingestion -------------------------------------------------------

    def consume(self, record: dict) -> "list[dict]":
        """Fold one journal record in; return the anomalies it fires."""
        if self._feeds_model:
            self.model.consume(record)
        rtype = record.get("type")
        if rtype == SPAN_END:
            node = self.model.spans.get(record.get("span"))
            if node is not None and node.kind == PHASE:
                return self._on_phase_end(node)
            if node is not None and node.kind == JOB and node.end.get("status") == "ok":
                return self._on_job_ok(node)
        elif rtype == EVENT and record.get("name") in FAULT_STORM_EVENTS:
            return self._on_fault_event(record.get("name"))
        return []

    # -- detectors -------------------------------------------------------

    def _on_fault_event(self, name: str) -> "list[dict]":
        # (5) fault storm: a window of the run's simulated clock fires
        # once, when its fault-event count reaches the threshold.
        cfg = self.config
        clock = self.model.simulated_seconds
        window = int(clock // cfg.storm_window_seconds)
        count = self._storm_counts.get(window, 0) + 1
        self._storm_counts[window] = count
        if count != cfg.storm_events:
            return []
        return [
            {
                "anomaly": FAULT_STORM,
                "window": window,
                "window_seconds": cfg.storm_window_seconds,
                "events": count,
                "threshold": cfg.storm_events,
                "simulated_seconds": clock,
                "trigger": name,
            }
        ]

    def _usable_heap(self) -> "int | None":
        """The usable heap the latest Section-3.2 decision recorded."""
        for event in reversed(self.model.events_named("strategy_decision")):
            if event.attrs.get("usable_heap_bytes") is not None:
                return int(event.attrs["usable_heap_bytes"])
        return None

    def _on_phase_end(self, node: SpanNode) -> "list[dict]":
        cfg = self.config
        attrs = node.end
        job = node.parent
        job_name = job.name if job is not None else ""
        family = job_family(job_name)
        firings: list[dict] = []
        # (1) straggler onset: analyze.DurationStats over the phase's
        # journalled task durations, the instant the phase closes.
        seconds = [task.sim_seconds for task in node.tasks]
        if len(seconds) >= cfg.straggler_min_tasks:
            stats = DurationStats.from_seconds(seconds)
            if stats is not None and stats.straggler_ratio > cfg.straggler_ratio:
                firings.append(
                    {
                        "anomaly": STRAGGLER_ONSET,
                        "job": job_name,
                        "phase": node.name,
                        "tasks": stats.count,
                        "p50_seconds": stats.p50_seconds,
                        "p95_seconds": stats.p95_seconds,
                        "max_seconds": stats.max_seconds,
                        "straggler_ratio": stats.straggler_ratio,
                        "threshold": cfg.straggler_ratio,
                    }
                )
        if node.name == "map":
            records_out = attrs.get("map_output_records")
            if records_out is not None:
                records_out = int(records_out)
                # (3) Figure-2 heap breach, predicted *before* the
                # reduce phase: project the family's last observed
                # per-key heap high-water by this map phase's output
                # growth and compare against the usable heap the
                # strategy decision recorded.
                baseline = self._heap_baseline.get(family)
                usable = self._usable_heap()
                if baseline and usable and baseline[0] > 0:
                    base_records, base_heap = baseline
                    projected = base_heap * (records_out / base_records)
                    limit = cfg.heap_fraction * usable
                    if projected > limit:
                        firings.append(
                            {
                                "anomaly": HEAP_BREACH_PREDICTED,
                                "job": job_name,
                                "family": family,
                                "map_output_records": records_out,
                                "baseline_map_output_records": base_records,
                                "baseline_max_key_heap_bytes": base_heap,
                                "projected_heap_bytes": projected,
                                "usable_heap_bytes": usable,
                                "heap_fraction": cfg.heap_fraction,
                            }
                        )
        elif node.name == "reduce":
            bucket_records = attrs.get("bucket_records")
            if bucket_records:
                total = 0
                for count in bucket_records:
                    total += int(count)
                if total > 0:
                    # (2) skew drift vs the run's own baseline: max/mean
                    # bucket imbalance, first occurrence per family sets
                    # the bar.
                    imbalance = (
                        max(int(c) for c in bucket_records)
                        * len(bucket_records)
                        / total
                    )
                    baseline = self._skew_baseline.get(family)
                    if baseline is None:
                        self._skew_baseline[family] = imbalance
                    elif (
                        family not in self._skew_fired
                        and baseline > 0
                        and imbalance > cfg.skew_factor * baseline
                    ):
                        self._skew_fired.add(family)
                        firings.append(
                            {
                                "anomaly": SKEW_DRIFT,
                                "job": job_name,
                                "family": family,
                                "imbalance": imbalance,
                                "baseline_imbalance": baseline,
                                "drift": imbalance / baseline,
                                "threshold": cfg.skew_factor,
                            }
                        )
            max_heap = attrs.get("max_key_heap_bytes")
            map_records = _map_output_records(job)
            if max_heap and map_records:
                self._heap_baseline[family] = (map_records, int(max_heap))
        return firings

    def _on_job_ok(self, node: SpanNode) -> "list[dict]":
        # (4) cost-model residual drift: ``repro analyze``'s residuals
        # at job close, over the relative threshold.
        cfg = self.config
        residual = _job_residual(node, self._params)
        firings: list[dict] = []
        for phase in residual.phases if residual is not None else ():
            if phase.recorded_seconds <= 0:
                continue
            # analyze's residual is predicted - recorded; the event
            # keeps recorded - predicted.
            relative = -phase.relative_residual
            if abs(relative) > cfg.residual_threshold:
                firings.append(
                    {
                        "anomaly": COST_MODEL_DRIFT,
                        "job": node.name,
                        "phase": phase.phase,
                        "predicted_seconds": phase.predicted_seconds,
                        "recorded_seconds": phase.recorded_seconds,
                        "residual": relative,
                        "threshold": cfg.residual_threshold,
                    }
                )
        return firings


def _map_output_records(job: "SpanNode | None") -> "int | None":
    """The map-output volume the job's map phase journalled, if any."""
    for child in reversed(job.children if job is not None else []):
        if child.kind == PHASE and child.get("map_output_records") is not None:
            return int(child.get("map_output_records"))
    return None


class AnomalyWatchdog:
    """The live half: observes the telemetry tee, emits journal events.

    Bound to the journal whose sink feeds it, so each firing is
    emitted back *through the same journal* — re-entrantly, while the
    triggering record is still being sunk — and lands at the very next
    sequence number under the span the journal's stack holds at that
    instant. One ``anomaly_config`` event (the active thresholds) is
    emitted after the first record so a finished journal carries
    everything reconciliation needs.
    """

    def __init__(self, journal, config: "AnomalyConfig | None" = None):
        # Held weakly: the journal's sink holds the watchdog.
        self._journal = weakref.ref(journal)
        self.config = config if config is not None else AnomalyConfig()
        # Share the telemetry sink's run model when there is one: the
        # sink folds each record in before it reaches the watchdog.
        state = getattr(journal.sink, "state", None)
        self.engine = AnomalyDetectors(
            self.config, model=getattr(state, "model", None)
        )
        #: Every anomaly attrs dict emitted so far, in firing order.
        self.fired: "list[dict]" = []
        self._config_emitted = False
        self._emitting = False

    @property
    def journal(self):
        """The journal the watchdog observes and emits through."""
        return self._journal()

    def observe_record(self, record: dict) -> None:
        """Feed one teed record through the detectors; emit firings."""
        if self._emitting:
            # Our own nested emission coming back through the sink.
            return
        pending: "list[tuple[str, dict]]" = []
        if not self._config_emitted:
            self._config_emitted = True
            pending.append((ANOMALY_CONFIG, self.config.as_dict()))
        pending.extend(
            (ANOMALY, attrs) for attrs in self.engine.consume(record)
        )
        if not pending:
            return
        self._emitting = True
        try:
            for name, attrs in pending:
                if name == ANOMALY:
                    self.fired.append(dict(attrs))
                self.journal.event(name, **attrs)
        finally:
            self._emitting = False


def anomaly_watchdog_for(journal) -> "AnomalyWatchdog | None":
    """The anomaly watchdog on a journal's sink, if telemetry armed one."""
    if journal is None or not getattr(journal, "enabled", False):
        return None
    return getattr(journal.sink, "anomaly", None)


# -- offline detection and exact reconciliation ---------------------------


def recorded_anomaly_config(records) -> "AnomalyConfig | None":
    """The config the run's watchdog journalled, if detectors were on."""
    for record in records:
        if (
            record.get("type") == EVENT
            and record.get("name") == ANOMALY_CONFIG
        ):
            return AnomalyConfig.from_dict(record.get("attrs") or {})
    return None


def detect_anomalies(
    records, config: "AnomalyConfig | None" = None
) -> "list[dict]":
    """Post-hoc detection: run the engine over a finished journal.

    Returns the anomaly attrs dicts the detectors derive, in order.
    Any ``anomaly``/``anomaly_config`` events already in the journal
    are skipped, so running this over a watchdog-recorded journal
    yields exactly the firings the run emitted live.
    """
    if config is None:
        config = recorded_anomaly_config(records) or AnomalyConfig()
    engine = AnomalyDetectors(config)
    found: list[dict] = []
    for record in records:
        found.extend(engine.consume(record))
    return found


@dataclass(frozen=True)
class AnomalyReconciliation:
    """Outcome of re-deriving a journal's anomaly events offline."""

    #: Canonical event records the replayed detectors derived.
    expected: "list[dict]"
    #: Canonical ``anomaly``/``anomaly_config`` records the journal holds.
    recorded: "list[dict]"
    #: Human-readable discrepancies; empty means exact agreement.
    mismatches: "list[str]"
    #: The thresholds reconciliation ran with (journal's own config).
    config: "AnomalyConfig | None"

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "expected_events": len(self.expected),
            "recorded_events": len(self.recorded),
            "mismatches": list(self.mismatches),
            "config": self.config.as_dict() if self.config else None,
        }


def reconcile_anomalies(
    records, config: "AnomalyConfig | None" = None
) -> AnomalyReconciliation:
    """Re-derive a journal's anomaly events and demand exact agreement.

    Walks the records in sequence order. The live watchdog emits a
    firing while the triggering record is being sunk: after a
    ``span_end`` has popped its span off the journal's nesting stack,
    before a ``span_start`` pushes one. So a derived event's parent is
    the ended span's parent (read off the detectors' own run model)
    for a ``span_end``, and the record's own ``parent`` otherwise; its
    sequence number follows the trigger's. A recorded
    anomaly the detectors don't derive, a derived anomaly the journal
    lacks, or any field-level difference (sequence, parent, attrs) is
    a mismatch.
    """
    if config is None:
        config = recorded_anomaly_config(records)
    # A journal with no anomaly_config event (and no explicit config
    # from the caller) was recorded with the detectors off: nothing is
    # derived, so it reconciles trivially — unless it holds forged
    # anomaly records, which then mismatch, the right verdict for a
    # journal the watchdog never saw.
    armed = config is not None
    cfg = config if config is not None else AnomalyConfig()
    engine = AnomalyDetectors(cfg)
    expected: list[dict] = []
    recorded: list[dict] = []
    mismatches: list[str] = []
    pending: list[dict] = []
    emitted_config = not armed
    for record in records:
        rtype = record.get("type")
        if rtype == EVENT and record.get("name") in (ANOMALY, ANOMALY_CONFIG):
            got = canonical_record(record)
            recorded.append(got)
            if not pending:
                mismatches.append(
                    f"seq {record.get('seq')}: journal holds a "
                    f"{record.get('name')} event the replayed detectors "
                    "did not derive"
                )
                continue
            want = pending.pop(0)
            if got != want:
                mismatches.append(
                    f"seq {record.get('seq')}: recorded "
                    f"{record.get('name')} event differs from the "
                    f"derived one (recorded {got!r}, derived {want!r})"
                )
            continue
        for want in pending:
            mismatches.append(
                f"derived {want['name']} event (seq {want.get('seq')}) "
                "is missing from the journal"
            )
        pending.clear()
        firings: list[tuple[str, dict]] = []
        if not emitted_config:
            emitted_config = True
            firings.append((ANOMALY_CONFIG, cfg.as_dict()))
        derived = engine.consume(record)
        if armed:
            firings.extend((ANOMALY, attrs) for attrs in derived)
        seq = record.get("seq")
        if rtype == SPAN_END:
            ended = engine.model.spans.get(record.get("span"))
            owner = ended.parent if ended is not None else None
            parent = owner.id if owner is not None else None
        else:
            parent = record.get("parent")
        for offset, (name, attrs) in enumerate(firings, start=1):
            derived = {
                "type": EVENT,
                "name": name,
                "parent": parent,
                "attrs": attrs,
                "seq": seq + offset if isinstance(seq, int) else None,
            }
            expected.append(derived)
            pending.append(derived)
    for want in pending:
        mismatches.append(
            f"derived {want['name']} event (seq {want.get('seq')}) "
            "is missing from the journal"
        )
    return AnomalyReconciliation(
        expected=expected,
        recorded=recorded,
        mismatches=mismatches,
        config=config,
    )


# -- text rendering (the ``repro anomalies`` command) ----------------------


def _describe_anomaly(attrs: dict) -> str:
    kind = attrs.get("anomaly", "unknown")
    if kind == STRAGGLER_ONSET:
        return (
            f"{attrs.get('job')}/{attrs.get('phase')}: slowest task "
            f"{float(attrs.get('straggler_ratio') or 0.0):.2f}x the median "
            f"over {attrs.get('tasks')} tasks "
            f"(threshold {float(attrs.get('threshold') or 0.0):g})"
        )
    if kind == SKEW_DRIFT:
        return (
            f"{attrs.get('job')}: reduce-bucket imbalance "
            f"{float(attrs.get('imbalance') or 0.0):.2f} is "
            f"{float(attrs.get('drift') or 0.0):.2f}x the "
            f"{attrs.get('family')} baseline "
            f"(threshold {float(attrs.get('threshold') or 0.0):g}x)"
        )
    if kind == HEAP_BREACH_PREDICTED:
        return (
            f"{attrs.get('job')}: projected per-key reducer heap "
            f"{float(attrs.get('projected_heap_bytes') or 0.0):,.0f} B "
            f"exceeds {float(attrs.get('heap_fraction') or 0.0):g}x usable "
            f"{int(attrs.get('usable_heap_bytes') or 0):,d} B "
            "(before the reduce phase ran)"
        )
    if kind == COST_MODEL_DRIFT:
        return (
            f"{attrs.get('job')}/{attrs.get('phase')}: recorded "
            f"{float(attrs.get('recorded_seconds') or 0.0):.3f}s vs "
            f"predicted {float(attrs.get('predicted_seconds') or 0.0):.3f}s "
            f"(residual {float(attrs.get('residual') or 0.0):+.2%})"
        )
    if kind == FAULT_STORM:
        return (
            f"window {attrs.get('window')} "
            f"({float(attrs.get('window_seconds') or 0.0):g}s of simulated "
            f"time): {attrs.get('events')} fault events "
            f"(threshold {attrs.get('threshold')}; last: "
            f"{attrs.get('trigger')})"
        )
    return repr(attrs)


def render_anomalies(
    anomalies: "list[dict]", config: "AnomalyConfig | None" = None
) -> str:
    """Human-readable report of detector firings, one line each."""
    lines = [f"anomalies: {len(anomalies)} firing(s)"]
    if config is not None:
        knobs = ", ".join(
            f"{key}={value:g}" for key, value in config.as_dict().items()
        )
        lines.append(f"  thresholds: {knobs}")
    counts: dict[str, int] = {}
    for attrs in anomalies:
        kind = str(attrs.get("anomaly", "unknown"))
        counts[kind] = counts.get(kind, 0) + 1
    if counts:
        summary = ", ".join(f"{kind} x{n}" for kind, n in sorted(counts.items()))
        lines.append(f"  by type: {summary}")
    for attrs in anomalies:
        kind = str(attrs.get("anomaly", "unknown"))
        lines.append(f"  [{kind}] {_describe_anomaly(attrs)}")
    return "\n".join(lines)


def render_reconciliation(outcome: AnomalyReconciliation) -> str:
    """Human-readable verdict of :func:`reconcile_anomalies`."""
    lines = []
    if outcome.ok:
        lines.append(
            f"anomaly reconciliation: OK — {len(outcome.recorded)} recorded "
            "event(s) re-derived exactly"
        )
    else:
        lines.append(
            f"anomaly reconciliation: FAILED — "
            f"{len(outcome.mismatches)} mismatch(es) "
            f"({len(outcome.expected)} derived vs "
            f"{len(outcome.recorded)} recorded)"
        )
        for mismatch in outcome.mismatches:
            lines.append(f"  - {mismatch}")
    if outcome.config is None:
        lines.append(
            "  (journal carries no anomaly_config event: the run did not "
            "arm the detectors)"
        )
    return "\n".join(lines)
