"""Journal analytics: skew/straggler profiling, heap-model audit, and
cost-model residuals over a recorded run.

PR 3's journal is a faithful record; this module *interprets* it,
re-validating the paper's two central engineering claims against what
a run actually did:

* **Skew/stragglers** — per-job task-duration distributions (p50, p95,
  max, straggler ratio) and per-reducer key/byte skew from the shuffle
  counters the runtime records on reduce phase spans. Related MR
  clustering work (Bahmani et al., Jin et al.) shows these dominate
  real deployments; the report makes them visible per job.
* **Heap model** — every ``strategy_decision`` event carries the
  inputs of the paper's switching rule (Section 3.2) and the predicted
  reducer heap (``points-in-biggest-cluster × 64`` bytes, Figure 2);
  the audit re-derives the rule from those inputs and compares the
  prediction against the biggest per-cluster projection buffer the
  test job's reducers actually materialised.
* **Cost-model residuals** — for every successful job, the recorded
  per-task simulated durations are re-assembled through the cost
  model's LPT scheduler and compared against the per-phase timings the
  job span recorded, exposing any divergence between
  :mod:`repro.mapreduce.costmodel` and what the runtime charged
  (locality-aware scheduling, for example, shows up here).

``repro analyze JOURNAL`` renders all three; :func:`analyze_replay` is
the programmatic entry point.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.mapreduce.cluster import MIB, ClusterConfig
from repro.mapreduce.costmodel import CostModel, CostParameters, makespan
from repro.mapreduce.counters import FRAMEWORK_GROUP, MRCounter
from repro.observability.critical import (
    CriticalPath,
    critical_path,
    render_critical,
)
from repro.observability.replay import NODE_STATUS, RunReplay, SpanNode

#: Strategy names as journalled by ``strategy_decision`` events (kept
#: local: the observability layer must not import :mod:`repro.core`).
MAPPER_SIDE = "mapper"
REDUCER_SIDE = "reducer"


def _percentile(sorted_values: "list[float]", q: float) -> float:
    """Linear-interpolation percentile of pre-sorted values, q in [0,1]."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


@dataclass(frozen=True)
class DurationStats:
    """Distribution summary of one set of task durations."""

    count: int
    total_seconds: float
    mean_seconds: float
    p50_seconds: float
    p95_seconds: float
    max_seconds: float
    #: max / p50 — how much longer the slowest task ran than the
    #: typical one (1.0 = perfectly balanced; 0.0 when p50 is zero).
    straggler_ratio: float

    @classmethod
    def from_seconds(cls, seconds: "list[float]") -> "DurationStats | None":
        if not seconds:
            return None
        ordered = sorted(seconds)
        p50 = _percentile(ordered, 0.50)
        peak = ordered[-1]
        return cls(
            count=len(ordered),
            total_seconds=sum(ordered),
            mean_seconds=sum(ordered) / len(ordered),
            p50_seconds=p50,
            p95_seconds=_percentile(ordered, 0.95),
            max_seconds=peak,
            straggler_ratio=(peak / p50) if p50 > 0 else 0.0,
        )


@dataclass(frozen=True)
class PhaseSkew:
    """Task-duration and (reduce-side) shuffle-skew profile of a phase."""

    phase: str
    tasks: DurationStats
    #: Reduce phases only: per-reducer record/key/byte loads as the
    #: runtime recorded them, and max/mean skew ratios over non-empty
    #: means. ``None`` on map phases and journals predating the fields.
    bucket_records: "list[int] | None" = None
    bucket_keys: "list[int] | None" = None
    bucket_bytes: "list[int] | None" = None
    record_skew: "float | None" = None
    byte_skew: "float | None" = None
    max_key_records: "int | None" = None
    max_key_heap_bytes: "int | None" = None


@dataclass(frozen=True)
class JobSkewProfile:
    """Skew/straggler profile of one job attempt."""

    job: str
    attempt: int
    status: str
    phases: "list[PhaseSkew]"


@dataclass(frozen=True)
class HeapAuditEntry:
    """One ``strategy_decision`` event checked against the journal.

    ``consistent`` means the recorded verdict follows from the recorded
    inputs under the paper's two-condition rule (forced strategies are
    audited against the rule's would-be verdict but can never be
    inconsistent — the operator overrode the rule knowingly).
    ``relative_error`` is ``(predicted - actual) / actual`` for
    reducer-side tests where the journal recorded the actual biggest
    per-cluster projection buffer; ``None`` otherwise.
    """

    iteration: "int | None"
    strategy: str
    rule_strategy: str
    forced: bool
    clusters_to_test: int
    max_cluster_points: int
    predicted_heap_bytes: int
    usable_heap_bytes: int
    total_reduce_slots: int
    consistent: bool
    test_job: "str | None" = None
    actual_heap_bytes: "int | None" = None
    relative_error: "float | None" = None


@dataclass(frozen=True)
class ProfiledPhaseStats:
    """Real (profiled) resource usage of all tasks of one phase name.

    Present only for journals recorded with ``--profile-tasks``: the
    cost model's simulated seconds say what a task *would* cost on the
    paper's testbed, these say what the task body actually cost here —
    host wall and CPU seconds for every task, and the tracemalloc peak
    of the memory-sampled tasks (first task per phase of geometrically
    sampled jobs).
    """

    phase: str
    wall: DurationStats
    cpu: DurationStats
    max_peak_memory_bytes: int
    mean_peak_memory_bytes: float


@dataclass(frozen=True)
class MemoryAuditEntry:
    """Figure-2 model vs measured memory for one test job's reducers.

    ``modeled_heap_bytes`` is the per-cluster projection buffer the
    64-bytes/point model predicts (the ``max_key_heap_bytes`` the
    runtime recorded); ``measured_peak_bytes`` is the biggest
    tracemalloc peak any of the job's reduce-task bodies reached.
    ``ratio`` (measured / modeled) shows how conservative the paper's
    model is against real Python allocations — Python object overhead
    makes ratios well above 1 expected; the audit is about *scaling*,
    not equality.
    """

    job: str
    attempt: int
    modeled_heap_bytes: int
    measured_peak_bytes: int

    @property
    def ratio(self) -> "float | None":
        if self.modeled_heap_bytes > 0:
            return self.measured_peak_bytes / self.modeled_heap_bytes
        return None


@dataclass(frozen=True)
class NodeHealthEntry:
    """Lifecycle summary of one node over the whole run.

    Folded from the ``node_lost`` / ``node_recovered`` /
    ``node_blacklisted`` events: how often the node died and came back,
    how many replica copies its deaths took with it, and the status the
    journal leaves it in.
    """

    node_id: int
    deaths: int
    recoveries: int
    blacklisted: bool
    blocks_lost: int
    final_status: str


@dataclass(frozen=True)
class CapacityPoint:
    """One step of the cluster's live-capacity timeline.

    Every node lifecycle event stamps the capacity that resulted from
    it; the ordered sequence shows how the slot pool the scheduler (and
    the Section-3.2 strategy rule) saw shrank and recovered.
    """

    seq: int
    event: str
    node_id: int
    schedulable_nodes: int
    total_map_slots: int
    total_reduce_slots: int


@dataclass(frozen=True)
class PhaseResidual:
    """Model-vs-journal comparison of one phase of one job."""

    phase: str
    predicted_seconds: float
    recorded_seconds: float

    @property
    def residual_seconds(self) -> float:
        return self.predicted_seconds - self.recorded_seconds

    @property
    def relative_residual(self) -> "float | None":
        if self.recorded_seconds > 0:
            return self.residual_seconds / self.recorded_seconds
        return None if self.predicted_seconds > 0 else 0.0


@dataclass(frozen=True)
class JobResidual:
    """Cost-model residuals of one successful job."""

    job: str
    attempt: int
    phases: "list[PhaseResidual]"

    @property
    def max_abs_relative(self) -> float:
        worst = 0.0
        for phase in self.phases:
            rel = phase.relative_residual
            if rel is not None:
                worst = max(worst, abs(rel))
        return worst


#: Version of the ``repro analyze --json`` payload (its ``schema_version``
#: key), bumped on incompatible shape changes. v2 added the key itself
#: plus the ``anomalies`` section (the journal's recorded in-flight
#: detector firings); v3 removed ``critical.blame.residual``.
#: Consumers should reject versions they don't know.
ANALYZE_SCHEMA_VERSION = 3


@dataclass
class AnalysisReport:
    """Everything ``repro analyze`` derives from one journal."""

    jobs: "list[JobSkewProfile]" = field(default_factory=list)
    map_tasks: "DurationStats | None" = None
    reduce_tasks: "DurationStats | None" = None
    heap_audit: "list[HeapAuditEntry]" = field(default_factory=list)
    residuals: "list[JobResidual]" = field(default_factory=list)
    #: Populated only for journals recorded with ``--profile-tasks``.
    profile: "list[ProfiledPhaseStats]" = field(default_factory=list)
    memory_audit: "list[MemoryAuditEntry]" = field(default_factory=list)
    #: Populated only for journals with node lifecycle events.
    node_health: "list[NodeHealthEntry]" = field(default_factory=list)
    capacity_timeline: "list[CapacityPoint]" = field(default_factory=list)
    #: Critical path + blame breakdown; carries the exact-reconciliation
    #: verdict (:attr:`CriticalPath.reconciled`).
    critical: "CriticalPath | None" = None
    #: Recorded in-flight detector firings (``anomaly`` event attrs, in
    #: journal order); empty when the run did not arm ``--anomaly``.
    anomalies: "list[dict]" = field(default_factory=list)

    @property
    def heap_audit_consistent(self) -> bool:
        """True when every journalled decision follows from its inputs."""
        return all(entry.consistent for entry in self.heap_audit)

    @property
    def max_abs_relative_residual(self) -> float:
        return max((job.max_abs_relative for job in self.residuals), default=0.0)

    def as_dict(self) -> dict:
        """JSON-ready form (``repro analyze --json``).

        The payload is versioned: ``schema_version`` is
        :data:`ANALYZE_SCHEMA_VERSION`, bumped whenever a key is
        renamed, removed or changes meaning (additions alone do not
        bump it). The full key catalogue is documented in
        ``docs/observability.md``.
        """
        return {
            "schema_version": ANALYZE_SCHEMA_VERSION,
            "jobs": [asdict(job) for job in self.jobs],
            "map_tasks": asdict(self.map_tasks) if self.map_tasks else None,
            "reduce_tasks": (
                asdict(self.reduce_tasks) if self.reduce_tasks else None
            ),
            "heap_audit": [asdict(entry) for entry in self.heap_audit],
            "heap_audit_consistent": self.heap_audit_consistent,
            "residuals": [
                {
                    "job": job.job,
                    "attempt": job.attempt,
                    "phases": [
                        {
                            **asdict(phase),
                            "residual_seconds": phase.residual_seconds,
                            "relative_residual": phase.relative_residual,
                        }
                        for phase in job.phases
                    ],
                }
                for job in self.residuals
            ],
            "max_abs_relative_residual": self.max_abs_relative_residual,
            "profile": [asdict(stats) for stats in self.profile],
            "memory_audit": [
                {**asdict(entry), "ratio": entry.ratio}
                for entry in self.memory_audit
            ],
            "node_health": [asdict(entry) for entry in self.node_health],
            "capacity_timeline": [
                asdict(point) for point in self.capacity_timeline
            ],
            "critical": self.critical.as_dict() if self.critical else None,
            "anomalies": [dict(attrs) for attrs in self.anomalies],
        }


# -- skew / stragglers ---------------------------------------------------


def _skew_ratio(loads: "list[int] | None") -> "float | None":
    if not loads:
        return None
    mean = sum(loads) / len(loads)
    return (max(loads) / mean) if mean > 0 else None


def _phase_skew(phase: SpanNode) -> "PhaseSkew | None":
    stats = DurationStats.from_seconds([t.sim_seconds for t in phase.tasks])
    if stats is None:
        return None
    bucket_records = phase.get("bucket_records")
    bucket_bytes = phase.get("bucket_bytes")
    return PhaseSkew(
        phase=phase.name,
        tasks=stats,
        bucket_records=bucket_records,
        bucket_keys=phase.get("bucket_keys"),
        bucket_bytes=bucket_bytes,
        record_skew=_skew_ratio(bucket_records),
        byte_skew=_skew_ratio(bucket_bytes),
        max_key_records=phase.get("max_key_records"),
        max_key_heap_bytes=phase.get("max_key_heap_bytes"),
    )


def _job_profiles(replay: RunReplay) -> "list[JobSkewProfile]":
    profiles = []
    for job in replay.jobs():
        phases = []
        for child in job.children:
            if child.kind != "phase":
                continue
            skew = _phase_skew(child)
            if skew is not None:
                phases.append(skew)
        if phases:
            profiles.append(
                JobSkewProfile(
                    job=job.name,
                    attempt=int(job.get("attempt") or 1),
                    status=str(job.get("status", "incomplete")),
                    phases=phases,
                )
            )
    return profiles


# -- heap-model audit ----------------------------------------------------


def _iteration_test_job(
    replay: RunReplay, parent_id: "int | None"
) -> "SpanNode | None":
    """The test-strategy job span of the iteration holding the event
    (preferring the successful attempt, else the last one)."""
    iteration = replay.spans.get(parent_id) if parent_id is not None else None
    if iteration is None:
        return None
    candidates = [
        job
        for job in iteration.find("job")
        if job.name.startswith(("TestClusters", "TestFewClusters"))
    ]
    for job in reversed(candidates):
        if job.get("status") == "ok":
            return job
    return candidates[-1] if candidates else None


def _actual_heap_bytes(test_job: "SpanNode | None") -> "int | None":
    """Biggest per-cluster projection buffer the reducers materialised."""
    if test_job is None:
        return None
    for phase in test_job.children:
        if phase.kind == "phase" and phase.name == "reduce":
            value = phase.get("max_key_heap_bytes")
            if value is not None:
                return int(value)
    value = test_job.get("max_reduce_heap_bytes")
    return int(value) if value else None


def _heap_audit(replay: RunReplay) -> "list[HeapAuditEntry]":
    entries = []
    for event in replay.events_named("strategy_decision"):
        attrs = event.attrs
        strategy = str(attrs.get("strategy", ""))
        forced = bool(attrs.get("forced", False))
        clusters_to_test = int(attrs.get("clusters_to_test", 0))
        max_points = int(attrs.get("max_cluster_points", 0))
        predicted = int(attrs.get("predicted_heap_bytes", 0))
        usable = int(attrs.get("usable_heap_bytes", 0))
        slots = int(attrs.get("total_reduce_slots", 0))
        rule_strategy = str(attrs.get("rule_strategy", strategy))
        # Re-derive the verdict from the recorded inputs alone.
        expected = (
            REDUCER_SIDE
            if clusters_to_test > slots and predicted <= usable
            else MAPPER_SIDE
        )
        consistent = expected == rule_strategy and (
            forced or strategy == rule_strategy
        )
        test_job = _iteration_test_job(replay, event.parent)
        actual = None
        relative_error = None
        if strategy == REDUCER_SIDE:
            actual = _actual_heap_bytes(test_job)
            if actual:
                relative_error = (predicted - actual) / actual
        entries.append(
            HeapAuditEntry(
                iteration=attrs.get("iteration"),
                strategy=strategy,
                rule_strategy=rule_strategy,
                forced=forced,
                clusters_to_test=clusters_to_test,
                max_cluster_points=max_points,
                predicted_heap_bytes=predicted,
                usable_heap_bytes=usable,
                total_reduce_slots=slots,
                consistent=consistent,
                test_job=test_job.name if test_job is not None else None,
                actual_heap_bytes=actual,
                relative_error=relative_error,
            )
        )
    return entries


# -- real-resource profiling (--profile-tasks journals) ------------------


def _profile_stats(replay: RunReplay) -> "list[ProfiledPhaseStats]":
    by_phase: dict[str, list] = {}
    for phase in replay.phases():
        profiled = [t for t in phase.tasks if t.profiled]
        if profiled:
            by_phase.setdefault(phase.name, []).extend(profiled)
    stats = []
    for name in sorted(by_phase):
        tasks = by_phase[name]
        # Memory peaks are sampled (first task per phase of sampled
        # jobs), not per-task;
        # fold stats over the sampled measurements only.
        peaks = [
            int(t.peak_memory_bytes)
            for t in tasks
            if t.peak_memory_bytes is not None
        ]
        stats.append(
            ProfiledPhaseStats(
                phase=name,
                wall=DurationStats.from_seconds([t.wall_seconds for t in tasks]),
                cpu=DurationStats.from_seconds(
                    [float(t.cpu_seconds or 0.0) for t in tasks]
                ),
                max_peak_memory_bytes=max(peaks, default=0),
                mean_peak_memory_bytes=(
                    sum(peaks) / len(peaks) if peaks else 0.0
                ),
            )
        )
    return stats


def _memory_audit(replay: RunReplay) -> "list[MemoryAuditEntry]":
    entries = []
    for job in replay.successful_jobs():
        if not job.name.startswith(("TestClusters", "TestFewClusters")):
            continue
        for phase in job.children:
            if phase.kind != "phase" or phase.name != "reduce":
                continue
            modeled = phase.get("max_key_heap_bytes")
            peaks = [
                int(t.peak_memory_bytes)
                for t in phase.tasks
                if t.peak_memory_bytes is not None
            ]
            if modeled is None or not peaks:
                continue
            entries.append(
                MemoryAuditEntry(
                    job=job.name,
                    attempt=int(job.get("attempt") or 1),
                    modeled_heap_bytes=int(modeled),
                    measured_peak_bytes=max(peaks),
                )
            )
    return entries


# -- node failure domains ------------------------------------------------


def _node_sections(
    replay: RunReplay,
) -> "tuple[list[NodeHealthEntry], list[CapacityPoint]]":
    """Fold node lifecycle events into per-node health + the capacity
    timeline (both empty for journals without node faults)."""
    events = replay.node_events()
    if not events:
        return [], []
    deaths: dict[int, int] = {}
    recoveries: dict[int, int] = {}
    blacklisted: dict[int, bool] = {}
    blocks_lost: dict[int, int] = {}
    status: dict[int, str] = {}
    timeline: list[CapacityPoint] = []
    for event in events:
        attrs = event.attrs
        node_id = int(attrs.get("node", -1))
        status[node_id] = NODE_STATUS[event.name]
        if event.name == "node_lost":
            deaths[node_id] = int(attrs.get("deaths", 0)) or (
                deaths.get(node_id, 0) + 1
            )
            blocks_lost[node_id] = blocks_lost.get(node_id, 0) + int(
                attrs.get("blocks_lost", 0)
            )
        elif event.name == "node_recovered":
            recoveries[node_id] = int(attrs.get("recoveries", 0)) or (
                recoveries.get(node_id, 0) + 1
            )
        elif event.name == "node_blacklisted":
            blacklisted[node_id] = True
        timeline.append(
            CapacityPoint(
                seq=event.seq,
                event=event.name,
                node_id=node_id,
                schedulable_nodes=int(attrs.get("schedulable_nodes", 0)),
                total_map_slots=int(attrs.get("total_map_slots", 0)),
                total_reduce_slots=int(attrs.get("total_reduce_slots", 0)),
            )
        )
    health = [
        NodeHealthEntry(
            node_id=node_id,
            deaths=deaths.get(node_id, 0),
            recoveries=recoveries.get(node_id, 0),
            blacklisted=blacklisted.get(node_id, False),
            blocks_lost=blocks_lost.get(node_id, 0),
            final_status=status.get(node_id, "alive"),
        )
        for node_id in sorted(
            set(deaths) | set(recoveries) | set(blacklisted) | set(status)
        )
    ]
    return health, timeline


# -- cost-model residuals ------------------------------------------------


def _job_residual(
    job: SpanNode, params: CostParameters
) -> "JobResidual | None":
    """Recorded vs predicted seconds of one job's phases: the LPT
    makespan over each phase's journalled task durations, and the cost
    model's shuffle time over the job's live node count. The in-flight
    ``cost_model_drift`` detector reads the same numbers."""
    timing = job.get("timing") or {}
    if not timing:
        return None
    phases: list[PhaseResidual] = []
    for child in job.children:
        if child.kind != "phase" or not child.tasks:
            continue
        recorded = float(timing.get(f"{child.name}_seconds") or 0.0)
        slots = int(child.get("slots") or 1)
        predicted = makespan([t.sim_seconds for t in child.tasks], slots)
        phases.append(
            PhaseResidual(
                phase=child.name,
                predicted_seconds=predicted,
                recorded_seconds=recorded,
            )
        )
    nodes = job.get("nodes")
    shuffle_recorded = float(timing.get("shuffle_seconds") or 0.0)
    shuffle_bytes = job.counters().get(FRAMEWORK_GROUP, MRCounter.SHUFFLE_BYTES)
    if nodes and (shuffle_recorded > 0 or shuffle_bytes > 0):
        predicted = CostModel(params, ClusterConfig()).shuffle_seconds(
            shuffle_bytes, nodes
        )
        phases.append(
            PhaseResidual(
                phase="shuffle",
                predicted_seconds=predicted,
                recorded_seconds=shuffle_recorded,
            )
        )
    if not phases:
        return None
    return JobResidual(
        job=job.name, attempt=int(job.get("attempt") or 1), phases=phases
    )


def analyze_replay(
    replay: RunReplay, params: "CostParameters | None" = None
) -> AnalysisReport:
    """Derive the full analysis report from a replayed journal.

    ``params`` are the cost-model constants used for the shuffle
    residual (the map/reduce residuals need none: the LPT scheduler is
    parameter-free over the recorded task durations). Defaults match
    the runtime's defaults; a run recorded with custom constants shows
    a corresponding shuffle residual, which is the point of the report.
    """
    params = params or CostParameters()
    report = AnalysisReport(jobs=_job_profiles(replay))
    map_seconds: list[float] = []
    reduce_seconds: list[float] = []
    for phase in replay.phases():
        seconds = [t.sim_seconds for t in phase.tasks]
        if phase.name == "map":
            map_seconds.extend(seconds)
        elif phase.name == "reduce":
            reduce_seconds.extend(seconds)
    report.map_tasks = DurationStats.from_seconds(map_seconds)
    report.reduce_tasks = DurationStats.from_seconds(reduce_seconds)
    report.heap_audit = _heap_audit(replay)
    report.profile = _profile_stats(replay)
    report.memory_audit = _memory_audit(replay)
    report.node_health, report.capacity_timeline = _node_sections(replay)
    report.critical = critical_path(replay)
    report.anomalies = [
        dict(event.attrs) for event in replay.anomaly_events()
    ]
    for job in replay.successful_jobs():
        residual = _job_residual(job, params)
        if residual is not None:
            report.residuals.append(residual)
    return report


# -- rendering -----------------------------------------------------------


def _fmt_stats(stats: "DurationStats | None") -> str:
    if stats is None:
        return "(no tasks)"
    return (
        f"n={stats.count}  p50={stats.p50_seconds:.2f}s  "
        f"p95={stats.p95_seconds:.2f}s  max={stats.max_seconds:.2f}s  "
        f"straggler x{stats.straggler_ratio:.2f}"
    )


def _fmt_bytes(value: "int | None") -> str:
    if value is None:
        return "?"
    if value >= MIB:
        return f"{value / MIB:.1f}MiB"
    return f"{value}B"


def render_skew(report: AnalysisReport, limit: int = 20) -> str:
    """The skew/straggler section of the analysis report."""
    lines = [
        f"all map tasks:     {_fmt_stats(report.map_tasks)}",
        f"all reduce tasks:  {_fmt_stats(report.reduce_tasks)}",
    ]
    ranked = sorted(
        report.jobs,
        key=lambda p: max(
            (phase.tasks.straggler_ratio for phase in p.phases), default=0.0
        ),
        reverse=True,
    )
    shown = ranked[:limit]
    if shown:
        lines.append("")
        lines.append("per-job phases (worst straggler ratio first):")
    for profile in shown:
        for phase in profile.phases:
            extra = ""
            if phase.record_skew is not None:
                extra = (
                    f"  rec-skew x{phase.record_skew:.2f}"
                    f"  byte-skew x{phase.byte_skew:.2f}"
                    if phase.byte_skew is not None
                    else f"  rec-skew x{phase.record_skew:.2f}"
                )
            lines.append(
                f"  {profile.job} [{profile.status}] {phase.phase:<6} "
                f"{_fmt_stats(phase.tasks)}{extra}"
            )
    if len(ranked) > limit:
        lines.append(f"  ... {len(ranked) - limit} more jobs not shown")
    return "\n".join(lines)


def render_heap_audit(report: AnalysisReport) -> str:
    """The heap-model audit section of the analysis report."""
    if not report.heap_audit:
        return "(no strategy decisions recorded)"
    lines = []
    for entry in report.heap_audit:
        verdict = "consistent" if entry.consistent else "INCONSISTENT"
        detail = (
            f"iter {entry.iteration}: {entry.strategy}"
            + (" (forced)" if entry.forced else "")
            + f"  clusters={entry.clusters_to_test}"
            f" slots={entry.total_reduce_slots}"
            f"  predicted={_fmt_bytes(entry.predicted_heap_bytes)}"
            f" usable={_fmt_bytes(entry.usable_heap_bytes)}"
        )
        if entry.actual_heap_bytes is not None:
            detail += f"  actual={_fmt_bytes(entry.actual_heap_bytes)}"
        if entry.relative_error is not None:
            detail += f"  rel.err {entry.relative_error * +100:+.1f}%"
        lines.append(f"{detail}  -- {verdict}")
    status = (
        "all consistent with estimate_reducer_heap_bytes inputs"
        if report.heap_audit_consistent
        else "SOME DECISIONS INCONSISTENT WITH THEIR RECORDED INPUTS"
    )
    lines.append(f"{len(report.heap_audit)} decisions audited: {status}")
    return "\n".join(lines)


def render_residuals(report: AnalysisReport, limit: int = 20) -> str:
    """The cost-model residual section of the analysis report."""
    if not report.residuals:
        return "(no successful jobs with timing recorded)"
    lines = []
    ranked = sorted(
        report.residuals, key=lambda job: job.max_abs_relative, reverse=True
    )
    for job in ranked[:limit]:
        parts = [f"{job.job} (attempt {job.attempt}):"]
        for phase in job.phases:
            rel = phase.relative_residual
            rel_text = f"{rel * 100:+.2f}%" if rel is not None else "n/a"
            parts.append(
                f"{phase.phase} model {phase.predicted_seconds:.2f}s"
                f" vs journal {phase.recorded_seconds:.2f}s ({rel_text})"
            )
        lines.append("  " + "  ".join(parts))
    if len(ranked) > limit:
        lines.append(f"  ... {len(ranked) - limit} more jobs not shown")
    lines.append(
        f"max |relative residual| over {len(report.residuals)} jobs: "
        f"{report.max_abs_relative_residual * 100:.2f}%"
    )
    return "\n".join(lines)


def render_profile(report: AnalysisReport) -> str:
    """The real-resource profiling section (``--profile-tasks`` runs)."""
    if not report.profile:
        return "(no profiled tasks recorded; run with --profile-tasks)"
    lines = []
    for stats in report.profile:
        lines.append(
            f"{stats.phase:<6} wall {_fmt_stats(stats.wall)}\n"
            f"       cpu  {_fmt_stats(stats.cpu)}\n"
            f"       mem  peak={_fmt_bytes(stats.max_peak_memory_bytes)}"
            f"  mean={_fmt_bytes(int(stats.mean_peak_memory_bytes))}"
        )
    if report.memory_audit:
        lines.append("")
        lines.append("measured reducer memory vs Figure-2 64B/point model:")
        for entry in report.memory_audit:
            ratio = entry.ratio
            ratio_text = f"x{ratio:.1f}" if ratio is not None else "n/a"
            lines.append(
                f"  {entry.job} (attempt {entry.attempt}): "
                f"model {_fmt_bytes(entry.modeled_heap_bytes)}"
                f"  measured {_fmt_bytes(entry.measured_peak_bytes)}"
                f"  ({ratio_text})"
            )
    return "\n".join(lines)


def render_node_health(report: AnalysisReport, limit: int = 30) -> str:
    """The node failure-domain section (node-fault journals only)."""
    if not report.node_health:
        return "(no node lifecycle events recorded)"
    lines = []
    for entry in report.node_health:
        flags = f"  deaths={entry.deaths} recoveries={entry.recoveries}"
        if entry.blocks_lost:
            flags += f" blocks_lost={entry.blocks_lost}"
        if entry.blacklisted:
            flags += " blacklisted"
        lines.append(f"  node {entry.node_id}: {entry.final_status}{flags}")
    lines.append("")
    lines.append("capacity timeline (nodes / map slots / reduce slots):")
    shown = report.capacity_timeline[:limit]
    for point in shown:
        lines.append(
            f"  seq {point.seq:>6} {point.event:<16} node {point.node_id}"
            f" -> {point.schedulable_nodes} nodes,"
            f" {point.total_map_slots} map, {point.total_reduce_slots} reduce"
        )
    if len(report.capacity_timeline) > limit:
        lines.append(
            f"  ... {len(report.capacity_timeline) - limit} more steps"
            " not shown"
        )
    return "\n".join(lines)


def render_analysis(report: AnalysisReport) -> str:
    """The full ``repro analyze`` text report."""
    sections = [
        "== task skew / stragglers " + "=" * 38,
        render_skew(report),
        "",
        "== heap-model audit (Figure 2) " + "=" * 33,
        render_heap_audit(report),
        "",
        "== cost-model residuals " + "=" * 40,
        render_residuals(report),
    ]
    if report.critical is not None:
        sections += [
            "",
            "== critical path " + "=" * 47,
            render_critical(report.critical),
        ]
    if report.node_health:
        sections += [
            "",
            "== node failure domains " + "=" * 40,
            render_node_health(report),
        ]
    if report.profile:
        sections += [
            "",
            "== real-resource profiling " + "=" * 37,
            render_profile(report),
        ]
    if report.anomalies:
        # Lazy import: anomaly imports DurationStats from this module.
        from repro.observability.anomaly import render_anomalies

        sections += [
            "",
            "== in-flight anomalies " + "=" * 41,
            render_anomalies(report.anomalies),
        ]
    return "\n".join(sections)
