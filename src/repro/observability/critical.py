"""Critical-path extraction over a replayed run journal.

The driver executes jobs serially (each job's input is the previous
job's output), so the dependency chain that bounds a recorded run's
simulated makespan is the serial sequence of *clock-charged* work:
every restored checkpoint baseline, then every successful job attempt
— failed attempts are off the clock (only their retry backoff rides
the winning attempt's ``overhead_seconds``). Inside each job the bound
is ``startup → map critical chain → shuffle → reduce critical chain →
fault-recovery overhead``, where a phase's critical chain is the
longest slot of the LPT schedule rebuilt from the recorded per-task
durations (:func:`repro.mapreduce.costmodel.critical_chain`).

Exact-reconciliation guarantee
------------------------------

The runtime puts every duration on the simulated clock's grid
(:func:`repro.mapreduce.costmodel.quantize`), and float64 adds on-grid
values exactly. So :attr:`CriticalPath.total_seconds`, the per-segment
``start``/``end`` placements and
:meth:`repro.observability.replay.RunReplay.total_simulated_seconds`
are exact sums that agree bit for bit in any summation order: the
critical-path length equals the journalled simulated makespan, and
every second of makespan is attributed to a named segment. The
*blame* breakdown is a derived decomposition of each segment
(categories below); the compute/straggler split divides by slot
counts, so the blame sums to the total up to that rounding.

A job whose journalled retry backoff plus heartbeat timeouts exceed
its ``overhead_seconds`` cannot come from the runtime (both are
charged into that overhead), so such a journal does not reconcile.

Blame categories::

    checkpointing   simulated seconds inherited from restored baselines
    startup         per-job framework startup
    compute         balanced phase work: sum(task seconds) / slots
    stragglers      phase makespan above the balanced bound
    shuffle         cross-fabric data movement
    retries         exponential backoff charged by job_retry events
    heartbeat       node-loss detection timeouts under the winning attempt
    recovery        remaining overhead: re-replication writes and
                    replica failover re-reads

Everything here derives from canonical (``wall``-free) journal fields
only, so critical paths are byte-identical across executor backends
and data planes for the same seeded run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.mapreduce.costmodel import lpt_schedule
from repro.observability.replay import EventRecord, RunReplay, SpanNode

#: Categories of :attr:`CriticalPath.blame`, in rendering order.
BLAME_CATEGORIES = (
    "checkpointing",
    "startup",
    "compute",
    "stragglers",
    "shuffle",
    "retries",
    "heartbeat",
    "recovery",
)


@dataclass(frozen=True)
class TaskSlack:
    """One task's placement and slack inside its phase's LPT schedule.

    ``slack`` is how much longer the task's slot could have run without
    extending the phase (``phase makespan − slot completion``); tasks
    on the critical chain have slack 0.
    """

    index: int
    slot: int
    start: float
    end: float
    slack: float
    critical: bool


@dataclass(frozen=True)
class PhaseOnPath:
    """One map/reduce phase of an on-path job."""

    phase: str
    seconds: float
    #: Balanced lower bound: sum of task seconds / slots.
    ideal_seconds: float
    straggler_seconds: float
    slots: int
    #: Task indices on the longest LPT slot, in start order — the
    #: phase's critical chain (durations sum to the LPT makespan).
    chain: "list[int]"
    chain_seconds: float
    tasks: "list[TaskSlack]" = field(default_factory=list)


@dataclass(frozen=True)
class JobOnPath:
    """One successful job attempt on the critical path."""

    job: str
    attempt: int
    span: int
    start: float
    end: float
    sim_seconds: float
    overhead_seconds: float
    retries: int
    blame: "dict[str, float]"
    phases: "list[PhaseOnPath]" = field(default_factory=list)


@dataclass(frozen=True)
class RestoreOnPath:
    """One restored checkpoint baseline at the head of the path."""

    name: str
    iteration: "int | None"
    jobs: int
    start: float
    end: float
    seconds: float


@dataclass(frozen=True)
class OffPathAttempt:
    """A failed/abandoned job attempt: infinite slack, zero clock time."""

    job: str
    attempt: int
    span: int
    status: str


@dataclass
class CriticalPath:
    """The longest dependency chain bounding a run's simulated makespan."""

    #: Sum of segment durations in the journal's own accounting order.
    total_seconds: float
    #: ``RunReplay.total_simulated_seconds()`` — must equal
    #: ``total_seconds`` exactly (bitwise), see the module docstring.
    journal_seconds: float
    restores: "list[RestoreOnPath]" = field(default_factory=list)
    jobs: "list[JobOnPath]" = field(default_factory=list)
    off_path: "list[OffPathAttempt]" = field(default_factory=list)
    blame: "dict[str, float]" = field(default_factory=dict)

    @property
    def reconciled(self) -> bool:
        """True iff critical-path length == journalled makespan, exactly,
        and no job's named overhead exceeds its ``overhead_seconds``."""
        return self.total_seconds == self.journal_seconds and all(
            job.blame["recovery"] >= 0 for job in self.jobs
        )

    @property
    def blame_seconds(self) -> float:
        return sum(self.blame.values())

    def as_dict(self) -> dict:
        """JSON-ready, canonical form (no wall-clock fields anywhere)."""
        return {
            "total_seconds": self.total_seconds,
            "journal_seconds": self.journal_seconds,
            "reconciled": self.reconciled,
            "blame": dict(self.blame),
            "restores": [asdict(restore) for restore in self.restores],
            "jobs": [asdict(job) for job in self.jobs],
            "off_path": [asdict(attempt) for attempt in self.off_path],
        }


def _phase_on_path(phase: SpanNode, timing: dict) -> "PhaseOnPath | None":
    seconds = float(timing.get(f"{phase.name}_seconds") or 0.0)
    sims = [task.sim_seconds for task in phase.tasks]
    if not sims:
        return None
    slots = int(phase.get("slots") or 1)
    placement = lpt_schedule(sims, slots)
    chain_end = max(end for _, _, _, end in placement)
    completion: dict[int, float] = {}
    for _, slot, _, end in placement:
        completion[slot] = max(completion.get(slot, 0.0), end)
    worst = min(completion, key=lambda slot: (-completion[slot], slot))
    chain = [index for index, slot, _, _ in placement if slot == worst]
    ideal = sum(sims) / slots
    tasks = [
        TaskSlack(
            index=index,
            slot=slot,
            start=start,
            end=end,
            slack=chain_end - completion[slot],
            critical=slot == worst,
        )
        for index, slot, start, end in placement
    ]
    return PhaseOnPath(
        phase=phase.name,
        seconds=seconds,
        ideal_seconds=ideal,
        straggler_seconds=max(0.0, seconds - min(seconds, ideal)),
        slots=slots,
        chain=chain,
        chain_seconds=chain_end,
        tasks=tasks,
    )


def _retry_backoff(job: SpanNode, retry_events: "list[EventRecord]") -> float:
    """Backoff seconds the winning attempt inherited from its failed
    predecessors: ``job_retry`` events are emitted between attempts
    (parent: the enclosing iteration span) and name the job."""
    parent_id = job.parent.id if job.parent is not None else None
    return sum(
        float(event.attrs.get("backoff_seconds") or 0.0)
        for event in retry_events
        if event.parent == parent_id and event.attrs.get("job") == job.name
    )


def _heartbeat_seconds(job: SpanNode) -> float:
    """Heartbeat-timeout overhead charged under this attempt's span."""
    return sum(
        float(event.attrs.get("heartbeat_timeout_seconds") or 0.0)
        for event in job.events
        if event.name == "node_lost"
    )


def _job_on_path(
    job: SpanNode,
    start: float,
    end: float,
    retry_events: "list[EventRecord]",
) -> JobOnPath:
    timing = job.get("timing") or {}
    sim = float(job.get("simulated_seconds") or 0.0)
    overhead = float(job.get("overhead_seconds") or 0.0)
    phases = []
    for child in job.children:
        if child.kind != "phase":
            continue
        placed = _phase_on_path(child, timing)
        if placed is not None:
            phases.append(placed)
    startup = float(timing.get("startup_seconds") or 0.0)
    shuffle = float(timing.get("shuffle_seconds") or 0.0)
    compute = sum(min(p.seconds, p.ideal_seconds) for p in phases)
    stragglers = sum(p.straggler_seconds for p in phases)
    retries = _retry_backoff(job, retry_events)
    heartbeat = _heartbeat_seconds(job)
    blame = {
        "startup": startup,
        "compute": compute,
        "stragglers": stragglers,
        "shuffle": shuffle,
        "retries": retries,
        "heartbeat": heartbeat,
        # The overhead the named causes don't explain: re-replication
        # writes and replica-failover re-reads. Negative only for a
        # journal the runtime cannot have written (see ``reconciled``).
        "recovery": overhead - retries - heartbeat,
    }
    return JobOnPath(
        job=job.name,
        attempt=int(job.get("attempt") or 1),
        span=job.id,
        start=start,
        end=end,
        sim_seconds=sim,
        overhead_seconds=overhead,
        retries=int(job.get("retries") or 0),
        blame=blame,
        phases=phases,
    )


def critical_path(replay: RunReplay) -> CriticalPath:
    """Extract the critical path (and blame breakdown) of a replay.

    Works on complete and interrupted journals alike: only
    clock-charged segments (restored baselines + successful attempts)
    appear on the path; everything else is listed under ``off_path``.
    """
    restores: list[RestoreOnPath] = []
    clock = 0.0
    for event in replay.restored_baselines():
        seconds = float(event.attrs.get("simulated_seconds") or 0.0)
        restores.append(
            RestoreOnPath(
                name=str(event.attrs.get("name") or "checkpoint"),
                iteration=event.attrs.get("iteration"),
                jobs=int(event.attrs.get("jobs") or 0),
                start=clock,
                end=clock + seconds,
                seconds=seconds,
            )
        )
        clock += seconds
    retry_events = replay.events_named("job_retry")
    jobs: list[JobOnPath] = []
    for job in replay.successful_jobs():
        seconds = float(job.get("simulated_seconds") or 0.0)
        jobs.append(_job_on_path(job, clock, clock + seconds, retry_events))
        clock += seconds
    off_path = [
        OffPathAttempt(
            job=attempt.name,
            attempt=int(attempt.get("attempt") or 1),
            span=attempt.id,
            status=str(attempt.get("status") or "incomplete"),
        )
        for attempt in replay.jobs()
        if attempt.get("status") != "ok"
    ]
    blame = {category: 0.0 for category in BLAME_CATEGORIES}
    blame["checkpointing"] = replay.restored_seconds
    for job in jobs:
        for category, seconds in job.blame.items():
            blame[category] += seconds
    return CriticalPath(
        total_seconds=clock,
        journal_seconds=replay.total_simulated_seconds(),
        restores=restores,
        jobs=jobs,
        off_path=off_path,
        blame=blame,
    )


# -- rendering -----------------------------------------------------------


def render_critical(path: CriticalPath, limit: int = 10) -> str:
    """The critical-path section of ``repro analyze``."""
    verdict = (
        "reconciled exactly"
        if path.reconciled
        else "NOT RECONCILED (journal accounting mismatch)"
    )
    lines = [
        f"critical path: {path.total_seconds:.6f}s over {len(path.jobs)} "
        f"jobs + {len(path.restores)} restored baselines "
        f"== journalled makespan {path.journal_seconds:.6f}s -- {verdict}",
    ]
    total = path.total_seconds or 1.0
    blame_bits = []
    for category in BLAME_CATEGORIES:
        seconds = path.blame.get(category, 0.0)
        if seconds:
            blame_bits.append(
                f"{category} {seconds:.2f}s ({seconds / total * 100:.1f}%)"
            )
    lines.append("blame: " + ("  ".join(blame_bits) or "(empty run)"))
    ranked = sorted(path.jobs, key=lambda job: -job.sim_seconds)
    if ranked:
        lines.append("")
        lines.append(f"longest path segments (top {min(limit, len(ranked))}):")
    for job in ranked[:limit]:
        bits = [
            f"  [{job.start:9.2f}s -> {job.end:9.2f}s] {job.job} "
            f"(attempt {job.attempt}) {job.sim_seconds:.2f}s"
        ]
        for phase in job.phases:
            critical_tasks = len(phase.chain)
            bits.append(
                f"{phase.phase} chain {critical_tasks} tasks"
                f" {phase.chain_seconds:.2f}s"
                f" (+{phase.straggler_seconds:.2f}s straggler)"
            )
        if job.overhead_seconds:
            bits.append(f"overhead {job.overhead_seconds:.2f}s")
        lines.append("  ".join(bits))
    if len(ranked) > limit:
        lines.append(f"  ... {len(ranked) - limit} more segments not shown")
    if path.off_path:
        lines.append(
            f"off-path: {len(path.off_path)} failed/abandoned attempts "
            "(0 clock seconds; their backoff rides the winning attempt)"
        )
    return "\n".join(lines)
