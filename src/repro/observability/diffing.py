"""Cross-run regression detection over two recorded journals.

``repro diff BASELINE CANDIDATE`` reduces each journal to a
:class:`RunSummary` — accounted simulated time, per-phase totals, the
reconciled counter totals, the k-trajectory, and fault-event counts —
then compares candidate against baseline under configurable
thresholds. Time and watched-counter growth beyond the threshold is a
regression; a diverging k-trajectory is *always* a regression (the
algorithm's results changed, not just its cost) unless explicitly
allowed. The CLI exits non-zero when any regression is found, which is
what turns a committed baseline journal into a CI perf gate.

Wall-clock fields are never compared — only simulated, deterministic
quantities — so journals recorded on different machines (or different
executor backends) diff cleanly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.mapreduce.counters import (
    FRAMEWORK_GROUP,
    MRCounter,
    USER_GROUP,
    UserCounter,
)
from repro.observability.replay import RunReplay

#: Counters the diff gates on: the cost drivers of the paper's model
#: plus the fault-tolerance work a regression could silently inflate.
WATCHED_COUNTERS = (
    (FRAMEWORK_GROUP, MRCounter.DATASET_READS),
    (FRAMEWORK_GROUP, MRCounter.HDFS_BYTES_READ),
    (FRAMEWORK_GROUP, MRCounter.SHUFFLE_BYTES),
    (FRAMEWORK_GROUP, MRCounter.JOB_RETRIES),
    (USER_GROUP, UserCounter.DISTANCE_COMPUTATIONS),
    (USER_GROUP, UserCounter.AD_TESTS),
)

#: Phase keys of the per-job ``timing`` breakdown, summed per run.
PHASE_KEYS = ("startup_seconds", "map_seconds", "shuffle_seconds", "reduce_seconds")


@dataclass
class RunSummary:
    """Everything the diff compares, reduced from one journal."""

    runs: int = 0
    jobs: int = 0
    job_attempts: int = 0
    degraded_iterations: int = 0
    simulated_seconds: float = 0.0
    phase_seconds: "dict[str, float]" = field(default_factory=dict)
    counters: "dict[str, dict[str, int]]" = field(default_factory=dict)
    k_trajectory: "list[list[int | None]]" = field(default_factory=list)
    k_found: "int | None" = None
    fault_events: "dict[str, int]" = field(default_factory=dict)

    def counter(self, group: str, name: str) -> int:
        return int(self.counters.get(group, {}).get(name, 0))

    def as_dict(self) -> dict:
        return asdict(self)


#: Fault-tolerance events worth surfacing in the diff (report-only
#: unless they move a watched counter or the clock).
FAULT_EVENTS = (
    "job_retry",
    "task_attempt_failures",
    "speculative_task",
    "replica_failover",
    "blocks_lost",
    "re_replication",
    "checkpoint_write",
    "checkpoint_restore",
    "degraded_iteration",
    "iteration_skipped",
    "node_lost",
    "node_recovered",
    "node_blacklisted",
    "tasks_rescheduled",
    "strategy_redecision",
    "anomaly",
    "anomaly_config",
)


def summarize_replay(replay: RunReplay) -> RunSummary:
    """Reduce a replayed journal to the diffable :class:`RunSummary`."""
    summary = RunSummary()
    summary.runs = len(replay.runs())
    successful = replay.successful_jobs()
    summary.jobs = len(successful)
    summary.job_attempts = len(replay.jobs())
    summary.simulated_seconds = replay.total_simulated_seconds()
    summary.counters = replay.total_counters().as_dict()
    phase_totals = {key: 0.0 for key in PHASE_KEYS}
    for job in successful:
        timing = job.get("timing") or {}
        for key in PHASE_KEYS:
            phase_totals[key] += float(timing.get(key) or 0.0)
    summary.phase_seconds = phase_totals
    for span in replay.iterations():
        summary.k_trajectory.append([span.get("k_before"), span.get("k_after")])
        if span.get("degraded"):
            summary.degraded_iterations += 1
    for run in replay.runs():
        k_found = run.get("k_found")
        if k_found is not None:
            summary.k_found = int(k_found)
    for name in FAULT_EVENTS:
        count = len(replay.events_named(name))
        if count:
            summary.fault_events[name] = count
    return summary


@dataclass(frozen=True)
class DiffThresholds:
    """Regression gates for :func:`diff_summaries`.

    ``max_time_regression`` / ``max_counter_regression`` are fractional
    growth budgets (0.10 = candidate may be up to 10% worse).
    ``min_seconds`` / ``min_counter`` are absolute floors below which a
    base value is too small for a fractional comparison to be
    meaningful — any candidate growth past the floor then counts.
    """

    max_time_regression: float = 0.10
    max_counter_regression: float = 0.25
    min_seconds: float = 1e-6
    min_counter: int = 10
    allow_k_drift: bool = False


@dataclass(frozen=True)
class DiffEntry:
    """One compared metric."""

    metric: str
    baseline: object
    candidate: object
    regression: bool
    note: str = ""


@dataclass
class DiffReport:
    """Outcome of one baseline/candidate comparison."""

    baseline_path: str
    candidate_path: str
    thresholds: DiffThresholds
    entries: "list[DiffEntry]" = field(default_factory=list)

    @property
    def regressions(self) -> "list[DiffEntry]":
        return [entry for entry in self.entries if entry.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> dict:
        return {
            "baseline": self.baseline_path,
            "candidate": self.candidate_path,
            "thresholds": asdict(self.thresholds),
            "ok": self.ok,
            "entries": [asdict(entry) for entry in self.entries],
        }


def _growth(base: float, cand: float) -> "float | None":
    if base > 0:
        return (cand - base) / base
    return None


def _compare_seconds(
    entries: "list[DiffEntry]",
    metric: str,
    base: float,
    cand: float,
    thresholds: DiffThresholds,
) -> None:
    growth = _growth(base, cand)
    if growth is not None:
        regression = growth > thresholds.max_time_regression
        note = f"{growth * 100:+.1f}%"
    else:
        regression = cand > thresholds.min_seconds
        note = "new cost" if regression else ""
    entries.append(
        DiffEntry(
            metric=metric,
            baseline=round(base, 6),
            candidate=round(cand, 6),
            regression=regression,
            note=note,
        )
    )


def diff_summaries(
    baseline: RunSummary,
    candidate: RunSummary,
    thresholds: "DiffThresholds | None" = None,
    baseline_path: str = "baseline",
    candidate_path: str = "candidate",
) -> DiffReport:
    """Compare two run summaries under ``thresholds``."""
    thresholds = thresholds or DiffThresholds()
    report = DiffReport(
        baseline_path=baseline_path,
        candidate_path=candidate_path,
        thresholds=thresholds,
    )
    entries = report.entries

    _compare_seconds(
        entries,
        "simulated_seconds",
        baseline.simulated_seconds,
        candidate.simulated_seconds,
        thresholds,
    )
    for key in PHASE_KEYS:
        _compare_seconds(
            entries,
            f"phase.{key}",
            baseline.phase_seconds.get(key, 0.0),
            candidate.phase_seconds.get(key, 0.0),
            thresholds,
        )

    for group, name in WATCHED_COUNTERS:
        base = baseline.counter(group, name)
        cand = candidate.counter(group, name)
        if base == cand == 0:
            continue
        growth = _growth(base, cand)
        if growth is not None and base >= thresholds.min_counter:
            regression = growth > thresholds.max_counter_regression
            note = f"{growth * 100:+.1f}%"
        else:
            regression = cand > max(base, thresholds.min_counter)
            note = "grew past floor" if regression else ""
        entries.append(
            DiffEntry(
                metric=f"counter.{group}.{name}",
                baseline=base,
                candidate=cand,
                regression=regression,
                note=note,
            )
        )

    k_same = (
        baseline.k_trajectory == candidate.k_trajectory
        and baseline.k_found == candidate.k_found
    )
    entries.append(
        DiffEntry(
            metric="k_trajectory",
            baseline=f"{baseline.k_trajectory} -> k={baseline.k_found}",
            candidate=f"{candidate.k_trajectory} -> k={candidate.k_found}",
            regression=not k_same and not thresholds.allow_k_drift,
            note="" if k_same else "results diverged",
        )
    )

    entries.append(
        DiffEntry(
            metric="jobs",
            baseline=f"{baseline.jobs} ok / {baseline.job_attempts} attempts",
            candidate=f"{candidate.jobs} ok / {candidate.job_attempts} attempts",
            regression=candidate.job_attempts - candidate.jobs
            > baseline.job_attempts - baseline.jobs,
            note="more failed attempts"
            if candidate.job_attempts - candidate.jobs
            > baseline.job_attempts - baseline.jobs
            else "",
        )
    )
    entries.append(
        DiffEntry(
            metric="degraded_iterations",
            baseline=baseline.degraded_iterations,
            candidate=candidate.degraded_iterations,
            regression=candidate.degraded_iterations
            > baseline.degraded_iterations,
        )
    )

    names = sorted(
        set(baseline.fault_events) | set(candidate.fault_events)
    )
    for name in names:
        base = baseline.fault_events.get(name, 0)
        cand = candidate.fault_events.get(name, 0)
        if base != cand:
            # Fault-event counts are informational: their *cost* gates
            # through time/counters; chaos schedules legitimately vary.
            entries.append(
                DiffEntry(
                    metric=f"event.{name}",
                    baseline=base,
                    candidate=cand,
                    regression=False,
                    note="informational",
                )
            )
    return report


def diff_replays(
    baseline: RunReplay,
    candidate: RunReplay,
    thresholds: "DiffThresholds | None" = None,
    baseline_path: str = "baseline",
    candidate_path: str = "candidate",
) -> DiffReport:
    """Summarise and compare two replayed journals."""
    return diff_summaries(
        summarize_replay(baseline),
        summarize_replay(candidate),
        thresholds,
        baseline_path=baseline_path,
        candidate_path=candidate_path,
    )


def render_diff(report: DiffReport) -> str:
    """Terminal rendering of a :class:`DiffReport`."""
    lines = [
        f"baseline:  {report.baseline_path}",
        f"candidate: {report.candidate_path}",
        "",
    ]
    width = max((len(entry.metric) for entry in report.entries), default=6)
    for entry in report.entries:
        flag = "REGRESSION" if entry.regression else "ok"
        note = f"  [{entry.note}]" if entry.note else ""
        lines.append(
            f"  {entry.metric:<{width}}  {entry.baseline} -> "
            f"{entry.candidate}  {flag}{note}"
        )
    lines.append("")
    if report.ok:
        lines.append("no regressions beyond thresholds")
    else:
        lines.append(
            f"{len(report.regressions)} regression(s): "
            + ", ".join(entry.metric for entry in report.regressions)
        )
    return "\n".join(lines)
