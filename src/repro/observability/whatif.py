"""What-if simulator: re-schedule a recorded run under a modified
cluster configuration.

A journal records every successful job's per-task simulated durations,
per-phase timings, live slot capacity and counters. That is enough to
*deterministically* re-run the scheduling decision — not the
clustering math — under a changed configuration: different slot
counts, a wider or narrower shuffle fabric, the combiner turned off, a
different split granularity, or pure-LPT placement instead of the
recorded (possibly locality-aware) schedule. ``repro whatif JOURNAL
--set num_workers=8`` prints the predicted makespan delta; the
:mod:`benchmarks.bench_whatif_accuracy` bench validates predictions
against real re-runs.

Prediction model (per successful job)
-------------------------------------

* **startup / overhead** — configuration-independent, kept as recorded.
* **map / reduce** — the recorded per-task durations are re-scheduled
  with the shared LPT hook
  (:func:`repro.mapreduce.costmodel.lpt_schedule`) onto the scenario's
  slot count. Predictions are *calibrated*: the new LPT makespan is
  scaled by ``recorded / LPT(recorded slots)`` so a journal whose
  scheduler beat (or trailed) plain LPT keeps that ratio —
  ``scheduler=lpt`` disables the calibration and predicts the pure LPT
  schedule. An untouched phase predicts exactly its recorded seconds.
* **shuffle** — recorded seconds scaled by ``recorded nodes / new
  nodes`` (the fabric is per-node) and by the combiner growth ratio.
* **combiner off** — shuffle bytes and reduce input records grow by
  ``COMBINE_INPUT_RECORDS / COMBINE_OUTPUT_RECORDS``; each reduce
  task's non-startup time scales accordingly. Jobs without combine
  counters are unaffected. (``combiner=on`` over a journal recorded
  without a combiner has nothing to infer from and predicts no change.)
* **split_factor F** — map work is re-binned into ``round(F × tasks)``
  balanced tasks of ``startup + work/count`` seconds each (skew within
  a phase is not preserved across re-binning; the bench bounds the
  resulting error).
* **reduce task count** — when a job's recorded reduce-task count
  followed cluster capacity (one task per slot, the runtime's default)
  the re-bin follows the scenario's capacity too; explicitly-sized
  jobs keep their count.

Scenario keys accepted by ``--set``: ``nodes``, ``num_workers`` (total
slots per phase), ``map_slots``, ``reduce_slots``, ``combiner``
(on/off), ``split_factor``, ``scheduler`` (``lpt``/``recorded``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.mapreduce.costmodel import makespan
from repro.mapreduce.counters import FRAMEWORK_GROUP, MRCounter
from repro.observability.replay import RunReplay, SpanNode, left_fold_seconds

#: ``--set`` keys, with parsers. ``num_workers`` is the CLI-friendly
#: alias for "total task slots per phase" — the simulated analogue of
#: adding or removing workers.
SCENARIO_KEYS = (
    "nodes",
    "num_workers",
    "map_slots",
    "reduce_slots",
    "combiner",
    "split_factor",
    "scheduler",
)

SCHEDULERS = ("recorded", "lpt")


class ScenarioError(ValueError):
    """A ``--set`` assignment that cannot be parsed or applied."""


@dataclass(frozen=True)
class Scenario:
    """One counterfactual configuration, all knobs optional."""

    nodes: "int | None" = None
    num_workers: "int | None" = None
    map_slots: "int | None" = None
    reduce_slots: "int | None" = None
    combiner: "bool | None" = None
    split_factor: "float | None" = None
    scheduler: "str | None" = None

    def __post_init__(self) -> None:
        for name in ("nodes", "num_workers", "map_slots", "reduce_slots"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ScenarioError(f"{name} must be >= 1, got {value}")
        if self.split_factor is not None and self.split_factor <= 0:
            raise ScenarioError(
                f"split_factor must be > 0, got {self.split_factor}"
            )
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise ScenarioError(
                f"scheduler must be one of {SCHEDULERS}, got {self.scheduler!r}"
            )

    @property
    def empty(self) -> bool:
        return all(
            getattr(self, name) is None for name in SCENARIO_KEYS
        )

    def describe(self) -> str:
        bits = [
            f"{name}={getattr(self, name)}"
            for name in SCENARIO_KEYS
            if getattr(self, name) is not None
        ]
        return ", ".join(bits) or "(no changes)"


def parse_scenario(assignments: "list[str]") -> Scenario:
    """Parse repeated ``--set key=value`` strings into a Scenario."""
    values: dict = {}
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ScenarioError(
                f"expected key=value, got {assignment!r}"
            )
        if key not in SCENARIO_KEYS:
            raise ScenarioError(
                f"unknown scenario key {key!r}; known: {', '.join(SCENARIO_KEYS)}"
            )
        raw = raw.strip()
        if key in ("nodes", "num_workers", "map_slots", "reduce_slots"):
            try:
                values[key] = int(raw)
            except ValueError as exc:
                raise ScenarioError(f"{key} expects an integer: {raw!r}") from exc
        elif key == "split_factor":
            try:
                values[key] = float(raw)
            except ValueError as exc:
                raise ScenarioError(f"{key} expects a number: {raw!r}") from exc
        elif key == "combiner":
            lowered = raw.lower()
            if lowered in ("on", "true", "1", "yes"):
                values[key] = True
            elif lowered in ("off", "false", "0", "no"):
                values[key] = False
            else:
                raise ScenarioError(f"combiner expects on/off: {raw!r}")
        else:
            values[key] = raw
    return Scenario(**values)


PHASE_ORDER = ("startup", "map", "shuffle", "reduce", "overhead")


@dataclass(frozen=True)
class JobPrediction:
    """Recorded vs predicted per-phase seconds of one successful job."""

    job: str
    attempt: int
    recorded: "dict[str, float]"
    predicted: "dict[str, float]"

    @property
    def recorded_seconds(self) -> float:
        return left_fold_seconds(self.recorded.values())

    @property
    def predicted_seconds(self) -> float:
        return left_fold_seconds(self.predicted.values())


@dataclass
class WhatIfReport:
    """Outcome of re-scheduling one journal under one scenario."""

    scenario: Scenario
    recorded_total: float
    predicted_total: float
    restore_seconds: float
    jobs: "list[JobPrediction]" = field(default_factory=list)
    #: Successful jobs recorded without a per-phase ``timing`` dict:
    #: nothing to re-schedule, so their simulated seconds ride both
    #: totals unchanged (like restored baselines) instead of silently
    #: dropping out of the recorded makespan.
    as_recorded_jobs: int = 0
    as_recorded_seconds: float = 0.0

    @property
    def delta_seconds(self) -> float:
        return self.predicted_total - self.recorded_total

    @property
    def delta_fraction(self) -> "float | None":
        if self.recorded_total > 0:
            return self.delta_seconds / self.recorded_total
        return None

    def phase_totals(self) -> "dict[str, tuple[float, float]]":
        totals = {name: [0.0, 0.0] for name in PHASE_ORDER}
        for job in self.jobs:
            for name in PHASE_ORDER:
                totals[name][0] += job.recorded.get(name, 0.0)
                totals[name][1] += job.predicted.get(name, 0.0)
        return {name: (rec, pred) for name, (rec, pred) in totals.items()}

    def as_dict(self) -> dict:
        return {
            "scenario": asdict(self.scenario),
            "recorded_total": self.recorded_total,
            "predicted_total": self.predicted_total,
            "delta_seconds": self.delta_seconds,
            "delta_fraction": self.delta_fraction,
            "restore_seconds": self.restore_seconds,
            "as_recorded_jobs": self.as_recorded_jobs,
            "as_recorded_seconds": self.as_recorded_seconds,
            "phase_totals": {
                name: {"recorded": rec, "predicted": pred}
                for name, (rec, pred) in self.phase_totals().items()
            },
            "jobs": [
                {
                    "job": job.job,
                    "attempt": job.attempt,
                    "recorded": job.recorded,
                    "predicted": job.predicted,
                    "recorded_seconds": job.recorded_seconds,
                    "predicted_seconds": job.predicted_seconds,
                }
                for job in self.jobs
            ],
        }


def _phase_tasks(job: SpanNode, name: str) -> "tuple[SpanNode | None, list[float]]":
    for child in job.children:
        if child.kind == "phase" and child.name == name:
            return child, [task.sim_seconds for task in child.tasks]
    return None, []


def _combine_growth(job: SpanNode, scenario: Scenario) -> float:
    """Record growth factor for the scenario's combiner setting."""
    if scenario.combiner is not False:
        return 1.0
    if not job.get("combiner_optional"):
        # Only jobs whose combiner is droppable pre-aggregation (the
        # runtime journals the flag) change when the knob flips; jobs
        # whose combiner is load-bearing keep theirs in a real re-run.
        return 1.0
    counters = job.counters()
    cin = counters.get(FRAMEWORK_GROUP, MRCounter.COMBINE_INPUT_RECORDS)
    cout = counters.get(FRAMEWORK_GROUP, MRCounter.COMBINE_OUTPUT_RECORDS)
    if cin > 0 and cout > 0:
        return cin / cout
    return 1.0


def _scaled_slots(
    recorded_slots: int,
    explicit: "int | None",
    scenario: Scenario,
    recorded_nodes: "int | None",
) -> int:
    if explicit is not None:
        return max(1, explicit)
    if scenario.num_workers is not None:
        return max(1, scenario.num_workers)
    if scenario.nodes is not None and recorded_nodes:
        return max(
            1, int(round(recorded_slots * scenario.nodes / recorded_nodes))
        )
    return recorded_slots


def _predict_phase(
    sims: "list[float]",
    recorded_seconds: float,
    recorded_slots: int,
    new_slots: int,
    scenario: Scenario,
    startup: float,
    rebin_count: "int | None" = None,
    work_scale: float = 1.0,
) -> float:
    """Calibrated LPT prediction for one phase (see module docstring)."""
    if not sims:
        return recorded_seconds
    tasks = list(sims)
    if work_scale != 1.0:
        tasks = [startup + (t - startup) * work_scale for t in tasks]
    if rebin_count is not None and rebin_count != len(tasks):
        work = sum(max(0.0, t - startup) for t in tasks)
        tasks = [startup + work / rebin_count] * rebin_count
    untouched = (
        new_slots == recorded_slots
        and tasks == sims
        and scenario.scheduler != "lpt"
    )
    if untouched:
        return recorded_seconds
    predicted = makespan(tasks, new_slots)
    if scenario.scheduler != "lpt":
        baseline = makespan(sims, recorded_slots)
        if baseline > 0 and recorded_seconds > 0:
            predicted *= recorded_seconds / baseline
    return predicted


def _predict_job(
    job: SpanNode, scenario: Scenario, task_startup: float
) -> "JobPrediction | None":
    timing = job.get("timing") or {}
    if not timing:
        return None
    sim = float(job.get("simulated_seconds") or 0.0)
    recorded = {
        "startup": float(timing.get("startup_seconds") or 0.0),
        "map": float(timing.get("map_seconds") or 0.0),
        "shuffle": float(timing.get("shuffle_seconds") or 0.0),
        "reduce": float(timing.get("reduce_seconds") or 0.0),
    }
    recorded["overhead"] = sim - left_fold_seconds(recorded.values())
    nodes = job.get("nodes")
    recorded_nodes = int(nodes) if nodes else None
    growth = _combine_growth(job, scenario)

    map_phase, map_sims = _phase_tasks(job, "map")
    map_slots = int(map_phase.get("slots") or 1) if map_phase else 1
    new_map_slots = _scaled_slots(
        map_slots, scenario.map_slots, scenario, recorded_nodes
    )
    map_rebin = None
    if scenario.split_factor is not None and map_sims:
        map_rebin = max(1, int(round(len(map_sims) * scenario.split_factor)))
    predicted_map = _predict_phase(
        map_sims,
        recorded["map"],
        map_slots,
        new_map_slots,
        scenario,
        task_startup,
        rebin_count=map_rebin,
    )

    reduce_phase, reduce_sims = _phase_tasks(job, "reduce")
    reduce_slots = int(reduce_phase.get("slots") or 1) if reduce_phase else 1
    new_reduce_slots = _scaled_slots(
        reduce_slots, scenario.reduce_slots, scenario, recorded_nodes
    )
    reduce_rebin = None
    if reduce_sims and len(reduce_sims) == reduce_slots:
        # Capacity-following job (the runtime's default sizing): the
        # re-run would size its reduce wave to the new capacity too.
        if new_reduce_slots != reduce_slots:
            reduce_rebin = new_reduce_slots
    predicted_reduce = _predict_phase(
        reduce_sims,
        recorded["reduce"],
        reduce_slots,
        new_reduce_slots,
        scenario,
        task_startup,
        rebin_count=reduce_rebin,
        work_scale=growth,
    )

    predicted_shuffle = recorded["shuffle"] * growth
    if scenario.nodes is not None and recorded_nodes:
        predicted_shuffle *= recorded_nodes / scenario.nodes

    predicted = {
        "startup": recorded["startup"],
        "map": predicted_map,
        "shuffle": predicted_shuffle,
        "reduce": predicted_reduce,
        "overhead": recorded["overhead"],
    }
    return JobPrediction(
        job=job.name,
        attempt=int(job.get("attempt") or 1),
        recorded=recorded,
        predicted=predicted,
    )


def whatif_replay(
    replay: RunReplay,
    scenario: Scenario,
    task_startup_seconds: float = 1.0,
) -> WhatIfReport:
    """Re-schedule every successful job of ``replay`` under ``scenario``.

    ``task_startup_seconds`` must match the run's
    :class:`~repro.mapreduce.costmodel.CostParameters` (default
    matches the defaults) — it is only used to split task durations
    into startup and work for re-binning. An empty scenario predicts
    exactly the recorded totals (the identity check the test suite
    pins).
    """
    # The replay's own restore fold, so an identity scenario's recorded
    # total matches the journalled makespan bitwise.
    restore_seconds = replay.restored_seconds
    jobs = []
    recorded_total = restore_seconds
    predicted_total = restore_seconds
    as_recorded_jobs = 0
    as_recorded_seconds = 0.0
    for span in replay.successful_jobs():
        prediction = _predict_job(span, scenario, task_startup_seconds)
        if prediction is None:
            # No per-phase timing journalled: nothing to re-schedule,
            # but the job's clock-charged seconds still belong to the
            # makespan. Carry them as-recorded on both sides (like the
            # restored baselines) and surface the count in the report.
            seconds = float(span.get("simulated_seconds") or 0.0)
            as_recorded_jobs += 1
            as_recorded_seconds += seconds
            recorded_total += seconds
            predicted_total += seconds
            continue
        jobs.append(prediction)
        recorded_total += prediction.recorded_seconds
        predicted_total += prediction.predicted_seconds
    return WhatIfReport(
        scenario=scenario,
        recorded_total=recorded_total,
        predicted_total=predicted_total,
        restore_seconds=restore_seconds,
        jobs=jobs,
        as_recorded_jobs=as_recorded_jobs,
        as_recorded_seconds=as_recorded_seconds,
    )


def render_whatif(report: WhatIfReport, limit: int = 12) -> str:
    """Terminal rendering of a what-if prediction."""
    frac = report.delta_fraction
    frac_text = f" ({frac * 100:+.1f}%)" if frac is not None else ""
    lines = [
        f"scenario: {report.scenario.describe()}",
        f"recorded makespan:  {report.recorded_total:12.2f}s",
        f"predicted makespan: {report.predicted_total:12.2f}s"
        f"  delta {report.delta_seconds:+.2f}s{frac_text}",
        "",
        "per-phase totals (recorded -> predicted):",
    ]
    for name, (rec, pred) in report.phase_totals().items():
        if rec == 0 and pred == 0:
            continue
        delta = pred - rec
        lines.append(
            f"  {name:<8} {rec:10.2f}s -> {pred:10.2f}s  ({delta:+.2f}s)"
        )
    moved = sorted(
        report.jobs,
        key=lambda job: -abs(job.predicted_seconds - job.recorded_seconds),
    )
    moved = [
        job
        for job in moved
        if abs(job.predicted_seconds - job.recorded_seconds) > 1e-9
    ]
    if moved:
        lines.append("")
        lines.append("most-moved jobs:")
        for job in moved[:limit]:
            delta = job.predicted_seconds - job.recorded_seconds
            lines.append(
                f"  {job.job} (attempt {job.attempt}): "
                f"{job.recorded_seconds:.2f}s -> {job.predicted_seconds:.2f}s"
                f" ({delta:+.2f}s)"
            )
        if len(moved) > limit:
            lines.append(f"  ... {len(moved) - limit} more jobs moved")
    if report.restore_seconds:
        lines.append(
            f"restored baselines contribute {report.restore_seconds:.2f}s "
            "to both totals (not re-scheduled)"
        )
    if report.as_recorded_jobs:
        lines.append(
            f"{report.as_recorded_jobs} job(s) recorded without timing "
            f"carried as-recorded ({report.as_recorded_seconds:.2f}s, "
            "not re-scheduled)"
        )
    return "\n".join(lines)
