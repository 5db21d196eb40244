"""The self-driving ablation engine behind ``repro ablate``.

Takes one :class:`WorkloadSpec` and the declarative component manifest
(:mod:`repro.observability.components`), runs the baseline plus every
single-flip variant through the deterministic harness with a file
journal each, reduces every run with the same replay accounting the
``repro diff`` gate uses (:func:`~repro.observability.diffing
.summarize_replay`, :func:`~repro.observability.critical
.critical_path`), and scores per-component importance as signed deltas
against the baseline: makespan, shuffle bytes, wasted compute, peak
reducer heap, and the critical-path blame shift.

Every number in the report is *replay accounting over the journals* —
nothing is re-measured — so :func:`verify_importance` can later prove
a committed report still reconciles exactly with its committed
journals, and the whole grid is byte-identical across executor
backends (simulated metrics never depend on how tasks are executed).
Infrastructure flips are asserted to move no simulated metric at all:
the determinism contract becomes a measured row.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace

from repro.observability.components import (
    Component,
    component,
    engine_variants,
)
from repro.observability.critical import BLAME_CATEGORIES, critical_path
from repro.observability.diffing import summarize_replay
from repro.observability.journal import (
    FileJournalSink,
    InMemoryJournalSink,
    Journal,
    replace_journal,
)
from repro.observability.replay import (
    RunReplay,
    replay_journal,
    replay_records,
)

#: ``ablation.json`` schema version, bumped on incompatible changes.
#: v2 removed the ``residual`` blame category.
ABLATION_SCHEMA_VERSION = 2


class AblationError(ValueError):
    """The engine cannot run or a report fails verification."""


@dataclass(frozen=True)
class WorkloadSpec:
    """One seeded, fully-pinned workload the engine ablates.

    Everything an ablation run depends on is a field here — executor
    env vars are deliberately *not* consulted for anything that could
    move a simulated metric, so the same spec always produces the same
    report bytes. Stragglers and task failures are injected (seeded)
    so the speculative-execution and retry machinery have something to
    show; the combiner axis needs ``vectorized=False`` plus a slow
    network, exactly like ``benchmarks/bench_whatif_accuracy.py``.
    """

    name: str = "ablate"
    n_points: int = 3000
    k_real: int = 4
    dimensions: int = 4
    data_seed: int = 11
    seed: int = 11
    nodes: int = 4
    target_splits: int = 16
    map_slots_per_node: int = 8
    reduce_slots_per_node: int = 8
    task_heap_mb: int = 1024
    strategy: str = "auto"
    kmeans_iterations: int = 2
    num_reduce_tasks: int = 16
    vectorized: bool = False
    straggler_probability: float = 0.12
    straggler_slowdown: float = 4.0
    task_failure_probability: float = 0.03
    max_job_retries: int = 2
    network_mbps_per_node: float = 0.5
    task_startup_seconds: float = 0.05
    #: DFS split count relative to ``target_splits``.
    split_factor: float = 1.0

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise AblationError(
                f"unknown workload fields: {', '.join(sorted(unknown))}"
            )
        return cls(**data)


def _resolve_overrides(
    overrides: "dict[str, object]",
) -> "dict[str, dict[str, object]]":
    """Component-name -> value, bucketed by target namespace."""
    buckets: "dict[str, dict[str, object]]" = {
        "gmeans": {},
        "runtime": {},
        "faults": {},
        "config": {},
        "dfs": {},
        "workload": {},
    }
    for name, value in overrides.items():
        comp = component(name)
        if comp.namespace not in buckets:
            raise AblationError(
                f"component {name!r} targets {comp.target!r}, which the "
                "ablation harness cannot apply"
            )
        buckets[comp.namespace][comp.field] = value
    return buckets


def run_workload(
    spec: WorkloadSpec,
    overrides: "dict[str, object] | None" = None,
    journal_path: "str | None" = None,
) -> RunReplay:
    """Run one (possibly flipped) G-means fit; return its replay.

    ``overrides`` maps component names to values; everything else is
    pinned by the spec. With ``journal_path`` the journal is written
    to disk, replacing an existing file unless both record the same run
    (:func:`~repro.observability.journal.replace_journal`); without it
    the run is journalled in memory only.
    """
    # Heavyweight imports stay local: repro.observability must be
    # importable without dragging the whole algorithm stack in.
    from repro.common.rng import ensure_rng
    from repro.core.config import MRGMeansConfig
    from repro.core.gmeans_mr import MRGMeans
    from repro.data.generator import generate_gaussian_mixture
    from repro.data.loader import write_points
    from repro.evaluation.harness import BENCH_COST, target_split_bytes
    from repro.mapreduce.cluster import ClusterConfig
    from repro.mapreduce.executors import RuntimeConfig
    from repro.mapreduce.faults import FaultModel
    from repro.mapreduce.hdfs import InMemoryDFS
    from repro.mapreduce.runtime import MapReduceRuntime

    buckets = _resolve_overrides(overrides or {})
    gmeans_over = buckets["gmeans"]
    runtime_over = buckets["runtime"]
    faults_over = buckets["faults"]
    config_over = buckets["config"]
    spec = replace(spec, **buckets["workload"])

    target_splits = max(1, int(round(spec.target_splits * spec.split_factor)))
    mixture = generate_gaussian_mixture(
        n_points=spec.n_points,
        n_clusters=spec.k_real,
        dimensions=spec.dimensions,
        rng=spec.data_seed,
        center_low=0.0,
        center_high=150.0,
    )
    split_bytes = target_split_bytes(
        spec.n_points, spec.dimensions, target_splits
    )
    # The executor and data-plane axes only matter to wall clock; the
    # baseline follows the environment (so the whole grid can be re-run
    # per backend to prove byte-identity) and a flip pins the one knob
    # it names. The plane is the DFS's choice, made at write time.
    env_config = RuntimeConfig.from_env()
    executor = str(config_over.get("executor", env_config.executor))
    dfs = InMemoryDFS(split_size_bytes=split_bytes, **buckets["dfs"])
    dataset = write_points(dfs, spec.name, mixture.points)
    cluster = ClusterConfig(
        nodes=spec.nodes,
        map_slots_per_node=spec.map_slots_per_node,
        reduce_slots_per_node=spec.reduce_slots_per_node,
        task_heap_mb=spec.task_heap_mb,
    )
    faults = FaultModel(
        task_failure_probability=spec.task_failure_probability,
        straggler_probability=spec.straggler_probability,
        straggler_slowdown=spec.straggler_slowdown,
        speculative_execution=bool(
            faults_over.get("speculative_execution", False)
        ),
    )
    num_workers = env_config.num_workers
    if executor != "serial" and num_workers is None:
        num_workers = 2
    config = RuntimeConfig(
        executor=executor,
        num_workers=num_workers,
        max_job_retries=spec.max_job_retries,
    )
    cost = replace(
        BENCH_COST,
        network_mbps_per_node=spec.network_mbps_per_node,
        task_startup_seconds=spec.task_startup_seconds,
    )
    if journal_path:
        # Recorded beside the old journal, which is kept unless the
        # run's canonical records changed.
        fresh = journal_path + ".new"
        if os.path.exists(fresh):
            os.unlink(fresh)
        sink = FileJournalSink(fresh)
    else:
        sink = InMemoryJournalSink()
    journal = Journal(sink)
    try:
        runtime = MapReduceRuntime(
            dfs,
            cluster=cluster,
            cost=cost,
            rng=ensure_rng(spec.seed),
            faults=faults,
            locality=bool(runtime_over.get("locality", False)),
            config=config,
            journal=journal,
        )
        cfg = MRGMeansConfig(
            seed=spec.seed,
            strategy=str(gmeans_over.get("strategy", spec.strategy)),
            use_combiner=bool(gmeans_over.get("use_combiner", True)),
            kmeans_iterations=spec.kmeans_iterations,
            num_reduce_tasks=spec.num_reduce_tasks,
            vectorized=spec.vectorized,
            checkpoint_dir=str(gmeans_over.get("checkpoint_dir", "")),
        )
        MRGMeans(runtime, cfg).fit(dataset)
    finally:
        journal.close()
        if journal_path:
            replace_journal(fresh, journal_path)
    if journal_path:
        return replay_journal(journal_path)
    return replay_records(sink.records)


# -- replay accounting ---------------------------------------------------

#: Counter addresses read by :func:`metrics_from_replay` (kept as
#: strings so scripted test journals need no imports).
_FRAMEWORK = "framework"
_SHUFFLE_BYTES = "SHUFFLE_BYTES"
_WASTED_COMPUTE_SECONDS = "WASTED_COMPUTE_SECONDS"


@dataclass(frozen=True)
class VariantMetrics:
    """Everything importance scoring reads from one journal.

    Pure replay accounting: makespan is the journal's reconciled
    simulated total; wasted compute is the simulated seconds of failed
    job attempts (discarded live, recoverable only from the journal)
    plus the runtime's ``WASTED_COMPUTE_SECONDS`` counter (failed task
    attempts and losing speculative clones inside successful jobs —
    the two pools are disjoint by construction).
    """

    makespan: float
    shuffle_bytes: int
    wasted_seconds: float
    peak_heap_bytes: int
    k_found: "int | None"
    k_trajectory: "list[list[int | None]]"
    jobs: int
    job_attempts: int
    blame: "dict[str, float]"
    fault_events: "dict[str, int]"
    reconciled: bool

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "VariantMetrics":
        return cls(**data)


def metrics_from_replay(replay: RunReplay) -> VariantMetrics:
    """Reduce one replayed journal to the engine's metric vector."""
    summary = summarize_replay(replay)
    cpath = critical_path(replay)
    counter_wasted = float(
        summary.counters.get(_FRAMEWORK, {}).get(_WASTED_COMPUTE_SECONDS, 0.0)
    )
    peak_heap = 0
    for phase in replay.phases():
        heap = phase.get("max_key_heap_bytes")
        if heap is not None:
            peak_heap = max(peak_heap, int(heap))
    return VariantMetrics(
        makespan=summary.simulated_seconds,
        shuffle_bytes=int(
            summary.counters.get(_FRAMEWORK, {}).get(_SHUFFLE_BYTES, 0)
        ),
        wasted_seconds=replay.failed_attempt_seconds() + counter_wasted,
        peak_heap_bytes=peak_heap,
        k_found=summary.k_found,
        k_trajectory=summary.k_trajectory,
        jobs=summary.jobs,
        job_attempts=summary.job_attempts,
        blame={name: cpath.blame.get(name, 0.0) for name in BLAME_CATEGORIES},
        fault_events=dict(summary.fault_events),
        reconciled=cpath.reconciled,
    )


@dataclass(frozen=True)
class ComponentImportance:
    """One flip's signed deltas against the baseline run."""

    component: str
    value: object
    label: str
    layer: str
    simulated_invariant: bool
    journal: str
    metrics: VariantMetrics
    delta_makespan: float
    delta_fraction: "float | None"
    delta_shuffle_bytes: int
    delta_wasted_seconds: float
    delta_heap_bytes: int
    blame_shift: "dict[str, float]"
    events_delta: "dict[str, int]"
    k_drift: bool
    invariant_ok: bool

    def as_dict(self) -> dict:
        data = asdict(self)
        data["metrics"] = self.metrics.as_dict()
        return data


def score_variant(
    comp: Component,
    value: object,
    journal: str,
    baseline: VariantMetrics,
    metrics: VariantMetrics,
) -> ComponentImportance:
    """Signed importance deltas of one flip vs the baseline metrics.

    Deltas are plain float subtraction of replay-accounted values, so
    recomputing them from the journals reproduces them bit-for-bit.
    """
    delta_makespan = metrics.makespan - baseline.makespan
    delta_fraction = (
        delta_makespan / baseline.makespan if baseline.makespan > 0 else None
    )
    k_drift = (
        metrics.k_trajectory != baseline.k_trajectory
        or metrics.k_found != baseline.k_found
    )
    events_delta = {
        name: metrics.fault_events.get(name, 0)
        - baseline.fault_events.get(name, 0)
        for name in sorted(
            set(metrics.fault_events) | set(baseline.fault_events)
        )
        if metrics.fault_events.get(name, 0)
        != baseline.fault_events.get(name, 0)
    }
    simulated_same = (
        metrics.makespan == baseline.makespan
        and metrics.shuffle_bytes == baseline.shuffle_bytes
        and metrics.wasted_seconds == baseline.wasted_seconds
        and metrics.peak_heap_bytes == baseline.peak_heap_bytes
        and not events_delta
        and not k_drift
    )
    return ComponentImportance(
        component=comp.name,
        value=value,
        label=comp.label(value),
        layer=comp.layer,
        simulated_invariant=comp.simulated_invariant,
        journal=journal,
        metrics=metrics,
        delta_makespan=delta_makespan,
        delta_fraction=delta_fraction,
        delta_shuffle_bytes=metrics.shuffle_bytes - baseline.shuffle_bytes,
        delta_wasted_seconds=metrics.wasted_seconds - baseline.wasted_seconds,
        delta_heap_bytes=metrics.peak_heap_bytes - baseline.peak_heap_bytes,
        blame_shift={
            name: metrics.blame.get(name, 0.0) - baseline.blame.get(name, 0.0)
            for name in BLAME_CATEGORIES
        },
        events_delta=events_delta,
        k_drift=k_drift,
        invariant_ok=(not comp.simulated_invariant) or simulated_same,
    )


@dataclass
class ImportanceReport:
    """The full grid: baseline plus one entry per flip."""

    spec: WorkloadSpec
    baseline_journal: str
    baseline: VariantMetrics
    variants: "list[ComponentImportance]" = field(default_factory=list)

    def ranked(self) -> "list[ComponentImportance]":
        """Flips by descending |makespan delta| (manifest order tie)."""
        return sorted(
            self.variants, key=lambda v: -abs(v.delta_makespan)
        )

    @property
    def ok(self) -> bool:
        """Every run reconciled, every infrastructure flip invariant."""
        return (
            self.baseline.reconciled
            and all(v.metrics.reconciled for v in self.variants)
            and all(v.invariant_ok for v in self.variants)
        )

    def as_dict(self) -> dict:
        return {
            "schema_version": ABLATION_SCHEMA_VERSION,
            "spec": self.spec.as_dict(),
            "baseline": {
                "journal": self.baseline_journal,
                "metrics": self.baseline.as_dict(),
            },
            "variants": [v.as_dict() for v in self.variants],
            "ranking": [
                f"{v.component}={v.label}" for v in self.ranked()
            ],
            "ok": self.ok,
        }


def variant_slug(comp: Component, value: object) -> str:
    """Journal filename stem for one flip."""
    raw = str(value).replace(os.sep, "-").replace(" ", "-")
    return f"{comp.name}={raw}"


def run_ablation(
    spec: "WorkloadSpec | None" = None,
    journal_dir: "str | None" = None,
    components: "list[str] | None" = None,
) -> ImportanceReport:
    """Run the baseline and every single-flip variant; score the grid.

    With ``journal_dir`` every run's journal is written there
    (``baseline.jsonl`` plus one ``<component>=<value>.jsonl`` per
    flip) so the report stays verifiable after the fact; without it
    the journals stay in memory and only the report survives.
    """
    spec = spec or WorkloadSpec()
    variants = engine_variants(components)

    def journal_path(stem: str) -> "str | None":
        if journal_dir is None:
            return None
        return os.path.join(journal_dir, f"{stem}.jsonl")

    baseline_path = journal_path("baseline")
    baseline_replay = run_workload(spec, None, baseline_path)
    baseline_metrics = metrics_from_replay(baseline_replay)
    report = ImportanceReport(
        spec=spec,
        baseline_journal=baseline_path or "(in memory)",
        baseline=baseline_metrics,
    )
    for comp, value in variants:
        stem = variant_slug(comp, value)
        path = journal_path(stem)
        replay = run_workload(spec, {comp.name: value}, path)
        report.variants.append(
            score_variant(
                comp,
                value,
                path or "(in memory)",
                baseline_metrics,
                metrics_from_replay(replay),
            )
        )
    return report


# -- rendering and persistence -------------------------------------------


def _fmt_bytes(delta: "int | float") -> str:
    value = float(delta)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024 or unit == "GiB":
            return f"{value:+.1f} {unit}" if unit != "B" else f"{value:+.0f} B"
        value /= 1024
    return f"{value:+.1f} GiB"  # pragma: no cover - loop always returns


def render_importance(report: ImportanceReport) -> str:
    """Markdown importance report (deterministic, simulated-only)."""
    spec = report.spec
    base = report.baseline
    lines = [
        "# Ablation importance report",
        "",
        f"Workload `{spec.name}`: {spec.n_points} points, "
        f"k_real={spec.k_real}, {spec.dimensions}d, seed {spec.seed}, "
        f"{spec.nodes} nodes, {spec.target_splits} target splits, "
        f"stragglers p={spec.straggler_probability}, "
        f"task failures p={spec.task_failure_probability}.",
        "",
        f"Baseline (`{report.baseline_journal}`): "
        f"makespan {base.makespan:.3f} s, "
        f"shuffle {base.shuffle_bytes} bytes, "
        f"wasted {base.wasted_seconds:.3f} s, "
        f"peak reducer heap {base.peak_heap_bytes} bytes, "
        f"k={base.k_found} in {base.jobs} jobs "
        f"({base.job_attempts} attempts).",
        "",
        "Every number is replay accounting over the per-run journals —",
        "regenerate or audit with `repro ablate --check`.",
        "",
        "## Importance ranking (one flip per row)",
        "",
        "| rank | component | flip | Δ makespan (s) | Δ makespan | "
        "Δ shuffle | Δ wasted (s) | Δ peak heap | k | Δ events |",
        "|---:|---|---|---:|---:|---:|---:|---:|---|---|",
    ]
    for rank, v in enumerate(report.ranked(), start=1):
        frac = (
            f"{v.delta_fraction * 100:+.1f}%"
            if v.delta_fraction is not None
            else "-"
        )
        k_cell = (
            f"{v.metrics.k_found} (drift)" if v.k_drift else str(v.metrics.k_found)
        )
        events = ", ".join(
            f"{name} {count:+d}" for name, count in v.events_delta.items()
        )
        lines.append(
            f"| {rank} | {v.component} | {v.label} "
            f"| {v.delta_makespan:+.3f} | {frac} "
            f"| {_fmt_bytes(v.delta_shuffle_bytes)} "
            f"| {v.delta_wasted_seconds:+.3f} "
            f"| {_fmt_bytes(v.delta_heap_bytes)} "
            f"| {k_cell} | {events or '-'} |"
        )
    lines += [
        "",
        "## Critical-path blame shift per flip",
        "",
        "| flip | " + " | ".join(BLAME_CATEGORIES) + " |",
        "|---|" + "---:|" * len(BLAME_CATEGORIES),
    ]
    for v in report.ranked():
        cells = []
        for name in BLAME_CATEGORIES:
            shift = v.blame_shift.get(name, 0.0)
            cells.append(f"{shift:+.2f}s" if shift else "-")
        lines.append(
            f"| {v.component}={v.label} | " + " | ".join(cells) + " |"
        )
    infra = [v for v in report.variants if v.simulated_invariant]
    if infra:
        lines += [
            "",
            "## Infrastructure flips (determinism contract)",
            "",
            "Executor and data-plane choices must not move a "
            "simulated metric; the engine asserts it per flip:",
            "",
        ]
        for v in infra:
            verdict = (
                "invariant confirmed"
                if v.invariant_ok
                else "**INVARIANT VIOLATED**"
            )
            lines.append(
                f"- `{v.component}={v.label}`: Δ makespan "
                f"{v.delta_makespan:+.3f} s — {verdict}"
            )
    lines.append("")
    return "\n".join(lines)


def write_importance(
    report: ImportanceReport,
    out_dir: str = "reports",
    basename: str = "ablation",
) -> "dict[str, str]":
    """Write ``<basename>.md`` + ``<basename>.json`` under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    written: "dict[str, str]" = {}
    json_path = os.path.join(out_dir, f"{basename}.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    written["json"] = json_path
    md_path = os.path.join(out_dir, f"{basename}.md")
    with open(md_path, "w", encoding="utf-8") as handle:
        handle.write(render_importance(report))
    written["markdown"] = md_path
    return written


def load_importance(path: str) -> dict:
    """Read an ``ablation.json``, validating the shape."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise AblationError(f"{path}: expected a JSON object")
    if data.get("schema_version") != ABLATION_SCHEMA_VERSION:
        raise AblationError(
            f"{path}: schema_version {data.get('schema_version')!r}, "
            f"this loader reads {ABLATION_SCHEMA_VERSION}"
        )
    for key in ("spec", "baseline", "variants"):
        if key not in data:
            raise AblationError(f"{path}: missing {key!r}")
    return data


def _check_metrics(
    problems: "list[str]",
    label: str,
    recorded: dict,
    recomputed: VariantMetrics,
) -> None:
    for key, value in recomputed.as_dict().items():
        if recorded.get(key) != value:
            problems.append(
                f"{label}: {key} does not reconcile with its journal "
                f"(report has {recorded.get(key)!r}, replay accounting "
                f"says {value!r})"
            )


def verify_importance(report: dict, base_dir: str = ".") -> "list[str]":
    """Prove a persisted report still reconciles with its journals.

    Re-replays every referenced journal, recomputes each metric vector
    and every signed delta with the same accounting, and compares
    *exactly* — the report carries no re-measured numbers, so any
    mismatch means the journals and the report have drifted apart.
    Returns a list of problems (empty = fully reconciled).
    """
    problems: "list[str]" = []
    baseline = report["baseline"]
    base_path = os.path.join(base_dir, baseline["journal"])
    if not os.path.exists(base_path):
        return [f"baseline journal missing: {base_path}"]
    base_metrics = metrics_from_replay(replay_journal(base_path))
    _check_metrics(problems, "baseline", baseline["metrics"], base_metrics)
    for entry in report["variants"]:
        label = f"{entry['component']}={entry['label']}"
        path = os.path.join(base_dir, entry["journal"])
        if not os.path.exists(path):
            problems.append(f"{label}: journal missing: {path}")
            continue
        metrics = metrics_from_replay(replay_journal(path))
        _check_metrics(problems, label, entry["metrics"], metrics)
        expected = score_variant(
            component(entry["component"]),
            entry["value"],
            entry["journal"],
            base_metrics,
            metrics,
        )
        for key in (
            "delta_makespan",
            "delta_fraction",
            "delta_shuffle_bytes",
            "delta_wasted_seconds",
            "delta_heap_bytes",
            "blame_shift",
            "events_delta",
            "k_drift",
            "invariant_ok",
        ):
            if entry.get(key) != getattr(expected, key):
                problems.append(
                    f"{label}: {key} does not reconcile "
                    f"(report has {entry.get(key)!r}, recomputed "
                    f"{getattr(expected, key)!r})"
                )
        if not expected.invariant_ok:
            problems.append(
                f"{label}: infrastructure flip moved a simulated metric"
            )
    return problems
