"""One benchmark run of one workload: the untraced measurement, or the
traced run that yields the per-layer numbers.

Load is a closed loop: one fit at a time, back to back, each on a fresh
world. Every fit is checked; a fit that raises or fails a check counts
as failed and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
import uuid
from dataclasses import dataclass, field
from multiprocessing import resource_tracker

import numpy as np

import catalogue
import tracing
import workloads as wl
from repro.core.gmeans_mr import MRGMeans
from repro.mapreduce.counters import FRAMEWORK_GROUP, MRCounter
from repro.mapreduce.dataplane import SharedBlock
from repro.mapreduce.executors import ProcessPoolTaskExecutor, shutdown_shared_pools
from repro.observability.export import validate_trace

_clock = time.perf_counter

#: Fewest measured fits and set-ups in an untraced run, whatever
#: ``--seconds`` says.
MIN_FITS = 3
MIN_SETUPS = 40


def fit_count(seconds: float, workload: wl.Workload, share: float = 1.0,
              least: int = MIN_FITS) -> int:
    """Fits that fill ``share`` of ``seconds`` at the workload's nominal
    fit time. The count, not a clock, ends the loop, so every commit
    does the same work per run; on the process workloads peak RSS grows
    with each fit (workers keep every segment they attached mapped)."""
    return max(least, round(share * seconds / workload.nominal_fit_s))


@dataclass
class Fit:
    """One fit: its timings, result and, when traced, its aggregates."""

    fit_id: str
    setup_s: float
    fit_s: float
    ok: bool
    result: object = None
    segments: int = 0
    shared_bytes: int = 0
    setup_totals: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def _signature(result) -> tuple:
    return (
        hashlib.sha256(np.ascontiguousarray(result.centers).tobytes()).hexdigest(),
        result.k_found,
        result.iterations,
        result.simulated_seconds,
        result.completed,
    )


def _noop(_spec):
    return None


def stop_helper_processes() -> None:
    """Stop the processes a run starts and wait for each: the worker
    pools, and the resource tracker that shared memory brings up."""
    shutdown_shared_pools()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Run:
    """The inputs of one workload and seed, and the fits made on them."""

    def __init__(self, workload: wl.Workload, seed: int, seconds: float, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.inputs = wl.make_inputs(workload, seed)
        self.attempted = 0
        self.failed = 0
        #: Every failed check, fit or not; any one makes the run incorrect.
        self.problems: list[str] = []
        self._reference: "tuple | None" = None
        self._reference_ok = False

    # -- one fit ---------------------------------------------------------

    def fit(self, workload: "wl.Workload | None" = None, tracer=None,
            fit_id: str = "", setup_only: bool = False) -> Fit:
        """Build a fresh world, fit once, check the result, tear down."""
        workload = workload or self.workload
        journal_path = None
        if workload.journalled:
            # Unique per process: Journal.from_env caches journals by path.
            journal_path = os.path.join(self.out_dir, f"journal-{uuid.uuid4().hex}.jsonl")
        if tracer is not None:
            tracer.fit = fit_id
            tracer.reset()
            frame = tracer.push("setup", True)
        start = _clock()
        world = wl.build(workload, self.inputs.points, journal_path)
        setup_s = _clock() - start
        record = Fit(fit_id=fit_id, setup_s=setup_s, fit_s=0.0, ok=False)
        if tracer is not None:
            tracer.pop(frame)
            record.setup_totals = tracer.totals
            tracer.reset()
        blocks = [s.records for s in world.dataset.splits if isinstance(s.records, SharedBlock)]
        record.segments = len(blocks)
        record.shared_bytes = sum(b.nbytes for b in blocks)
        try:
            if setup_only:
                return record
            self.attempted += 1
            start = _clock()
            try:
                result = MRGMeans(world.runtime, wl.gmeans_config(workload)).fit(world.dataset)
            except Exception as err:  # noqa: BLE001 - counted, the run goes on
                self.failed += 1
                self.problems.append(f"{fit_id or 'fit'} raised {type(err).__name__}: {err}")
                return record
            record.fit_s = _clock() - start
            if tracer is not None:
                record.totals, record.counts = tracer.totals, tracer.counts
                tracer.reset()
            record.result = result
            record.ok = self._check(result, fit_id or "fit")
            return record
        finally:
            world.dfs.release()
            world.runtime.close()
            if journal_path is not None:
                world.runtime.journal.close()
                os.remove(journal_path)

    def _check(self, result, label: str) -> bool:
        """Output checks; every fit of a run must agree bit for bit."""
        w = self.workload
        problems = []
        centers = np.asarray(result.centers)
        if not result.completed:
            problems.append("did not complete")
        if centers.shape != (result.k_found, self.inputs.points.shape[1]) or not np.all(
            np.isfinite(centers)
        ):
            problems.append(f"bad centers, shape {centers.shape}")
        signature = _signature(result)
        if self._reference is None:
            self._reference = signature
            found = wl.purity(self.inputs.points, self.inputs.labels, centers)
            if found < w.min_purity:
                problems.append(f"purity {found:.4f} < {w.min_purity}")
            if w.full_size and self.seed == wl.DEFAULT_SEED and (
                result.k_found, result.iterations
            ) != (w.expected_k, w.expected_iterations):
                problems.append(
                    f"k={result.k_found} after {result.iterations} iterations, "
                    f"expected k={w.expected_k} after {w.expected_iterations}"
                )
            self._reference_ok = not problems
        elif signature != self._reference:
            problems.append(
                "result differs from the run's first fit "
                f"(k={result.k_found}, iterations={result.iterations}, "
                f"sim_s={result.simulated_seconds!r})"
            )
        elif not self._reference_ok:
            problems.append("same result as the run's first fit, which failed its checks")
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))
        return not problems

    # -- results ---------------------------------------------------------

    def summary(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _with_units(values: dict, definitions) -> dict:
    return {
        m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit}
        for m in definitions
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- untraced ------------------------------------------------------------


def measure(run: Run) -> dict:
    """End-to-end metrics: a warm-up fit, then fits for ``run.seconds``."""
    w = run.workload
    run.fit(fit_id="warmup")  # starts pools and fills caches; checked, not timed
    fits, setups = [], []
    for index in range(fit_count(run.seconds, w)):
        record = run.fit(fit_id=f"fit{index}")
        setups.append(record.setup_s)
        if record.ok:
            fits.append(record)
    while len(setups) < MIN_SETUPS:
        setups.append(run.fit(setup_only=True).setup_s)
    driver_mb, worker_mb = peak_rss_mb()
    workers = w.workers if w.executor == "processes" else 0
    print(f"  {len(fits)} measured fits, s: " + " ".join(f"{f.fit_s:.3f}" for f in fits))
    print(f"  peak RSS: driver {driver_mb:.1f} MB, largest of {workers} workers {worker_mb:.1f} MB")
    values = {"setup_s": _median(setups), "rss_peak_mb": driver_mb + workers * worker_mb}
    if fits:
        result = fits[0].result
        values.update(
            fit_s=_median([f.fit_s for f in fits]),
            sim_s=result.simulated_seconds,
            k_factor=max(result.k_found, w.true_k) / min(result.k_found, w.true_k),
        )
    values["ok_fraction"] = (run.attempted - run.failed) / max(run.attempted, 1)
    return _with_units(values, catalogue.END_TO_END)


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of the driver and of the largest worker so far, in MB.

    Shutting the pools down reaps the workers, which is what makes
    their high-water marks visible to ``RUSAGE_CHILDREN``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    shutdown_shared_pools()
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


# -- traced ----------------------------------------------------------------


def pool_start_seconds(workload: wl.Workload) -> float:
    """Wall time of a trivial wave on a freshly started worker pool."""
    if workload.executor != "processes":
        return 0.0
    shutdown_shared_pools()
    executor = ProcessPoolTaskExecutor(workload.workers)
    start = _clock()
    executor.run_tasks(_noop, [None] * workload.workers)
    return _clock() - start


def ledger(fit: Fit) -> tuple[dict, float]:
    """Self seconds per traced layer and the remainder of the fit wall."""
    known = {span for span, *_ in catalogue.LEDGER_SPANS}
    unknown = set(fit.totals) - known
    if unknown:
        raise ValueError(f"spans outside the ledger: {sorted(unknown)}")
    parts = {
        metric: (fit.totals[span][1] if span in fit.totals else 0.0)
        for span, metric, *_ in catalogue.LEDGER_SPANS
    }
    return parts, fit.fit_s - sum(parts.values())


def _check_ledger(run: Run, fits: list[Fit], label: str) -> None:
    for index, fit in enumerate(fits):
        try:
            parts, other = ledger(fit)
        except ValueError as err:
            run.problems.append(f"{label} fit {index}: {err}")
            continue
        # Children are nested inside their parents, so the remainder is
        # the wrappers' own entry and exit; a negative one means a span
        # was counted twice.
        if other < -1e-6 or abs(sum(parts.values()) + other - fit.fit_s) > 1e-9:
            run.problems.append(f"{label} fit {index}: ledger does not sum ({other!r})")


def trace(run: Run) -> tuple[dict, str]:
    """Per-layer metrics from traced fits, plus the tracing overhead, and
    where the in-task layers came from.

    Untraced and traced fits alternate so drift hits both alike. On the
    process backend, task bodies run in workers; the in-task layers then
    come from the same inputs re-run traced on the serial backend, whose
    results must be bit-identical.
    """
    w = run.workload
    pool_start = pool_start_seconds(w)
    run.fit(fit_id="warmup")
    tracer = tracing.Tracer()
    plain, own = [], []
    for pair in range(fit_count(run.seconds, w, share=0.3, least=2)):
        record = run.fit(fit_id=f"untraced{pair}")
        if record.ok:
            plain.append(record.fit_s)
        with tracing.Instrumentation(tracer):
            record = run.fit(tracer=tracer, fit_id=f"{w.name}/fit{pair}")
        if record.ok:
            own.append(record)
    in_task, in_task_label = own, "own backend"
    if w.executor == "processes":
        twin = wl.serial_twin(w)
        in_task, in_task_label = [], "serial re-run"
        with tracing.Instrumentation(tracer):
            for index in range(fit_count(run.seconds, w, share=0.3, least=1)):
                record = run.fit(twin, tracer=tracer, fit_id=f"{w.name}/serial{index}")
                if record.ok:
                    in_task.append(record)
        _check_ledger(run, in_task, "serial re-run")
    _check_ledger(run, own, "traced")
    if not own or not in_task or not plain:
        return _with_units({}, catalogue.PER_LAYER), in_task_label

    values = _layer_values(w, own, in_task, tracer, pool_start)
    values["trace.overhead_fraction"] = _median([f.fit_s for f in own]) / _median(plain) - 1.0
    path = os.path.join(run.out_dir, f"trace-{w.name}-seed{run.seed}.json")
    sections = [(f"{w.name}: {w.executor or 'default'} backend, driver", _spans_of(tracer, own[0]))]
    if in_task is not own:
        sections.append((f"{w.name}: serial re-run", _spans_of(tracer, in_task[0])))
    document = tracing.chrome_trace(sections)
    problems = validate_trace(document)
    if problems:
        run.problems.append(f"chrome trace invalid: {problems[:3]}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    return _with_units(values, catalogue.PER_LAYER), in_task_label


def _spans_of(tracer: tracing.Tracer, fit: Fit) -> list:
    return [s for s in tracer.spans if s[4] == fit.fit_id]


def _layer_values(w, own: list[Fit], in_task: list[Fit], tracer, pool_start: float) -> dict:
    def med(fn, fits=own):
        return _median([fn(f) for f in fits])

    def incl(name):
        return lambda f: f.totals.get(name, (0.0, 0.0, 0))[0]

    def self_s(name):
        return lambda f: f.totals.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return lambda f: f.totals.get(name, (0.0, 0.0, 0))[2]

    def count(name):
        return lambda f: f.counts.get(name, 0.0)

    def counter(group, name):
        return lambda f: f.result.totals.counters.get(group, name)

    own_ids = {f.fit_id for f in own}
    jobs = sorted(
        end - start for name, start, end, _, fit in tracer.spans
        if name == "runtime.run" and fit in own_ids
    )
    p50, p90 = (statistics.quantiles(jobs, n=10)[i] for i in (4, 8)) if len(jobs) > 1 else (0.0, 0.0)
    workers = w.workers
    run_s = med(lambda f: incl("executors.map")(f) + incl("executors.reduce")(f))
    busy = med(count("executors.busy_s"))
    journal_s = med(lambda f: sum(self_s(n)(f) for n in
                                  ("journal.emit", "journal.file", "journal.live", "journal.anomaly")))
    records = med(count("journal.records"))
    assign_self = med(self_s("kernel.assign"), in_task)
    flops = med(count("kernel.assign_flops"), in_task)
    values = {
        "core.iterations": med(lambda f: f.result.iterations),
        "core.jobs": med(lambda f: f.result.totals.jobs),
        "core.candidate_merge_s": med(incl("core.candidate_merge"), in_task),
        "runtime.job_s.p50": p50,
        "runtime.job_s.p90": p90,
        "runtime.job_s.samples": len(jobs),
        "runtime.map_output_pairs": med(counter(FRAMEWORK_GROUP, MRCounter.MAP_OUTPUT_RECORDS)),
        "executors.run_s": run_s,
        "executors.map_run_s": med(incl("executors.map")),
        "executors.reduce_run_s": med(incl("executors.reduce")),
        "executors.tasks": med(count("executors.tasks")),
        "executors.busy_s": busy,
        "executors.efficiency": busy / (run_s * workers) if run_s else 0.0,
        "executors.wait_s": run_s - busy / workers,
        "executors.pool_start_s": pool_start,
        "shuffle.partition_s": med(incl("shuffle.partition")),
        "shuffle.combiner_s": med(incl("shuffle.combiner"), in_task),
        "shuffle.pairs": med(count("shuffle.pairs")),
        "accounting.sizeof_s": med(incl("accounting.sizeof")),
        "accounting.sizeof_calls": med(calls("accounting.sizeof")),
        "costmodel.s": med(self_s("costmodel")),
        "kernel.assign_s": assign_self,
        "kernel.assign_rows": med(count("kernel.assign_rows"), in_task),
        "kernel.assign_gflops_computed": flops / assign_self / 1e9 if assign_self else 0.0,
        "kernel.label_sums_s": med(self_s("kernel.label_sums"), in_task),
        "validation.check_points_s": med(self_s("validation.check_points"), in_task),
        "stats.normality_s": med(self_s("stats.normality"), in_task),
        "stats.normality_calls": med(calls("stats.normality"), in_task),
        "stats.normality_points": med(count("stats.normality_points"), in_task),
        "records.split_points_s": med(self_s("records.split_points"), in_task),
        "dfs.ingest_s": med(lambda f: f.setup_totals.get("dfs.ingest", (0.0,))[0]),
        "dataplane.segments": med(lambda f: f.segments),
        "dataplane.shared_mb": med(lambda f: f.shared_bytes) / 1e6,
        "journal.records": records,
        "journal.emit_s": journal_s,
        "journal.us_per_record": journal_s / records * 1e6 if records else 0.0,
        "journal.file_s": med(self_s("journal.file")),
        "journal.live_s": med(self_s("journal.live")),
        "journal.anomaly_s": med(self_s("journal.anomaly")),
        "sim.distance_computations": med(lambda f: f.result.totals.distance_computations),
        "sim.ad_tests": med(lambda f: f.result.totals.ad_tests),
        "sim.shuffle_bytes": med(counter(FRAMEWORK_GROUP, MRCounter.SHUFFLE_BYTES)),
        "sim.dataset_reads": med(lambda f: f.result.totals.dataset_reads),
        "ledger.fit_s": med(lambda f: f.fit_s),
        "ledger.other_s": med(lambda f: ledger(f)[1]),
        "trace.fits": len(own),
    }
    for _, metric, *_ in catalogue.LEDGER_SPANS:
        values[metric] = med(lambda f, m=metric: ledger(f)[0][m])
    return values
