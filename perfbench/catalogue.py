"""Every metric the benchmark reports, with what it measures and what it moves.

``END_TO_END`` are the numbers a user of the system sees; untraced runs
report them. ``PER_LAYER`` are the traced run's numbers. Each per-layer
entry names the repository module it measures, the end-to-end metric it
should move, and the workload where that layer does most of its work.
On the other workloads the prediction for that layer is no change.
``BENCHMARK.json`` at the repository root repeats names, units and
directions; ``test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Metric names must match this pattern.
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    doc: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str  # repository module(s) the metric measures
    moves: str  # end-to-end metric it should move
    on: str  # workload where it does most of its work
    doc: str


END_TO_END = (
    EndToEnd(
        "fit_s", "s", "lower", 0.24,
        "median wall seconds of one MRGMeans.fit over the run's measured fits",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median wall seconds of build_world: DFS ingest into splits, "
        "shared-memory segments, runtime and executor wiring (and the "
        "journal, where the workload has one)",
    ),
    EndToEnd(
        "sim_s", "simulated_s", "lower", 0.05,
        "simulated makespan of one fit, the paper's own cost result",
    ),
    EndToEnd(
        "rss_peak_mb", "MB", "lower", 0.1,
        "driver peak RSS plus workers x the largest worker peak RSS "
        "(sum of high-water marks, an upper bound on the joint peak)",
    ),
    EndToEnd(
        "k_factor", "ratio", "lower", 0.05,
        "max(k_found, k_true) / min(k_found, k_true); 1.0 is the right k",
    ),
    EndToEnd(
        "ok_fraction", "ratio", "higher", 0.01,
        "fits that completed and passed every output check / fits attempted",
    ),
)

_T1, _RS, _JS = "table1-parallel", "reducer-shuffle", "journalled-serial"

PER_LAYER = (
    # core: the G-means driver (repro.core.gmeans_mr and its jobs)
    PerLayer("core.iterations", "count", "lower", "core.gmeans_mr", "sim_s", _RS,
             "G-means iterations of one fit"),
    PerLayer("core.jobs", "count", "lower", "core.gmeans_mr", "sim_s", _RS,
             "MapReduce jobs one fit runs"),
    PerLayer("core.self_s", "s", "lower", "core.gmeans_mr", "fit_s", _RS,
             "fit wall not covered by traced child layers (driver bookkeeping)"),
    PerLayer("core.candidate_merge_s", "s", "lower", "core.kmeans_find_new", "fit_s", _RS,
             "merge_candidate_samples, in combiners and reducers (in-task)"),
    # mapreduce.runtime
    PerLayer("runtime.job_s.p50", "s", "lower", "mapreduce.runtime", "fit_s", _RS,
             "median wall seconds of one MapReduceRuntime.run"),
    PerLayer("runtime.job_s.p90", "s", "lower", "mapreduce.runtime", "fit_s", _RS,
             "90th percentile of MapReduceRuntime.run wall seconds"),
    PerLayer("runtime.job_s.samples", "count", "higher", "mapreduce.runtime", "fit_s", _RS,
             "number of jobs behind the job_s percentiles"),
    PerLayer("runtime.self_s", "s", "lower", "mapreduce.runtime", "fit_s", _RS,
             "run wall not covered by child layers: driver-side merge"),
    PerLayer("runtime.map_output_pairs", "count", "lower", "mapreduce.runtime", "fit_s", _RS,
             "map output records before combiners, one fit"),
    # mapreduce.executors
    PerLayer("executors.run_s", "s", "lower", "mapreduce.executors", "fit_s", _T1,
             "wall seconds inside run_tasks, all phases"),
    PerLayer("executors.map_run_s", "s", "lower", "mapreduce.executors", "fit_s", _T1,
             "wall seconds inside run_tasks for map phases"),
    PerLayer("executors.reduce_run_s", "s", "lower", "mapreduce.executors", "fit_s", _RS,
             "wall seconds inside run_tasks for reduce phases"),
    PerLayer("executors.tasks", "count", "lower", "mapreduce.executors", "fit_s", _RS,
             "tasks run by the executor, one fit"),
    PerLayer("executors.busy_s", "s", "lower", "mapreduce.executors", "fit_s", _T1,
             "sum of TaskResult.wall_seconds: task bodies wherever they ran"),
    PerLayer("executors.efficiency", "ratio", "higher", "mapreduce.executors", "fit_s", _T1,
             "busy_s / (run_s x workers): the useful-work ratio"),
    PerLayer("executors.wait_s", "s", "lower", "mapreduce.executors", "fit_s", _RS,
             "run_s - busy_s / workers: dispatch, pickling, IPC, imbalance"),
    PerLayer("executors.pool_start_s", "s", "lower", "mapreduce.executors", "fit_s", _T1,
             "wall seconds of a trivial wave on a freshly started worker pool"),
    # mapreduce.shuffle, mapreduce.types, mapreduce.costmodel
    PerLayer("shuffle.partition_s", "s", "lower", "mapreduce.shuffle", "fit_s", _RS,
             "partition_pairs on the driver"),
    PerLayer("shuffle.combiner_s", "s", "lower", "mapreduce.shuffle", "fit_s", _RS,
             "run_combiner inside map tasks (in-task)"),
    PerLayer("shuffle.pairs", "count", "lower", "mapreduce.shuffle", "fit_s", _RS,
             "pairs partitioned into reduce buckets, one fit"),
    PerLayer("accounting.sizeof_s", "s", "lower", "mapreduce.types", "fit_s", _RS,
             "Job.value_size (sizeof_value) byte accounting on the driver"),
    PerLayer("accounting.sizeof_calls", "count", "lower", "mapreduce.types", "fit_s", _RS,
             "top-level Job.value_size calls, one fit"),
    PerLayer("costmodel.s", "s", "lower", "mapreduce.costmodel", "fit_s", _RS,
             "CostModel task, shuffle and job timing on the driver"),
    # kernels: clustering.metrics, common.validation, stats
    PerLayer("kernel.assign_s", "s", "lower", "clustering.metrics", "fit_s", _T1,
             "assign_nearest self time, validation excluded (in-task)"),
    PerLayer("kernel.assign_rows", "count", "lower", "clustering.metrics", "fit_s", _T1,
             "points assigned, one fit"),
    PerLayer("kernel.assign_gflops_computed", "GFLOP/s", "higher", "clustering.metrics", "fit_s", _T1,
             "computed 2*n*k*d flops over assign self time"),
    PerLayer("kernel.label_sums_s", "s", "lower", "clustering.metrics", "fit_s", _T1,
             "label_sums partial sums (in-task)"),
    PerLayer("validation.check_points_s", "s", "lower", "common.validation", "fit_s", _T1,
             "check_points as called by the distance kernels (in-task)"),
    PerLayer("stats.normality_s", "s", "lower", "stats.normality", "fit_s", _T1,
             "normality_test in TestFewClusters / TestClusters (in-task)"),
    PerLayer("stats.normality_calls", "count", "lower", "stats.normality", "fit_s", _T1,
             "normality tests run, one fit"),
    PerLayer("stats.normality_points", "count", "lower", "stats.normality", "fit_s", _T1,
             "sample points tested, one fit"),
    # core.records, mapreduce.hdfs, mapreduce.dataplane
    PerLayer("records.split_points_s", "s", "lower", "core.records", "fit_s", _T1,
             "split resolution to a point matrix (in-task)"),
    PerLayer("dfs.ingest_s", "s", "lower", "mapreduce.hdfs", "setup_s", _T1,
             "InMemoryDFS.write during set-up"),
    PerLayer("dataplane.segments", "count", "lower", "mapreduce.dataplane", "setup_s", _T1,
             "shared-memory segments one world owns"),
    PerLayer("dataplane.shared_mb", "MB", "lower", "mapreduce.dataplane", "setup_s", _T1,
             "bytes held in shared-memory segments"),
    # observability
    PerLayer("journal.records", "count", "lower", "observability.journal", "fit_s", _JS,
             "journal records written, one fit"),
    PerLayer("journal.emit_s", "s", "lower", "observability", "fit_s", _JS,
             "all time inside the journal and its sinks, one fit"),
    PerLayer("journal.us_per_record", "us", "lower", "observability", "fit_s", _JS,
             "journal.emit_s per record"),
    PerLayer("journal.file_s", "s", "lower", "observability.journal", "fit_s", _JS,
             "FileJournalSink.emit self time"),
    PerLayer("journal.live_s", "s", "lower", "observability.live", "fit_s", _JS,
             "LiveRunState.consume self time"),
    PerLayer("journal.anomaly_s", "s", "lower", "observability.anomaly", "fit_s", _JS,
             "AnomalyWatchdog.observe_record self time"),
    # simulated counts from result.totals (deterministic)
    PerLayer("sim.distance_computations", "count", "lower", "mapreduce.counters", "sim_s", _T1,
             "DISTANCE_COMPUTATIONS user counter"),
    PerLayer("sim.ad_tests", "count", "lower", "mapreduce.counters", "sim_s", _T1,
             "AD_TESTS user counter"),
    PerLayer("sim.shuffle_bytes", "count", "lower", "mapreduce.counters", "sim_s", _RS,
             "SHUFFLE_BYTES framework counter"),
    PerLayer("sim.dataset_reads", "count", "lower", "mapreduce.counters", "sim_s", _T1,
             "DATASET_READS framework counter"),
    # the ledger: self seconds per traced layer of the workload's own
    # backend, plus the remainder; they sum to ledger.fit_s
    PerLayer("ledger.fit_s", "s", "lower", "all", "fit_s", _T1,
             "median traced fit wall seconds (the ledger's total)"),
    PerLayer("ledger.other_s", "s", "lower", "all", "fit_s", _T1,
             "traced fit wall minus the sum of layer self times"),
    PerLayer("trace.overhead_fraction", "ratio", "lower", "perfbench", "fit_s", _RS,
             "traced fit_s / untraced fit_s - 1 on the workload's own backend"),
    PerLayer("trace.fits", "count", "higher", "perfbench", "fit_s", _T1,
             "traced fits on the workload's own backend"),
)

#: The traced layers in ledger order: (span name, metric, module,
#: workload). The metrics are self seconds in the traced fit on the
#: workload's own backend; with ``ledger.other_s`` they sum to
#: ``ledger.fit_s``. In-task spans read zero on the process backend,
#: whose task bodies run in workers.
LEDGER_SPANS = tuple(
    (span, metric or f"ledger.{span}.self_s", layer, on)
    for span, metric, layer, on in (
        ("core.fit", "core.self_s", "core.gmeans_mr", _RS),
        ("runtime.run", "runtime.self_s", "mapreduce.runtime", _RS),
        ("executors.map", None, "mapreduce.executors", _T1),
        ("executors.reduce", None, "mapreduce.executors", _RS),
        ("shuffle.partition", None, "mapreduce.shuffle", _RS),
        ("shuffle.combiner", None, "mapreduce.shuffle", _RS),
        ("accounting.sizeof", None, "mapreduce.types", _RS),
        ("costmodel", None, "mapreduce.costmodel", _RS),
        ("records.split_points", None, "core.records", _T1),
        ("kernel.assign", None, "clustering.metrics", _T1),
        ("validation.check_points", None, "common.validation", _T1),
        ("kernel.label_sums", None, "clustering.metrics", _T1),
        ("stats.normality", None, "stats.normality", _T1),
        ("core.candidate_merge", None, "core.kmeans_find_new", _RS),
        ("journal.emit", None, "observability.journal", _JS),
        ("journal.file", None, "observability.journal", _JS),
        ("journal.live", None, "observability.live", _JS),
        ("journal.anomaly", None, "observability.anomaly", _JS),
    )
)

PER_LAYER = PER_LAYER + tuple(
    PerLayer(metric, "s", "lower", layer, "fit_s", on,
             f"self seconds of {span} in the traced fit")
    for span, metric, layer, on in LEDGER_SPANS
    if metric.startswith("ledger.")
)


def benchmark_json(workloads) -> dict:
    """The ``BENCHMARK.json`` document this catalogue implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


#: Seconds one run measures (the driver passes it as ``--seconds``).
RUN_SECONDS = 30
