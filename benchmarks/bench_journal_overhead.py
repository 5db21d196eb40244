"""Journal overhead — the observability tax on a real workload.

Runs the same seeded G-means workload in four modes — journalling off
(the default ``NullJournalSink``), journalling on (a
``FileJournalSink`` appending JSON lines, flushed at every span and
event boundary), the telemetry tee (the file sink teed through a
``TelemetrySink`` into the ``LiveRunState`` the SLO rules read, with
per-task profiling armed), and the tee with the in-flight anomaly
detectors armed on top (``AnomalyWatchdog`` at default thresholds) —
and asserts:

* equivalence — results are byte-identical across all four modes
  (telemetry observes the record stream, it never touches an RNG);
* overhead — the file sink costs < 5% wall-clock on top of the
  uninstrumented run, and the telemetry tee *with* tracemalloc-based
  task profiling stays < 10% (best-of-``REPEATS`` per mode, to damp
  scheduler noise) — with the detectors armed included under the same
  10% budget.

The measurement lands in ``BENCH_observability.json`` at the repo root.
"""

from __future__ import annotations

import pathlib
import time

from repro.core.config import MRGMeansConfig
from repro.core.gmeans_mr import MRGMeans
from repro.data.generator import paper_family_dataset
from repro.evaluation.benchjson import merge_bench_json
from repro.evaluation.harness import build_world
from repro.observability import (
    AnomalyWatchdog,
    FileJournalSink,
    Journal,
    LiveRunState,
    TelemetrySink,
)

BENCH_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_observability.json"
)

K_REAL = 8
N_POINTS = 60_000
SEED = 11
REPEATS = 5
MAX_OVERHEAD = 0.05
MAX_OVERHEAD_PROFILED = 0.10


def run_once(
    journal: "Journal | None", profile_tasks: bool = False
) -> tuple[dict, float]:
    """One G-means run; returns (result signature, wall seconds)."""
    mixture = paper_family_dataset(n_clusters=K_REAL, n_points=N_POINTS, rng=SEED)
    world = build_world(
        mixture,
        nodes=4,
        target_splits=16,
        seed=SEED,
        journal=journal,
        profile_tasks=profile_tasks,
    )
    config = MRGMeansConfig(seed=SEED)
    start = time.perf_counter()
    result = MRGMeans(world.runtime, config).fit(world.dataset)
    elapsed = time.perf_counter() - start
    signature = {
        "k_found": result.k_found,
        "iterations": result.iterations,
        "completed": result.completed,
        "centers_sha": result.centers.tobytes().hex()[:64],
        "simulated_seconds": result.simulated_seconds,
        "counters": result.totals.counters.as_dict(),
    }
    return signature, elapsed


def test_journal_overhead(report, tmp_path):
    run_once(None)  # warm caches before anything is measured
    off_times, on_times, live_times, armed_times = [], [], [], []
    off_signature = on_signature = live_signature = armed_signature = None
    journal_records = 0
    anomalies_fired = 0
    for repeat in range(REPEATS):
        off_signature, off_elapsed = run_once(None)
        off_times.append(off_elapsed)

        path = tmp_path / f"bench-journal-{repeat}.jsonl"
        journal = Journal(FileJournalSink(str(path)))
        on_signature, on_elapsed = run_once(journal)
        journal.close()
        on_times.append(on_elapsed)
        journal_records = sum(1 for _ in path.open())

        live_path = tmp_path / f"bench-live-{repeat}.jsonl"
        live_journal = Journal(
            TelemetrySink(FileJournalSink(str(live_path)), state=LiveRunState())
        )
        live_signature, live_elapsed = run_once(
            live_journal, profile_tasks=True
        )
        live_journal.close()
        live_times.append(live_elapsed)

        armed_path = tmp_path / f"bench-armed-{repeat}.jsonl"
        armed_sink = TelemetrySink(
            FileJournalSink(str(armed_path)), state=LiveRunState()
        )
        armed_journal = Journal(armed_sink)
        armed_sink.anomaly = AnomalyWatchdog(armed_journal)
        armed_signature, armed_elapsed = run_once(
            armed_journal, profile_tasks=True
        )
        armed_journal.close()
        armed_times.append(armed_elapsed)
        anomalies_fired = len(armed_sink.anomaly.fired)

        assert on_signature == off_signature, (
            "journalling changed results — determinism contract broken"
        )
        assert live_signature == off_signature, (
            "live telemetry / profiling changed results — "
            "determinism contract broken"
        )
        assert armed_signature == off_signature, (
            "anomaly detectors changed results — "
            "determinism contract broken"
        )

    best_off, best_on, best_live = min(off_times), min(on_times), min(live_times)
    best_armed = min(armed_times)
    overhead = best_on / best_off - 1.0
    overhead_live = best_live / best_off - 1.0
    overhead_armed = best_armed / best_off - 1.0

    merge_bench_json(
        BENCH_JSON,
        "journal_overhead_gmeans",
        workload={
            "algorithm": "gmeans_mr",
            "clusters": K_REAL,
            "n_points": N_POINTS,
            "seed": SEED,
            "repeats": REPEATS,
        },
        metrics={
            "wall_seconds": {
                "journal_off": round(best_off, 3),
                "journal_on": round(best_on, 3),
                "live_telemetry_profiled": round(best_live, 3),
                "live_detectors_armed": round(best_armed, 3),
            },
            "journal_records": journal_records,
            "anomalies_fired": anomalies_fired,
            "overhead_fraction": round(overhead, 4),
            "max_overhead_fraction": MAX_OVERHEAD,
            "overhead_fraction_live_profiled": round(overhead_live, 4),
            "max_overhead_fraction_live_profiled": MAX_OVERHEAD_PROFILED,
            "overhead_fraction_detectors_armed": round(overhead_armed, 4),
            "max_overhead_fraction_detectors_armed": MAX_OVERHEAD_PROFILED,
            "results_byte_identical": True,
        },
    )

    lines = [
        "run journal — file-sink overhead on a G-means workload",
        "",
        f"  journal off      {best_off:8.2f} s   (best of {REPEATS})",
        f"  journal on       {best_on:8.2f} s   ({journal_records} records)",
        f"  live + profiled  {best_live:8.2f} s   (telemetry tee + tracemalloc)",
        f"  + detectors      {best_armed:8.2f} s   "
        f"(anomaly watchdog armed, {anomalies_fired} firing(s))",
        "",
        f"  journal overhead: {overhead * 100:.2f}%  (budget {MAX_OVERHEAD * 100:.0f}%)",
        f"  live+profiling overhead: {overhead_live * 100:.2f}%"
        f"  (budget {MAX_OVERHEAD_PROFILED * 100:.0f}%)",
        f"  detectors-armed overhead: {overhead_armed * 100:.2f}%"
        f"  (budget {MAX_OVERHEAD_PROFILED * 100:.0f}%)",
    ]
    report("journal_overhead", "\n".join(lines))

    assert overhead < MAX_OVERHEAD, (
        f"file journal cost {overhead * 100:.2f}% wall-clock, "
        f"budget is {MAX_OVERHEAD * 100:.0f}%"
    )
    assert overhead_live < MAX_OVERHEAD_PROFILED, (
        f"live telemetry with profiling cost {overhead_live * 100:.2f}% "
        f"wall-clock, budget is {MAX_OVERHEAD_PROFILED * 100:.0f}%"
    )
    assert overhead_armed < MAX_OVERHEAD_PROFILED, (
        f"anomaly detectors cost {overhead_armed * 100:.2f}% "
        f"wall-clock, budget is {MAX_OVERHEAD_PROFILED * 100:.0f}%"
    )
