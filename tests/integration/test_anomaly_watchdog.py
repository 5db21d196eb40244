"""In-flight anomaly watchdog acceptance: a seeded chaos run fires
every injected detector class live, the armed journal is byte-identical
across executor backends and data planes, ``repro anomalies --check``
re-derives the recorded firings exactly, and a predicted Figure-2 heap
breach aborts via SLO *before* the offending reduce phase with a
byte-identical resume.
"""

import io
import json
from collections import Counter

import pytest

from repro.cli import main
from repro.common.errors import SLOViolationError
from repro.core.config import MRGMeansConfig
from repro.core.gmeans_mr import MRGMeans
from repro.data.generator import generate_gaussian_mixture
from repro.data.loader import write_points
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.executors import RuntimeConfig
from repro.mapreduce.faults import FaultModel
from repro.mapreduce.hdfs import BlockFaultModel, InMemoryDFS
from repro.mapreduce.runtime import MapReduceRuntime
from repro.observability.anomaly import (
    ANOMALY,
    ANOMALY_CONFIG,
    FAULT_STORM,
    HEAP_BREACH_PREDICTED,
    STRAGGLER_ONSET,
    AnomalyWatchdog,
    parse_anomaly_spec,
    reconcile_anomalies,
)
from repro.observability.journal import (
    FileJournalSink,
    InMemoryJournalSink,
    Journal,
    canonical_records,
    load_journal,
)
from repro.observability.live import LiveRunState, TelemetrySink
from repro.observability.slo import SLOWatchdog, parse_slo_rules

MIXTURE = generate_gaussian_mixture(
    n_points=600, n_clusters=3, dimensions=2, rng=7
)

RUNTIME_SEED = 99
# The reducer-side TestClusters strategy is forced so the heap-breach
# predictor has per-key heap baselines to project from; the thresholds
# are tightened so the small chaos workload trips the injected classes.
CONFIG = dict(
    seed=5, checkpoint_dir="ck/gmeans", max_iterations=10, strategy="reducer"
)
SPEC = (
    "straggler_ratio=1.2,straggler_min_tasks=3,heap_fraction=0.0001,"
    "storm_window_seconds=30,storm_events=2"
)
# The classes this chaos scenario injects: task-failure retries stretch
# attempt durations (straggler_onset), block loss + retries cluster in
# simulated time (fault_storm), and the forced reducer-side strategy
# with a sliver of usable heap trips the Figure-2 projection
# (heap_breach_predicted).  Skew/cost drift need a workload whose
# imbalance *grows* against its own baseline and are exercised by the
# unit suite on synthetic journals.
INJECTED = {STRAGGLER_ONSET, FAULT_STORM, HEAP_BREACH_PREDICTED}


def chaos_world(journal, dfs=None, config=None, data_plane=None):
    if dfs is None:
        dfs = InMemoryDFS(
            split_size_bytes=4096,
            fault_model=BlockFaultModel(replica_loss_probability=0.02, seed=3),
            data_plane=data_plane,
        )
        write_points(dfs, "points", MIXTURE.points)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2, task_heap_mb=64),
        rng=RUNTIME_SEED,
        config=config
        or RuntimeConfig(max_job_retries=20, retry_backoff_seconds=5.0),
        journal=journal,
        faults=FaultModel(task_failure_probability=0.12, max_attempts=2),
    )
    return dfs, runtime


def armed_journal(sink, spec=SPEC, watchdog=None):
    state = LiveRunState()
    tee = TelemetrySink(sink, state=state, watchdog=watchdog)
    journal = Journal(tee)
    tee.anomaly = AnomalyWatchdog(journal, parse_anomaly_spec(spec))
    return journal, tee, state


def signature(result):
    return {
        "k_found": result.k_found,
        "iterations": result.iterations,
        "centers": result.centers.tobytes(),
        "seconds": result.totals.simulated_seconds,
        "counters": result.totals.counters.snapshot(),
    }


def test_chaos_run_fires_each_injected_class_and_reconciles(tmp_path, capsys):
    path = tmp_path / "armed.jsonl"
    journal, tee, state = armed_journal(FileJournalSink(str(path)))
    _dfs, runtime = chaos_world(journal)
    result = MRGMeans(runtime, MRGMeansConfig(**CONFIG)).fit("points")
    journal.close()
    assert result.completed

    fired = Counter(attrs["anomaly"] for attrs in tee.anomaly.fired)
    assert INJECTED <= set(fired)

    # The live aggregate saw exactly the recorded firings.
    records = load_journal(str(path))
    recorded = [r for r in records if r.get("name") == ANOMALY]
    assert len(recorded) == sum(fired.values())
    assert state.anomaly_counts == dict(fired)
    assert [r for r in records if r.get("name") == ANOMALY_CONFIG]

    # Exact replay reconciliation, via the library and the CLI.
    outcome = reconcile_anomalies(records)
    assert outcome.ok
    assert len(outcome.recorded) == len(recorded) + 1  # + anomaly_config
    assert main(["anomalies", str(path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "anomaly reconciliation: OK" in out

    # Post-hoc listing agrees with the in-flight firings.
    assert main(["anomalies", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert Counter(a["anomaly"] for a in data["anomalies"]) == fired


def test_armed_chaos_journal_is_canonical_across_backends_and_planes():
    results = {}
    journals = {}
    for backend, plane in [
        ("serial", "pickled"),
        ("processes", "pickled"),
        ("processes", "shared"),
    ]:
        sink = InMemoryJournalSink()
        journal, tee, _state = armed_journal(sink)
        dfs, runtime = chaos_world(
            journal,
            config=RuntimeConfig(
                executor=backend,
                num_workers=3,
                max_job_retries=20,
                retry_backoff_seconds=5.0,
            ),
            data_plane=plane,
        )
        key = f"{backend}/{plane}"
        results[key] = signature(
            MRGMeans(runtime, MRGMeansConfig(**CONFIG)).fit("points")
        )
        dfs.release()
        journal.close()
        assert tee.anomaly.fired, f"{key}: detectors must fire"
        journals[key] = canonical_records(sink.records)

    reference = journals["serial/pickled"]
    assert any(r.get("name") == ANOMALY for r in reference)
    for key, records in journals.items():
        assert results[key] == results["serial/pickled"], key
        assert records == reference, key


def test_heap_breach_predicted_fires_before_reduce_then_slo_abort_resumes():
    """The headline acceptance flow: the Figure-2 projection fires
    *before* the offending reduce phase starts, the ``on_anomaly`` SLO
    rule checkpoints-then-aborts, and resuming completes byte-identical
    to the never-aborted baseline."""
    plain_sink = InMemoryJournalSink()
    _dfs, plain_runtime = chaos_world(Journal(plain_sink))
    baseline = MRGMeans(plain_runtime, MRGMeansConfig(**CONFIG)).fit("points")

    watchdog = SLOWatchdog(
        parse_slo_rules(f"on_anomaly={HEAP_BREACH_PREDICTED}"),
        stream=io.StringIO(),
    )
    sink = InMemoryJournalSink()
    journal, tee, _state = armed_journal(sink, watchdog=watchdog)
    dfs, guarded_runtime = chaos_world(journal)
    with pytest.raises(SLOViolationError) as excinfo:
        MRGMeans(guarded_runtime, MRGMeansConfig(**CONFIG)).fit("points")
    assert HEAP_BREACH_PREDICTED in excinfo.value.rule
    journal.close()

    # The prediction strictly precedes the reduce phase it warns about:
    # the breach event for that job lands before the job's reduce
    # span_start in the totally ordered journal.
    breaches = [
        r
        for r in sink.records
        if r.get("name") == ANOMALY
        and r["attrs"]["anomaly"] == HEAP_BREACH_PREDICTED
    ]
    assert breaches
    first = breaches[0]
    reduce_starts = [
        r
        for r in sink.records
        if r.get("type") == "span_start"
        and r.get("kind") == "phase"
        and r.get("name") == "reduce"
        and r.get("parent") == first["parent"]
    ]
    assert reduce_starts and first["seq"] < reduce_starts[0]["seq"]

    # The interrupted armed journal still reconciles exactly.
    assert reconcile_anomalies(sink.records).ok

    # The abort landed after a checkpoint; resuming without the rule
    # completes the exact baseline run.
    assert any(name.startswith("ck/gmeans/iter-") for name in dfs.listdir())
    _dfs2, revived = chaos_world(Journal(InMemoryJournalSink()), dfs=dfs)
    resumed = MRGMeans(revived, MRGMeansConfig(**CONFIG)).fit(
        "points", resume_from="latest"
    )
    assert signature(resumed) == signature(baseline)
