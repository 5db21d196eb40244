"""In-flight anomaly detection: spec parsing, each detector's firing
rule, the live watchdog's re-entrant journal emission, and the exact
replay reconciliation contract (``repro anomalies --check``)."""

import io

import pytest

from repro.common.errors import ConfigurationError
from repro.observability.anomaly import (
    ANOMALY,
    ANOMALY_CONFIG,
    ANOMALY_TYPES,
    COST_MODEL_DRIFT,
    FAULT_STORM,
    HEAP_BREACH_PREDICTED,
    SKEW_DRIFT,
    STRAGGLER_ONSET,
    AnomalyConfig,
    AnomalyDetectors,
    AnomalyWatchdog,
    anomaly_watchdog_for,
    detect_anomalies,
    job_family,
    parse_anomaly_spec,
    reconcile_anomalies,
    recorded_anomaly_config,
    render_anomalies,
    render_reconciliation,
)
from repro.observability.journal import (
    ITERATION,
    JOB,
    PHASE,
    RUN,
    InMemoryJournalSink,
    Journal,
)
from repro.observability.live import LiveRunState, TelemetrySink
from repro.observability.slo import SLORule, SLOWatchdog, parse_slo_rules

MIB = 1024 * 1024


# -- spec / config ---------------------------------------------------------


def test_parse_spec_off_forms_return_none():
    for spec in (None, "", "0", "off", "false", "no", "  OFF  "):
        assert parse_anomaly_spec(spec) is None


def test_parse_spec_on_forms_return_defaults():
    for spec in ("1", "on", "true", "YES"):
        assert parse_anomaly_spec(spec) == AnomalyConfig()


def test_parse_spec_knob_overrides():
    config = parse_anomaly_spec("straggler_ratio=1.5, storm_events=3")
    assert config.straggler_ratio == 1.5
    assert config.storm_events == 3
    assert config.skew_factor == AnomalyConfig().skew_factor


def test_parse_spec_rejects_unknown_duplicate_and_non_numeric():
    with pytest.raises(ConfigurationError):
        parse_anomaly_spec("nope=1")
    with pytest.raises(ConfigurationError):
        parse_anomaly_spec("storm_events=2,storm_events=3")
    with pytest.raises(ConfigurationError):
        parse_anomaly_spec("skew_factor=wide")


def test_config_validates_thresholds():
    with pytest.raises(ConfigurationError):
        AnomalyConfig(straggler_ratio=0.0)
    with pytest.raises(ConfigurationError):
        AnomalyConfig(storm_events=0)
    with pytest.raises(ConfigurationError):
        AnomalyConfig(heap_fraction=-0.5)


def test_config_round_trips_through_dict():
    config = AnomalyConfig(straggler_ratio=2.5, storm_events=3)
    assert AnomalyConfig.from_dict(config.as_dict()) == config


def test_job_family_strips_iteration_suffixes():
    assert job_family("TestClusters-i3") == "TestClusters"
    assert job_family("KMeans-i2s1") == "KMeans"
    assert job_family("KMeansAndFindNewCenters-i12") == "KMeansAndFindNewCenters"
    assert job_family("oddjob") == "oddjob"


# -- synthetic streams -----------------------------------------------------


def armed_journal(config):
    inner = InMemoryJournalSink()
    sink = TelemetrySink(inner, LiveRunState())
    journal = Journal(sink)
    sink.anomaly = AnomalyWatchdog(journal, config)
    return journal, inner, sink


def emit_job(
    journal,
    name,
    map_seconds=(1.0, 1.0),
    reduce_seconds=(1.0,),
    map_attrs=None,
    reduce_attrs=None,
    job_attrs=None,
    events=(),
):
    with journal.span(JOB, name, attempt=1) as job:
        with journal.span(PHASE, "map", tasks=len(map_seconds), slots=2) as phase:
            for index, seconds in enumerate(map_seconds):
                journal.task(f"{name}-m-{index}", index, seconds, 0.0)
            if map_attrs:
                phase.set(**map_attrs)
        for event_name, attrs in events:
            journal.event(event_name, **attrs)
        with journal.span(PHASE, "reduce", tasks=len(reduce_seconds), slots=2) as phase:
            for index, seconds in enumerate(reduce_seconds):
                journal.task(f"{name}-r-{index}", index, seconds, 0.0)
            if reduce_attrs:
                phase.set(**reduce_attrs)
        job.set(status="ok", simulated_seconds=10.0, **(job_attrs or {}))


def test_straggler_onset_fires_on_phase_end_with_exact_stats():
    journal, inner, sink = armed_journal(
        AnomalyConfig(straggler_ratio=2.0, straggler_min_tasks=4)
    )
    with journal.span(RUN, "gmeans"):
        emit_job(journal, "KMeans-i1", map_seconds=(1.0, 1.0, 1.0, 9.0))
    fired = sink.anomaly.fired
    assert [f["anomaly"] for f in fired] == [STRAGGLER_ONSET]
    assert fired[0]["straggler_ratio"] == pytest.approx(9.0)
    assert fired[0]["phase"] == "map"
    # Below the min-task floor the same skew stays silent.
    journal2, _, sink2 = armed_journal(
        AnomalyConfig(straggler_ratio=2.0, straggler_min_tasks=4)
    )
    with journal2.span(RUN, "gmeans"):
        emit_job(journal2, "KMeans-i1", map_seconds=(1.0, 9.0))
    assert sink2.anomaly.fired == []


def test_skew_drift_measured_against_first_seen_family_baseline():
    journal, _, sink = armed_journal(AnomalyConfig(skew_factor=2.0))
    with journal.span(RUN, "gmeans"):
        # Balanced baseline (imbalance 1.0), then one bucket takes
        # nearly everything (imbalance 2.8 = 2.8x the baseline).
        emit_job(
            journal,
            "TestClusters-i1",
            reduce_attrs={"bucket_records": [10, 10, 10]},
        )
        emit_job(
            journal,
            "TestClusters-i2",
            reduce_attrs={"bucket_records": [28, 1, 1]},
        )
        # Fires once per family, not again on a third skewed job.
        emit_job(
            journal,
            "TestClusters-i3",
            reduce_attrs={"bucket_records": [29, 1, 0]},
        )
    fired = [f for f in sink.anomaly.fired if f["anomaly"] == SKEW_DRIFT]
    assert len(fired) == 1
    assert fired[0]["job"] == "TestClusters-i2"
    assert fired[0]["drift"] == pytest.approx(2.8)


def test_heap_breach_predicted_fires_before_reduce_from_map_growth():
    journal, inner, sink = armed_journal(AnomalyConfig(heap_fraction=1.0))
    with journal.span(RUN, "gmeans"):
        journal.event("strategy_decision", usable_heap_bytes=10 * MIB)
        # Baseline: 100 map-output records cost 6 MiB of per-key heap.
        emit_job(
            journal,
            "TestClusters-i1",
            map_attrs={"map_output_records": 100},
            reduce_attrs={"max_key_heap_bytes": 6 * MIB},
        )
        # Double the map output: projected 12 MiB > 10 MiB usable.
        emit_job(
            journal,
            "TestClusters-i2",
            map_attrs={"map_output_records": 200},
            reduce_attrs={"max_key_heap_bytes": 6 * MIB},
        )
    fired = [f for f in sink.anomaly.fired if f["anomaly"] == HEAP_BREACH_PREDICTED]
    assert len(fired) == 1
    assert fired[0]["job"] == "TestClusters-i2"
    assert fired[0]["projected_heap_bytes"] == pytest.approx(12 * MIB)
    # The prediction lands in the journal before the reduce phase opens.
    records = inner.records
    breach_seq = next(
        r["seq"]
        for r in records
        if r.get("name") == ANOMALY
        and r["attrs"]["anomaly"] == HEAP_BREACH_PREDICTED
    )
    reduce_starts = [
        r["seq"]
        for r in records
        if r.get("type") == "span_start"
        and r.get("name") == "reduce"
        and r["seq"] > breach_seq
    ]
    assert reduce_starts, "the offending reduce phase must start after the firing"


def test_cost_model_drift_fires_on_recorded_vs_predicted_gap():
    journal, _, sink = armed_journal(AnomalyConfig(residual_threshold=0.25))
    with journal.span(RUN, "gmeans"):
        # Two 1s map tasks on 2 slots predict a 1s phase; the journal
        # says 2s — a +50% residual.
        emit_job(
            journal,
            "KMeans-i1",
            map_seconds=(1.0, 1.0),
            reduce_seconds=(1.0,),
            job_attrs={
                "timing": {"map_seconds": 2.0, "reduce_seconds": 1.0},
            },
        )
    fired = [f for f in sink.anomaly.fired if f["anomaly"] == COST_MODEL_DRIFT]
    assert len(fired) == 1
    assert fired[0]["phase"] == "map"
    assert fired[0]["residual"] == pytest.approx(0.5)


def test_fault_storm_counts_events_per_simulated_window():
    journal, _, sink = armed_journal(
        AnomalyConfig(storm_window_seconds=8.0, storm_events=2)
    )
    with journal.span(RUN, "gmeans"):
        # Window 0: two retries trip the storm; the third stays silent.
        emit_job(
            journal,
            "KMeans-i1",
            events=[
                ("job_retry", {"attempt": 1}),
                ("job_retry", {"attempt": 2}),
                ("job_retry", {"attempt": 3}),
            ],
        )
        # The ok job advances the simulated clock by 10s into window 1,
        # where a fresh pair of retries trips a fresh storm.
        emit_job(
            journal,
            "KMeans-i2",
            events=[
                ("job_retry", {"attempt": 1}),
                ("job_retry", {"attempt": 2}),
            ],
        )
    fired = [f for f in sink.anomaly.fired if f["anomaly"] == FAULT_STORM]
    assert [f["window"] for f in fired] == [0, 1]
    assert all(f["events"] == 2 for f in fired)


def test_watchdog_emits_config_then_nested_events_with_correct_parents():
    journal, inner, sink = armed_journal(
        AnomalyConfig(straggler_ratio=2.0, straggler_min_tasks=4)
    )
    with journal.span(RUN, "gmeans"):
        emit_job(journal, "KMeans-i1", map_seconds=(1.0, 1.0, 1.0, 9.0))
    records = inner.records
    # anomaly_config rides right behind the first record.
    assert records[1]["name"] == ANOMALY_CONFIG
    assert records[1]["seq"] == 1
    anomaly = next(r for r in records if r.get("name") == ANOMALY)
    trigger = next(
        r
        for r in records
        if r.get("type") == "span_end" and anomaly["seq"] == r["seq"] + 1
    )
    # Emitted while the map span_end was being sunk: the map span is
    # already popped, so the anomaly's parent is the enclosing job span.
    job_span = next(
        r["span"] for r in records if r.get("type") == "span_start" and r.get("kind") == JOB
    )
    assert anomaly["parent"] == job_span
    assert trigger["type"] == "span_end"
    # Sequence numbers stay gapless and ordered despite nesting.
    assert [r["seq"] for r in records] == list(range(len(records)))


def test_live_state_counts_anomalies_and_serves_them():
    journal, _, sink = armed_journal(
        AnomalyConfig(straggler_ratio=2.0, straggler_min_tasks=4)
    )
    with journal.span(RUN, "gmeans"):
        emit_job(journal, "KMeans-i1", map_seconds=(1.0, 1.0, 1.0, 9.0))
    state = sink.state
    assert state.anomaly_counts == {STRAGGLER_ONSET: 1}
    # The count is what an ``on_anomaly`` SLO rule reads off the state.
    watchdog = SLOWatchdog(
        parse_slo_rules(f"on_anomaly={STRAGGLER_ONSET}"), stream=io.StringIO()
    )
    watchdog.observe(state)
    assert watchdog.abort_requested is not None
    assert watchdog.abort_requested.observed == 1.0


def test_anomaly_watchdog_for_reads_the_armed_sink():
    journal, _, sink = armed_journal(AnomalyConfig())
    assert anomaly_watchdog_for(journal) is sink.anomaly
    assert anomaly_watchdog_for(None) is None
    assert anomaly_watchdog_for(Journal(InMemoryJournalSink())) is None


# -- offline detection and reconciliation ----------------------------------


def recorded_run(config=None):
    config = config or AnomalyConfig(straggler_ratio=2.0, straggler_min_tasks=4)
    journal, inner, sink = armed_journal(config)
    with journal.span(RUN, "gmeans"):
        with journal.span(ITERATION, "iteration-1", iteration=1):
            emit_job(journal, "KMeans-i1", map_seconds=(1.0, 1.0, 1.0, 9.0))
            emit_job(
                journal,
                "KMeans-i2s0",
                map_seconds=(1.0, 1.0, 1.0, 9.0),
                events=[("job_retry", {"attempt": 1})],
            )
    return inner.records, sink.anomaly.fired


def test_detect_anomalies_re_derives_live_firings():
    records, fired = recorded_run()
    assert recorded_anomaly_config(records) == AnomalyConfig(
        straggler_ratio=2.0, straggler_min_tasks=4
    )
    assert detect_anomalies(records) == fired


def test_reconcile_agrees_with_live_recorded_journal():
    records, _ = recorded_run()
    outcome = reconcile_anomalies(records)
    assert outcome.ok
    assert outcome.mismatches == []
    assert len(outcome.expected) == len(outcome.recorded)
    assert outcome.as_dict()["ok"] is True


def test_reconcile_flags_dropped_recorded_event():
    records, _ = recorded_run()
    tampered = [
        r
        for i, r in enumerate(records)
        if not (
            r.get("name") == ANOMALY
            and all(rec.get("name") != ANOMALY for rec in records[:i])
        )
    ]
    outcome = reconcile_anomalies(tampered)
    assert not outcome.ok
    assert any("missing from the journal" in m for m in outcome.mismatches)


def test_reconcile_flags_tampered_attrs():
    import copy

    records, _ = recorded_run()
    tampered = copy.deepcopy(records)
    for record in tampered:
        if record.get("name") == ANOMALY:
            record["attrs"]["straggler_ratio"] = 99.0
            break
    outcome = reconcile_anomalies(tampered)
    assert not outcome.ok
    assert any("differs from the derived" in m for m in outcome.mismatches)


def test_reconcile_flags_forged_event_on_clean_journal():
    journal = Journal(InMemoryJournalSink())
    with journal.span(RUN, "gmeans"):
        emit_job(journal, "KMeans-i1")
        journal.event(ANOMALY, anomaly=STRAGGLER_ONSET, straggler_ratio=9.0)
    outcome = reconcile_anomalies(journal.sink.records)
    assert outcome.config is None
    assert not outcome.ok
    assert any("did not derive" in m for m in outcome.mismatches)


def test_renderers_cover_every_type_and_verdicts():
    records, fired = recorded_run()
    text = render_anomalies(fired, AnomalyConfig())
    assert "straggler_onset" in text and "firing(s)" in text
    samples = [
        {"anomaly": SKEW_DRIFT, "job": "T-i2", "family": "T", "imbalance": 2.0,
         "baseline_imbalance": 1.0, "drift": 2.0, "threshold": 2.0},
        {"anomaly": HEAP_BREACH_PREDICTED, "job": "T-i2",
         "projected_heap_bytes": 1.0, "usable_heap_bytes": 1,
         "heap_fraction": 1.0},
        {"anomaly": COST_MODEL_DRIFT, "job": "K", "phase": "map",
         "predicted_seconds": 1.0, "recorded_seconds": 2.0, "residual": 0.5},
        {"anomaly": FAULT_STORM, "window": 0, "window_seconds": 60.0,
         "events": 8, "threshold": 8, "trigger": "job_retry"},
        {"anomaly": "unknown_future_type"},
    ]
    rendered = render_anomalies(samples)
    for sample in samples:
        assert str(sample["anomaly"]) in rendered
    ok = render_reconciliation(reconcile_anomalies(records))
    assert "OK" in ok
    first_anomaly = next(
        i for i, r in enumerate(records) if r.get("name") == ANOMALY
    )
    bad = render_reconciliation(
        reconcile_anomalies(records[:first_anomaly] + records[first_anomaly + 1 :])
    )
    assert "FAILED" in bad


# -- SLO integration -------------------------------------------------------


def test_parse_slo_rules_on_anomaly():
    rules = parse_slo_rules("on_anomaly=heap_breach_predicted,max_k=4")
    assert rules[0].anomaly == "heap_breach_predicted"
    assert rules[0].limit == 0.0
    assert rules[0].key == "on_anomaly:heap_breach_predicted"
    warn = parse_slo_rules("warn:on_anomaly=fault_storm")[0]
    assert warn.action == "warn"
    # Distinct types are not duplicates; the same type twice is.
    assert len(parse_slo_rules("on_anomaly=fault_storm,on_anomaly=skew_drift")) == 2
    with pytest.raises(ConfigurationError):
        parse_slo_rules("on_anomaly=fault_storm,on_anomaly=fault_storm")
    with pytest.raises(ConfigurationError):
        parse_slo_rules("on_anomaly=not_a_type")
    with pytest.raises(ConfigurationError):
        SLORule(name="max_k", limit=4.0, anomaly="fault_storm")
    assert set(ANOMALY_TYPES) >= {"fault_storm", "heap_breach_predicted"}


def test_on_anomaly_rule_breaches_when_the_detector_fires():
    import io

    from repro.observability.slo import SLOWatchdog

    stream = io.StringIO()
    watchdog = SLOWatchdog(
        parse_slo_rules("on_anomaly=straggler_onset"), stream=stream
    )
    inner = InMemoryJournalSink()
    sink = TelemetrySink(inner, LiveRunState(), watchdog=watchdog)
    journal = Journal(sink)
    sink.anomaly = AnomalyWatchdog(
        journal, AnomalyConfig(straggler_ratio=2.0, straggler_min_tasks=4)
    )
    with journal.span(RUN, "gmeans"):
        emit_job(journal, "KMeans-i1", map_seconds=(1.0, 1.0, 1.0, 9.0))
    assert watchdog.abort_requested is not None
    assert watchdog.abort_requested.rule == "on_anomaly:straggler_onset"
    assert "SLO breach: on_anomaly:straggler_onset" in stream.getvalue()


def test_unarmed_run_emits_no_anomaly_records():
    inner = InMemoryJournalSink()
    journal = Journal(TelemetrySink(inner, LiveRunState()))
    with journal.span(RUN, "gmeans"):
        emit_job(journal, "KMeans-i1", map_seconds=(1.0, 1.0, 1.0, 9.0))
    assert all(
        record.get("name") not in (ANOMALY, ANOMALY_CONFIG)
        for record in inner.records
    )
    assert reconcile_anomalies(inner.records).ok
