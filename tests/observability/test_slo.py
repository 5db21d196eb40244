"""SLO rule parsing and watchdog semantics."""

import io

import pytest

from repro.common.errors import ConfigurationError, SLOViolationError
from repro.observability.live import LiveRunState
from repro.observability.journal import Journal, NullJournalSink
from repro.observability.live import TelemetrySink
from repro.observability.slo import (
    RULE_NAMES,
    SLORule,
    SLOWatchdog,
    parse_slo_rules,
    watchdog_for,
)


def test_parse_slo_rules_basic():
    rules = parse_slo_rules("max_k=64,warn:max_wall_seconds=600")
    assert rules == (
        SLORule(name="max_k", limit=64.0, action="abort"),
        SLORule(name="max_wall_seconds", limit=600.0, action="warn"),
    )


def test_parse_slo_rules_tolerates_whitespace_and_empty_chunks():
    rules = parse_slo_rules(" max_k = 8 , , warn: max_job_retries = 3 ")
    assert [(r.name, r.limit, r.action) for r in rules] == [
        ("max_k", 8.0, "abort"),
        ("max_job_retries", 3.0, "warn"),
    ]
    assert parse_slo_rules("") == ()


@pytest.mark.parametrize(
    "spec",
    [
        "max_k",  # no limit
        "max_k=abc",  # non-numeric
        "max_k=0",  # non-positive limit
        "bogus_rule=1",  # unknown rule
        "pause:max_k=1",  # unknown action
        "max_k=1,max_k=2",  # duplicate
    ],
)
def test_parse_slo_rules_rejects_malformed_specs(spec):
    with pytest.raises(ConfigurationError):
        parse_slo_rules(spec)


def _report_k(state, k):
    """Feed ``state`` an iteration start that reports ``k``."""
    span = len(state.model.spans)
    state.consume(
        {
            "type": "span_start",
            "span": span,
            "kind": "iteration",
            "name": f"iteration-{span + 1}",
            "attrs": {"k_before": k},
        }
    )


def _state_with_k(k):
    state = LiveRunState()
    _report_k(state, k)
    return state


def test_watchdog_abort_rule_latches_and_fires_once():
    stream = io.StringIO()
    watchdog = SLOWatchdog(parse_slo_rules("max_k=4"), stream=stream)
    state = _state_with_k(3)
    watchdog.observe(state)
    assert watchdog.abort_requested is None
    watchdog.check_abort()  # no breach yet: no raise

    _report_k(state, 6)
    watchdog.observe(state)
    watchdog.observe(state)  # second observation must not re-fire
    assert len(watchdog.breaches) == 1
    breach = watchdog.breaches[0]
    assert (breach.rule, breach.limit, breach.observed) == ("max_k", 4.0, 6.0)
    assert watchdog.abort_requested is breach
    assert state.breaches == [breach.as_dict()]
    assert stream.getvalue().count("SLO breach") == 1
    assert "aborting at next checkpoint" in stream.getvalue()

    with pytest.raises(SLOViolationError) as excinfo:
        watchdog.check_abort()
    assert excinfo.value.rule == "max_k"
    assert excinfo.value.limit == 4.0
    assert excinfo.value.observed == 6.0


def test_watchdog_warn_rule_never_requests_abort():
    stream = io.StringIO()
    watchdog = SLOWatchdog(parse_slo_rules("warn:max_k=4"), stream=stream)
    watchdog.observe(_state_with_k(10))
    assert watchdog.abort_requested is None
    watchdog.check_abort()  # warn-only: never raises
    assert "warning only" in stream.getvalue()


def test_watchdog_every_rule_name_is_observable():
    state = _state_with_k(2)
    watchdog = SLOWatchdog(
        [
            SLORule(
                name=name,
                limit=1e9,
                # on_anomaly is the one rule keyed by a detector type.
                anomaly="fault_storm" if name == "on_anomaly" else None,
            )
            for name in RULE_NAMES
        ],
        stream=io.StringIO(),
        clock=lambda: 0.0,
    )
    watchdog.observe(state)  # all quantities readable, none breached
    assert watchdog.breaches == []


def test_watchdog_for_finds_telemetry_watchdog():
    watchdog = SLOWatchdog(parse_slo_rules("max_k=4"), stream=io.StringIO())
    journal = Journal(TelemetrySink(watchdog=watchdog))
    assert watchdog_for(journal) is watchdog
    assert watchdog_for(Journal(NullJournalSink())) is None
    assert watchdog_for(None) is None
