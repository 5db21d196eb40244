"""Metrics registry boundary snapshots."""

from repro.mapreduce.counters import Counters
from repro.observability.metrics import MetricsRegistry


def test_mark_returns_delta_and_advances():
    counters = Counters()
    counters.inc("g", "n", 2)
    registry = MetricsRegistry(counters)
    counters.inc("g", "n", 3)
    first = registry.mark()
    assert first.get("g", "n") == 3
    counters.inc("g", "n", 1)
    second = registry.mark()
    assert second.get("g", "n") == 1
    assert registry.mark().as_dict() == {}  # nothing accumulated since


def test_delta_does_not_advance():
    counters = Counters()
    registry = MetricsRegistry(counters)
    counters.inc("g", "n", 4)
    assert registry.delta().get("g", "n") == 4
    assert registry.delta().get("g", "n") == 4  # still there
    assert registry.mark().get("g", "n") == 4


def test_max_counters_survive_marks_as_high_water():
    counters = Counters()
    counters.set_max("g", "HEAP_MAX", 10)
    registry = MetricsRegistry(counters)
    counters.set_max("g", "HEAP_MAX", 5)  # below: no delta
    assert registry.mark().as_dict() == {}
    counters.set_max("g", "HEAP_MAX", 50)
    assert registry.mark().get("g", "HEAP_MAX") == 50
