"""Counter snapshots at span boundaries.

The runtime's :class:`~repro.mapreduce.counters.Counters` accumulate
monotonically over a whole chained run; what the paper's tables need
is the *per-iteration* and *per-job* breakdown. A
:class:`MetricsRegistry` wraps a live ``Counters`` object and marks
span boundaries, handing out the delta accumulated since the previous
mark (``Counters.diff``, which respects ``_MAX`` high-water
semantics).
"""

from __future__ import annotations

from repro.mapreduce.counters import Counters


class MetricsRegistry:
    """Boundary snapshots over one live :class:`Counters` object.

    ::

        registry = MetricsRegistry(driver.totals.counters)
        ... run one iteration ...
        delta = registry.mark()   # Counters accumulated this iteration
    """

    def __init__(self, counters: Counters):
        self.counters = counters
        self._mark = counters.copy()

    def delta(self) -> Counters:
        """Counters accumulated since the last mark (does not advance)."""
        return self.counters.diff(self._mark)

    def mark(self) -> Counters:
        """Delta since the previous mark, advancing the boundary."""
        delta = self.counters.diff(self._mark)
        self._mark = self.counters.copy()
        return delta
