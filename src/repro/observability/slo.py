"""Declarative SLO watchdogs over the live telemetry stream.

Rules are given as a comma-separated spec (the CLI's ``--slo`` flag /
``$REPRO_SLO``), e.g.::

    max_k=64,warn:max_wall_seconds=600,max_heap_fraction=0.9

Each rule names a quantity derived from :class:`~repro.observability.
live.LiveRunState` and an upper limit. ``on_anomaly=TYPE`` rules
subscribe to the in-flight anomaly detectors instead (``--anomaly``):
the observed quantity is the live count of that anomaly type, with an
implicit limit of zero — the first ``heap_breach_predicted`` (or
``skew_drift``, ...) firing breaches the rule. The default action is
``abort``:
on breach the watchdog *requests* an abort, and the driver honours it
at the first clean point — for the checkpointing G-means chain, right
after the iteration's checkpoint is written — by raising
:class:`~repro.common.errors.SLOViolationError` (CLI exit code 3). The
``warn:`` prefix downgrades a rule to a one-time stderr warning.

The watchdog only *reads* the aggregate — it never emits journal
records and never touches an RNG — so canonical journals and results
stay byte-identical whether rules are armed or not, and an aborted run
resumes with ``fit(resume_from=...)`` once the rule is relaxed.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

from repro.common.errors import ConfigurationError, SLOViolationError

#: Environment variable carrying the SLO rule spec (``--slo`` writes it).
SLO_ENV = "REPRO_SLO"

#: Rule names, in the order they are evaluated, mapped to how the
#: observed value is read off a ``LiveRunState``.
RULE_NAMES = (
    "max_wall_seconds",
    "max_simulated_seconds",
    "max_k",
    "max_heap_fraction",
    "max_job_retries",
    "on_anomaly",
)

ABORT = "abort"
WARN = "warn"


@dataclass(frozen=True)
class SLORule:
    """One declarative guardrail: a named quantity must stay ≤ limit.

    ``on_anomaly`` rules carry the subscribed anomaly type in
    ``anomaly`` and an implicit limit of zero (any firing breaches).
    """

    name: str
    limit: float
    action: str = ABORT
    anomaly: "str | None" = None

    def __post_init__(self) -> None:
        from repro.observability.anomaly import ANOMALY_TYPES

        if self.name not in RULE_NAMES:
            raise ConfigurationError(
                f"unknown SLO rule {self.name!r}; choose from {', '.join(RULE_NAMES)}"
            )
        if self.action not in (ABORT, WARN):
            raise ConfigurationError(
                f"unknown SLO action {self.action!r}; choose abort or warn"
            )
        if self.name == "on_anomaly":
            if self.anomaly not in ANOMALY_TYPES:
                raise ConfigurationError(
                    f"unknown anomaly type {self.anomaly!r} for on_anomaly; "
                    f"choose from {', '.join(ANOMALY_TYPES)}"
                )
            if self.limit < 0:
                raise ConfigurationError(
                    f"SLO rule {self.key} needs a non-negative limit, "
                    f"got {self.limit!r}"
                )
            return
        if self.anomaly is not None:
            raise ConfigurationError(
                f"SLO rule {self.name} does not take an anomaly type"
            )
        if not self.limit > 0:
            raise ConfigurationError(
                f"SLO rule {self.name} needs a positive limit, got {self.limit!r}"
            )

    @property
    def key(self) -> str:
        """The rule's identity (duplicates, breach naming, latching)."""
        if self.anomaly is not None:
            return f"{self.name}:{self.anomaly}"
        return self.name


@dataclass(frozen=True)
class SLOBreach:
    """A rule observed over its limit (what, by how much, what happens)."""

    rule: str
    limit: float
    observed: float
    action: str


def parse_slo_rules(spec: str) -> tuple[SLORule, ...]:
    """Parse a ``--slo`` spec string into rules.

    ``"max_k=64,warn:max_wall_seconds=600"`` → an abort rule on k and a
    warn rule on wall clock; ``"on_anomaly=heap_breach_predicted"`` →
    an abort rule on the first heap-breach prediction. Whitespace
    around separators is tolerated; duplicate rules (same name, and
    for ``on_anomaly`` the same type) are a configuration error (which
    limit would win is otherwise ambiguous).
    """
    rules: list[SLORule] = []
    seen: set[str] = set()
    for chunk in (spec or "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        action = ABORT
        if ":" in chunk:
            prefix, chunk = chunk.split(":", 1)
            action = prefix.strip().lower()
        if "=" not in chunk:
            raise ConfigurationError(
                f"SLO rule {chunk!r} is not of the form name=limit"
            )
        name, _, raw_limit = chunk.partition("=")
        name = name.strip().lower()
        if name == "on_anomaly":
            rule = SLORule(
                name=name,
                limit=0.0,
                action=action,
                anomaly=raw_limit.strip().lower(),
            )
        else:
            try:
                limit = float(raw_limit.strip())
            except ValueError:
                raise ConfigurationError(
                    f"SLO rule {name} has a non-numeric limit {raw_limit.strip()!r}"
                ) from None
            rule = SLORule(name=name, limit=limit, action=action)
        if rule.key in seen:
            raise ConfigurationError(f"duplicate SLO rule {rule.key!r}")
        seen.add(rule.key)
        rules.append(rule)
    return tuple(rules)


def _observe_rule(rule: SLORule, state, now: "float | None") -> float:
    if rule.name == "max_wall_seconds":
        return state.wall_seconds(now)
    if rule.name == "max_simulated_seconds":
        return float(state.simulated_seconds)
    if rule.name == "max_k":
        return float(state.k_current or 0)
    if rule.name == "max_heap_fraction":
        return float(state.max_heap_fraction)
    if rule.name == "max_job_retries":
        return float(state.job_retries)
    if rule.name == "on_anomaly":
        counts = getattr(state, "anomaly_counts", None) or {}
        return float(counts.get(rule.anomaly, 0))
    raise ConfigurationError(f"unknown SLO rule {rule.name!r}")  # pragma: no cover


class SLOWatchdog:
    """Evaluates SLO rules against the live aggregate on every record.

    ``observe(state)`` is called by the :class:`TelemetrySink` after
    each journal record is folded in. Each rule fires at most once per
    run: a ``warn`` rule prints one stderr warning, an ``abort`` rule
    additionally latches ``abort_requested`` — the driver then calls
    :meth:`check_abort` at its next clean point (post-checkpoint) and
    gets the typed :class:`SLOViolationError` for the *first* abort
    breach. Evaluation never raises from inside the sink: raising
    mid-record would tear the journal stream.
    """

    def __init__(self, rules, stream=None, clock=time.time):
        self.rules = tuple(rules)
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._lock = threading.Lock()
        self._fired: set[str] = set()
        self.breaches: list[SLOBreach] = []
        self.abort_requested: "SLOBreach | None" = None

    def observe(self, state) -> None:
        if not self.rules:
            return
        now = self._clock()
        with self._lock:
            for rule in self.rules:
                if rule.key in self._fired:
                    continue
                observed = _observe_rule(rule, state, now)
                if observed <= rule.limit:
                    continue
                self._fired.add(rule.key)
                breach = SLOBreach(
                    rule=rule.key,
                    limit=rule.limit,
                    observed=observed,
                    action=rule.action,
                )
                self.breaches.append(breach)
                verb = (
                    "aborting at next checkpoint"
                    if rule.action == ABORT
                    else "warning only"
                )
                print(
                    f"[repro] SLO breach: {rule.key} limit {rule.limit:g} "
                    f"exceeded (observed {observed:g}); {verb}",
                    file=self.stream,
                )
                if rule.action == ABORT and self.abort_requested is None:
                    self.abort_requested = breach

    def check_abort(self) -> None:
        """Raise the typed abort error if a breach requested one.

        Called by drivers at clean abort points only — i.e. when the
        current iteration's checkpoint has been durably written — so a
        breached run is always resumable.
        """
        breach = self.abort_requested
        if breach is not None:
            raise SLOViolationError(breach.rule, breach.limit, breach.observed)


def watchdog_for(journal) -> "SLOWatchdog | None":
    """The watchdog attached to a journal's sink, if telemetry armed one."""
    if journal is None or not getattr(journal, "enabled", False):
        return None
    return getattr(journal.sink, "watchdog", None)
