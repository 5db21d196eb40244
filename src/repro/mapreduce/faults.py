"""Task-level fault injection: failures, retries, stragglers,
speculative execution.

Hadoop's fault tolerance shapes real job times: a task that dies is
re-executed (up to ``mapred.map.max.attempts`` = 4 by default, after
which the whole job fails), and slow tasks ("stragglers") are raced
against speculative clones. The simulation reproduces those dynamics
so that chained G-means runs exhibit realistic tail behaviour — and so
the test suite can verify the algorithms are agnostic to them (faults
perturb *time*, never *results*, because re-executed tasks are
deterministic).

Concurrency contract: the fault stream is a single sequential RNG, so
the runtime applies the model in the *submitting* process only, in
task-index order, after the parallel task executor has returned —
never inside worker processes. That keeps retry and
speculative-execution bookkeeping byte-identical across the serial and
process backends.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.common.errors import ConfigurationError, ReproError
from repro.common.validation import check_in_range, check_positive
from repro.mapreduce.costmodel import quantize
from repro.mapreduce.counters import Counters, FRAMEWORK_GROUP, MRCounter

#: Environment variables consulted by :meth:`FaultModel.from_env` (the
#: chaos-mode switch: every runtime constructed without explicit faults
#: picks these up, so a whole test suite can run under injected faults).
TASK_FAILURE_PROB_ENV = "REPRO_TASK_FAILURE_PROB"
STRAGGLER_PROB_ENV = "REPRO_STRAGGLER_PROB"
MAX_TASK_ATTEMPTS_ENV = "REPRO_MAX_TASK_ATTEMPTS"


class TaskPermanentlyFailedError(ReproError):
    """A task failed on every allowed attempt (Hadoop then kills the job)."""

    def __init__(self, task: str, attempts: int):
        self.task = task
        self.attempts = attempts
        super().__init__(f"task {task} failed after {attempts} attempts")

    def __reduce__(self):
        return (type(self), (self.task, self.attempts))


#: Framework counters maintained by the fault model.
TASK_FAILURES = "TASK_FAILURES"
SPECULATIVE_TASKS = "SPECULATIVE_TASKS"


@dataclass(frozen=True)
class FaultModel:
    """Stochastic task-level fault behaviour.

    ``task_failure_probability`` applies independently per attempt; a
    failed attempt burns half its duration before dying (the task died
    mid-flight). ``straggler_probability`` slows a task by
    ``straggler_slowdown``; with ``speculative_execution`` a clone is
    launched and the effective duration becomes the clone's (plus a
    detection overhead), as in Hadoop's speculative execution.
    """

    task_failure_probability: float = 0.0
    max_attempts: int = 4
    straggler_probability: float = 0.0
    straggler_slowdown: float = 6.0
    speculative_execution: bool = False
    speculative_overhead: float = 1.2

    def __post_init__(self) -> None:
        check_in_range(
            "task_failure_probability", self.task_failure_probability, 0.0, 1.0
        )
        check_positive("max_attempts", self.max_attempts)
        check_in_range(
            "straggler_probability", self.straggler_probability, 0.0, 1.0
        )
        check_positive("straggler_slowdown", self.straggler_slowdown)
        check_positive("speculative_overhead", self.speculative_overhead)

    @property
    def enabled(self) -> bool:
        return (
            self.task_failure_probability > 0.0
            or self.straggler_probability > 0.0
        )

    @classmethod
    def from_env(
        cls, environ: "Mapping[str, str] | None" = None
    ) -> "FaultModel | None":
        """Build a model from ``REPRO_TASK_FAILURE_PROB`` /
        ``REPRO_STRAGGLER_PROB`` / ``REPRO_MAX_TASK_ATTEMPTS``.

        Returns ``None`` when no fault variable is set (or both
        probabilities are zero), so runtimes keep their historical
        fault-free default outside chaos runs.
        """
        env = os.environ if environ is None else environ

        def _float(name: str) -> float:
            raw = (env.get(name) or "").strip()
            if not raw:
                return 0.0
            try:
                return float(raw)
            except ValueError:
                raise ConfigurationError(
                    f"{name} must be a float, got {raw!r}"
                ) from None

        failure = _float(TASK_FAILURE_PROB_ENV)
        straggler = _float(STRAGGLER_PROB_ENV)
        raw_attempts = (env.get(MAX_TASK_ATTEMPTS_ENV) or "").strip()
        if failure == 0.0 and straggler == 0.0:
            if raw_attempts:
                warnings.warn(
                    f"{MAX_TASK_ATTEMPTS_ENV}={raw_attempts} is set but has"
                    f" no effect: neither {TASK_FAILURE_PROB_ENV} nor"
                    f" {STRAGGLER_PROB_ENV} enables fault injection",
                    stacklevel=2,
                )
            return None
        return cls(
            task_failure_probability=failure,
            straggler_probability=straggler,
            max_attempts=int(raw_attempts) if raw_attempts else 4,
        )

    def apply(
        self,
        base_seconds: float,
        task_id: str,
        rng: np.random.Generator,
        counters: Counters,
    ) -> float:
        """Effective duration of one task under the fault model.

        Alongside the duration, the model charges
        ``WASTED_COMPUTE_SECONDS`` for every machine-second that
        produced no output: a failed attempt burns the half duration it
        ran before dying; a speculative clone racing an attempt that
        dies anyway burns the same half alongside it; and when the
        clone *wins* the race, the slow original it ran beside is
        killed after ``duration`` fruitless seconds. Wasted seconds are
        pure accounting — the returned duration is unchanged by them.

        Raises :class:`TaskPermanentlyFailedError` when every attempt
        fails.
        """
        if not self.enabled:
            return base_seconds
        total = 0.0
        for attempt in range(1, self.max_attempts + 1):
            duration = base_seconds
            speculated = False
            if rng.random() < self.straggler_probability:
                slowed = quantize(base_seconds * self.straggler_slowdown)
                if self.speculative_execution:
                    duration = min(
                        slowed,
                        quantize(base_seconds * self.speculative_overhead),
                    )
                    speculated = True
                else:
                    duration = slowed
            if rng.random() >= self.task_failure_probability:
                # Speculation only counts when the raced attempt is the
                # one that survives; the clone of an attempt that dies
                # anyway rescued nothing.
                if speculated:
                    counters.inc(FRAMEWORK_GROUP, SPECULATIVE_TASKS)
                    # The slow original ran beside the winning clone
                    # for the clone's whole duration before being
                    # killed.
                    counters.inc(
                        FRAMEWORK_GROUP,
                        MRCounter.WASTED_COMPUTE_SECONDS,
                        duration,
                    )
                return total + duration
            counters.inc(FRAMEWORK_GROUP, TASK_FAILURES)
            # The attempt died mid-flight; a clone racing it dies with
            # it, having burned the same half duration in parallel.
            half = quantize(duration * 0.5)
            wasted = half + half if speculated else half
            counters.inc(
                FRAMEWORK_GROUP, MRCounter.WASTED_COMPUTE_SECONDS, wasted
            )
            total += half
        raise TaskPermanentlyFailedError(task_id, self.max_attempts)
