"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still letting programming errors (``TypeError`` et al.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied.

    Raised eagerly, at object-construction time, so misconfiguration is
    reported before any expensive work starts.
    """


class DataFormatError(ReproError):
    """A dataset record or file could not be parsed or validated."""


class JobFailedError(ReproError):
    """A MapReduce job failed.

    Mirrors Hadoop's behaviour of failing the whole job when a task
    fails repeatedly. The ``cause`` attribute carries the task-level
    exception (for example :class:`JavaHeapSpaceError`).
    """

    def __init__(self, message: str, cause: Exception | None = None):
        super().__init__(message)
        self.cause = cause

    def __reduce__(self):
        return (type(self), (self.args[0], self.cause))


class SplitUnavailableError(ReproError):
    """Every replica of an input split is gone.

    HDFS serves a read from any surviving replica and re-replicates in
    the background; only when the last copy of a block is lost does the
    read fail. This is that failure — the one fault the framework
    cannot hide, which is why it surfaces as a typed error instead of a
    retryable task failure.
    """

    def __init__(self, file_name: str, split_index: int, replication: int):
        self.file_name = file_name
        self.split_index = int(split_index)
        self.replication = int(replication)
        super().__init__(
            f"split {file_name}:{split_index}: all {replication} replicas lost"
        )

    def __reduce__(self):
        return (type(self), (self.file_name, self.split_index, self.replication))


class JournalCorruptError(ReproError):
    """A run journal contains an unreadable record.

    A run killed mid-write legitimately leaves a *truncated final*
    line, which the journal loader tolerates (reconstructing
    interrupted runs is the point); a malformed record anywhere else
    means the file is not a journal — or has been damaged — and raises
    this error instead of a bare ``JSONDecodeError``.
    """

    def __init__(self, path: str, line_number: int, reason: str):
        self.path = str(path)
        self.line_number = int(line_number)
        self.reason = str(reason)
        super().__init__(
            f"{path}:{line_number}: corrupt journal record ({reason})"
        )

    def __reduce__(self):
        return (type(self), (self.path, self.line_number, self.reason))


class SLOViolationError(ReproError):
    """A live SLO watchdog rule was breached and requested an abort.

    Raised by the driver at the first clean abort point *after* the
    breach (for checkpointing chains: right after the iteration's
    checkpoint was written), so a breached run can always be resumed
    with ``fit(resume_from=...)`` once the rule is relaxed. The CLI
    maps this error to its own exit code (3) so operators and CI can
    tell "SLO abort" from "crash".
    """

    def __init__(self, rule: str, limit: float, observed: float):
        self.rule = str(rule)
        self.limit = float(limit)
        self.observed = float(observed)
        super().__init__(
            f"SLO breach: {rule} limit {limit:g} exceeded "
            f"(observed {observed:g}); run aborted after checkpoint"
        )

    def __reduce__(self):
        return (type(self), (self.rule, self.limit, self.observed))


class SimulatedClockError(ReproError):
    """A simulated duration or running total left the exact clock range.

    Simulated seconds lie on a grid of 2**-30 s, on which float64 adds
    exactly only while values stay below 2**23 s (about 97 days). A
    value at or past that bound, or one that is not finite, would make
    totals depend on the order they were summed in, so the cost model
    raises this error instead of returning it.
    """

    def __init__(self, seconds: float, what: str = "duration"):
        self.seconds = float(seconds)
        self.what = str(what)
        super().__init__(
            f"simulated {what} of {seconds!r} s is outside the exact "
            "clock range (below 2**23 s)"
        )

    def __reduce__(self):
        return (type(self), (self.seconds, self.what))


class JavaHeapSpaceError(ReproError):
    """A task exceeded its configured JVM heap.

    Named after the ``java.lang.OutOfMemoryError: Java heap space``
    failure the paper observes in Figure 2 when the ``TestClusters``
    reducer receives more projections than fit in the task JVM.
    """

    def __init__(self, required_bytes: int, heap_bytes: int, task: str = ""):
        self.required_bytes = int(required_bytes)
        self.heap_bytes = int(heap_bytes)
        self.task = task
        mib = 1024 * 1024
        super().__init__(
            f"Java heap space: task {task or '<unknown>'} requires "
            f"{required_bytes / mib:.1f} MiB but heap is {heap_bytes / mib:.1f} MiB"
        )

    def __reduce__(self):
        # Exceptions with non-message __init__ args need explicit pickle
        # support; heap failures raised inside process-pool workers are
        # re-raised in the runtime process.
        return (type(self), (self.required_bytes, self.heap_bytes, self.task))
