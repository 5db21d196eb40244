"""Spans around each layer's public calls, kept in memory.

The traced run installs wrappers from the benchmark's own files at the
names the callers look the functions up: a module attribute for a
``from ... import`` name, a class attribute for a method, and the
``Job`` constructor default for ``value_size``. No repository file
changes. Every wrapped call pushes a frame on one stack; on exit it adds
its duration to its parent's covered time, so a layer's self time is its
duration minus the part its traced children cover. Calls that happen
thousands of times per fit (byte accounting, cost model, validation,
journal records) are only aggregated; the rest are also kept as spans
(name, start, end, parent, fit id) for the Chrome trace.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

_clock = time.perf_counter


class Tracer:
    """A span stack plus per-fit aggregates."""

    def __init__(self):
        #: Recorded spans: [name, start, end, parent index, fit id].
        self.spans: list[list] = []
        self.fit: "str | None" = None
        #: name -> [inclusive seconds, self seconds, calls] since reset.
        self.totals: dict[str, list] = {}
        #: Counts gathered at the same boundaries, since reset.
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []

    def reset(self) -> None:
        self.totals = {}
        self.counts = {}

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def push(self, name: str, record: bool) -> list:
        index = -1
        start = _clock()
        if record:
            parent = -1
            for frame in reversed(self._stack):
                if frame[3] >= 0:
                    parent = frame[3]
                    break
            index = len(self.spans)
            self.spans.append([name, start, start, parent, self.fit])
        frame = [name, start, 0.0, index]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = _clock()
        stack = self._stack
        while stack.pop() is not frame:
            pass
        name, start, covered, index = frame
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0.0, 0.0, 0]
        total[0] += duration
        total[1] += duration - covered
        total[2] += 1
        if stack:
            stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end


def _traced(tracer: Tracer, name: str, fn, record: bool, counter=None):
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = push(name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            pop(frame)
        if counter is not None:
            counter(tracer, args)
        return result

    return wrapper


def _count_assign(tracer: Tracer, args) -> None:
    points, centers = args[0], args[1]
    n = len(points)
    k, d = np.shape(centers)
    tracer.count("kernel.assign_rows", n)
    tracer.count("kernel.assign_flops", 2.0 * n * k * d)


def _count_normality(tracer: Tracer, args) -> None:
    tracer.count("stats.normality_points", len(args[0]))


def _count_partition(tracer: Tracer, args) -> None:
    tracer.count("shuffle.pairs", len(args[0]))


def _count_record(tracer: Tracer, args) -> None:
    tracer.count("journal.records", 1)


#: In-task layers: (module, function name, span, recorded, counter).
#: On the process backend these run in workers, out of the driver's
#: sight; the traced run takes them from a serial re-run.
IN_TASK = (
    ("repro.core.records", "split_points", "records.split_points", True, None),
    ("repro.core.kmeans_job", "split_points", "records.split_points", True, None),
    ("repro.core.kmeans_find_new", "split_points", "records.split_points", True, None),
    ("repro.core.test_clusters", "split_points", "records.split_points", True, None),
    ("repro.core.kmeans_job", "assign_nearest", "kernel.assign", True, _count_assign),
    ("repro.core.kmeans_find_new", "assign_nearest", "kernel.assign", True, _count_assign),
    ("repro.core.test_clusters", "assign_nearest", "kernel.assign", True, _count_assign),
    ("repro.clustering.metrics", "check_points", "validation.check_points", False, None),
    ("repro.core.kmeans_job", "label_sums", "kernel.label_sums", True, None),
    ("repro.core.kmeans_find_new", "label_sums", "kernel.label_sums", True, None),
    ("repro.core.test_few_clusters", "normality_test", "stats.normality", True, _count_normality),
    ("repro.core.test_clusters", "normality_test", "stats.normality", True, _count_normality),
    ("repro.mapreduce.executors", "run_combiner", "shuffle.combiner", True, None),
    ("repro.core.kmeans_find_new", "merge_candidate_samples", "core.candidate_merge", False, None),
)

#: Driver-side functions and methods: (module, attribute path, span,
#: recorded, counter).
DRIVER = (
    ("repro.core.gmeans_mr", "MRGMeans.fit", "core.fit", True, None),
    ("repro.mapreduce.runtime", "MapReduceRuntime.run", "runtime.run", True, None),
    ("repro.mapreduce.runtime", "partition_pairs", "shuffle.partition", True, _count_partition),
    ("repro.mapreduce.costmodel", "CostModel.map_task_seconds", "costmodel", False, None),
    ("repro.mapreduce.costmodel", "CostModel.reduce_task_seconds", "costmodel", False, None),
    ("repro.mapreduce.costmodel", "CostModel.job_timing", "costmodel", False, None),
    ("repro.mapreduce.hdfs", "InMemoryDFS.write", "dfs.ingest", True, None),
    ("repro.observability.journal", "FileJournalSink.emit", "journal.file", False, _count_record),
    ("repro.observability.live", "LiveRunState.consume", "journal.live", False, None),
    ("repro.observability.anomaly", "AnomalyWatchdog.observe_record", "journal.anomaly", False, None),
)

#: Journal methods that emit a record when the journal is enabled.
JOURNAL_METHODS = ("start_span", "end_span", "event", "task")


class Instrumentation:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, module: str, path: str, span: str, record: bool, counter) -> None:
        owner = importlib.import_module(module)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        self._set(owner, attr, _traced(self.tracer, span, original, record, counter))

    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        from repro.mapreduce import executors, job
        from repro.observability.journal import Journal

        tracer = self.tracer
        for entry in DRIVER + IN_TASK:
            self._wrap(*entry)
        # The thread and process executors inherit run_tasks from the pool base.
        for cls in (executors.SerialExecutor, executors._PoolBackedExecutor):
            self._set(cls, "run_tasks", _traced_run_tasks(tracer, cls.__dict__["run_tasks"]))
        for name in JOURNAL_METHODS:
            self._set(Journal, name, _traced_journal(tracer, Journal.__dict__[name]))
        # Job.value_size defaults to sizeof_value through the dataclass
        # constructor; the runtime calls it as ``job.value_size``.
        init = job.Job.__init__
        defaults = init.__defaults__
        sizeof = _traced(tracer, "accounting.sizeof", job.sizeof_value, False)
        self._undo.append((init, "__defaults__", defaults))
        init.__defaults__ = tuple(
            sizeof if value is job.sizeof_value else value for value in defaults
        )

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _traced_run_tasks(tracer: Tracer, original):
    from repro.mapreduce.executors import TaskResult

    @functools.wraps(original)
    def run_tasks(self, fn, specs, *args, **kwargs):
        reduce = getattr(fn, "__name__", "") == "execute_reduce_task"
        frame = tracer.push("executors.reduce" if reduce else "executors.map", True)
        try:
            outcomes = original(self, fn, specs, *args, **kwargs)
        finally:
            tracer.pop(frame)
        tracer.count("executors.tasks", len(outcomes))
        tracer.count(
            "executors.busy_s",
            sum(o.wall_seconds for o in outcomes if isinstance(o, TaskResult)),
        )
        return outcomes

    return run_tasks


def _traced_journal(tracer: Tracer, original):
    @functools.wraps(original)
    def method(self, *args, **kwargs):
        if not self.enabled:
            return original(self, *args, **kwargs)
        frame = tracer.push("journal.emit", False)
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.pop(frame)

    return method


def chrome_trace(sections) -> dict:
    """Chrome trace-event JSON (loads in Perfetto) of recorded spans.

    ``sections`` holds ``(label, spans)`` pairs; each becomes one
    process track. Times are microseconds from the earliest span.
    """
    starts = [span[1] for _, spans in sections for span in spans]
    base = min(starts) if starts else 0.0
    events = []
    for pid, (label, spans) in enumerate(sections, start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
             "args": {"name": label}}
        )
        for index, (name, start, end, parent, fit) in enumerate(spans):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (start - base) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {"fit": fit, "span": index, "parent": parent},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
