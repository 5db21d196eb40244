"""Pluggable task-execution backends for the MapReduce runtime.

The simulated Hadoop runtime used to run every map and reduce task
serially in one Python process. The paper's iterations are
embarrassingly parallel across splits and clusters, so the runtime now
delegates task execution to a :class:`TaskExecutor` backend:

* ``serial`` — the original in-process loop (default, and the
  reference every other backend must match byte for byte);
* ``processes`` — a shared
  :class:`concurrent.futures.ProcessPoolExecutor` (true CPU
  parallelism, like Hadoop's task-per-JVM model; jobs, contexts and
  task results must be picklable). A phase's tasks go to the pool in
  *waves*: one striped batch per worker, so a phase costs one pickle
  round-trip per worker instead of one per task.

Determinism contract
--------------------

Results are **byte-identical across all backends**, because nothing a
task computes depends on scheduling:

* per-task RNG seeds are spawned from the runtime RNG *by task index*
  before anything is submitted (see
  :func:`repro.common.rng.spawn_seeds`);
* task outputs and counters are merged in task-index order, never in
  completion order;
* task failures are re-raised for the lowest-index failing task, which
  is exactly the task that would have raised first under ``serial``;
* fault injection and cost-model timing run in the submitting process,
  in task-index order, over the same sequential fault-RNG stream the
  serial backend consumes.

The worker functions :func:`execute_map_task` /
:func:`execute_reduce_task` are module-level so the process backend can
pickle them by qualified name.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.common.errors import ConfigurationError
from repro.mapreduce.counters import Counters, MRCounter, framework
from repro.mapreduce.hdfs import Split
from repro.mapreduce.job import MapContext, Mapper, ReduceContext, Reducer
from repro.mapreduce.shuffle import group_by_key, run_combiner, sorted_keys
from repro.observability.profiling import task_profiler

#: Recognised backend names, in documentation order.
EXECUTOR_KINDS = ("serial", "processes")

#: Environment variables consulted by :meth:`RuntimeConfig.from_env`
#: (and therefore by every runtime constructed without an explicit
#: config — this is how CI runs the whole suite over a second backend).
EXECUTOR_ENV = "REPRO_EXECUTOR"
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"
MAX_JOB_RETRIES_ENV = "REPRO_MAX_JOB_RETRIES"
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"


def default_num_workers() -> int:
    """Worker count used when the config leaves ``num_workers`` unset."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution-backend selection for :class:`MapReduceRuntime`.

    ``executor`` picks the backend (``serial``/``processes``);
    ``num_workers`` bounds backend concurrency (``None`` means one
    worker per CPU). Worker counts never affect results — only
    wall-clock time. How record blocks reach workers is not a runtime
    setting: the DFS decides it when a file is written (see
    ``InMemoryDFS(data_plane=...)``).

    ``max_job_retries`` re-executes a whole job that failed permanently
    (a task out of attempts, an unavailable split) up to that many extra
    times, with exponential backoff (``retry_backoff_seconds`` doubled
    per retry via ``retry_backoff_factor``, plus deterministic jitter of
    up to ``retry_jitter`` of the delay) charged to simulated time.
    Re-executions re-use the failed attempt's task seeds, so retries —
    like every other fault feature — perturb time, never results.
    """

    executor: str = "serial"
    num_workers: int | None = None
    max_job_retries: int = 0
    retry_backoff_seconds: float = 30.0
    retry_backoff_factor: float = 2.0
    retry_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTOR_KINDS}, got {self.executor!r}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.max_job_retries < 0:
            raise ConfigurationError(
                f"max_job_retries must be >= 0, got {self.max_job_retries}"
            )
        if self.retry_backoff_seconds < 0:
            raise ConfigurationError(
                f"retry_backoff_seconds must be >= 0, got {self.retry_backoff_seconds}"
            )
        if self.retry_backoff_factor < 1.0:
            raise ConfigurationError(
                f"retry_backoff_factor must be >= 1, got {self.retry_backoff_factor}"
            )
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ConfigurationError(
                f"retry_jitter must be in [0, 1], got {self.retry_jitter}"
            )

    @classmethod
    def from_env(cls, environ: "Mapping[str, str] | None" = None) -> "RuntimeConfig":
        """Build a config from the environment.

        It reads exactly four variables: ``REPRO_EXECUTOR`` (backend),
        ``REPRO_NUM_WORKERS`` (worker count), ``REPRO_MAX_JOB_RETRIES``
        (job re-executions) and ``REPRO_RETRY_BACKOFF`` (base backoff
        seconds). Unset or empty variables fall back to the defaults, so
        code that constructs a runtime without an explicit config keeps
        its historical serial, no-retry behaviour.
        """
        env = os.environ if environ is None else environ
        kind = (env.get(EXECUTOR_ENV) or "serial").strip() or "serial"

        def _int(name: str, fallback: int) -> int:
            raw = (env.get(name) or "").strip()
            if not raw:
                return fallback
            try:
                return int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"{name} must be an integer, got {raw!r}"
                ) from None

        raw_workers = (env.get(NUM_WORKERS_ENV) or "").strip()
        try:
            workers = int(raw_workers) if raw_workers else None
        except ValueError:
            raise ConfigurationError(
                f"{NUM_WORKERS_ENV} must be an integer, got {raw_workers!r}"
            ) from None
        raw_backoff = (env.get(RETRY_BACKOFF_ENV) or "").strip()
        try:
            backoff = float(raw_backoff) if raw_backoff else 30.0
        except ValueError:
            raise ConfigurationError(
                f"{RETRY_BACKOFF_ENV} must be a float, got {raw_backoff!r}"
            ) from None
        return cls(
            executor=kind,
            num_workers=workers,
            max_job_retries=_int(MAX_JOB_RETRIES_ENV, 0),
            retry_backoff_seconds=backoff,
        )


# -- task specifications and results ------------------------------------


@dataclass(frozen=True)
class MapTaskSpec:
    """Everything one map task needs, picklable for the process backend.

    ``profile`` opts the task body into real resource measurement
    (CPU seconds; see :mod:`repro.observability.profiling`);
    ``profile_memory`` additionally arms the expensive tracemalloc peak
    trace — the runtime samples it onto the first task of each phase of
    geometrically sampled jobs (the 1st, 2nd, 4th, 8th, ... job).
    """

    task_id: str
    mapper: Callable[[], Mapper]
    combiner: "Callable[[], Reducer] | None"
    config: dict
    split: Split
    seed: int
    heap_bytes: int
    profile: bool = False
    profile_memory: bool = False


@dataclass(frozen=True)
class ReduceTaskSpec:
    """Everything one reduce task needs, picklable for the process backend."""

    task_id: str
    reducer: Callable[[], Reducer]
    config: dict
    bucket: list
    seed: int
    heap_bytes: int
    heap_bytes_per_value: "Callable[[object], int] | None"
    profile: bool = False
    profile_memory: bool = False


@dataclass
class TaskResult:
    """What a task sends back to the runtime for index-ordered merging.

    ``wall_seconds`` is the real time the task body took *wherever it
    ran* (inline or in a worker process) — the run journal's
    per-task wall timing. ``cpu_seconds`` is populated only when the
    spec asked for profiling, ``peak_memory_bytes`` only when the spec
    was additionally memory-sampled (``None`` otherwise). All three are
    measurement, never input: nothing downstream computes with them,
    which is what keeps results identical across backends.
    """

    pairs: list
    counters: Counters
    heap_high_water: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    peak_memory_bytes: "int | None" = None


@dataclass(frozen=True)
class TaskFailure:
    """A captured task exception, re-raised by the runtime in index order."""

    error: Exception


def execute_map_task(spec: MapTaskSpec) -> TaskResult:
    """Run one map task (mapper lifecycle + per-task combiner)."""
    started = time.perf_counter()
    task_counters = Counters()
    framework(task_counters, MRCounter.MAP_TASKS)
    framework(task_counters, MRCounter.MAP_INPUT_RECORDS, spec.split.num_records)
    rng = np.random.default_rng(spec.seed)
    ctx = MapContext(spec.config, task_counters, rng, spec.heap_bytes, spec.task_id)
    with task_profiler(spec.profile, memory=spec.profile_memory) as profile:
        mapper = spec.mapper()
        mapper.setup(ctx)
        mapper.map_split(spec.split, ctx)
        mapper.close(ctx)
        pairs = ctx.emitted
        if spec.combiner is not None:
            pairs = run_combiner(
                spec.combiner,
                pairs,
                spec.config,
                task_counters,
                rng,
                spec.heap_bytes,
                spec.task_id,
            )
    return TaskResult(
        pairs=pairs,
        counters=task_counters,
        heap_high_water=ctx.heap_high_water,
        wall_seconds=time.perf_counter() - started,
        cpu_seconds=profile.cpu_seconds,
        peak_memory_bytes=profile.peak_memory_bytes,
    )


def execute_reduce_task(spec: ReduceTaskSpec) -> TaskResult:
    """Run one reduce task (sort-merge grouping + reducer lifecycle)."""
    started = time.perf_counter()
    task_counters = Counters()
    framework(task_counters, MRCounter.REDUCE_TASKS)
    rng = np.random.default_rng(spec.seed)
    ctx = ReduceContext(spec.config, task_counters, rng, spec.heap_bytes, spec.task_id)
    with task_profiler(spec.profile, memory=spec.profile_memory) as profile:
        reducer = spec.reducer()
        reducer.setup(ctx)
        groups = group_by_key(spec.bucket)
        framework(task_counters, MRCounter.REDUCE_INPUT_GROUPS, len(groups))
        framework(task_counters, MRCounter.REDUCE_INPUT_RECORDS, len(spec.bucket))
        for key in sorted_keys(groups):
            values = groups[key]
            if spec.heap_bytes_per_value is not None:
                group_bytes = sum(spec.heap_bytes_per_value(v) for v in values)
                ctx.allocate(group_bytes)
                reducer.reduce(key, values, ctx)
                ctx.free(group_bytes)
            else:
                reducer.reduce(key, values, ctx)
        reducer.close(ctx)
    return TaskResult(
        pairs=ctx.emitted,
        counters=task_counters,
        heap_high_water=ctx.heap_high_water,
        wall_seconds=time.perf_counter() - started,
        cpu_seconds=profile.cpu_seconds,
        peak_memory_bytes=profile.peak_memory_bytes,
    )


def _guarded(fn: Callable, spec) -> "TaskResult | TaskFailure":
    """Run ``fn(spec)``, converting the exception into a value.

    Capturing (instead of failing fast) lets the runtime raise the
    *lowest-index* failure, which is the one the serial backend would
    have hit first — completion order must never leak into behaviour.
    """
    try:
        return fn(spec)
    except Exception as err:  # noqa: BLE001 - re-raised by the caller
        return TaskFailure(err)


def unwrap(outcome: "TaskResult | TaskFailure") -> TaskResult:
    """Return the task result, re-raising a captured task failure."""
    if isinstance(outcome, TaskFailure):
        raise outcome.error
    return outcome


def _run_spec_batch(fn: Callable, specs: Sequence) -> list:
    """Run a whole stripe of specs in one worker, outcomes in order.

    The unit of wave submission: the process backend pays one
    submission (one spec-batch pickle out, one result-batch pickle
    back) per *worker* per phase instead of per task. Failures are
    captured per spec, so index-ordered unwrapping behaves exactly as
    under ``serial``.
    """
    return [_guarded(fn, spec) for spec in specs]


# -- executors ----------------------------------------------------------


@runtime_checkable
class TaskExecutor(Protocol):
    """Strategy interface: run independent tasks, results in index order."""

    name: str

    def run_tasks(
        self,
        fn: Callable,
        specs: Sequence,
        max_concurrency: "int | None" = None,
        on_result: "Callable[[int], None] | None" = None,
    ) -> list:
        """Run ``fn`` over ``specs``; outcome ``i`` belongs to spec ``i``.

        Each outcome is a :class:`TaskResult` or a :class:`TaskFailure`
        (never an in-flight exception): callers unwrap in index order.
        ``max_concurrency`` caps in-flight tasks — the runtime passes
        the cluster's slot count so the simulated topology also bounds
        real parallelism. ``on_result``, when given, is called in the
        submitting thread with the running count of completed tasks —
        live progress only, and deliberately *not* passed the outcomes:
        completion order must never leak into behaviour.
        """
        ...

    def close(self) -> None:
        """Release backend resources (shared pools survive, see below)."""
        ...


class SerialExecutor:
    """The original behaviour: every task runs inline, in index order."""

    name = "serial"

    def run_tasks(
        self,
        fn: Callable,
        specs: Sequence,
        max_concurrency: "int | None" = None,
        on_result: "Callable[[int], None] | None" = None,
    ) -> list:
        outcomes = []
        for spec in specs:
            outcomes.append(_guarded(fn, spec))
            if on_result is not None:
                on_result(len(outcomes))
        return outcomes

    def close(self) -> None:
        pass


class _PoolBackedExecutor:
    """Pool submission machinery of the process backend.

    Pools are shared per worker count across runtimes (see
    :func:`_shared_pool`): tests and chained drivers construct many
    runtimes, and paying pool start-up per runtime would drown the
    speedup the pool exists to provide.
    """

    def __init__(self, num_workers: "int | None" = None):
        if num_workers is not None and num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self.num_workers = num_workers or default_num_workers()

    def _pool(self) -> Executor:
        return _shared_pool(self.num_workers)

    def run_tasks(
        self,
        fn: Callable,
        specs: Sequence,
        max_concurrency: "int | None" = None,
        on_result: "Callable[[int], None] | None" = None,
    ) -> list:
        specs = list(specs)
        if not specs:
            return []
        limit = self.num_workers
        if max_concurrency is not None:
            limit = max(1, min(limit, max_concurrency))
        if limit == 1:
            # One slot is serial execution; skip the pool round-trips.
            outcomes = []
            for spec in specs:
                outcomes.append(_guarded(fn, spec))
                if on_result is not None:
                    on_result(len(outcomes))
            return outcomes
        try:
            return self._run_waves(self._pool(), fn, specs, limit, on_result)
        except BrokenExecutor:
            # A dead worker (OOM-killed, crashed interpreter) poisons a
            # pool permanently. Tasks are pure functions of their spec,
            # so rebuilding the pool and rerunning the batch is safe —
            # and deterministic, because results merge by index.
            _discard_shared_pool(self.num_workers)
            return self._run_waves(self._pool(), fn, specs, limit, on_result)

    @staticmethod
    def _run_waves(
        pool: Executor,
        fn: Callable,
        specs: list,
        limit: int,
        on_result: "Callable[[int], None] | None" = None,
    ) -> list:
        """Wave dispatch: one striped batch submission per worker.

        Stripe ``w`` holds specs ``w, w+limit, w+2*limit, ...`` — the
        same specs worker ``w`` would own under round-robin per-task
        dispatch — so each worker's load profile is unchanged while the
        submission count drops from ``len(specs)`` to ``limit``.
        Outcomes land back at their spec's index; progress ticks fire
        once per completed stripe with the cumulative task count.
        """
        stripes = min(limit, len(specs))
        futures = {
            pool.submit(_run_spec_batch, fn, specs[w::stripes]): w
            for w in range(stripes)
        }
        results: list = [None] * len(specs)
        completed = 0
        pending = dict(futures)
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                w = pending.pop(future)
                batch = future.result()
                results[w::stripes] = batch
                completed += len(batch)
                if on_result is not None:
                    on_result(completed)
        return results

    def close(self) -> None:
        """Backends share pools; nothing per-instance to release."""


class ProcessPoolTaskExecutor(_PoolBackedExecutor):
    """Tasks run on a shared process pool (true CPU parallelism).

    Specs, task functions and results cross process boundaries, so jobs
    must be built from module-level callables (no lambdas or closures —
    see the picklable ``ProjectionHeapCost`` and
    ``WeightBalancedPartitioner`` helpers).
    """

    name = "processes"


def create_executor(config: RuntimeConfig) -> TaskExecutor:
    """Instantiate the backend selected by ``config``."""
    if config.executor == "serial":
        return SerialExecutor()
    return ProcessPoolTaskExecutor(config.num_workers)


# -- shared pools -------------------------------------------------------

_POOLS: "dict[int, Executor]" = {}
_POOLS_LOCK = threading.Lock()


def _make_pool(num_workers: int) -> Executor:
    import multiprocessing

    # Prefer fork where the platform offers it: workers inherit loaded
    # modules, which keeps per-pool start-up far below a simulated job.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(max_workers=num_workers, mp_context=context)


def _shared_pool(num_workers: int) -> Executor:
    """Get-or-create the process-wide pool of ``num_workers`` workers."""
    key = int(num_workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = _make_pool(key)
            _POOLS[key] = pool
        return pool


def _discard_shared_pool(num_workers: int) -> None:
    """Drop a (broken) shared pool so the next use builds a fresh one."""
    with _POOLS_LOCK:
        pool = _POOLS.pop(int(num_workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools() -> None:
    """Shut down every shared worker pool (also registered atexit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_shared_pools)
