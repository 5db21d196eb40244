"""Per-task profiling: real wall time, CPU time and peak memory.

The cost model *simulates* what a task costs on the paper's testbed;
profiling measures what the task body actually costs *here* — wall
seconds, CPU seconds (``time.thread_time``, so worker threads don't
charge each other) and the ``tracemalloc`` peak of the task body.
The runtime stamps the measurements onto the journal's task records,
where ``repro analyze`` turns them into real memory numbers to audit
the paper's 64-bytes-per-point Figure-2 heap model against.

Profiling is opt-in (``--profile-tasks`` / ``$REPRO_PROFILE_TASKS``)
and two-tiered, because ``tracemalloc`` is not free — tracing every
allocation a numpy-heavy task body makes costs more wall-clock than
the task itself. CPU and wall seconds are measured for *every*
profiled task (two clock reads, effectively free); the tracemalloc
peak is *sampled* — the runtime arms memory tracing for the first task
of each phase of geometrically sampled jobs only (the 1st, 2nd, 4th,
8th, ... job of the run), which keeps the profiled-run overhead within the
benchmark's 10% budget while still giving ``repro analyze`` a real
per-phase memory number to audit the 64-bytes/point Figure-2 model
against (task bodies of one phase are allocation-homogeneous). The
measurements are *observations, never inputs* — nothing downstream
computes with them, and they travel in journal keys under the ``wall``
prefix, so canonical journals stay byte-identical with profiling on or
off.

``tracemalloc`` state is process-global, so memory-traced task bodies
are serialised by a lock (CPU-only profiling does not take it;
``processes`` workers trace independently).
"""

from __future__ import annotations

import os
import threading
import time
import tracemalloc
from dataclasses import dataclass

#: Environment variable enabling per-task profiling (the CLI's
#: ``--profile-tasks`` flag writes it); unset/empty/falsey means off.
PROFILE_TASKS_ENV = "REPRO_PROFILE_TASKS"

#: Values of boolean-ish environment variables read as "on".
_TRUTHY = ("1", "true", "yes", "on")

_TRACEMALLOC_LOCK = threading.Lock()


def env_flag(value: "str | None") -> bool:
    """Interpret an environment-variable string as a boolean switch."""
    return (value or "").strip().lower() in _TRUTHY


def profiling_from_env(environ=None) -> bool:
    """True when ``$REPRO_PROFILE_TASKS`` asks for per-task profiling."""
    env = os.environ if environ is None else environ
    return env_flag(env.get(PROFILE_TASKS_ENV))


@dataclass
class TaskProfile:
    """Real resource usage of one task body, measured where it ran.

    ``peak_memory_bytes`` is ``None`` when the task was not among the
    memory-sampled ones (see the module docstring) — "not measured" and
    "zero bytes" must stay distinguishable.
    """

    cpu_seconds: float = 0.0
    peak_memory_bytes: "int | None" = None


class TaskProfiler:
    """Context manager measuring CPU time and (optionally) the
    tracemalloc peak.

    ::

        with TaskProfiler(memory=True) as profile:
            ...task body...
        profile.cpu_seconds, profile.peak_memory_bytes

    With ``memory=True``, holds the process-wide tracemalloc lock for
    the duration of the block (tracemalloc's peak counter is global)
    and nests under an already-tracing tracemalloc by resetting the
    peak instead of starting a second trace. With ``memory=False``,
    only the two CPU-clock reads happen — no lock, no tracing.
    """

    def __init__(self, memory: bool = True) -> None:
        self.profile = TaskProfile()
        self.memory = bool(memory)
        self._cpu_start = 0.0
        self._started_tracing = False

    def __enter__(self) -> TaskProfile:
        if self.memory:
            _TRACEMALLOC_LOCK.acquire()
            if tracemalloc.is_tracing():
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
                self._started_tracing = True
        self._cpu_start = time.thread_time()
        return self.profile

    def __exit__(self, *exc_info) -> None:
        self.profile.cpu_seconds = time.thread_time() - self._cpu_start
        if self.memory:
            _current, peak = tracemalloc.get_traced_memory()
            self.profile.peak_memory_bytes = int(peak)
            if self._started_tracing:
                tracemalloc.stop()
            _TRACEMALLOC_LOCK.release()


class _NullProfiler:
    """The off switch: yields a shared zero profile, measures nothing."""

    _ZERO = TaskProfile()

    def __enter__(self) -> TaskProfile:
        return self._ZERO

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_PROFILER = _NullProfiler()


def task_profiler(
    enabled: bool, memory: bool = False
) -> "TaskProfiler | _NullProfiler":
    """A :class:`TaskProfiler` when ``enabled``, else a free no-op.

    ``memory`` additionally arms tracemalloc peak tracing — expensive,
    so the runtime samples it (first task per phase of geometrically
    sampled jobs) rather than paying it per task.
    """
    return TaskProfiler(memory=memory) if enabled else _NULL_PROFILER
