"""Deterministic cost model: counters -> simulated seconds.

The paper reports wall-clock times measured on a Hadoop testbed. Those
absolute numbers are testbed-specific; what the evaluation section
actually demonstrates is *how* time scales — linearly in k for G-means,
quadratically for multi-k-means, and inversely with the node count.

The simulator therefore charges every task for the work it really
performed (bytes read, records processed, coordinate operations in
distance computations, Anderson-Darling sample points) using a linear
cost model with calibratable constants, and schedules tasks onto the
cluster's slots with an LPT (longest-processing-time-first) greedy
assignment to obtain a makespan. Simulated time then exhibits exactly
the scaling behaviour the paper measures.

Every duration that enters the simulated clock is put on a grid of
:data:`CLOCK_TICK` seconds by :func:`quantize`. float64 adds whole
multiples of 2**-30 exactly while a total stays below 2**23 s (about
97 days), so every job total, run total and partial sum is the same in
any summation order (``sum()``, ``math.fsum``, a compensated ``sum()``).
A duration or chain total that reaches :data:`CLOCK_LIMIT`, or is not
finite, raises :class:`~repro.common.errors.SimulatedClockError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SimulatedClockError
from repro.common.validation import check_non_negative, check_positive
from repro.mapreduce.cluster import MIB, ClusterConfig
from repro.mapreduce.counters import (
    FRAMEWORK_GROUP,
    USER_GROUP,
    Counters,
    MRCounter,
    UserCounter,
)

#: Resolution of the simulated clock: 2**-30 s, about 0.93 ns.
CLOCK_TICK = 2.0**-30

#: Magnitude below which on-grid values add exactly: 2**23 s.
CLOCK_LIMIT = 2.0**23


def quantize(seconds: float) -> float:
    """``seconds`` rounded to a whole number of clock ticks (both steps
    are exact in float64, so an on-grid value comes back unchanged).

    Raises :class:`~repro.common.errors.SimulatedClockError` unless
    ``|seconds| < CLOCK_LIMIT`` (so NaN and infinities too); rounding
    cannot then reach the limit, because float64 values in
    ``[2**22, 2**23)`` are already whole ticks.
    """
    if abs(seconds) < CLOCK_LIMIT:
        return round(seconds / CLOCK_TICK) * CLOCK_TICK
    raise SimulatedClockError(seconds, "duration")


def check_total(seconds: float) -> float:
    """``seconds`` unchanged if a running total may hold it, else
    :class:`~repro.common.errors.SimulatedClockError`."""
    if abs(seconds) < CLOCK_LIMIT:
        return seconds
    raise SimulatedClockError(seconds, "total")


@dataclass(frozen=True)
class CostParameters:
    """Per-unit costs of the simulated testbed.

    Defaults are loosely calibrated to a commodity 2014-era node
    (sequential disk ~100 MB/s, 1 GbE network, a few ns per floating
    point multiply-add across JVM overheads) — close enough that the
    simulated G-means/multi-k-means crossover lands where the paper's
    Figure 3 puts it.
    """

    disk_read_mbps: float = 100.0
    disk_write_mbps: float = 80.0
    network_mbps_per_node: float = 120.0
    seconds_per_coordinate_op: float = 2e-9
    seconds_per_map_record: float = 4e-7
    seconds_per_shuffle_record: float = 2e-7
    seconds_per_reduce_record: float = 3e-7
    seconds_per_ad_point: float = 5e-8
    task_startup_seconds: float = 1.0
    job_startup_seconds: float = 5.0

    def __post_init__(self) -> None:
        check_positive("disk_read_mbps", self.disk_read_mbps)
        check_positive("disk_write_mbps", self.disk_write_mbps)
        check_positive("network_mbps_per_node", self.network_mbps_per_node)
        for name in (
            "seconds_per_coordinate_op",
            "seconds_per_map_record",
            "seconds_per_shuffle_record",
            "seconds_per_reduce_record",
            "seconds_per_ad_point",
            "task_startup_seconds",
            "job_startup_seconds",
        ):
            check_non_negative(name, getattr(self, name))


@dataclass(frozen=True)
class JobTiming:
    """Per-phase simulated times of one job."""

    startup_seconds: float
    map_seconds: float
    shuffle_seconds: float
    reduce_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.startup_seconds
            + self.map_seconds
            + self.shuffle_seconds
            + self.reduce_seconds
        )


def makespan(task_seconds: list[float], slots: int) -> float:
    """Makespan of scheduling ``task_seconds`` onto ``slots`` identical
    slots with the LPT greedy rule (deterministic, 4/3-optimal)."""
    check_positive("slots", slots)
    if not task_seconds:
        return 0.0
    loads = [0.0] * min(slots, len(task_seconds))
    for t in sorted(task_seconds, reverse=True):
        i = min(range(len(loads)), key=loads.__getitem__)
        loads[i] += t
    return max(loads)


def lpt_schedule(
    task_seconds: "list[float]", slots: int
) -> "list[tuple[int, int, float, float]]":
    """Full LPT placement: ``(task_index, slot, start, end)`` per task.

    The same deterministic greedy rule as :func:`makespan` — tasks
    longest-first (ties broken by lower index), each onto the currently
    least-loaded slot — so ``max(end for ...)`` equals the makespan the
    cost model charged. This is the shared scheduling hook behind the
    Gantt renderer (:mod:`repro.mapreduce.trace`), the critical-path
    extractor and the what-if re-scheduler
    (:mod:`repro.observability.critical` / ``.whatif``). Result is
    sorted by ``(slot, start)``.
    """
    check_positive("slots", slots)
    order = sorted(range(len(task_seconds)), key=lambda i: -task_seconds[i])
    loads = [0.0] * min(slots, max(1, len(task_seconds)))
    placed = []
    for index in order:
        slot = min(range(len(loads)), key=loads.__getitem__)
        start = loads[slot]
        end = start + task_seconds[index]
        loads[slot] = end
        placed.append((index, slot, start, end))
    return sorted(placed, key=lambda t: (t[1], t[2]))


def critical_chain(
    task_seconds: "list[float]", slots: int
) -> "list[int]":
    """Task indices on the LPT schedule's longest slot, in start order.

    The returned chain's durations sum to :func:`makespan` — it is the
    sequence of tasks that bounds the phase, which is what the
    critical-path extractor reports per phase. Empty when there are no
    tasks.
    """
    placement = lpt_schedule(task_seconds, slots)
    if not placement:
        return []
    completion: dict[int, float] = {}
    for _, slot, _, end in placement:
        completion[slot] = max(completion.get(slot, 0.0), end)
    worst = min(
        (slot for slot in completion),
        key=lambda slot: (-completion[slot], slot),
    )
    return [index for index, slot, _, _ in placement if slot == worst]


class CostModel:
    """Converts task-level counters into simulated task/job times."""

    def __init__(self, params: CostParameters, cluster: ClusterConfig):
        self.params = params
        self.cluster = cluster

    # -- per-task ------------------------------------------------------

    def _user_cpu_seconds(self, c: Counters) -> float:
        p = self.params
        return (
            c.get(USER_GROUP, UserCounter.COORDINATE_OPS) * p.seconds_per_coordinate_op
            + c.get(USER_GROUP, UserCounter.AD_SAMPLE_POINTS) * p.seconds_per_ad_point
        )

    def map_task_seconds(self, task_counters: Counters, input_bytes: int, cached: bool = False) -> float:
        """Simulated duration of one map task.

        ``cached`` models the Spark-style in-memory input the paper's
        future-work section describes: the disk-read term disappears.
        """
        p = self.params
        read = 0.0 if cached else input_bytes / (p.disk_read_mbps * MIB)
        records = task_counters.get(FRAMEWORK_GROUP, MRCounter.MAP_INPUT_RECORDS)
        out = task_counters.get(FRAMEWORK_GROUP, MRCounter.MAP_OUTPUT_RECORDS)
        return quantize(
            p.task_startup_seconds
            + read
            + records * p.seconds_per_map_record
            + out * p.seconds_per_shuffle_record
            + self._user_cpu_seconds(task_counters)
        )

    def reduce_task_seconds(self, task_counters: Counters) -> float:
        """Simulated duration of one reduce task (excluding shuffle)."""
        p = self.params
        records = task_counters.get(FRAMEWORK_GROUP, MRCounter.REDUCE_INPUT_RECORDS)
        return quantize(
            p.task_startup_seconds
            + records * p.seconds_per_reduce_record
            + self._user_cpu_seconds(task_counters)
        )

    # -- per-phase -----------------------------------------------------

    def shuffle_seconds(
        self, shuffle_bytes: int, nodes: "int | None" = None
    ) -> float:
        """Time to move ``shuffle_bytes`` across the cluster fabric.

        ``nodes`` overrides the configured node count with the number of
        machines actually serving (the fabric shrinks when nodes die).
        """
        node_count = self.cluster.nodes if nodes is None else max(1, int(nodes))
        bandwidth = self.params.network_mbps_per_node * node_count * MIB
        return quantize(shuffle_bytes / bandwidth)

    def job_timing(
        self,
        map_task_seconds: list[float],
        reduce_task_seconds: list[float],
        shuffle_bytes: int,
        map_makespan_override: float | None = None,
        map_slots: "int | None" = None,
        reduce_slots: "int | None" = None,
        nodes: "int | None" = None,
    ) -> JobTiming:
        """Assemble per-phase times into the job's simulated duration.

        ``map_makespan_override`` replaces the slot-anonymous LPT map
        makespan with one computed by a smarter scheduler (e.g. the
        locality-aware one in :mod:`repro.mapreduce.locality`).

        ``map_slots`` / ``reduce_slots`` / ``nodes`` override the
        configured capacity with the cluster's *live* capacity, so that
        node loss degrades the makespan (fewer slots, narrower shuffle
        fabric) without touching what any task computed. Defaults keep
        the historical static-capacity behaviour.
        """
        if map_makespan_override is None:
            map_seconds = makespan(
                map_task_seconds,
                self.cluster.total_map_slots if map_slots is None else map_slots,
            )
        else:
            map_seconds = quantize(map_makespan_override)
        return JobTiming(
            startup_seconds=quantize(self.params.job_startup_seconds),
            map_seconds=map_seconds,
            shuffle_seconds=self.shuffle_seconds(shuffle_bytes, nodes=nodes),
            reduce_seconds=makespan(
                reduce_task_seconds,
                self.cluster.total_reduce_slots
                if reduce_slots is None
                else reduce_slots,
            ),
        )
