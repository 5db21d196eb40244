"""The job executor: runs one MapReduce job over a DFS file.

Semantics follow Hadoop 1.x:

* one map task per input split; ``setup`` / ``map_split`` / ``close``;
* the combiner (when configured) runs once on each map task's output;
* combined pairs are hash-partitioned over ``num_reduce_tasks`` buckets
  and sort-merged by key inside each reduce task;
* reduce-side materialisation is charged against the task JVM heap and
  fails with :class:`~repro.common.errors.JavaHeapSpaceError`, which the
  runtime wraps into :class:`~repro.common.errors.JobFailedError`
  (Hadoop kills the job after repeated task failures);
* every task runs with its own counters, which the cost model converts
  into a simulated duration before they are merged into job counters.

Task execution is delegated to a pluggable backend
(:mod:`repro.mapreduce.executors`): map and reduce tasks within a phase
are independent, so the ``processes`` backend runs them concurrently,
bounded by the cluster's map/reduce slots.

The runtime is deterministic *across backends*: task RNGs are spawned
from the runtime RNG by task index (never completion order), task
outputs and counters are merged in task-index order, partitioning uses
a stable hash, and fault injection runs in the submitting process over
one sequential RNG stream. Same seed, same backend-independent results
— always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import (
    JavaHeapSpaceError,
    JobFailedError,
    SplitUnavailableError,
)
from repro.common.rng import ensure_rng, spawn_seeds
from repro.mapreduce.executors import (
    MapTaskSpec,
    ReduceTaskSpec,
    RuntimeConfig,
    TaskExecutor,
    create_executor,
    execute_map_task,
    execute_reduce_task,
    unwrap,
)
from repro.mapreduce.faults import (
    FaultModel,
    SPECULATIVE_TASKS,
    TASK_FAILURES,
    TaskPermanentlyFailedError,
)
from repro.mapreduce.cluster import ClusterConfig, MIB, PAPER_CLUSTER
from repro.mapreduce.costmodel import CostModel, CostParameters, JobTiming, quantize
from repro.mapreduce.counters import (
    Counters,
    FRAMEWORK_GROUP,
    MRCounter,
    framework,
)
from repro.mapreduce.hdfs import DFSFile, InMemoryDFS
from repro.mapreduce.job import Job
from repro.mapreduce.nodes import (
    ClusterState,
    NODE_FAIL,
    NODE_RECOVER,
    NodeFaultModel,
)
from repro.mapreduce.shuffle import group_by_key, partition_pairs
from repro.observability.journal import JOB, PHASE, Journal
from repro.observability.profiling import profiling_from_env

#: Ceiling on one retry's backoff delay, jitter included, in simulated
#: seconds. The committed recipes retry at most 3 times at the default
#: 30 s doubling (under 300 s), far below it; with the cap, even a
#: 40-deep retry chain stays inside the simulated clock's exact range.
MAX_RETRY_BACKOFF_SECONDS = 3600.0


@dataclass
class JobResult:
    """Everything one job run produced."""

    job_name: str
    output: list[tuple[object, object]]
    counters: Counters
    timing: JobTiming
    num_map_tasks: int
    num_reduce_tasks: int
    max_reduce_heap_bytes: int = 0
    map_task_seconds: list[float] = field(default_factory=list)
    reduce_task_seconds: list[float] = field(default_factory=list)
    #: Fault-recovery time on top of the phase timing: retry backoff
    #: waited between job attempts plus DFS replica re-reads/re-writes.
    overhead_seconds: float = 0.0
    #: Whole-job re-executions this result survived.
    job_retries: int = 0

    def output_dict(self) -> dict:
        """Output pairs grouped as ``key -> [values]``."""
        return dict(group_by_key(self.output))

    @property
    def simulated_seconds(self) -> float:
        return self.timing.total_seconds + self.overhead_seconds


class MapReduceRuntime:
    """Executes jobs on a simulated cluster over an in-memory DFS.

    ``config`` selects the task-execution backend (a
    :class:`~repro.mapreduce.executors.RuntimeConfig`, or just the
    backend name as a string); without one, the ``REPRO_EXECUTOR`` /
    ``REPRO_NUM_WORKERS`` environment variables are consulted, so whole
    test suites can be re-run over another backend unchanged. An
    explicit ``executor`` instance overrides both.
    """

    def __init__(
        self,
        dfs: InMemoryDFS,
        cluster: ClusterConfig = PAPER_CLUSTER,
        cost: CostParameters | None = None,
        rng=None,
        faults: FaultModel | None = None,
        locality: bool = False,
        config: "RuntimeConfig | str | None" = None,
        executor: "TaskExecutor | None" = None,
        journal: "Journal | None" = None,
        profile_tasks: "bool | None" = None,
        node_faults: "NodeFaultModel | None" = None,
        cluster_state: "ClusterState | None" = None,
    ):
        self.dfs = dfs
        self.cluster = cluster
        self.locality = locality
        # Observability is opt-in: without an explicit journal the
        # REPRO_JOURNAL environment variable is consulted, and absent
        # both every instrumentation point is one disabled-check away
        # from free. The journal never touches an RNG stream.
        self.journal = journal if journal is not None else Journal.from_env()
        self.cost_model = CostModel(cost or CostParameters(), cluster)
        self._rng = ensure_rng(rng)
        # Faults draw from their own stream so enabling them perturbs
        # task *durations* without changing any algorithmic result. The
        # stream is consumed in the submitting process, in task-index
        # order, which keeps fault draws identical across backends.
        # Without explicit faults, the environment is consulted (the
        # chaos-mode switch; None when no fault variables are set).
        self.faults = faults if faults is not None else FaultModel.from_env()
        self._fault_rng = np.random.default_rng(
            int(self._rng.integers(2**63 - 1))
        )
        # Node-level failure domains: a live ClusterState always exists
        # (with every node alive it reports exactly the config's
        # capacity), but node-fault draws, DFS replica topology and
        # blacklisting only activate when a NodeFaultModel is present —
        # explicitly or through the REPRO_NODE_* environment. The node
        # stream is seeded from the model (like BlockFaultModel), never
        # from the runtime RNG: enabling node faults must not shift a
        # single task seed.
        self.node_faults = (
            node_faults if node_faults is not None else NodeFaultModel.from_env()
        )
        self.cluster_state = cluster_state or ClusterState(
            cluster,
            blacklist_threshold=(
                self.node_faults.blacklist_threshold
                if self.node_faults is not None
                else None
            ),
        )
        self._node_rng = np.random.default_rng(
            self.node_faults.seed if self.node_faults is not None else 0
        )
        if self.node_faults is not None or cluster_state is not None:
            self.dfs.attach_topology(self.cluster_state)
        if isinstance(config, str):
            config = RuntimeConfig(executor=config)
        self.config = config or RuntimeConfig.from_env()
        self.executor = executor or create_executor(self.config)
        # Per-task profiling (--profile-tasks): stamps real CPU seconds
        # onto every journal task record, plus a tracemalloc peak
        # sampled on the first task of each phase of geometrically
        # sampled jobs (tracing every body would dwarf the workload).
        # Measurements only — results are
        # byte-identical with profiling on or off.
        self.profile_tasks = (
            profiling_from_env() if profile_tasks is None else bool(profile_tasks)
        )
        self.jobs_run = 0

    # -- public ----------------------------------------------------------

    def close(self) -> None:
        """Release executor resources held by this runtime."""
        self.executor.close()

    def __enter__(self) -> "MapReduceRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # RNG state accessors used by checkpointing drivers: restoring both
    # streams mid-chain makes a resumed run consume exactly the task
    # seeds and fault draws an uninterrupted run would have.

    @property
    def rng_state(self) -> dict:
        """Serialisable state of the task-seed RNG stream."""
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    @property
    def fault_rng_state(self) -> dict:
        """Serialisable state of the fault-injection RNG stream."""
        return self._fault_rng.bit_generator.state

    @fault_rng_state.setter
    def fault_rng_state(self, state: dict) -> None:
        self._fault_rng.bit_generator.state = state

    @property
    def node_rng_state(self) -> dict:
        """Serialisable state of the node-fault RNG stream."""
        return self._node_rng.bit_generator.state

    @node_rng_state.setter
    def node_rng_state(self, state: dict) -> None:
        self._node_rng.bit_generator.state = state

    def run(
        self, job: Job, input_file: "DFSFile | str", cached: bool = False
    ) -> JobResult:
        """Run ``job`` over ``input_file`` and return its result.

        ``cached=True`` models a Spark-style in-memory dataset (the
        optimisation the paper's future-work section targets): the read
        is counted as a cached read and costs no disk time.

        A job that fails permanently (a task out of attempts, a split
        with no surviving replica) is re-executed up to the config's
        ``max_job_retries`` times with exponential backoff, the way a
        driver resubmits a failed Hadoop job. The retry restores the
        task-seed RNG to the failed attempt's state — re-executed tasks
        are deterministic, so retries change time, never results — while
        the fault stream keeps advancing, so the retry can succeed.
        """
        max_retries = self.config.max_job_retries
        journal = self.journal
        backoff = 0.0
        retries = 0
        while True:
            seed_state = self._rng.bit_generator.state
            failure: "JobFailedError | None" = None
            # Each attempt gets its own job span, closed before the
            # retry decision so failed attempts are first-class records.
            with journal.span(
                JOB,
                job.name,
                attempt=retries + 1,
                combiner_optional=job.combiner_optional,
            ) as span:
                try:
                    result = self._run_attempt(job, input_file, cached)
                except JobFailedError as err:
                    failure = err
                    span.set(
                        status="failed",
                        error=type(err.cause).__name__
                        if err.cause is not None
                        else type(err).__name__,
                    )
                else:
                    if retries:
                        framework(result.counters, MRCounter.JOB_RETRIES, retries)
                        result.job_retries = retries
                        result.overhead_seconds += backoff
                    if journal.enabled:
                        timing = result.timing
                        span.set(
                            status="ok",
                            retries=retries,
                            simulated_seconds=result.simulated_seconds,
                            overhead_seconds=result.overhead_seconds,
                            num_map_tasks=result.num_map_tasks,
                            num_reduce_tasks=result.num_reduce_tasks,
                            max_reduce_heap_bytes=result.max_reduce_heap_bytes,
                            heap_bytes=self.cluster.task_heap_bytes,
                            # The *live* node count: the analyzer's
                            # shuffle residual divides by the fabric the
                            # job actually ran over, which shrinks with
                            # node loss.
                            nodes=len(self.cluster_state.schedulable_node_ids),
                            timing={
                                "startup_seconds": timing.startup_seconds,
                                "map_seconds": timing.map_seconds,
                                "shuffle_seconds": timing.shuffle_seconds,
                                "reduce_seconds": timing.reduce_seconds,
                            },
                            counters=result.counters.as_dict(),
                        )
            if failure is None:
                return result
            # Heap exhaustion is deterministic (same input, same heap,
            # same overflow — Figure 2's failure): resubmitting cannot
            # help, so it escapes the retry loop untouched.
            if isinstance(failure.cause, JavaHeapSpaceError):
                raise failure
            if retries >= max_retries:
                raise failure
            retries += 1
            self._rng.bit_generator.state = seed_state
            delay = self._retry_backoff_seconds(retries)
            backoff += delay
            journal.event(
                "job_retry", job=job.name, retry=retries, backoff_seconds=delay
            )

    def _retry_backoff_seconds(self, retry: int) -> float:
        """Exponential backoff before re-execution ``retry`` (1-based),
        with deterministic jitter drawn from the serial fault stream,
        capped at :data:`MAX_RETRY_BACKOFF_SECONDS`."""
        cfg = self.config
        try:
            delay = cfg.retry_backoff_seconds * cfg.retry_backoff_factor ** (retry - 1)
        except OverflowError:  # the growth alone is past any float
            delay = math.inf if cfg.retry_backoff_seconds else 0.0
        if cfg.retry_jitter:
            delay *= 1.0 + cfg.retry_jitter * float(self._fault_rng.random())
        return quantize(min(delay, MAX_RETRY_BACKOFF_SECONDS))

    def _capacity_attrs(self) -> dict:
        """Live-capacity attributes stamped on node lifecycle events."""
        state = self.cluster_state
        return {
            "schedulable_nodes": len(state.schedulable_node_ids),
            "total_map_slots": state.total_map_slots,
            "total_reduce_slots": state.total_reduce_slots,
        }

    def _apply_node_faults(
        self, counters: Counters
    ) -> "tuple[float, frozenset, tuple]":
        """One node-fault round: draw, apply, journal the cascades.

        Runs at the start of every job attempt, in the submitting
        process, before the input read — the JobTracker notices dead
        TaskTrackers between jobs and at heartbeat boundaries. Returns
        ``(overhead_seconds, lost_node_ids, pre_loss_schedulable)``:
        the heartbeat-detection and re-replication time to charge, the
        nodes that died this round, and the schedulable set the dead
        nodes were still part of (the map phase uses it to find which
        tasks were stranded and must re-execute on survivors).
        """
        model = self.node_faults
        state = self.cluster_state
        if model is None or not model.enabled:
            return 0.0, frozenset(), ()
        pre_nodes = tuple(state.schedulable_node_ids)
        events = model.draw(state, self._node_rng)
        if not events:
            return 0.0, frozenset(), pre_nodes
        journal = self.journal
        params = self.cost_model.params
        heartbeat = quantize(model.heartbeat_timeout_seconds)
        overhead = 0.0
        lost: list[int] = []
        for kind, node_id in events:
            if kind == NODE_RECOVER:
                node = state.recover(node_id)
                journal.event(
                    "node_recovered",
                    node=node_id,
                    recoveries=node.recoveries,
                    **self._capacity_attrs(),
                )
                continue
            assert kind == NODE_FAIL
            node = state.fail(node_id)
            lost.append(node_id)
            # Death is detected one heartbeat timeout after the fact;
            # the namenode then re-replicates everything the node held
            # in one correlated batch.
            overhead += heartbeat
            report = self.dfs.fail_node(node_id)
            journal.event(
                "node_lost",
                node=node_id,
                deaths=node.deaths,
                heartbeat_timeout_seconds=heartbeat,
                blocks_lost=report.blocks_lost,
                **self._capacity_attrs(),
            )
            if report.blocks_lost:
                framework(counters, MRCounter.BLOCKS_LOST, report.blocks_lost)
                journal.event(
                    "blocks_lost",
                    node=node_id,
                    count=report.blocks_lost,
                    bytes=report.bytes_lost,
                    correlated=True,
                    splits_unreadable=report.splits_unreadable,
                )
            if report.bytes_re_replicated:
                framework(
                    counters,
                    MRCounter.HDFS_BYTES_WRITTEN,
                    report.bytes_re_replicated,
                )
                journal.event(
                    "re_replication",
                    node=node_id,
                    copies=report.re_replications,
                    bytes=report.bytes_re_replicated,
                )
                overhead += quantize(
                    report.bytes_re_replicated / (params.disk_write_mbps * MIB)
                )
        return overhead, frozenset(lost), pre_nodes

    def _apply_blacklist(self, failures_by_node: "dict[int, int]") -> None:
        """Feed per-node task-failure attributions to the blacklist.

        A node crossing the threshold stops receiving tasks from the
        next phase on (it keeps serving DFS replicas — blacklisting is
        a scheduling decision, not a failure domain).
        """
        state = self.cluster_state
        if state.blacklist_threshold is None:
            return
        for node_id in sorted(failures_by_node):
            if state.record_task_failures(node_id, failures_by_node[node_id]):
                node = state.node_states[node_id]
                self.journal.event(
                    "node_blacklisted",
                    node=node_id,
                    task_failures=node.task_failures,
                    threshold=state.blacklist_threshold,
                    **self._capacity_attrs(),
                )

    def _run_attempt(
        self, job: Job, input_file: "DFSFile | str", cached: bool
    ) -> JobResult:
        """One execution attempt of ``job`` (the pre-retry ``run``)."""
        f = self.dfs.open(input_file) if isinstance(input_file, str) else input_file
        self.jobs_run += 1
        counters = Counters()
        node_overhead, lost_nodes, pre_nodes = self._apply_node_faults(counters)
        recovery_seconds = node_overhead
        try:
            if cached:
                framework(counters, MRCounter.CACHED_READS)
            else:
                framework(counters, MRCounter.DATASET_READS)
                framework(counters, MRCounter.HDFS_BYTES_READ, f.size_bytes)
                recovery_seconds += self._charge_input_read(f, counters)
            pairs, map_seconds, shuffle_bytes = self._run_map_phase(
                job, f, counters, cached, lost_nodes, pre_nodes
            )
            map_makespan = self._locality_map_makespan(
                f, map_seconds, counters, cached
            )
            state = self.cluster_state
            live_nodes = len(state.schedulable_node_ids)
            if job.reducer is None:
                timing = self.cost_model.job_timing(
                    map_seconds,
                    [],
                    0,
                    map_makespan_override=map_makespan,
                    map_slots=state.total_map_slots,
                    nodes=live_nodes,
                )
                return JobResult(
                    job_name=job.name,
                    output=pairs,
                    counters=counters,
                    timing=timing,
                    num_map_tasks=f.num_splits,
                    num_reduce_tasks=0,
                    map_task_seconds=map_seconds,
                    overhead_seconds=recovery_seconds,
                )
            output, reduce_seconds, max_heap, num_reduce = self._run_reduce_phase(
                job, pairs, counters
            )
        except (
            JavaHeapSpaceError,
            TaskPermanentlyFailedError,
            SplitUnavailableError,
        ) as err:
            raise JobFailedError(
                f"job {job.name!r} failed: {err}", cause=err
            ) from err

        framework(counters, MRCounter.SHUFFLE_BYTES, shuffle_bytes)
        timing = self.cost_model.job_timing(
            map_seconds,
            reduce_seconds,
            shuffle_bytes,
            map_makespan_override=map_makespan,
            map_slots=state.total_map_slots,
            reduce_slots=state.total_reduce_slots,
            nodes=live_nodes,
        )
        return JobResult(
            job_name=job.name,
            output=output,
            counters=counters,
            timing=timing,
            num_map_tasks=f.num_splits,
            num_reduce_tasks=num_reduce,
            max_reduce_heap_bytes=max_heap,
            map_task_seconds=map_seconds,
            reduce_task_seconds=reduce_seconds,
            overhead_seconds=recovery_seconds,
        )

    def _charge_input_read(self, f: DFSFile, counters: Counters) -> float:
        """Charge the input scan against the DFS, with replica failover.

        Returns the extra simulated seconds spent re-reading dead copies
        and re-replicating degraded splits; mirrors the failover work
        into the job's ``REPLICA_READS`` / ``BLOCKS_LOST`` counters.
        """
        report = self.dfs.charge_read(f)
        journal = self.journal
        if report.replica_failovers:
            framework(counters, MRCounter.REPLICA_READS, report.replica_failovers)
            framework(counters, MRCounter.HDFS_BYTES_READ, report.extra_bytes_read)
            journal.event(
                "replica_failover",
                file=f.name,
                failovers=report.replica_failovers,
                extra_bytes_read=report.extra_bytes_read,
            )
        if report.replicas_lost:
            framework(counters, MRCounter.BLOCKS_LOST, report.replicas_lost)
            journal.event("blocks_lost", file=f.name, count=report.replicas_lost)
        if report.bytes_re_replicated:
            framework(
                counters, MRCounter.HDFS_BYTES_WRITTEN, report.bytes_re_replicated
            )
            journal.event(
                "re_replication", file=f.name, bytes=report.bytes_re_replicated
            )
        params = self.cost_model.params
        return quantize(
            report.extra_bytes_read / (params.disk_read_mbps * MIB)
        ) + quantize(report.bytes_re_replicated / (params.disk_write_mbps * MIB))

    @staticmethod
    def _shuffle_skew_attrs(job: Job, buckets: list) -> dict:
        """Per-reducer shuffle-skew fields for the reduce phase span.

        Records, distinct keys and shuffle bytes per reduce bucket
        (byte accounting matches the map side: 8 bytes of key framing
        plus the job's ``value_size``), and the per-key high-water marks
        the heap-model audit compares against ``estimate_reducer_heap_bytes``
        — only computed when a journal is listening.
        """
        bucket_records: list[int] = []
        bucket_keys: list[int] = []
        bucket_bytes: list[int] = []
        key_records: dict = {}
        key_heap: dict = {}
        heap_cost = job.heap_bytes_per_value
        for bucket in buckets:
            nbytes = 0
            keys = set()
            for key, value in bucket:
                nbytes += 8 + job.value_size(value)
                keys.add(key)
                key_records[key] = key_records.get(key, 0) + 1
                if heap_cost is not None:
                    key_heap[key] = key_heap.get(key, 0) + int(heap_cost(value))
            bucket_records.append(len(bucket))
            bucket_keys.append(len(keys))
            bucket_bytes.append(nbytes)
        attrs = {
            "bucket_records": bucket_records,
            "bucket_keys": bucket_keys,
            "bucket_bytes": bucket_bytes,
            "distinct_keys": len(key_records),
            "max_key_records": max(key_records.values(), default=0),
        }
        if heap_cost is not None:
            attrs["max_key_heap_bytes"] = max(key_heap.values(), default=0)
        return attrs

    def _sample_memory(self) -> bool:
        """Memory-trace this job's first-of-phase tasks?

        Geometric over the job sequence (jobs 1, 2, 4, 8, ...): tracing
        a sampled task body means tracemalloc hooks on every allocation
        its pure-Python pair loops make, so a chained run keeps a
        log-bounded number of samples — still spread across early, mid
        and late k for the Figure-2 memory audit — instead of paying
        per job.
        """
        n = self.jobs_run
        return self.profile_tasks and n > 0 and (n & (n - 1)) == 0

    def _journal_task(self, task_id: str, index: int, seconds, task) -> None:
        """Record one finished task (plus its fault activity) under the
        current phase span. Task counters are per-task fresh, so their
        fault values *are* the per-task deltas."""
        journal = self.journal
        if not journal.enabled:
            return
        if self.profile_tasks:
            journal.task(
                task_id,
                index,
                float(seconds),
                task.wall_seconds,
                cpu_seconds=task.cpu_seconds,
                peak_memory_bytes=task.peak_memory_bytes,
            )
        else:
            journal.task(task_id, index, float(seconds), task.wall_seconds)
        failures = task.counters.get(FRAMEWORK_GROUP, TASK_FAILURES)
        if failures:
            journal.event(
                "task_attempt_failures", task_id=task_id, failures=failures
            )
        if task.counters.get(FRAMEWORK_GROUP, SPECULATIVE_TASKS):
            journal.event("speculative_task", task_id=task_id)

    # -- phases ----------------------------------------------------------

    def _locality_map_makespan(
        self,
        f: DFSFile,
        map_seconds: list[float],
        counters: Counters,
        cached: bool,
    ) -> "float | None":
        """Locality-aware map makespan (None when locality is off).

        A cached dataset lives in memory everywhere, so every task is
        data-local and no fetch penalty applies.

        Under node failure, tasks are scheduled onto the surviving
        schedulable nodes only, and replica locations come from the
        DFS's live placement (which excludes dead nodes and reflects
        re-replication) instead of the static hash formula.
        """
        if not self.locality:
            return None
        from repro.mapreduce.locality import (
            DATA_LOCAL_TASKS,
            MapTaskSpec,
            REMOTE_TASKS,
            fetch_seconds,
            replica_nodes,
            schedule_map_tasks,
        )

        survivors = tuple(self.cluster_state.schedulable_node_ids)
        live_topology = self.dfs.topology_attached
        specs = []
        for split, seconds in zip(f.splits, map_seconds):
            if cached:
                replicas = survivors
                fetch = 0.0
            else:
                if live_topology:
                    replicas = self.dfs.replica_placement(
                        split.file_name, split.index
                    )
                else:
                    replicas = replica_nodes(
                        split, self.cluster.nodes, f.replication
                    )
                fetch = fetch_seconds(
                    split.size_bytes, self.cost_model.params.network_mbps_per_node
                )
            specs.append(
                MapTaskSpec(seconds=seconds, fetch_seconds=fetch, replicas=replicas)
            )
        schedule = schedule_map_tasks(specs, self.cluster, node_ids=survivors)
        framework(counters, DATA_LOCAL_TASKS, schedule.data_local_tasks)
        framework(counters, REMOTE_TASKS, schedule.remote_tasks)
        return schedule.makespan

    def _run_map_phase(
        self,
        job: Job,
        f: DFSFile,
        counters: Counters,
        cached: bool,
        lost_nodes: frozenset = frozenset(),
        pre_nodes: tuple = (),
    ) -> tuple[list, list[float], int]:
        """Run all map tasks; returns (shuffle pairs, task times, bytes).

        ``lost_nodes`` are the nodes that died this attempt; any task
        whose round-robin placement over ``pre_nodes`` (the schedulable
        set the dead nodes were still in) landed on one is re-executed
        on a survivor — it burns half its duration stranded (charged to
        ``WASTED_COMPUTE_SECONDS``) and then runs again in full.
        """
        heap = self.cluster.task_heap_bytes
        seeds = spawn_seeds(self._rng, f.num_splits)
        sample_memory = self._sample_memory()
        specs = [
            MapTaskSpec(
                task_id=f"{job.name}-m-{split.index:05d}",
                mapper=job.mapper,
                combiner=job.combiner,
                config=job.config,
                split=split,
                seed=seed,
                heap_bytes=heap,
                profile=self.profile_tasks,
                profile_memory=sample_memory and split.index == 0,
            )
            for split, seed in zip(f.splits, seeds)
        ]
        all_pairs: list[tuple[object, object]] = []
        map_seconds: list[float] = []
        shuffle_bytes = 0
        assigned = tuple(self.cluster_state.schedulable_node_ids)
        failures_by_node: dict[int, int] = {}
        rescheduled = 0
        with self.journal.span(
            PHASE,
            "map",
            tasks=f.num_splits,
            slots=self.cluster_state.total_map_slots,
        ) as phase_span:
            outcomes = self.executor.run_tasks(
                execute_map_task,
                specs,
                max_concurrency=self.cluster_state.executor_concurrency("map"),
            )
            for spec, split, outcome in zip(specs, f.splits, outcomes):
                task = unwrap(outcome)
                for key, value in task.pairs:
                    shuffle_bytes += 8 + job.value_size(value)
                all_pairs.extend(task.pairs)
                seconds = self.cost_model.map_task_seconds(
                    task.counters, split.size_bytes, cached
                )
                if self.faults is not None:
                    seconds = self.faults.apply(
                        seconds, spec.task_id, self._fault_rng, task.counters
                    )
                if (
                    lost_nodes
                    and pre_nodes
                    and pre_nodes[split.index % len(pre_nodes)] in lost_nodes
                ):
                    # The task was stranded on a node that died mid-run:
                    # it burned half its duration before the heartbeat
                    # layer noticed, then re-ran in full on a survivor.
                    stranded = quantize(seconds * 0.5)
                    task.counters.inc(
                        FRAMEWORK_GROUP,
                        MRCounter.WASTED_COMPUTE_SECONDS,
                        stranded,
                    )
                    seconds += stranded
                    rescheduled += 1
                map_seconds.append(seconds)
                self._journal_task(spec.task_id, split.index, seconds, task)
                counters.merge(task.counters)
                if assigned:
                    node = assigned[split.index % len(assigned)]
                    fails = task.counters.get(FRAMEWORK_GROUP, TASK_FAILURES)
                    if fails:
                        failures_by_node[node] = (
                            failures_by_node.get(node, 0) + fails
                        )
            if rescheduled:
                self.journal.event(
                    "tasks_rescheduled",
                    count=rescheduled,
                    nodes=sorted(lost_nodes),
                )
            if self.journal.enabled:
                # Map-output volume on the phase-end record: the online
                # heap-breach detector projects the reducer's per-key
                # heap from this growth *before* the reduce phase runs.
                phase_span.set(
                    map_output_records=len(all_pairs),
                    shuffle_bytes=shuffle_bytes,
                )
        self._apply_blacklist(failures_by_node)
        return all_pairs, map_seconds, shuffle_bytes

    def _run_reduce_phase(
        self, job: Job, pairs: list, counters: Counters
    ) -> tuple[list, list[float], int, int]:
        """Run all reduce tasks; returns (output, times, max heap, R)."""
        # Deliberately the *configured* capacity, not the live one: the
        # reduce-task count pins partitioning and per-task RNG
        # consumption, so results stay a function of the seed alone.
        # Node loss degrades scheduling (slots, makespan), never the
        # partition layout.
        num_reduce = job.num_reduce_tasks or self.cluster.total_reduce_slots
        heap = self.cluster.task_heap_bytes
        buckets = partition_pairs(pairs, num_reduce, job.partitioner)
        seeds = spawn_seeds(self._rng, num_reduce)
        sample_memory = self._sample_memory()
        specs = [
            ReduceTaskSpec(
                task_id=f"{job.name}-r-{index:05d}",
                reducer=job.reducer,
                config=job.config,
                bucket=bucket,
                seed=seed,
                heap_bytes=heap,
                heap_bytes_per_value=job.heap_bytes_per_value,
                profile=self.profile_tasks,
                profile_memory=sample_memory and index == 0,
            )
            for index, (bucket, seed) in enumerate(zip(buckets, seeds))
        ]
        output: list[tuple[object, object]] = []
        reduce_seconds: list[float] = []
        max_heap_seen = 0
        assigned = tuple(self.cluster_state.schedulable_node_ids)
        failures_by_node: dict[int, int] = {}
        with self.journal.span(
            PHASE,
            "reduce",
            tasks=num_reduce,
            slots=self.cluster_state.total_reduce_slots,
        ) as phase_span:
            if self.journal.enabled:
                phase_span.set(**self._shuffle_skew_attrs(job, buckets))
            outcomes = self.executor.run_tasks(
                execute_reduce_task,
                specs,
                max_concurrency=self.cluster_state.executor_concurrency(
                    "reduce"
                ),
            )
            for index, (spec, outcome) in enumerate(zip(specs, outcomes)):
                task = unwrap(outcome)
                output.extend(task.pairs)
                max_heap_seen = max(max_heap_seen, task.heap_high_water)
                seconds = self.cost_model.reduce_task_seconds(task.counters)
                if self.faults is not None:
                    seconds = self.faults.apply(
                        seconds, spec.task_id, self._fault_rng, task.counters
                    )
                reduce_seconds.append(seconds)
                self._journal_task(spec.task_id, index, seconds, task)
                counters.merge(task.counters)
                if assigned:
                    node = assigned[index % len(assigned)]
                    fails = task.counters.get(FRAMEWORK_GROUP, TASK_FAILURES)
                    if fails:
                        failures_by_node[node] = (
                            failures_by_node.get(node, 0) + fails
                        )
        self._apply_blacklist(failures_by_node)
        return output, reduce_seconds, max_heap_seen, num_reduce
