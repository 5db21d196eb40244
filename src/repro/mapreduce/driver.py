"""Chained-job drivers with aggregate accounting and checkpointing.

Iterative algorithms such as G-means chain many MapReduce jobs over the
same input dataset; the paper's cost model counts the resulting dataset
reads explicitly (``O(4 log2 k)`` of them). The driver accumulates
counters and simulated time across the chain and implements the
Spark-style ``cache_input`` optimisation from the paper's future-work
section: after the first read, subsequent jobs over the same file are
served from (simulated) memory.

:class:`CheckpointingJobChainDriver` adds driver-side fault tolerance:
Hadoop re-executes dead tasks and HDFS re-reads from replicas, but a
dead *driver* loses the chain's in-memory state. The checkpointing
driver serialises everything a resume needs — the algorithm's own
payload, the chain totals, the cached-file set, and both runtime RNG
streams — to the DFS after every iteration, so a restarted driver can
continue the chain and produce results byte-identical to a run that was
never interrupted.
"""

from __future__ import annotations

import pickle
import re
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError, DataFormatError
from repro.mapreduce.costmodel import check_total
from repro.mapreduce.counters import (
    FRAMEWORK_GROUP,
    USER_GROUP,
    Counters,
    MRCounter,
    UserCounter,
)
from repro.mapreduce.hdfs import DFSFile
from repro.mapreduce.job import Job
from repro.mapreduce.runtime import JobResult, MapReduceRuntime

#: On-DFS checkpoint format version (bump on incompatible layout change).
CHECKPOINT_VERSION = 1

_CHECKPOINT_NAME = re.compile(r"iter-(\d{5})$")


@dataclass
class ChainTotals:
    """Aggregate accounting over a chain of jobs."""

    jobs: int = 0
    simulated_seconds: float = 0.0
    counters: Counters = field(default_factory=Counters)

    @property
    def dataset_reads(self) -> int:
        return self.counters.get(FRAMEWORK_GROUP, MRCounter.DATASET_READS)

    @property
    def cached_reads(self) -> int:
        return self.counters.get(FRAMEWORK_GROUP, MRCounter.CACHED_READS)

    @property
    def distance_computations(self) -> int:
        return self.counters.get(USER_GROUP, UserCounter.DISTANCE_COMPUTATIONS)

    @property
    def ad_tests(self) -> int:
        return self.counters.get(USER_GROUP, UserCounter.AD_TESTS)

    @property
    def cluster_tests(self) -> int:
        """Logical per-cluster normality decisions (the paper's "2k
        Anderson-Darling tests"); mapper-side voting may run several
        raw AD tests per decision — see ``ad_tests`` for that count."""
        return self.counters.get(USER_GROUP, UserCounter.CLUSTER_TESTS)

    @property
    def shuffle_bytes(self) -> int:
        return self.counters.get(FRAMEWORK_GROUP, MRCounter.SHUFFLE_BYTES)


class JobChainDriver:
    """Runs a sequence of jobs, accumulating totals.

    ``cache_input=True`` emulates an execution engine that keeps the
    dataset in memory between jobs (the paper's SPARK discussion): the
    first job over a file pays the disk read, later ones do not.
    """

    def __init__(self, runtime: MapReduceRuntime, cache_input: bool = False):
        self.runtime = runtime
        self.cache_input = cache_input
        self.totals = ChainTotals()
        self._cached_files: set[str] = set()

    def run(self, job: Job, input_file: "DFSFile | str") -> JobResult:
        """Run one job and fold its accounting into the chain totals."""
        name = input_file if isinstance(input_file, str) else input_file.name
        cached = self.cache_input and name in self._cached_files
        result = self.runtime.run(job, input_file, cached=cached)
        if self.cache_input:
            self._cached_files.add(name)
        self.totals.jobs += 1
        self.totals.simulated_seconds = check_total(
            self.totals.simulated_seconds + result.simulated_seconds
        )
        self.totals.counters.merge(result.counters)
        return result


@dataclass
class ChainCheckpoint:
    """One durable snapshot of a job chain, as stored on the DFS.

    ``payload`` is the algorithm's own state (the driver never looks
    inside it); the remaining fields restore the chain's accounting and
    the runtime's two RNG streams, which is what makes a resumed run
    byte-identical to an uninterrupted one.
    """

    iteration: int
    payload: dict
    jobs: int
    simulated_seconds: float
    counters: dict
    cached_files: list[str]
    runtime_rng_state: dict
    fault_rng_state: dict
    version: int = CHECKPOINT_VERSION
    # Node-failure-domain state (None when recorded by a pre-node-fault
    # driver — the fields are optional so version 1 checkpoints stay
    # readable in both directions): the node-fault RNG stream and the
    # per-node status/failure-count snapshots. Restoring both makes a
    # resumed run draw the exact node-fault schedule an uninterrupted
    # run would have seen.
    node_rng_state: "dict | None" = None
    node_states: "tuple | None" = None

    def restore_totals(self) -> ChainTotals:
        """Rebuild the :class:`ChainTotals` this snapshot captured."""
        return ChainTotals(
            jobs=self.jobs,
            simulated_seconds=self.simulated_seconds,
            counters=Counters.from_dict(self.counters),
        )


def checkpoint_file_name(checkpoint_dir: str, iteration: int) -> str:
    """DFS name of the checkpoint written after ``iteration``."""
    return f"{checkpoint_dir.rstrip('/')}/iter-{iteration:05d}"


class CheckpointingJobChainDriver(JobChainDriver):
    """A job-chain driver that survives driver death.

    After every iteration the algorithm calls :meth:`save_checkpoint`
    with its own serialised state; the driver adds the chain totals,
    the cached-file set and the runtime RNG states, pickles the bundle
    and writes it to the DFS under ``checkpoint_dir`` (charging the
    write, replicated like any other file). A fresh driver process —
    same DFS, same configuration — calls :meth:`load_checkpoint` (or
    resolves :meth:`latest_checkpoint`) to restore the chain and hand
    the payload back to the algorithm.
    """

    def __init__(
        self,
        runtime: MapReduceRuntime,
        cache_input: bool = False,
        checkpoint_dir: str = "checkpoints",
    ):
        super().__init__(runtime, cache_input=cache_input)
        if not checkpoint_dir:
            raise ConfigurationError("checkpoint_dir must be a non-empty DFS path")
        self.checkpoint_dir = checkpoint_dir.rstrip("/")

    # -- save ------------------------------------------------------------

    def save_checkpoint(self, iteration: int, payload: dict) -> str:
        """Write the post-``iteration`` snapshot; returns its DFS name."""
        checkpoint = ChainCheckpoint(
            iteration=int(iteration),
            payload=payload,
            jobs=self.totals.jobs,
            simulated_seconds=self.totals.simulated_seconds,
            counters=self.totals.counters.as_dict(),
            cached_files=sorted(self._cached_files),
            runtime_rng_state=self.runtime.rng_state,
            fault_rng_state=self.runtime.fault_rng_state,
            node_rng_state=self.runtime.node_rng_state,
            node_states=self.runtime.cluster_state.snapshot(),
        )
        name = checkpoint_file_name(self.checkpoint_dir, iteration)
        blob = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
        self.runtime.dfs.write(
            name, [blob], bytes_per_record=len(blob), overwrite=True
        )
        self.runtime.journal.event(
            "checkpoint_write", name=name, iteration=int(iteration), bytes=len(blob)
        )
        return name

    # -- load ------------------------------------------------------------

    def latest_checkpoint(self) -> "str | None":
        """Name of the newest checkpoint under ``checkpoint_dir``."""
        prefix = self.checkpoint_dir + "/"
        best_name, best_iteration = None, -1
        for name in self.runtime.dfs.listdir():
            if not name.startswith(prefix):
                continue
            match = _CHECKPOINT_NAME.search(name)
            if match and int(match.group(1)) > best_iteration:
                best_name, best_iteration = name, int(match.group(1))
        return best_name

    def load_checkpoint(self, name: "str | None" = None) -> ChainCheckpoint:
        """Restore the chain from checkpoint ``name`` (default: latest).

        Resets the chain totals, the cached-file set and both runtime
        RNG streams to the snapshot, then returns it so the algorithm
        can restore its own ``payload``.
        """
        if name is None:
            name = self.latest_checkpoint()
            if name is None:
                raise DataFormatError(
                    f"no checkpoint found under {self.checkpoint_dir!r}"
                )
        records = self.runtime.dfs.read_all(name)
        try:
            checkpoint = pickle.loads(records[0])
        except Exception as exc:
            raise DataFormatError(
                f"{name!r} is not a chain checkpoint: {exc}"
            ) from exc
        if not isinstance(checkpoint, ChainCheckpoint):
            raise DataFormatError(f"{name!r} is not a chain checkpoint")
        if checkpoint.version != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"checkpoint {name!r} has version {checkpoint.version}, "
                f"this driver reads version {CHECKPOINT_VERSION}"
            )
        self.totals = checkpoint.restore_totals()
        self._cached_files = set(checkpoint.cached_files)
        self.runtime.rng_state = checkpoint.runtime_rng_state
        self.runtime.fault_rng_state = checkpoint.fault_rng_state
        if checkpoint.node_rng_state is not None:
            self.runtime.node_rng_state = checkpoint.node_rng_state
        if checkpoint.node_states is not None:
            self.runtime.cluster_state.restore(checkpoint.node_states)
        # The restored totals are the journal's accounting baseline: a
        # resumed run's journal only sees post-resume jobs, so replay
        # adds these back when cross-checking against the final totals.
        self.runtime.journal.event(
            "checkpoint_restore",
            name=name,
            iteration=checkpoint.iteration,
            jobs=checkpoint.jobs,
            simulated_seconds=checkpoint.simulated_seconds,
            counters=checkpoint.counters,
        )
        return checkpoint
