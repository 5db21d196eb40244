"""A Hadoop-1.x-like MapReduce runtime with a simulated cluster.

This package is the substrate the paper's algorithms run on: an
in-memory DFS with 64 MB input splits, a map/combine/shuffle/reduce
executor with Hadoop counters, per-task JVM heap accounting (Figure 2's
"Java heap space" failures), and a calibrated cost model that converts
counters into simulated wall-clock time on an N-node cluster.
"""

from repro.mapreduce.cluster import ClusterConfig, PAPER_CLUSTER, MIB
from repro.mapreduce.costmodel import CostModel, CostParameters, JobTiming, makespan
from repro.mapreduce.counters import (
    Counters,
    FRAMEWORK_GROUP,
    MRCounter,
    USER_GROUP,
    UserCounter,
)
from repro.mapreduce.driver import (
    ChainCheckpoint,
    ChainTotals,
    CheckpointingJobChainDriver,
    JobChainDriver,
    checkpoint_file_name,
)
from repro.mapreduce.executors import (
    EXECUTOR_KINDS,
    ProcessPoolTaskExecutor,
    RuntimeConfig,
    SerialExecutor,
    TaskExecutor,
    create_executor,
    shutdown_shared_pools,
)
from repro.mapreduce.faults import (
    FaultModel,
    TaskPermanentlyFailedError,
)
from repro.mapreduce.hdfs import BlockFaultModel, NodeLossReport, ReadReport
from repro.mapreduce.nodes import (
    ClusterState,
    NODE_ALIVE,
    NODE_BLACKLISTED,
    NODE_DEAD,
    NODE_DECOMMISSIONED,
    NodeFaultModel,
    NodeState,
)
from repro.mapreduce.locality import (
    LocalitySchedule,
    MapTaskSpec,
    replica_nodes,
    schedule_map_tasks,
)
from repro.mapreduce.partitioners import (
    WeightBalancedPartitioner,
    make_weight_balanced_partitioner,
    reduce_load_imbalance,
)
from repro.mapreduce.hdfs import DEFAULT_SPLIT_SIZE, DFSFile, InMemoryDFS, Split
from repro.mapreduce.job import (
    Job,
    MapContext,
    Mapper,
    ReduceContext,
    Reducer,
    TaskContext,
    default_partitioner,
)
from repro.mapreduce.runtime import JobResult, MapReduceRuntime
from repro.mapreduce.trace import build_schedule, render_gantt, render_job_trace
from repro.mapreduce.types import OFFSET, sizeof_value, stable_hash

__all__ = [
    "ClusterConfig",
    "PAPER_CLUSTER",
    "MIB",
    "CostModel",
    "CostParameters",
    "JobTiming",
    "makespan",
    "Counters",
    "FRAMEWORK_GROUP",
    "USER_GROUP",
    "MRCounter",
    "UserCounter",
    "ChainCheckpoint",
    "ChainTotals",
    "CheckpointingJobChainDriver",
    "JobChainDriver",
    "checkpoint_file_name",
    "BlockFaultModel",
    "NodeLossReport",
    "ReadReport",
    "ClusterState",
    "NodeState",
    "NodeFaultModel",
    "NODE_ALIVE",
    "NODE_DEAD",
    "NODE_BLACKLISTED",
    "NODE_DECOMMISSIONED",
    "EXECUTOR_KINDS",
    "RuntimeConfig",
    "TaskExecutor",
    "SerialExecutor",
    "ProcessPoolTaskExecutor",
    "create_executor",
    "shutdown_shared_pools",
    "FaultModel",
    "TaskPermanentlyFailedError",
    "LocalitySchedule",
    "MapTaskSpec",
    "replica_nodes",
    "schedule_map_tasks",
    "WeightBalancedPartitioner",
    "make_weight_balanced_partitioner",
    "reduce_load_imbalance",
    "DEFAULT_SPLIT_SIZE",
    "DFSFile",
    "InMemoryDFS",
    "Split",
    "Job",
    "Mapper",
    "Reducer",
    "MapContext",
    "ReduceContext",
    "TaskContext",
    "default_partitioner",
    "JobResult",
    "MapReduceRuntime",
    "build_schedule",
    "render_gantt",
    "render_job_trace",
    "OFFSET",
    "sizeof_value",
    "stable_hash",
]
