"""Fault injection: failures, retries, stragglers, speculation."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, JobFailedError
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.counters import FRAMEWORK_GROUP, Counters
from repro.mapreduce.faults import (
    SPECULATIVE_TASKS,
    TASK_FAILURES,
    FaultModel,
    TaskPermanentlyFailedError,
)
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import Job, Mapper, Reducer
from repro.mapreduce.runtime import MapReduceRuntime


class EchoMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value % 5, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def run_job(faults=None, seed=3):
    dfs = InMemoryDFS(split_size_bytes=64)
    f = dfs.write("data", list(range(100)), bytes_per_record=8)
    runtime = MapReduceRuntime(
        dfs, cluster=ClusterConfig(nodes=2), rng=seed, faults=faults
    )
    job = Job(name="j", mapper=EchoMapper, reducer=SumReducer, num_reduce_tasks=3)
    return runtime.run(job, f)


def test_disabled_model_is_identity():
    model = FaultModel()
    assert not model.enabled
    counters = Counters()
    assert model.apply(10.0, "t", np.random.default_rng(0), counters) == 10.0
    assert counters.get(FRAMEWORK_GROUP, TASK_FAILURES) == 0


def test_failures_add_retry_time():
    model = FaultModel(task_failure_probability=0.5, max_attempts=10)
    rng = np.random.default_rng(1)
    counters = Counters()
    durations = [model.apply(10.0, "t", rng, counters) for _ in range(200)]
    # Retries only ever add time, in half-attempt increments.
    assert min(durations) == 10.0
    assert max(durations) > 10.0
    assert counters.get(FRAMEWORK_GROUP, TASK_FAILURES) > 0


def test_certain_failure_exhausts_attempts():
    model = FaultModel(task_failure_probability=1.0, max_attempts=4)
    with pytest.raises(TaskPermanentlyFailedError, match="4 attempts"):
        model.apply(1.0, "t-0", np.random.default_rng(0), Counters())


def test_straggler_slowdown_applied():
    model = FaultModel(straggler_probability=1.0, straggler_slowdown=6.0)
    counters = Counters()
    assert model.apply(10.0, "t", np.random.default_rng(0), counters) == 60.0


def test_speculative_execution_caps_stragglers():
    model = FaultModel(
        straggler_probability=1.0,
        straggler_slowdown=6.0,
        speculative_execution=True,
        speculative_overhead=1.2,
    )
    counters = Counters()
    duration = model.apply(10.0, "t", np.random.default_rng(0), counters)
    assert duration == pytest.approx(12.0)
    assert counters.get(FRAMEWORK_GROUP, SPECULATIVE_TASKS) == 1


def test_speculation_not_counted_for_attempts_that_die():
    """Regression: a raced attempt that fails anyway rescued nothing.

    ``SPECULATIVE_TASKS`` used to be incremented when the clone was
    launched, before knowing whether the attempt survived — so a task
    whose every attempt both straggled and died inflated the counter.
    """
    model = FaultModel(
        straggler_probability=1.0,
        speculative_execution=True,
        task_failure_probability=1.0,
        max_attempts=3,
    )
    counters = Counters()
    with pytest.raises(TaskPermanentlyFailedError):
        model.apply(10.0, "t", np.random.default_rng(0), counters)
    assert counters.get(FRAMEWORK_GROUP, SPECULATIVE_TASKS) == 0
    assert counters.get(FRAMEWORK_GROUP, TASK_FAILURES) == 3


def test_speculation_counted_once_for_surviving_attempt():
    """Failed raced attempts don't count; the surviving one does."""
    model = FaultModel(
        straggler_probability=1.0,
        speculative_execution=True,
        task_failure_probability=0.5,
        max_attempts=50,
    )
    counters = Counters()
    model.apply(10.0, "t", np.random.default_rng(3), counters)
    assert counters.get(FRAMEWORK_GROUP, SPECULATIVE_TASKS) == 1


def test_job_results_unchanged_by_faults():
    """Faults perturb time, never output (re-execution is deterministic)."""
    clean = run_job(faults=None)
    faulty = run_job(
        faults=FaultModel(task_failure_probability=0.3, straggler_probability=0.3)
    )
    assert sorted(clean.output) == sorted(faulty.output)
    assert faulty.simulated_seconds >= clean.simulated_seconds
    assert faulty.counters.get(FRAMEWORK_GROUP, TASK_FAILURES) > 0


def test_job_fails_when_task_exhausts_attempts():
    with pytest.raises(JobFailedError, match="failed after"):
        run_job(faults=FaultModel(task_failure_probability=1.0))


def test_speculation_recovers_most_straggler_time():
    slow = run_job(faults=FaultModel(straggler_probability=0.5))
    raced = run_job(
        faults=FaultModel(straggler_probability=0.5, speculative_execution=True)
    )
    assert raced.simulated_seconds < slow.simulated_seconds


# -- wasted-compute accounting -------------------------------------------
#
# WASTED_COMPUTE_SECONDS is exact bookkeeping, so these tests pin the
# arithmetic with scripted draws instead of sampling distributions.


class ScriptedRNG:
    """Stands in for a Generator; replays a fixed list of uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def wasted(counters):
    from repro.mapreduce.counters import MRCounter

    return counters.get(FRAMEWORK_GROUP, MRCounter.WASTED_COMPUTE_SECONDS)


def test_wasted_seconds_zero_without_faults():
    model = FaultModel(straggler_probability=1.0, straggler_slowdown=6.0)
    counters = Counters()
    # A plain straggler wastes nothing: the slow attempt's output counts.
    model.apply(10.0, "t", np.random.default_rng(0), counters)
    assert wasted(counters) == 0


def test_winning_clone_wastes_the_killed_original():
    model = FaultModel(
        straggler_probability=1.0,
        speculative_execution=True,
        speculative_overhead=1.2,
    )
    counters = Counters()
    duration = model.apply(10.0, "t", ScriptedRNG([0.0, 0.9]), counters)
    # The slow original ran beside the clone for all 12s before dying.
    assert duration == pytest.approx(12.0)
    assert wasted(counters) == pytest.approx(12.0)


def test_each_failed_attempt_wastes_its_half_duration():
    model = FaultModel(task_failure_probability=1.0, max_attempts=3)
    counters = Counters()
    with pytest.raises(TaskPermanentlyFailedError):
        model.apply(10.0, "t", np.random.default_rng(0), counters)
    assert wasted(counters) == pytest.approx(15.0)


def test_retry_then_success_wastes_only_the_dead_attempt():
    model = FaultModel(task_failure_probability=0.4)
    counters = Counters()
    # attempt 1: no straggler (0.9), dies (0.1 < 0.4) — wastes 5s
    # attempt 2: no straggler (0.9), survives (0.9) — clean 10s
    duration = model.apply(
        10.0, "t", ScriptedRNG([0.9, 0.1, 0.9, 0.9]), counters
    )
    assert duration == pytest.approx(15.0)
    assert wasted(counters) == pytest.approx(5.0)


def test_clone_dying_with_its_attempt_doubles_the_waste():
    model = FaultModel(
        straggler_probability=1.0,
        speculative_execution=True,
        speculative_overhead=1.2,
        task_failure_probability=0.5,
        max_attempts=2,
    )
    counters = Counters()
    # attempt 1: straggles + clone, both die at 6s in → wastes 12s
    # attempt 2: straggles + clone, clone wins at 12s → wastes 12s more
    duration = model.apply(
        10.0, "t", ScriptedRNG([0.0, 0.1, 0.0, 0.9]), counters
    )
    assert duration == pytest.approx(18.0)
    assert wasted(counters) == pytest.approx(24.0)
    assert counters.get(FRAMEWORK_GROUP, SPECULATIVE_TASKS) == 1


def test_wasted_seconds_surface_in_job_counters():
    from repro.mapreduce.counters import MRCounter

    result = run_job(
        faults=FaultModel(
            task_failure_probability=0.3,
            straggler_probability=0.3,
            speculative_execution=True,
        )
    )
    assert (
        result.counters.get(FRAMEWORK_GROUP, MRCounter.WASTED_COMPUTE_SECONDS)
        > 0
    )


def test_from_env_warns_on_orphan_max_attempts():
    with pytest.warns(UserWarning, match="no effect"):
        model = FaultModel.from_env({"REPRO_MAX_TASK_ATTEMPTS": "7"})
    assert model is None


def test_from_env_silent_when_unset():
    import warnings as warnings_module

    with warnings_module.catch_warnings():
        warnings_module.simplefilter("error")
        assert FaultModel.from_env({}) is None


def test_validation():
    with pytest.raises(ConfigurationError):
        FaultModel(task_failure_probability=1.5)
    with pytest.raises(ConfigurationError):
        FaultModel(max_attempts=0)
    with pytest.raises(ConfigurationError):
        FaultModel(straggler_slowdown=0.0)


# -- fault behaviour across executor backends ---------------------------
#
# The fault stream lives in the submitting process and is consumed in
# task-index order, so which task dies — and every fault counter — must
# not depend on the executor backend.

BACKENDS = ("serial", "processes")


def run_job_on_backend(backend, faults, seed=3):
    from repro.mapreduce.executors import RuntimeConfig

    dfs = InMemoryDFS(split_size_bytes=64)
    f = dfs.write("data", list(range(100)), bytes_per_record=8)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=2),
        rng=seed,
        faults=faults,
        config=RuntimeConfig(executor=backend, num_workers=3),
    )
    job = Job(name="j", mapper=EchoMapper, reducer=SumReducer, num_reduce_tasks=3)
    return runtime.run(job, f)


def test_permanent_failure_identical_across_backends():
    """Every backend fails the same job on the same task attempt count."""
    failures = {}
    for backend in BACKENDS:
        with pytest.raises(JobFailedError) as err:
            run_job_on_backend(
                backend, FaultModel(task_failure_probability=1.0)
            )
        assert isinstance(err.value.cause, TaskPermanentlyFailedError)
        failures[backend] = (err.value.cause.task, err.value.cause.attempts)
    assert len(set(failures.values())) == 1, failures


def test_fault_counters_byte_identical_across_backends():
    faults = FaultModel(
        task_failure_probability=0.3,
        straggler_probability=0.3,
        speculative_execution=True,
    )
    reference = run_job_on_backend("serial", faults)
    for backend in BACKENDS[1:]:
        result = run_job_on_backend(backend, faults)
        assert result.counters.as_dict() == reference.counters.as_dict()
        assert sorted(result.output) == sorted(reference.output)
        assert result.simulated_seconds == reference.simulated_seconds
