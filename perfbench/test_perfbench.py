"""Self-tests of the benchmark at a smoke size that finishes in seconds.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalogue  # noqa: E402
import envinfo  # noqa: E402
import measure  # noqa: E402
import run as entry  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from repro.observability.export import validate_trace  # noqa: E402

#: (points, splits) per workload at smoke size.
SMOKE = {
    "table1-parallel": (4000, 4),
    "reducer-shuffle": (2000, 8),
    "journalled-serial": (3000, 4),
}


def smoke_run(name: str, seed: int, out_dir, traced: bool):
    workload = wl.BY_NAME[name].scaled(*SMOKE[name])
    run = measure.Run(workload, seed, seconds=0.0, out_dir=str(out_dir))
    try:
        metrics = measure.trace(run)[0] if traced else measure.measure(run)
    finally:
        measure.stop_helper_processes()
    return run, metrics


def test_metric_names_match_the_pattern_and_are_unique():
    names = [m.name for m in catalogue.END_TO_END + catalogue.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + [w.name for w in wl.WORKLOADS]:
        assert catalogue.NAME_PATTERN.fullmatch(name), name


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        document = json.load(fh)
    assert document == catalogue.benchmark_json(wl.WORKLOADS)
    assert tuple(w.name for w in wl.WORKLOADS) == entry.WORKLOAD_NAMES


def test_every_per_layer_metric_declares_what_it_should_move():
    end_to_end = {m.name for m in catalogue.END_TO_END}
    for metric in catalogue.PER_LAYER:
        assert metric.moves in end_to_end, metric.name
        assert metric.on in wl.BY_NAME, metric.name
        assert metric.layer and metric.doc, metric.name


@pytest.mark.parametrize("name", ["journalled-serial", "reducer-shuffle"])
def test_ledger_sums_to_the_traced_fit_wall(name, tmp_path):
    workload = wl.BY_NAME[name].scaled(*SMOKE[name])
    run = measure.Run(workload, 0, seconds=0.0, out_dir=str(tmp_path))
    tracer = tracing.Tracer()
    try:
        run.fit()  # start the pool before the wrappers go in
        with tracing.Instrumentation(tracer):
            fit = run.fit(tracer=tracer, fit_id="smoke")
    finally:
        measure.stop_helper_processes()
    assert fit.ok, run.problems
    parts, other = measure.ledger(fit)
    assert sum(parts.values()) + other == pytest.approx(fit.fit_s, abs=1e-9)
    assert -1e-6 <= other <= 0.05 * fit.fit_s + 1e-3
    assert parts["core.self_s"] > 0 and parts["runtime.self_s"] > 0


def test_instrumentation_restores_every_original():
    from repro.core import kmeans_job
    from repro.mapreduce import executors, job, runtime

    before = (
        kmeans_job.assign_nearest,
        runtime.MapReduceRuntime.__dict__["run"],
        executors.SerialExecutor.__dict__["run_tasks"],
        job.Job.__init__.__defaults__,
    )
    with tracing.Instrumentation(tracing.Tracer()):
        assert kmeans_job.assign_nearest is not before[0]
    after = (
        kmeans_job.assign_nearest,
        runtime.MapReduceRuntime.__dict__["run"],
        executors.SerialExecutor.__dict__["run_tasks"],
        job.Job.__init__.__defaults__,
    )
    assert after == before


def test_traced_run_yields_every_per_layer_metric_and_a_valid_trace(tmp_path):
    run, metrics = smoke_run("reducer-shuffle", 3, tmp_path, traced=True)
    assert run.problems == []
    assert list(metrics) == [m.name for m in catalogue.PER_LAYER]
    assert metrics["executors.tasks"]["value"] > 0
    assert metrics["kernel.assign_rows"]["value"] > 0  # from the serial re-run
    with open(tmp_path / "trace-reducer-shuffle-seed3.json", encoding="utf-8") as fh:
        assert validate_trace(json.load(fh)) == []


def test_a_different_seed_changes_the_data_but_not_the_metric_names(tmp_path):
    workload = wl.BY_NAME["journalled-serial"].scaled(*SMOKE["journalled-serial"])
    one, two = wl.make_inputs(workload, 1), wl.make_inputs(workload, 2)
    assert not np.array_equal(one.points, two.points)
    first = smoke_run("journalled-serial", 1, tmp_path, traced=False)
    second = smoke_run("journalled-serial", 2, tmp_path, traced=False)
    assert first[0].problems == [] and second[0].problems == []
    assert list(first[1]) == list(second[1]) == [m.name for m in catalogue.END_TO_END]
    assert first[1]["k_factor"] == second[1]["k_factor"]


def test_a_fit_that_disagrees_with_the_first_counts_as_failed(tmp_path):
    workload = wl.BY_NAME["journalled-serial"].scaled(*SMOKE["journalled-serial"])
    run = measure.Run(workload, 0, seconds=0.0, out_dir=str(tmp_path))
    first = run.fit(fit_id="first")
    assert first.ok
    result = first.result
    shifted = types.SimpleNamespace(
        centers=result.centers + 1e-12, k_found=result.k_found,
        iterations=result.iterations, simulated_seconds=result.simulated_seconds,
        completed=True,
    )
    assert not run._check(shifted, "shifted")
    assert run.failed == 1 and "differs" in run.problems[0]


def test_repro_variables_are_removed_and_listed():
    environ = {"REPRO_EXECUTOR": "threads", "REPRO_JOURNAL": "x", "HOME": "/"}
    assert envinfo.scrub_repro_env(environ) == ["REPRO_EXECUTOR", "REPRO_JOURNAL"]
    assert environ == {"HOME": "/"}


def test_blas_cap_names_a_serial_workload_and_sets_every_thread_variable():
    for name in entry.BLAS_THREADS:
        assert wl.BY_NAME[name].executor is None, name
    environ = {"OMP_NUM_THREADS": "4"}
    found = envinfo.thread_vars(environ)
    envinfo.cap_blas_threads(environ, 1)
    assert found["OMP_NUM_THREADS"] == "4" and found["OPENBLAS_NUM_THREADS"] is None
    assert environ == {name: "1" for name in envinfo.THREAD_VARS}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-parallel",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")


def test_no_child_process_outlives_a_run(tmp_path):
    run, _ = smoke_run("reducer-shuffle", 0, tmp_path, traced=False)
    assert run.problems == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
