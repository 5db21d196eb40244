"""Record a (optionally chaotic) G-means run into a run journal.

Runs MR G-means over a synthetic mixture with journalling enabled and
prints where the journal landed; render it afterwards with::

    python -m repro trace <journal> --gantt

Fault injection, task profiling, SLO rules and the anomaly detectors
come from the environment, so the same script records a clean run, a
chaos run, a profiled run or a guarded run (``make trace`` sets the
chaos variables)::

    python examples/run_with_journal.py run.jsonl
    REPRO_TASK_FAILURE_PROB=0.05 REPRO_MAX_JOB_RETRIES=3 \
        python examples/run_with_journal.py chaos.jsonl
    REPRO_PROFILE_TASKS=1 python examples/run_with_journal.py profiled.jsonl
    REPRO_SLO=max_k=2 python examples/run_with_journal.py guarded.jsonl

Recording over an existing journal replaces it only when the run's
canonical records changed, so re-running a seeded recipe (``make
report``) leaves journals whose behaviour did not change untouched.
"""

import os
import sys

from repro import (
    ClusterConfig,
    InMemoryDFS,
    MapReduceRuntime,
    MRGMeans,
    MRGMeansConfig,
    generate_gaussian_mixture,
    write_points,
)
from repro.cli import EXIT_SLO_BREACH
from repro.common.errors import SLOViolationError
from repro.observability import JOURNAL_ENV, replace_journal

TRUE_K = 6
N_POINTS = 6_000


def main() -> int:
    journal_path = sys.argv[1] if len(sys.argv) > 1 else "run.jsonl"

    # Publish the journal path through the environment instead of
    # constructing a file sink directly: Journal.from_env composes the
    # file journal with whatever live telemetry the environment asks
    # for (REPRO_SLO / REPRO_ANOMALY). An existing
    # journal is re-recorded beside itself and kept if nothing changed.
    fresh = journal_path
    if os.path.exists(journal_path):
        fresh = journal_path + ".new"
        if os.path.exists(fresh):
            os.unlink(fresh)
    os.environ[JOURNAL_ENV] = fresh

    mixture = generate_gaussian_mixture(
        n_points=N_POINTS, n_clusters=TRUE_K, dimensions=4, rng=42
    )
    dfs = InMemoryDFS(split_size_bytes=64 * 1024)
    dataset = write_points(dfs, "points", mixture.points)
    runtime = MapReduceRuntime(
        dfs,
        cluster=ClusterConfig(nodes=4),
        rng=7,
    )

    try:
        result = MRGMeans(runtime, MRGMeansConfig(seed=7)).fit(dataset)
    except SLOViolationError as exc:
        # Same contract as the CLI: a clean, resumable SLO abort gets
        # its own exit code so CI can tell it from a crash.
        print(f"[repro] {exc}", file=sys.stderr)
        return EXIT_SLO_BREACH
    finally:
        runtime.journal.close()
        if fresh != journal_path:
            replace_journal(fresh, journal_path)

    print(f"true k:              {TRUE_K}")
    print(f"k found:             {result.k_found}")
    print(f"iterations:          {result.iterations}")
    print(f"simulated time:      {result.simulated_seconds:.2f}s")
    print(f"job retries:         {result.totals.counters.get('framework', 'JOB_RETRIES')}")
    print(f"journal written to:  {journal_path}")
    print(f"render it with:      python -m repro trace {journal_path} --gantt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
