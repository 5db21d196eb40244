"""End-to-end backend equivalence: full algorithms, identical results.

The unit suite proves single jobs are byte-identical across executor
backends; these tests prove the property survives whole algorithm runs
— dozens of chained jobs whose inputs depend on previous outputs, so
any scheduling leak would compound and show up in the final centers.

The matrix has a second axis since the zero-copy data plane landed:
every (executor backend × data plane) cell must produce the same bytes
and the same canonical journal, and the shared plane must never leak a
segment — not after a clean fit, not after a chaos-induced failure,
not after an SLO abort.
"""

import io

import numpy as np
import pytest

from repro.common.errors import JobFailedError, SLOViolationError
from repro.core.config import MRGMeansConfig
from repro.core.gmeans_mr import MRGMeans
from repro.core.multi_kmeans import MultiKMeans
from repro.data.generator import generate_gaussian_mixture
from repro.evaluation.harness import build_world
from repro.mapreduce import dataplane
from repro.observability.journal import (
    InMemoryJournalSink,
    Journal,
    canonical_records,
)
from repro.observability.live import TelemetrySink
from repro.observability.slo import SLOWatchdog, parse_slo_rules

BACKENDS = ("serial", "processes")
PLANES = ("pickled", "shared")
MATRIX = [(b, p) for b in BACKENDS for p in PLANES]
SEEDS = (1, 7, 23)


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    """Whatever a test does, it must not strand shared-memory segments."""
    dataplane.release_all()
    yield
    leaked = dataplane.active_segments()
    orphans = dataplane.orphaned_system_segments()
    dataplane.release_all()
    assert leaked == [], f"leaked shared segments: {leaked}"
    assert orphans == [], f"orphaned /dev/shm segments: {orphans}"


def make_world(seed: int, backend: str, journal=None, data_plane=None):
    mixture = generate_gaussian_mixture(
        n_points=600, n_clusters=3, dimensions=2, rng=seed
    )
    return build_world(
        mixture,
        nodes=2,
        target_splits=6,
        executor=backend,
        num_workers=2,
        journal=journal,
        data_plane=data_plane,
    )


def gmeans_signature(seed: int, backend: str, journal=None, data_plane=None):
    world = make_world(seed, backend, journal=journal, data_plane=data_plane)
    try:
        result = MRGMeans(world.runtime, MRGMeansConfig(seed=seed)).fit(
            world.dataset
        )
    finally:
        world.dfs.release()
    assert dataplane.active_segments() == []
    return (
        result.k_found,
        result.iterations,
        result.completed,
        result.centers.tobytes(),
        result.centers.shape,
    )


def multi_kmeans_signature(seed: int, backend: str, data_plane=None):
    world = make_world(seed, backend, data_plane=data_plane)
    try:
        result = MultiKMeans(
            world.runtime, k_min=1, k_max=5, iterations=4, seed=seed
        ).fit(world.dataset)
    finally:
        world.dfs.release()
    return (
        result.best_k,
        {k: c.tobytes() for k, c in result.centers_by_k.items()},
        {k: float(v) for k, v in result.wcss_by_k.items()},
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_gmeans_identical_across_backends(seed):
    reference = gmeans_signature(seed, "serial")
    for backend in BACKENDS[1:]:
        assert gmeans_signature(seed, backend) == reference, backend


def test_gmeans_identical_across_backend_plane_matrix():
    """All four (backend × data plane) cells produce the same bytes.

    The zero-copy plane changes *where* split arrays live, never what
    the tasks compute from them — serial reads the owner's buffers
    directly, process workers attach the segments — so the full matrix
    must agree with the serial/pickled reference byte for byte.
    """
    reference = gmeans_signature(7, "serial", data_plane="pickled")
    for backend, plane in MATRIX[1:]:
        cell = gmeans_signature(7, backend, data_plane=plane)
        assert cell == reference, (backend, plane)


@pytest.mark.parametrize("seed", SEEDS)
def test_multi_kmeans_identical_across_backends(seed):
    reference = multi_kmeans_signature(seed, "serial")
    for backend in BACKENDS[1:]:
        assert multi_kmeans_signature(seed, backend) == reference, backend


def test_multi_kmeans_identical_across_planes():
    reference = multi_kmeans_signature(7, "serial", data_plane="pickled")
    assert multi_kmeans_signature(7, "serial", data_plane="shared") == reference
    assert (
        multi_kmeans_signature(7, "processes", data_plane="shared") == reference
    )


def test_gmeans_finds_same_sane_k_on_every_backend():
    """Not just mutually equal — a plausible answer for 3 planted blobs.

    (At this 600-point scale G-means may legitimately over-split by
    one; the point here is that every backend lands on the *same*
    plausible k, not that the tiny dataset is easy.)
    """
    ks = {backend: gmeans_signature(31, backend)[0] for backend in BACKENDS}
    assert len(set(ks.values())) == 1
    assert 2 <= ks["serial"] <= 5


def test_results_identical_with_journal_on_or_off():
    """Journalling must observe the run, never perturb it."""
    plain = gmeans_signature(7, "serial")
    journalled = gmeans_signature(7, "serial", journal=Journal(InMemoryJournalSink()))
    assert journalled == plain


def test_journal_canonical_form_identical_across_matrix():
    """Same seeded run → same journal in every matrix cell, modulo wall
    clock.

    Everything nondeterministic in a journal lives in ``wall*`` keys;
    after stripping them all four (backend × data plane) cells must have
    recorded the exact same sequence of spans, tasks and events — the
    data plane is invisible to the journal, not just to the results.
    """
    import json

    from repro.observability.critical import critical_path
    from repro.observability.replay import replay_records

    journals = {}
    paths = {}
    for backend, plane in MATRIX:
        sink = InMemoryJournalSink()
        gmeans_signature(7, backend, journal=Journal(sink), data_plane=plane)
        journals[backend, plane] = canonical_records(sink.records)
        path = critical_path(replay_records(sink.records))
        assert path.reconciled, (backend, plane)
        paths[backend, plane] = json.dumps(path.as_dict(), sort_keys=True)
    reference = journals["serial", "pickled"]
    assert reference  # the run actually recorded something
    kinds = {r.get("kind") for r in reference if r["type"] == "span_start"}
    assert kinds == {"run", "iteration", "job", "phase"}
    for cell in MATRIX[1:]:
        assert journals[cell] == reference, cell
        # Critical paths derive from canonical fields only, so they too
        # must serialize byte-identically in every cell.
        assert paths[cell] == paths["serial", "pickled"], cell


def test_no_leaked_segments_after_chaos_failure():
    """A chain that dies mid-run must not strand segments once its DFS
    is torn down — failure paths release exactly like success paths."""

    class Killer:
        def __init__(self, runtime):
            self.runtime = runtime
            self.jobs = 0

        def run(self, job, input_file, cached=False):
            self.jobs += 1
            if self.jobs >= 5:
                raise JobFailedError(f"injected failure at {job.name}")
            return self.runtime.run(job, input_file, cached=cached)

        def __getattr__(self, name):
            return getattr(self.runtime, name)

    world = make_world(7, "serial", data_plane="shared")
    assert dataplane.active_segments()  # the dataset really is shared
    with pytest.raises(JobFailedError, match="injected failure"):
        MRGMeans(Killer(world.runtime), MRGMeansConfig(seed=7)).fit(
            world.dataset
        )
    world.dfs.release()
    assert dataplane.active_segments() == []
    assert dataplane.orphaned_system_segments() == []


def test_no_leaked_segments_after_slo_abort():
    """An SLO-aborted run is interrupted at a checkpoint boundary; the
    shared plane must come back to zero segments all the same."""
    watchdog = SLOWatchdog(parse_slo_rules("max_k=2"), stream=io.StringIO())
    journal = Journal(TelemetrySink(watchdog=watchdog))
    world = make_world(7, "serial", journal=journal, data_plane="shared")
    config = MRGMeansConfig(seed=7, checkpoint_dir="ck/slo")
    with pytest.raises(SLOViolationError):
        MRGMeans(world.runtime, config).fit(world.dataset)
    world.dfs.release()
    assert dataplane.active_segments() == []
    assert dataplane.orphaned_system_segments() == []


def test_analytics_fields_recorded_and_deterministic():
    """The analytics instrumentation rides the determinism contract.

    The reduce-phase shuffle-skew attributes and the per-iteration
    ``strategy_decision`` events are derived purely from job data, so
    they must appear in every backend's journal with identical values
    (they are part of the canonical form the previous test compares).
    """
    sink = InMemoryJournalSink()
    gmeans_signature(7, "serial", journal=Journal(sink))
    records = canonical_records(sink.records)

    decisions = [
        r
        for r in records
        if r["type"] == "event" and r["name"] == "strategy_decision"
    ]
    assert decisions, "no strategy_decision events journalled"
    for event in decisions:
        attrs = event["attrs"]
        for key in (
            "strategy",
            "rule_strategy",
            "forced",
            "clusters_to_test",
            "max_cluster_points",
            "predicted_heap_bytes",
            "usable_heap_bytes",
            "total_reduce_slots",
        ):
            assert key in attrs, key

    reduce_starts = {
        r["span"]
        for r in records
        if r["type"] == "span_start"
        and r.get("kind") == "phase"
        and r["name"] == "reduce"
    }
    assert reduce_starts
    skewed = [
        r
        for r in records
        if r["type"] == "span_end"
        and r["span"] in reduce_starts
        and "bucket_records" in r["attrs"]
    ]
    assert len(skewed) == len(reduce_starts)
    for end in skewed:
        attrs = end["attrs"]
        assert len(attrs["bucket_records"]) == len(attrs["bucket_bytes"])
        assert attrs["distinct_keys"] >= 1

    job_ends = [
        r
        for r in records
        if r["type"] == "span_end" and r["attrs"].get("status") == "ok"
        and "timing" in r["attrs"]
    ]
    assert job_ends
    assert all("nodes" in r["attrs"] for r in job_ends)
