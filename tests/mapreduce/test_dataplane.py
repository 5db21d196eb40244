"""Unit tests of the zero-copy shared-memory data plane."""

import os
import pickle

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, DataFormatError
from repro.mapreduce import dataplane
from repro.mapreduce.dataplane import (
    DATA_PLANE_ENV,
    SEGMENT_PREFIX,
    SharedBlock,
    active_segments,
    create_block,
    orphaned_system_segments,
    release_all,
    release_block,
    release_segment,
    resolve_data_plane,
    shared_memory_available,
)
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.executors import RuntimeConfig
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import Job, Mapper
from repro.mapreduce.runtime import MapReduceRuntime


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test starts and must end with a clean owner registry."""
    release_all()
    yield
    leaked = active_segments()
    release_all()
    assert leaked == [], f"test leaked segments: {leaked}"


def test_resolve_defaults_to_pickled():
    assert resolve_data_plane(None, environ={}) == "pickled"


def test_resolve_reads_environment():
    assert resolve_data_plane(None, environ={DATA_PLANE_ENV: "shared"}) == "shared"
    assert resolve_data_plane(None, environ={DATA_PLANE_ENV: ""}) == "pickled"


def test_resolve_rejects_unknown_plane():
    with pytest.raises(ConfigurationError):
        resolve_data_plane("mmap")
    with pytest.raises(ConfigurationError):
        resolve_data_plane(None, environ={DATA_PLANE_ENV: "bogus"})


def test_resolve_falls_back_when_shared_memory_unavailable(monkeypatch):
    monkeypatch.setattr(dataplane, "_AVAILABLE", False)
    assert resolve_data_plane("shared") == "pickled"
    assert resolve_data_plane("pickled") == "pickled"


def test_block_roundtrip_bytes_and_array_protocol():
    arr = np.arange(24, dtype=np.float64).reshape(8, 3)
    block = create_block(arr)
    try:
        view = block.resolve()
        assert view.tobytes() == arr.tobytes()
        assert not view.flags.writeable
        assert len(block) == 8
        assert np.array_equal(block[2], arr[2])
        assert np.array_equal(np.asarray(block), arr)
        assert [tuple(r) for r in block] == [tuple(r) for r in arr]
        assert block.nbytes == arr.nbytes
    finally:
        assert release_block(block)


def test_block_pickles_to_a_tiny_handle():
    arr = np.zeros((10_000, 8))
    block = create_block(arr)
    try:
        blob = pickle.dumps(block)
        assert len(blob) < 200  # handle, not data
        clone = pickle.loads(blob)
        assert clone.resolve().tobytes() == arr.tobytes()
    finally:
        release_block(block)


def test_create_copies_blocks_are_independent():
    arr = np.ones((4, 2))
    block = create_block(arr)
    try:
        arr[:] = 7.0  # mutating the source must not reach the segment
        assert np.array_equal(np.asarray(block), np.ones((4, 2)))
    finally:
        release_block(block)


def test_release_is_idempotent_and_typed():
    block = create_block(np.ones(3))
    assert release_block(block)
    assert not release_block(block)  # second release: no-op
    assert not release_block(np.ones(3))  # plain arrays are never owned
    assert not release_segment("no-such-segment")


def test_stale_resolve_raises_data_format_error():
    block = create_block(np.ones(3))
    name = block.segment
    release_block(block)
    stale = SharedBlock(name, (3,), "<f8")
    with pytest.raises(DataFormatError):
        stale.resolve()


def test_release_all_sweeps_everything():
    blocks = [create_block(np.full(4, i)) for i in range(5)]
    assert len(active_segments()) == 5
    assert release_all() == 5
    assert active_segments() == []
    for block in blocks:
        with pytest.raises(DataFormatError):
            SharedBlock(block.segment, block.shape, block.dtype_str).resolve()


def test_segment_names_carry_the_prefix_and_pid():
    import os

    block = create_block(np.ones(2))
    try:
        assert block.segment.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-")
    finally:
        release_block(block)


def test_no_orphaned_system_segments_after_release():
    block = create_block(np.ones(16))
    release_block(block)
    assert orphaned_system_segments() == []


# -- DFS integration -----------------------------------------------------


def _write(dfs, name="data", n=50, overwrite=False):
    pts = np.arange(n * 3, dtype=np.float64).reshape(n, 3)
    return pts, dfs.write(name, pts, bytes_per_record=45, overwrite=overwrite)


def test_dfs_shared_plane_wraps_numpy_splits():
    dfs = InMemoryDFS(split_size_bytes=400, data_plane="shared")
    pts, f = _write(dfs)
    assert dfs.data_plane == "shared"
    assert all(isinstance(s.records, SharedBlock) for s in f.splits)
    assert len(active_segments()) == f.num_splits
    assert np.asarray(f.all_records()).tobytes() == pts.tobytes()
    dfs.release()


def test_dfs_pickled_plane_keeps_plain_arrays():
    dfs = InMemoryDFS(split_size_bytes=400, data_plane="pickled")
    _, f = _write(dfs)
    assert all(isinstance(s.records, np.ndarray) for s in f.splits)
    assert active_segments() == []


def test_dfs_shared_plane_keeps_lists_inline():
    dfs = InMemoryDFS(split_size_bytes=64, data_plane="shared")
    dfs.write("side", [b"a", b"b", b"c"], bytes_per_record=16)
    assert active_segments() == []


def test_dfs_env_selects_the_plane(monkeypatch):
    monkeypatch.setenv(DATA_PLANE_ENV, "shared")
    dfs = InMemoryDFS(split_size_bytes=400)
    assert dfs.data_plane == "shared"
    _write(dfs)
    assert active_segments()
    dfs.release()
    assert active_segments() == []


def test_dfs_delete_and_overwrite_release_segments():
    dfs = InMemoryDFS(split_size_bytes=400, data_plane="shared")
    _, f = _write(dfs)
    first = set(active_segments())
    assert len(first) == f.num_splits
    _, f2 = _write(dfs, overwrite=True)  # overwrite -> old incarnation freed
    second = set(active_segments())
    assert len(second) == f2.num_splits
    assert first.isdisjoint(second)
    dfs.delete("data")
    assert active_segments() == []


def test_total_block_loss_releases_the_segment():
    from repro.common.errors import SplitUnavailableError

    dfs = InMemoryDFS(split_size_bytes=400, data_plane="shared")
    _, f = _write(dfs)
    before = len(active_segments())
    dfs.lose_block("data", 0)
    with pytest.raises(SplitUnavailableError):
        dfs.charge_split_read(f.splits[0], f.replication)
    assert len(active_segments()) == before - 1
    # the healthy splits still read fine
    dfs.charge_split_read(f.splits[1], f.replication)
    assert np.asarray(f.splits[1].records).shape[1] == 3
    dfs.release()


def test_partial_replica_loss_keeps_the_segment():
    dfs = InMemoryDFS(split_size_bytes=400, data_plane="shared")
    _, f = _write(dfs)
    before = len(active_segments())
    dfs.lose_replica("data", 0, count=2)
    dfs.charge_split_read(f.splits[0], f.replication)  # failover + re-replicate
    assert len(active_segments()) == before
    assert dfs.live_replicas("data", 0) == f.replication
    dfs.release()


class _AttachedSegmentsMapper(Mapper):
    """Reads its split, then reports the segments its worker has mapped."""

    def map_split(self, split, ctx):
        np.asarray(split.records)
        ctx.emit(0, tuple(dataplane.attached_segments()))


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm") or not shared_memory_available(),
    reason="needs POSIX shared memory listed under /dev/shm",
)
def test_pool_workers_drop_attachments_of_released_runs():
    """Across fits on one shared pool, a worker's attachment cache never
    holds a segment of an earlier fit once that fit's DFS is released."""
    for _fit in range(3):
        dfs = InMemoryDFS(split_size_bytes=400, data_plane="shared")
        _, f = _write(dfs)
        segments = {split.records.segment for split in f.splits}
        runtime = MapReduceRuntime(
            dfs,
            cluster=ClusterConfig(nodes=1),
            rng=0,
            config=RuntimeConfig(executor="processes", num_workers=2),
        )
        result = runtime.run(Job(name="probe", mapper=_AttachedSegmentsMapper), f)
        seen = {name for _key, names in result.output for name in names}
        dfs.release()
        assert seen <= segments, sorted(seen - segments)
