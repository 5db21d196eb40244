"""Zero-copy shared-memory data plane for the simulated DFS.

The pickled data plane (the historical default) ships every numpy
record block to process-pool workers *by value*: each task submission
serialises the split's whole point matrix, which is exactly the
communication overhead that left the ``processes`` backend slower than
``serial``. The shared data plane stores each split's block in a
:mod:`multiprocessing.shared_memory` segment instead and ships only a
tiny :class:`SharedBlock` handle (segment name, dtype, shape); workers
map the segment by name — one ``mmap`` the first time, zero copies ever
after — while the ``serial`` backend reads the owner's mapping
directly.

Determinism contract: segment names never enter results, counters or
journals; resolving a handle yields a read-only view of the exact bytes
the owner wrote, so results are byte-identical across data planes just
as they are across executor backends.

Lifecycle: the creating process owns its segments (`create_block`) and
must release them (`release_block` / the DFS ``delete``/``overwrite``/
``release`` hooks). Total replica loss releases a split's segment —
the data is gone, the simulated cluster cannot read it back. Attached
(worker-side) mappings are cached per name. POSIX keeps a mapping valid
after the owner unlinks its segment, so in-flight reads never break;
the worker's next attach miss closes every cached mapping whose segment
is gone. An ``atexit`` hook releases whatever the owner leaked so
``/dev/shm`` is never littered across runs; the resource-tracker
workaround below keeps worker processes from unlinking segments the
owner still needs (CPython < 3.13 tracks attachments too).
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping

import numpy as np

from repro.common.errors import ConfigurationError, DataFormatError

#: Recognised data-plane names, in documentation order.
DATA_PLANE_KINDS = ("pickled", "shared")

#: Environment variable consulted when a DFS (or ``RuntimeConfig``) is
#: constructed without an explicit plane — how whole test suites are
#: re-run zero-copy (``REPRO_DATA_PLANE=shared make test``).
DATA_PLANE_ENV = "REPRO_DATA_PLANE"

#: Prefix of every segment this process creates: leak checks scan
#: ``/dev/shm`` for it, and it keeps our names clear of other tenants.
SEGMENT_PREFIX = "repro-dp"

#: Where Linux lists POSIX shared memory segments by name.
_SHM_DIR = "/dev/shm"

# Owner-side registry: segment name -> (SharedMemory, owner pid). The
# pid guards fork()ed children (pool workers inherit this dict): only
# the creating process may unlink, everyone else just reads the
# inherited mapping for free.
_OWNED: "dict[str, tuple[shared_memory.SharedMemory, int]]" = {}
# Worker-side cache of attached segments (name -> SharedMemory).
_ATTACHED: "dict[str, shared_memory.SharedMemory]" = {}
_LOCK = threading.Lock()
_SEQ = 0


def shared_memory_available() -> bool:
    """Can this platform actually serve shared segments?

    Probed once per process (create + unlink a minimal segment); the
    result drives the documented fallback: ``data_plane="shared"``
    degrades to ``"pickled"`` instead of failing the run.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


_AVAILABLE: "bool | None" = None


def resolve_data_plane(
    requested: "str | None", environ: "Mapping[str, str] | None" = None
) -> str:
    """Normalise a data-plane request to an *effective* plane.

    ``None`` consults ``$REPRO_DATA_PLANE`` (defaulting to
    ``"pickled"``); ``"shared"`` falls back to ``"pickled"`` on
    platforms without working POSIX shared memory. Unknown names raise
    :class:`~repro.common.errors.ConfigurationError`.
    """
    if requested is None:
        env = os.environ if environ is None else environ
        requested = (env.get(DATA_PLANE_ENV) or "").strip() or "pickled"
    if requested not in DATA_PLANE_KINDS:
        raise ConfigurationError(
            f"data_plane must be one of {DATA_PLANE_KINDS}, got {requested!r}"
        )
    if requested == "shared" and not shared_memory_available():
        return "pickled"
    return requested


def _next_segment_name() -> str:
    """A collision-proof, process-unique segment name.

    The random suffix comes from :mod:`secrets`, never from an
    algorithm RNG stream — names are plumbing, not results.
    """
    global _SEQ
    with _LOCK:
        _SEQ += 1
        seq = _SEQ
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{seq}-{secrets.token_hex(4)}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without telling the resource tracker.

    CPython < 3.13 registers *attachments* with the resource tracker
    too (``SharedMemory`` grew ``track=False`` only in 3.13), so a
    worker that merely mapped a segment would fight the owner over its
    lifetime: duplicate registrations collapse in the tracker's set and
    the first unregister erases the owner's entry. Suppressing
    ``register`` for the attach keeps exactly one registration — the
    owner's — which ``unlink`` retires cleanly. Callers hold ``_LOCK``,
    and worker processes never create segments, so the patch window
    cannot swallow a legitimate registration.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SharedBlock:
    """Array-like handle to a record block living in a shared segment.

    Pickles down to ``(segment name, shape, dtype)`` — a few dozen
    bytes regardless of block size — and resolves lazily to a
    *read-only* numpy view of the segment. Resolution prefers the
    owner registry (zero work in the owning process and in fork()ed
    workers that inherited the mapping) and falls back to attaching by
    name. Supports ``len`` / iteration / indexing / ``np.asarray`` so
    mappers and reducers can treat it exactly like the ndarray it
    replaces.
    """

    __slots__ = ("segment", "shape", "dtype_str", "_view")

    def __init__(self, segment: str, shape: tuple, dtype_str: str):
        self.segment = segment
        self.shape = tuple(int(s) for s in shape)
        self.dtype_str = str(dtype_str)
        self._view: "np.ndarray | None" = None

    def resolve(self) -> np.ndarray:
        """The block as a read-only ``(n, d)`` view — zero-copy."""
        if self._view is None:
            shm = _segment_for(self.segment)
            view = np.ndarray(
                self.shape, dtype=np.dtype(self.dtype_str), buffer=shm.buf
            )
            view.setflags(write=False)
            self._view = view
        return self._view

    # -- ndarray impersonation (the surface mappers actually use) -------

    def __len__(self) -> int:
        return self.shape[0] if self.shape else 0

    def __iter__(self):
        return iter(self.resolve())

    def __getitem__(self, item):
        return self.resolve()[item]

    def __array__(self, dtype=None, copy=None):
        view = self.resolve()
        if dtype is not None and np.dtype(dtype) != view.dtype:
            return view.astype(dtype)
        if copy:
            return view.copy()
        return view

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype_str).itemsize * int(np.prod(self.shape)))

    def __reduce__(self):
        # The cached view never crosses the wire; workers re-resolve.
        return (type(self), (self.segment, self.shape, self.dtype_str))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedBlock({self.segment!r}, shape={self.shape}, "
            f"dtype={self.dtype_str})"
        )


def _segment_for(name: str) -> shared_memory.SharedMemory:
    """The mapped segment for ``name``: owned, cached, or attached now."""
    owned = _OWNED.get(name)
    if owned is not None:
        return owned[0]
    with _LOCK:
        shm = _ATTACHED.get(name)
        if shm is None:
            _drop_unlinked_attachments()
            try:
                shm = _attach_untracked(name)
            except FileNotFoundError:
                raise DataFormatError(
                    f"shared segment {name!r} has been released "
                    "(split deleted, overwritten, or lost)"
                ) from None
            _ATTACHED[name] = shm
    return shm


def _drop_unlinked_attachments() -> None:
    """Close cached attachments whose segment the owner has unlinked.

    Runs on every attach miss (callers hold ``_LOCK``), so a pool worker
    keeps only the segments of the data it reads now. An unlinked
    segment has no ``/dev/shm`` entry; without ``/dev/shm`` the cache is
    kept. A mapping a live view still exports stays until a later miss.
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return
    for name, shm in list(_ATTACHED.items()):
        if os.path.exists(os.path.join(_SHM_DIR, name)):
            continue
        try:
            shm.close()
        except BufferError:
            continue
        del _ATTACHED[name]


def create_block(array: np.ndarray) -> SharedBlock:
    """Copy ``array`` into a fresh owned segment; returns its handle.

    The one copy of the shared plane's life: everything downstream —
    every task on every backend, every retry — reads the same bytes.
    """
    arr = np.ascontiguousarray(array)
    name = _next_segment_name()
    shm = shared_memory.SharedMemory(
        name=name, create=True, size=max(1, arr.nbytes)
    )
    dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    dest[...] = arr
    with _LOCK:
        _OWNED[name] = (shm, os.getpid())
    return SharedBlock(name, arr.shape, arr.dtype.str)


def release_segment(name: str) -> bool:
    """Unlink an owned segment (no-op outside the owning process).

    Returns True when a segment was actually released. Workers that
    still hold the mapping keep reading it until they drop it — POSIX
    semantics, and exactly what in-flight tasks need.
    """
    with _LOCK:
        entry = _OWNED.get(name)
        if entry is None or entry[1] != os.getpid():
            return False
        del _OWNED[name]
        stale = _ATTACHED.pop(name, None)
    shm, _pid = entry
    if stale is not None:  # pragma: no cover - owner rarely also attaches
        stale.close()
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
    return True


def release_block(block: "SharedBlock | object") -> bool:
    """Release the segment behind ``block`` if it is a shared handle."""
    if isinstance(block, SharedBlock):
        return release_segment(block.segment)
    return False


def active_segments() -> list[str]:
    """Names of segments this process currently owns (leak check API)."""
    pid = os.getpid()
    with _LOCK:
        return sorted(
            name for name, (_shm, owner) in _OWNED.items() if owner == pid
        )


def attached_segments() -> list[str]:
    """Names of foreign segments this process has mapped."""
    with _LOCK:
        return sorted(_ATTACHED)


def orphaned_system_segments() -> list[str]:
    """``/dev/shm`` entries with our prefix that no live owner tracks.

    The cross-process leak check: after a run releases its DFS, nothing
    with :data:`SEGMENT_PREFIX` may remain on the system that this
    process does not own. (Non-Linux platforms without ``/dev/shm``
    simply report nothing — the registry checks still apply.)
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return []
    mine = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    with _LOCK:
        owned = set(_OWNED)
    return sorted(
        entry
        for entry in os.listdir(_SHM_DIR)
        if entry.startswith(mine) and entry not in owned
    )


def release_all() -> int:
    """Release every segment this process owns; returns the count.

    Registered ``atexit`` so crashed or interrupted runs cannot litter
    ``/dev/shm``. Fork()ed children inherit the registry but fail the
    pid guard, so a dying pool worker never unlinks the driver's data.
    """
    released = 0
    for name in active_segments():
        if release_segment(name):
            released += 1
    return released


atexit.register(release_all)
