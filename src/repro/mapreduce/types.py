"""Key/value conventions of the simulated MapReduce runtime.

Keys must be hashable and totally ordered within one job (ints, strings
or flat tuples of those). ``stable_hash`` replaces Python's per-process
randomised hashing so partitioning is reproducible across runs.
``sizeof_value`` estimates the serialised size of emitted values, which
feeds the shuffle-byte accounting that the paper's cost model is built
on.
"""

from __future__ import annotations

import zlib

import numpy as np

#: The key-space offset used by ``KMeansAndFindNewCenters`` to multiplex
#: two logical outputs (refined centers vs next-iteration candidates)
#: through a single shuffle. The paper sets it to half the largest Java
#: long: 2**62 ("approximatively 4E18"), which also bounds the number of
#: representable centers.
OFFSET = 2**62

Key = "int | str | tuple"


def stable_hash(key: object) -> int:
    """Deterministic, process-independent hash for partitioner keys."""
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, (int, np.integer)):
        return int(key) & 0x7FFFFFFFFFFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, tuple):
        h = 2166136261
        for item in key:
            h = (h * 16777619) ^ stable_hash(item)
        return h & 0x7FFFFFFFFFFFFFFF
    raise TypeError(f"unsupported key type for partitioning: {type(key).__name__}")


def sizeof_value(value: object) -> int:
    """Approximate serialised size, in bytes, of an emitted value.

    Numbers serialise to 8 bytes (Hadoop Long/Double writables), numpy
    arrays to their raw buffer size, strings to their UTF-8 length, and
    containers to the sum of their items. ``None`` is a 0-byte marker.
    """
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bool, np.bool_)):
        return 1
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (tuple, list)):
        return sum(sizeof_value(item) for item in value)
    if isinstance(value, dict):
        return sum(
            sizeof_value(k) + sizeof_value(v) for k, v in value.items()
        )
    raise TypeError(f"cannot size value of type {type(value).__name__}")
