"""Distributed key-value engine.

The paper uses KV stores in four places: PLog record indexes (Section IV-A),
the lakehouse catalog ("stored in a distributed key-value engine optimized
for RDMA and SCM", Section IV-B), the stream dispatcher's topology store
(Section V-A) and the metadata-acceleration write cache (Section V-B).

This engine is a sorted in-memory map with write-ahead-log cost accounting:
:meth:`KVEngine.put` returns a small constant cost (an RDMA round trip plus
an SCM write).  Reads return no cost; a caller that models KV reads costs
them at its call site in :data:`RDMA_ROUND_TRIP_S` units, as
:meth:`~repro.table.metacache.AcceleratedMetadataStore.read_state_cost`
does.  The constant-cost lookup is exactly what makes Fig 15(a) flat for
the accelerated path while the file-based catalog scales linearly with
partition count.

Prefix scans are provided for catalog/manifest listings.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

#: One RDMA round trip to the KV service (Section III: RDMA bus bypasses
#: the CPU/TCP stack; single-digit microseconds).
RDMA_ROUND_TRIP_S = 8e-6
#: Persisting a small record to storage-class memory.
SCM_WRITE_S = 2e-6
#: One write-ahead-logged mutation: a round trip plus the SCM persist.
KV_WRITE_S = RDMA_ROUND_TRIP_S + SCM_WRITE_S


class KVEngine:
    """Sorted KV store with simulated RDMA/SCM access costs."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._keys: list[str] = []
        #: writes append in O(1) and set this False when they land out of
        #: order; the first ordered read re-sorts once (lazy LSM-style
        #: ordering — bulk loads stop paying O(n) list inserts per put)
        self._sorted = True
        self._data: dict[str, object] = {}
        self.reads = 0
        self.writes = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._keys.sort()
            self._sorted = True

    def put(self, key: str, value: object) -> float:
        """Insert or overwrite; returns the simulated seconds it costs."""
        if key not in self._data:
            self._keys.append(key)
            if (self._sorted and len(self._keys) > 1
                    and self._keys[-2] > key):
                self._sorted = False
        self._data[key] = value
        self.writes += 1
        return KV_WRITE_S

    def get(self, key: str, default: object = None) -> object:
        """Point lookup (O(1) regardless of store size)."""
        self.reads += 1
        return self._data.get(key, default)

    def delete(self, key: str) -> bool:
        """Remove a key; returns whether it existed."""
        if key not in self._data:
            return False
        del self._data[key]
        self._ensure_sorted()
        self._keys.pop(bisect_left(self._keys, key))
        self.writes += 1
        return True

    def scan(self, prefix: str) -> Iterator[tuple[str, object]]:
        """Ordered iteration over keys starting with ``prefix``."""
        self._ensure_sorted()
        start = bisect_left(self._keys, prefix)
        end = bisect_right(self._keys, prefix + "￿")
        rows = self._keys[start:end]
        self.reads += 1
        for key in rows:
            yield key, self._data[key]

    def scan_range(self, low: str, high: str) -> Iterator[tuple[str, object]]:
        """Ordered iteration over keys in [low, high)."""
        self._ensure_sorted()
        start = bisect_left(self._keys, low)
        end = bisect_left(self._keys, high)
        rows = self._keys[start:end]
        self.reads += 1
        for key in rows:
            yield key, self._data[key]

    def keys(self) -> list[str]:
        self._ensure_sorted()
        return list(self._keys)

    def clear_prefix(self, prefix: str) -> int:
        """Delete every key under ``prefix``; returns count removed."""
        doomed = [key for key, _ in self.scan(prefix)]
        for key in doomed:
            self.delete(key)
        return len(doomed)
