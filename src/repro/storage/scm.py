"""Storage Class Memory (persistent memory) cache model.

The paper's Set-2 hardware adds 16 GB of persistent memory per node as an
extra cache and Fig 14(a) shows it lowers message latency at moderate rates
while leaving throughput unchanged (Fig 14(b)) — a capacity-bound cache
cuts the latency of hits but the disk path still bounds sustained rate.

:class:`SCMCache` is an LRU byte cache: hits cost an SCM read, misses fall
through to the caller-provided loader and populate the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.common.units import GiB

#: Reading a cached entry from persistent memory.
SCM_READ_S = 1.5e-6


class SCMCache:
    """LRU cache with byte-capacity accounting and hit/miss meters."""

    def __init__(self, capacity_bytes: int = 16 * GiB) -> None:
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: str,
            loader: Callable[[], tuple[bytes, float]]) -> tuple[bytes, float]:
        """Return (payload, simulated seconds).

        On a hit the cost is one SCM read; on a miss the ``loader`` runs
        (returning payload and its own cost) and the result is cached.
        """
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key], SCM_READ_S
        self.misses += 1
        payload, cost = loader()
        self.put(key, payload)
        return payload, cost

    def put(self, key: str, payload: bytes) -> None:
        """Insert a payload, evicting LRU entries to fit."""
        if len(payload) > self.capacity_bytes:
            return  # larger than the device; never cacheable
        if key in self._entries:
            self._used -= len(self._entries.pop(key))
        while self._used + len(payload) > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._used -= len(evicted)
            self.evictions += 1
        self._entries[key] = payload
        self._used += len(payload)

    def invalidate(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used -= len(entry)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
