"""Per-shard execution contexts for the sharded data plane.

Module-global counters and one process-wide decoded-chunk cache would
cap the simulation at a single execution stream: two concurrent workers
would interleave their counters and cache entries, and no per-shard
result could ever be compared against a single-shard oracle.  The
paper's deployment avoids exactly this by spreading slices over 4096
logical shards so the data plane scales out with nodes (Section IV-A /
Fig 4(d)).

An :class:`ExecutionContext` bundles everything a data-plane worker
mutates while processing its shard of the work:

* one instance of every counter family in
  :data:`repro.common.stats.FAMILIES` (``context.ingest``,
  ``context.faults``, ...) and the named cache-counter registry;
* a slot for the decoded-chunk cache
  (:func:`repro.table.chunkcache.default_chunk_cache` creates it lazily
  per context, so shards never share LRU state);
* a seeded :class:`random.Random` for any stochastic decisions a worker
  makes (deterministic per shard);
* a :class:`~repro.common.clock.SimClock` handle, so a shard worker
  advances *its own* simulated time and the driver reconciles the wave
  as an LPT makespan (see :func:`repro.common.clock.lpt_makespan`).

The *current* context is carried in a :class:`contextvars.ContextVar`,
so worker threads (and forked worker processes) activate their shard's
context without threading an argument through every call site; the
accessors in :mod:`repro.common.stats` (``ingest_stats()`` and friends)
resolve through it.  Single-stream code runs in a process-wide default
context.

Shard workers are created with :meth:`ExecutionContext.fork` and their
results folded back with :meth:`ExecutionContext.merge`: every counter
family is additive, so per-shard totals merged on join are
value-identical to a single-shard run over the same work.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

from repro.common.clock import SimClock
from repro.common.stats import FAMILIES, CacheStats
from repro.common.units import MiB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cache.hierarchy import CacheHierarchy
    from repro.table.chunkcache import ChunkCache

#: Default decoded-chunk cache capacity per context, in **bytes**;
#: mirrors :data:`repro.table.chunkcache.DEFAULT_CAPACITY_BYTES` without
#: importing it (the table layer sits above the commons).
DEFAULT_CHUNK_CACHE_CAPACITY = 128 * MiB


@dataclass
class CacheConfig:
    """Per-context knobs for every cache tier (capacities in bytes).

    The three tiers of the hierarchy — decoded chunks on top, compressed
    blocks above the pool, parsed footers beside them — each get a byte
    capacity and an eviction policy name ("lru"/"lfu"/"arc"; see
    :mod:`repro.cache.policy`).  ``access_window_s`` bounds the sliding
    hit window of the hierarchy's access tracker, which feeds the
    LakeBrain prefetcher's hotness scores.
    """

    chunk_capacity_bytes: int = DEFAULT_CHUNK_CACHE_CAPACITY
    block_capacity_bytes: int = 64 * MiB
    footer_capacity_bytes: int = 8 * MiB
    #: snapshot-keyed query result tier (normalized SQL + snapshot ids)
    result_capacity_bytes: int = 16 * MiB
    chunk_policy: str = "lru"
    block_policy: str = "lru"
    footer_policy: str = "lru"
    result_policy: str = "lru"
    access_window_s: float = 600.0


class ExecutionContext:
    """Stats + cache + RNG + clock for one execution stream (shard)."""

    def __init__(self, name: str = "default", *,
                 rng: random.Random | None = None,
                 clock: SimClock | None = None,
                 cache_config: CacheConfig | None = None,
                 ) -> None:
        self.name = name
        # one plain attribute per family, so increments stay attribute stores
        for family, counters in FAMILIES.items():
            setattr(self, family, counters())
        self.caches: dict[str, CacheStats] = {}
        self.rng = rng if rng is not None else random.Random(0)
        self.clock = clock if clock is not None else SimClock()
        self.cache_config = (
            cache_config if cache_config is not None else CacheConfig()
        )
        #: lazily created by :func:`repro.table.chunkcache.default_chunk_cache`
        self.chunk_cache: "ChunkCache | None" = None
        #: lazily created by :func:`repro.cache.hierarchy.default_hierarchy`
        self.cache_hierarchy: "CacheHierarchy | None" = None

    def configure_caches(self, **changes: object) -> CacheConfig:
        """Reconfigure this context's cache tiers (per-context, not global).

        Accepts any :class:`CacheConfig` field as a keyword argument
        (``chunk_capacity_bytes``, ``block_policy``, …), applies the
        changes, and drops the lazily-built chunk cache and hierarchy so
        they rebuild with the new capacities/policies on next use.
        Counters registered in :attr:`caches` survive — they are
        cumulative per context, not per cache instance.
        """
        self.cache_config = replace(self.cache_config, **changes)  # type: ignore[arg-type]
        self.chunk_cache = None
        self.cache_hierarchy = None
        return self.cache_config

    def cache_stats(self, name: str) -> CacheStats:
        """This context's counters for the named cache (created on use)."""
        stats = self.caches.get(name)
        if stats is None:
            stats = self.caches[name] = CacheStats()
        return stats

    def fork(self, name: str, seed: int | None = None) -> "ExecutionContext":
        """A fresh child context for one shard worker.

        The child starts with zeroed counters, an empty cache registry,
        its own RNG (seeded from ``seed``, or deterministically from the
        parent's RNG) and its own :class:`SimClock` starting at the
        parent's current simulated time — so per-shard sim deltas are
        directly comparable when the driver reconciles the wave.
        """
        if seed is None:
            seed = self.rng.getrandbits(64)
        return ExecutionContext(
            name=name,
            rng=random.Random(seed),
            clock=SimClock(start=self.clock.now),
            cache_config=replace(self.cache_config),
        )

    def merge(self, other: "ExecutionContext") -> None:
        """Fold a shard context's counters into this one (on join).

        Only counters merge; the clock does not — the driver charges the
        wave's elapsed sim time explicitly as an LPT makespan, which is
        the whole point of per-shard clocks.
        """
        for family in FAMILIES:
            getattr(self, family).merge(getattr(other, family))
        for name, stats in other.caches.items():
            self.cache_stats(name).merge(stats)

    def reset_stats(self) -> None:
        """Zero every counter (cache registry entries included)."""
        for family in FAMILIES:
            getattr(self, family).reset()
        for stats in self.caches.values():
            stats.reset()

    def snapshot(self) -> dict[str, dict[str, float]]:
        """All counters as plain dicts (bench/report serialization)."""
        out = {family: getattr(self, family).snapshot() for family in FAMILIES}
        for name, stats in sorted(self.caches.items()):
            out[f"cache:{name}"] = stats.snapshot()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionContext({self.name!r}, now={self.clock.now:.6f})"


_DEFAULT = ExecutionContext("default")

_CURRENT: ContextVar[ExecutionContext] = ContextVar(
    "repro_execution_context", default=_DEFAULT
)


def default_context() -> ExecutionContext:
    """The process-wide default context."""
    return _DEFAULT


def current_context() -> ExecutionContext:
    """The active context (the default unless one was activated)."""
    return _CURRENT.get()


@contextmanager
def use_context(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Scoped activation: the context is current inside the ``with``."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
