"""The block/footer tiers wired through the table read path.

What the hierarchy must buy (and must not break):

* a warm scan is served entirely from the block tier — zero storage-pool
  extent reads, cheaper simulated time, identical rows;
* warm footer-answerable aggregates never touch the pool *or* the block
  tier (the metadata fast path is zero-IO);
* physical deletions (snapshot expiry, hard drop) invalidate cached
  entries; logical operations (update, time travel) never do;
* per-context hierarchies fork/merge like every other counter family;
* the LakeBrain prefetcher promotes predicted-hot files at background
  bus priority so the next scan starts warm.
"""

from __future__ import annotations

import random

from repro.cache.hierarchy import CacheHierarchy, default_hierarchy
from repro.cache.prefetch import LakeBrainPrefetcher
from repro.common.clock import SimClock
from repro.common.context import ExecutionContext, use_context
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.table.expr import Predicate
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.pushdown import AggregateSpec
from repro.table.schema import PartitionSpec, Schema
from repro.table.table import Lakehouse, QueryStats

SCHEMA = Schema.from_dict({"user": "string", "value": "int64"})


def _stack(context: ExecutionContext, batches: int = 3,
           rows_per_batch: int = 300):
    """One full lakehouse stack living inside ``context``."""
    with use_context(context):
        clock = SimClock()
        pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
        pool.add_disks(NVME_SSD_PROFILE, 8)
        bus = DataBus(clock)
        lake = Lakehouse(
            pool, bus, clock,
            meta_store=AcceleratedMetadataStore(
                KVEngine("meta"), pool, clock
            ),
            context=context,
        )
        table = lake.create_table("t", SCHEMA, PartitionSpec())
        rng = random.Random(11)
        for _ in range(batches):
            table.insert([
                {"user": f"u{rng.randrange(6)}", "value": rng.randrange(1000)}
                for _ in range(rows_per_batch)
            ])
    return lake, table, pool, clock


def test_warm_scan_is_served_from_block_tier():
    context = ExecutionContext(name="warm-scan")
    _, table, pool, _ = _stack(context)
    with use_context(context):
        cold_stats = QueryStats()
        cold = table.select(stats=cold_stats)
        reads_after_cold = pool.stats.extents_read
        warm_stats = QueryStats()
        warm = table.select(stats=warm_stats)
    assert warm == cold
    assert pool.stats.extents_read == reads_after_cold  # zero pool reads
    assert cold_stats.block_cache_misses == cold_stats.files_scanned > 0
    assert warm_stats.block_cache_hits == warm_stats.files_scanned
    assert warm_stats.block_cache_misses == 0
    assert warm_stats.footer_cache_hits == warm_stats.files_scanned
    assert warm_stats.data_cost_s < cold_stats.data_cost_s


def test_warm_footer_aggregate_is_zero_io():
    context = ExecutionContext(name="warm-footer")
    _, table, pool, _ = _stack(context)
    specs = [AggregateSpec("COUNT", None), AggregateSpec("MAX", "value")]
    with use_context(context):
        cold_stats = QueryStats()
        cold = table.select(aggregate=specs, stats=cold_stats)
        reads_after_cold = pool.stats.extents_read
        block_lookups = (table.cache_hierarchy.blocks.stats.hits
                         + table.cache_hierarchy.blocks.stats.misses)
        warm_stats = QueryStats()
        warm = table.select(aggregate=specs, stats=warm_stats)
    assert warm == cold
    assert pool.stats.extents_read == reads_after_cold
    # footer hits short-circuit before the block tier: zero-IO, zero-decode
    assert (table.cache_hierarchy.blocks.stats.hits
            + table.cache_hierarchy.blocks.stats.misses) == block_lookups
    assert warm_stats.footer_cache_hits == warm_stats.files_scanned > 0
    assert warm_stats.block_cache_hits == warm_stats.block_cache_misses == 0
    assert cold_stats.footer_cache_misses == cold_stats.files_scanned


def test_snapshot_expiry_invalidates_dead_paths():
    context = ExecutionContext(name="expiry")
    _, table, pool, clock = _stack(context)
    with use_context(context):
        table.select()  # warm every live file
        hierarchy = table.cache_hierarchy
        doomed = [meta.path for meta in table.snapshots.live_files()]
        assert all(hierarchy.contains_payload(pool, p) for p in doomed)
        table.delete(Predicate("value", ">=", 0))  # logical: cache keeps all
        assert all(hierarchy.contains_payload(pool, p) for p in doomed)
        clock.advance(1.0)
        table.expire_snapshots(older_than=clock.now)  # physical deletion
    assert not any(hierarchy.contains_payload(pool, p) for p in doomed)


def test_hard_drop_invalidates():
    context = ExecutionContext(name="drop")
    lake, table, pool, _ = _stack(context)
    with use_context(context):
        table.select()
        paths = [meta.path for meta in table.snapshots.live_files()]
        hierarchy = table.cache_hierarchy
        assert all(hierarchy.contains_payload(pool, p) for p in paths)
        lake.drop_table_hard("t")
    assert not any(hierarchy.contains_payload(pool, p) for p in paths)


def test_time_travel_reads_from_cache_after_update():
    context = ExecutionContext(name="time-travel")
    _, table, pool, clock = _stack(context)
    with use_context(context):
        before = table.select()  # warms the pre-update files
        as_of = clock.now
        table.update(Predicate("value", "<", 500), {"user": "rewritten"})
        reads = pool.stats.extents_read
        travelled = table.select(as_of=as_of)
    assert travelled == before
    # the replaced files are only logically dead: time travel is all hits
    assert pool.stats.extents_read == reads


def test_distinct_pools_never_alias_paths():
    context = ExecutionContext(name="alias")
    with use_context(context):
        clock = SimClock()
        pool_a = StoragePool("a", clock, policy=erasure_coding_policy(4, 2))
        pool_a.add_disks(NVME_SSD_PROFILE, 8)
        pool_b = StoragePool("b", clock, policy=erasure_coding_policy(4, 2))
        pool_b.add_disks(NVME_SSD_PROFILE, 8)
        pool_a.store("same/path", b"alpha" * 100)
        pool_b.store("same/path", b"beta" * 100)
        hierarchy = CacheHierarchy(context=context)
        payload_a, _ = hierarchy.load_payload(pool_a, "same/path")
        payload_b, _ = hierarchy.load_payload(pool_b, "same/path")
    assert payload_a == b"alpha" * 100
    assert payload_b == b"beta" * 100


def test_hierarchy_config_is_per_context():
    context = ExecutionContext(name="config")
    context.configure_caches(block_policy="arc", footer_policy="lfu",
                             block_capacity_bytes=1 << 20)
    with use_context(context):
        hierarchy = default_hierarchy()
        assert hierarchy is context.cache_hierarchy
        assert hierarchy.blocks.policy.name == "arc"
        assert hierarchy.blocks.capacity_bytes == 1 << 20
        assert hierarchy.footers.policy.name == "lfu"
    other = ExecutionContext(name="other")
    with use_context(other):
        assert default_hierarchy().blocks.policy.name == "lru"


def test_tier_counters_fork_and_merge():
    parent = ExecutionContext(name="parent")
    child = parent.fork("child")
    child.cache_stats("table.block_cache").record_hit(3)
    child.cache_stats("table.footer_cache").record_miss(2)
    parent.merge(child)
    assert parent.cache_stats("table.block_cache").hits == 3
    assert parent.cache_stats("table.footer_cache").misses == 2
    snapshot = parent.snapshot()
    assert snapshot["cache:table.block_cache"]["hits"] == 3
    assert snapshot["cache:table.footer_cache"]["misses"] == 2


# --- LakeBrain prefetch -------------------------------------------------------


def test_prefetcher_promotes_tracked_hot_files():
    context = ExecutionContext(name="prefetch")
    _, table, pool, clock = _stack(context)
    with use_context(context):
        table.select()  # records an access per file in the tracker
        hierarchy = table.cache_hierarchy
        # go cold without losing the access history
        hierarchy.blocks.clear()
        hierarchy.footers.clear()
        prefetcher = LakeBrainPrefetcher(
            hierarchy, table.bus, clock, top_k=8
        )
        live = [meta.path for meta in table.snapshots.live_files()]
        promoted = prefetcher.run_cycle(pool, live)
        assert sorted(promoted) == sorted(live)
        assert prefetcher.files_prefetched == len(live)
        assert prefetcher.bytes_prefetched > 0
        # promotion rides the bus at background priority
        completions = table.bus.drain_queue()
        assert len(completions) == len(live)
        assert all(desc.startswith("prefetch ") for desc, _ in completions)
        # the prefetched scan is fully warm: zero pool reads
        reads = pool.stats.extents_read
        stats = QueryStats()
        table.select(stats=stats)
        assert pool.stats.extents_read == reads
        assert stats.block_cache_hits == stats.files_scanned
        # second cycle: everything resident, nothing to promote
        assert prefetcher.run_cycle(pool, live) == []


def test_prefetcher_hint_marks_files_hot():
    context = ExecutionContext(name="hint")
    _, table, pool, clock = _stack(context)
    with use_context(context):
        hierarchy = table.cache_hierarchy
        prefetcher = LakeBrainPrefetcher(hierarchy, table.bus, clock)
        live = sorted(meta.path for meta in table.snapshots.live_files())
        assert prefetcher.run_cycle(pool, live) == []  # nothing tracked yet
        prefetcher.hint(pool, live[:2])
        promoted = prefetcher.run_cycle(pool, live)
    assert sorted(promoted) == live[:2]
    assert all(hierarchy.contains_payload(pool, path) for path in live[:2])
    assert not hierarchy.contains_payload(pool, live[2])


def test_prefetcher_respects_top_k():
    context = ExecutionContext(name="topk")
    _, table, pool, clock = _stack(context)
    with use_context(context):
        table.select()
        hierarchy = table.cache_hierarchy
        hierarchy.blocks.clear()
        hierarchy.footers.clear()
        prefetcher = LakeBrainPrefetcher(
            hierarchy, table.bus, clock, top_k=1
        )
        live = [meta.path for meta in table.snapshots.live_files()]
        assert len(prefetcher.run_cycle(pool, live)) == 1
