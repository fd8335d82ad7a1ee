"""Execution contexts: per-shard counter routing, fork/merge and snapshots."""

import threading

from repro.common import stats
from repro.common.context import (
    CacheConfig,
    ExecutionContext,
    current_context,
    default_context,
    use_context,
)
from repro.table.chunkcache import default_chunk_cache


def test_use_context_isolates_counters():
    context = ExecutionContext(name="iso")
    baseline = stats.ingest_stats().slices_sealed
    with use_context(context):
        assert current_context() is context
        stats.ingest_stats().slices_sealed += 7
    assert context.ingest.slices_sealed == 7
    assert stats.ingest_stats().slices_sealed == baseline
    assert current_context() is default_context()


def test_context_is_thread_local():
    """A context activated in one thread never leaks into another."""
    context = ExecutionContext(name="thread-a")
    seen: list[ExecutionContext] = []

    def worker():
        seen.append(current_context())

    with use_context(context):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen == [default_context()]


def test_fork_starts_zeroed_and_merges_back():
    parent = ExecutionContext(name="parent")
    parent.ingest.slices_sealed = 3
    parent.clock.advance(10.0)
    child = parent.fork("child")
    assert child.ingest.slices_sealed == 0
    assert child.clock.now == parent.clock.now
    child.ingest.slices_sealed = 5
    child.cache_stats("c").record_hit(2)
    parent.merge(child)
    assert parent.ingest.slices_sealed == 8
    assert parent.cache_stats("c").hits == 2


def test_merge_does_not_touch_clock():
    parent = ExecutionContext(name="p")
    child = parent.fork("c")
    child.clock.advance(99.0)
    parent.merge(child)
    assert parent.clock.now == 0.0  # driver charges makespan explicitly


def test_fork_rng_deterministic():
    a = ExecutionContext(name="a")
    b = ExecutionContext(name="b")
    a.rng.seed(42)
    b.rng.seed(42)
    fa = a.fork("f")
    fb = b.fork("f")
    assert [fa.rng.random() for _ in range(3)] == [
        fb.rng.random() for _ in range(3)
    ]


def test_chunk_cache_is_per_context():
    one = ExecutionContext(
        name="one", cache_config=CacheConfig(chunk_capacity_bytes=8)
    )
    two = ExecutionContext(name="two")
    cache_one = default_chunk_cache(one)
    cache_two = default_chunk_cache(two)
    assert cache_one is not cache_two
    assert default_chunk_cache(one) is cache_one  # memoized per context
    with use_context(one):
        assert default_chunk_cache() is cache_one  # ambient resolution


def test_reset_stats_clears_every_counter():
    context = ExecutionContext(name="r")
    context.ingest.slices_sealed = 1
    context.cache_stats("x").record_miss()
    context.reset_stats()
    assert context.ingest.slices_sealed == 0
    assert context.cache_stats("x").misses == 0


def test_snapshot_shape_is_pinned():
    """Every family and key a snapshot reports, derived keys included.

    Benches read these keys by name, so a renamed or dropped counter
    must fail here rather than silently read as missing.
    """
    context = ExecutionContext(name="shape")
    context.cache_stats("x")
    shape = {family: set(keys) for family, keys in context.snapshot().items()}
    assert shape == {
        "ingest": {
            "records_appended", "slices_sealed", "bytes_encoded",
            "bytes_compressed", "compression_ratio", "plog_group_commits",
            "plog_appends_acked", "plog_bytes_acked", "ec_encode_calls",
            "ec_payloads_encoded", "legacy_slices_decoded",
        },
        "conversion": {
            "cycles", "slices_consumed", "rows_converted", "rows_malformed",
            "batch_parses", "row_parse_fallbacks", "validation_s",
        },
        "aggregation": {
            "queries", "row_groups_aggregated", "row_groups_footer_answered",
            "rows_aggregated", "partials_merged", "groups_emitted",
        },
        "faults": {
            "disk_crashes", "sector_errors_injected", "fragments_erased",
            "torn_commits", "transfers_dropped", "link_slowdowns",
            "partitions", "degraded_reads", "sector_errors_detected",
            "fragments_reconstructed", "reconstructed_bytes",
            "rebuilds_completed", "rebuild_retries", "rebuild_backoff_s",
            "rebuilds_exhausted", "transfer_timeouts", "disks_repaired",
        },
        "joins": {
            "joins_executed", "build_rows", "probe_rows", "matches_emitted",
            "queries_planned", "plans_considered", "result_cache_hits",
            "result_cache_misses",
        },
        "serving": {
            "requests_admitted", "records_admitted", "bytes_admitted",
            "queued_admissions", "queue_delay_s", "rejected_quota",
            "rejected_inflight", "throttle_events", "throttle_delay_s",
            "batches_scheduled", "bytes_scheduled", "scheduler_rounds",
            "slo_violations",
        },
        "cache:x": {"hits", "misses", "evictions", "rejections", "hit_rate"},
    }
    assert list(context.snapshot()) == [
        "ingest", "conversion", "aggregation", "faults", "joins", "serving",
        "cache:x",
    ]
