"""Cache hierarchy: hit-rate curves, scan resistance, zero-IO warm paths.

Four experiments over :mod:`repro.cache`, recorded in ``BENCH_cache.json``:

* **hit-rate-vs-size curves** — a Zipf-skewed key trace replayed
  cache-aside through a :class:`~repro.cache.tier.CacheTier` at growing
  byte capacities, once per eviction policy (LRU/LFU/ARC).  Every curve
  must be monotone: more capacity never hurts.
* **scan resistance** — a hot working set interleaved with one-pass
  sequential scans (the classic ARC motivating workload).  ARC must
  match or beat LRU, whose recency list the scans flush every cycle.
* **table warm paths** — a full lakehouse scan twice: the warm pass must
  be served entirely from the block tier (zero storage-pool extent
  reads), and a warm footer-answerable aggregate must short-circuit
  before the block tier (zero IO *and* zero payload decode).
* **sharded parity** — the same query through ``table.select`` and a
  4-worker ``sharded_select`` on identical tables: every scan and
  per-tier cache counter must match exactly.

Per-tier counters are checked for consistency (hits + misses == lookups)
at every step.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from repro.bench import ResultTable
from repro.cache.policy import POLICY_NAMES
from repro.cache.tier import CacheTier
from repro.common.clock import SimClock
from repro.common.context import ExecutionContext, use_context
from repro.parallel import sharded_select
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.table.expr import Predicate
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.pushdown import AggregateSpec
from repro.table.schema import Column, ColumnType, PartitionSpec, Schema
from repro.table.table import Lakehouse, QueryStats

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_cache.json"

NUM_KEYS = 512
TRACE_LENGTH = 20_000
ZIPF_SKEW = 1.0
#: capacity points as fractions of the trace's total working-set bytes
CAPACITY_FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.8)

NUM_FILES = 24
ROWS_PER_FILE = 2_048

SCHEMA = Schema([
    Column("id", ColumnType.INT64),
    Column("province", ColumnType.STRING),
    Column("bytes_down", ColumnType.FLOAT64, nullable=True),
])

SPECS = [
    AggregateSpec("COUNT", group_by=("province",)),
    AggregateSpec("SUM", "bytes_down", group_by=("province",)),
]

#: matches every row, so the sharded run exercises the full data path
PREDICATE = Predicate("id", ">=", 0)

PARITY_COUNTERS = (
    "files_total", "files_scanned", "files_skipped", "rows_scanned",
    "rows_returned", "bytes_scanned", "bytes_transferred",
    "chunk_cache_hits", "chunk_cache_misses",
    "block_cache_hits", "block_cache_misses",
    "footer_cache_hits", "footer_cache_misses",
)


def _check_tier_counters(tier: CacheTier) -> None:
    stats = tier.stats
    assert stats.hits + stats.misses == stats.lookups, (
        f"{tier.name}: {stats.hits} + {stats.misses} != {stats.lookups}"
    )


def _entry_bytes(key_id: int) -> int:
    """Deterministic heterogeneous entry sizes (512B .. ~4.5KB)."""
    return 512 + (key_id * 2_654_435_761) % 4096


def _zipf_trace(num_keys: int, length: int, skew: float,
                seed: int) -> list[int]:
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** skew for rank in range(num_keys)]
    return rng.choices(range(num_keys), weights=weights, k=length)


def _replay(trace: list[int], capacity_bytes: int, policy: str) -> CacheTier:
    """Cache-aside replay: every miss loads and admits the entry."""
    tier = CacheTier("bench", capacity_bytes=capacity_bytes, policy=policy)
    for key_id in trace:
        if tier.get(key_id) is None:
            tier.put(key_id, key_id, _entry_bytes(key_id))
    _check_tier_counters(tier)
    return tier


def run_policy_curves(num_keys: int, trace_length: int) -> dict:
    trace = _zipf_trace(num_keys, trace_length, ZIPF_SKEW, seed=42)
    working_set = sum(_entry_bytes(key_id) for key_id in set(trace))
    curves: dict[str, list[dict]] = {}
    for policy in POLICY_NAMES:
        points = []
        for fraction in CAPACITY_FRACTIONS:
            capacity = max(1, int(working_set * fraction))
            tier = _replay(trace, capacity, policy)
            points.append({
                "capacity_bytes": capacity,
                "capacity_fraction": fraction,
                "hit_rate": tier.stats.hits / tier.stats.lookups,
                "evictions": tier.stats.evictions,
            })
        hit_rates = [point["hit_rate"] for point in points]
        assert hit_rates == sorted(hit_rates), (
            f"{policy}: hit rate not monotone in capacity: {hit_rates}"
        )
        curves[policy] = points
    return {
        "num_keys": num_keys,
        "trace_length": trace_length,
        "zipf_skew": ZIPF_SKEW,
        "working_set_bytes": working_set,
        "curves": curves,
        "monotone": True,
    }


def _scan_then_repeat_trace(cycles: int) -> tuple[list[int], int]:
    """Hot keys re-read every cycle, cold keys scanned exactly once.

    Returns the trace plus a capacity that holds the hot set comfortably
    but not the scans — LRU flushes the hot set on every scan segment,
    ARC learns to keep it in T2.
    """
    hot = list(range(8))
    trace: list[int] = []
    next_cold = len(hot)
    for _ in range(cycles):
        for _ in range(4):  # four hot rounds ...
            trace.extend(hot)
        for _ in range(64):  # ... then a one-pass scan segment
            trace.append(next_cold)
            next_cold += 1
    hot_bytes = sum(_entry_bytes(key_id) for key_id in hot)
    return trace, hot_bytes * 2


def run_scan_resistance(cycles: int) -> dict:
    trace, capacity = _scan_then_repeat_trace(cycles)
    rates = {}
    for policy in POLICY_NAMES:
        tier = _replay(trace, capacity, policy)
        rates[policy] = tier.stats.hits / tier.stats.lookups
    assert rates["arc"] >= rates["lru"], (
        f"ARC lost to LRU on its home workload: {rates}"
    )
    return {
        "cycles": cycles,
        "trace_length": len(trace),
        "capacity_bytes": capacity,
        "hit_rates": rates,
        "arc_over_lru": rates["arc"] / rates["lru"] if rates["lru"] else None,
    }


def _build_table(context: ExecutionContext, num_files: int,
                 rows_per_file: int):
    """Unpartitioned table with collision-free chunk content.

    Column values are seeded-random so no two files share a
    content-addressed chunk: the serial shared chunk cache would dedup
    such twins while per-shard caches cannot, and exact counter parity
    requires collision-free chunks.  Values are integral so SUM merges
    exactly in any grouping.
    """
    rng = random.Random(1234)
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
    table = lake.create_table("flows", SCHEMA, PartitionSpec())
    row_id = 0
    for _ in range(num_files):
        rows = []
        for _ in range(rows_per_file):
            rows.append({
                "id": row_id,
                "province": f"province_{rng.randrange(16):02d}",
                "bytes_down": (
                    None if rng.random() < 0.02
                    else float(rng.randrange(4096))
                ),
            })
            row_id += 1
        table.insert(rows)
    return table, pool


def run_table_warm_paths(num_files: int, rows_per_file: int) -> dict:
    context = ExecutionContext(name="bench-cache-table")
    with use_context(context):
        table, pool = _build_table(context, num_files, rows_per_file)
        hierarchy = table.cache_hierarchy

        cold_stats = QueryStats()
        cold_rows = table.select(stats=cold_stats)
        reads_after_cold = pool.stats.extents_read

        warm_stats = QueryStats()
        warm_rows = table.select(stats=warm_stats)
        assert warm_rows == cold_rows
        warm_pool_reads = pool.stats.extents_read - reads_after_cold
        assert warm_pool_reads == 0, "warm scan read the storage pool"
        assert warm_stats.block_cache_hits == warm_stats.files_scanned
        assert warm_stats.block_cache_misses == 0

        # footer-answerable aggregate: the warm pass never reaches the
        # block tier, let alone the pool
        footer_specs = [AggregateSpec("COUNT"),
                        AggregateSpec("MAX", "bytes_down")]
        table.select(aggregate=footer_specs)  # warm the footer tier
        block_lookups = hierarchy.blocks.stats.lookups
        reads_before_footer = pool.stats.extents_read
        footer_stats = QueryStats()
        table.select(aggregate=footer_specs, stats=footer_stats)
        footer_pool_reads = pool.stats.extents_read - reads_before_footer
        assert footer_pool_reads == 0
        assert hierarchy.blocks.stats.lookups == block_lookups
        assert footer_stats.footer_cache_hits == footer_stats.files_scanned

        for tier in (hierarchy.blocks, hierarchy.footers):
            _check_tier_counters(tier)

    return {
        "num_files": num_files,
        "rows_per_file": rows_per_file,
        "cold_pool_extent_reads": reads_after_cold,
        "warm_pool_extent_reads": warm_pool_reads,
        "warm_block_hits": warm_stats.block_cache_hits,
        "warm_footer_hits": warm_stats.footer_cache_hits,
        "cold_data_cost_s": cold_stats.data_cost_s,
        "warm_data_cost_s": warm_stats.data_cost_s,
        "warm_cost_ratio": (
            warm_stats.data_cost_s / cold_stats.data_cost_s
            if cold_stats.data_cost_s else 0.0
        ),
        "footer_aggregate_pool_reads": footer_pool_reads,
        "footer_aggregate_block_lookups": 0,
        "block_tier": hierarchy.blocks.stats.snapshot(),
        "footer_tier": hierarchy.footers.stats.snapshot(),
    }


def run_sharded_parity(num_files: int, rows_per_file: int) -> dict:
    serial_context = ExecutionContext(name="bench-cache-serial")
    with use_context(serial_context):
        serial_table, _ = _build_table(
            serial_context, num_files, rows_per_file
        )
        serial_stats = QueryStats()
        serial_rows = serial_table.select(
            predicate=PREDICATE, aggregate=SPECS, stats=serial_stats
        )

    sharded_context = ExecutionContext(name="bench-cache-sharded")
    with use_context(sharded_context):
        sharded_table, _ = _build_table(
            sharded_context, num_files, rows_per_file
        )
        sharded_stats = QueryStats()
        result = sharded_select(
            sharded_table, predicate=PREDICATE, aggregate=SPECS,
            num_workers=4, mode="serial", stats=sharded_stats,
            context=sharded_context,
        )

    assert result.rows == serial_rows, "sharded rows diverged from serial"
    counters = {}
    for counter in PARITY_COUNTERS:
        serial_value = getattr(serial_stats, counter)
        sharded_value = getattr(sharded_stats, counter)
        assert sharded_value == serial_value, (
            f"{counter}: sharded {sharded_value} != serial {serial_value}"
        )
        counters[counter] = serial_value
    return {
        "num_workers": 4,
        "counters_identical": True,
        "counters": counters,
    }


def run_cache_bench(num_keys: int = NUM_KEYS,
                    trace_length: int = TRACE_LENGTH,
                    scan_cycles: int = 30,
                    num_files: int = NUM_FILES,
                    rows_per_file: int = ROWS_PER_FILE,
                    result_path: Path | None = RESULT_PATH) -> dict:
    results = {
        "zipf_curves": run_policy_curves(num_keys, trace_length),
        "scan_resistance": run_scan_resistance(scan_cycles),
        "table_warm_paths": run_table_warm_paths(num_files, rows_per_file),
        "sharded_parity": run_sharded_parity(num_files, rows_per_file),
        "tier_counters_consistent": True,
    }
    if result_path is not None:
        result_path.write_text(json.dumps(results, indent=2) + "\n")

    curves = results["zipf_curves"]["curves"]
    table_out = ResultTable(
        f"hit rate vs capacity: Zipf(s={ZIPF_SKEW}) over {num_keys} keys, "
        f"{trace_length:,} lookups",
        ["capacity", *POLICY_NAMES],
    )
    for index, fraction in enumerate(CAPACITY_FRACTIONS):
        table_out.add_row(
            f"{fraction:.0%} of working set",
            *(f"{curves[policy][index]['hit_rate']:.1%}"
              for policy in POLICY_NAMES),
        )
    table_out.show()

    resistance = results["scan_resistance"]
    print(
        "scan-then-repeat hit rates: "
        + ", ".join(f"{policy}={rate:.1%}"
                    for policy, rate in resistance["hit_rates"].items())
        + f" (ARC/LRU = {resistance['arc_over_lru']:.2f}x)"
    )
    warm = results["table_warm_paths"]
    print(
        f"warm scan: {warm['warm_block_hits']} block hits, "
        f"{warm['warm_pool_extent_reads']} pool reads, sim cost "
        f"{warm['warm_cost_ratio']:.1%} of cold"
    )
    print(
        f"sharded parity: {len(results['sharded_parity']['counters'])} "
        f"counters identical across 4 workers"
    )
    return results


def test_cache_bench(benchmark) -> None:
    from conftest import run_once

    results = run_once(benchmark, run_cache_bench)
    assert results["zipf_curves"]["monotone"]
    resistance = results["scan_resistance"]["hit_rates"]
    assert resistance["arc"] >= resistance["lru"]
    assert results["table_warm_paths"]["warm_pool_extent_reads"] == 0
    assert results["sharded_parity"]["counters_identical"]


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_cache_bench(
        num_keys=128 if smoke else NUM_KEYS,
        trace_length=4_000 if smoke else TRACE_LENGTH,
        scan_cycles=8 if smoke else 30,
        num_files=8 if smoke else NUM_FILES,
        rows_per_file=512 if smoke else ROWS_PER_FILE,
        result_path=RESULT_PATH,
    )
    if outcome["scan_resistance"]["arc_over_lru"] < 1.0:
        raise SystemExit("ARC regressed below LRU on scan-then-repeat")
