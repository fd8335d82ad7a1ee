"""Fig 15: metadata acceleration in the lakehouse.

(a) metadata operation time for 100 queries vs partition/file count:
    the file-based catalog grows linearly with partitions; the KV-cache
    accelerated path stays near-flat;
(b) query time vs compute-side memory: the file-based path OOMs at the
    smallest allocation (all manifests must fit in compute memory) while
    the accelerated path runs at every allocation because the cache
    "partially complements the allocated memory".
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import ResultTable
from repro.common.clock import SimClock
from repro.common.units import MiB
from repro.errors import OutOfMemoryError
from repro.storage.bus import DataBus
from repro.storage.disk import HDD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.table.commit import CommitFile, DataFileMeta
from repro.table.expr import Predicate
from repro.table.metacache import AcceleratedMetadataStore, FileMetadataStore
from repro.table.schema import Column, ColumnType, PartitionSpec, Schema
from repro.table.snapshot import SnapshotLog
from repro.table.table import Lakehouse

#: partition counts: the paper's 960..9600, scaled 10x down
PARTITION_COUNTS = [96, 192, 384, 768, 960]
#: files per partition (the paper averages ~500; scaled down)
FILES_PER_PARTITION = 50
QUERIES = 100


def _build_store(kind: str, pool: StoragePool, clock: SimClock):
    if kind == "file":
        return FileMetadataStore(pool, clock)
    return AcceleratedMetadataStore(
        KVEngine(f"meta-{id(pool)}"), pool, clock
    )


def _metadata_op_time(kind: str, partitions: int) -> float:
    """Total sim time of 100 query-planning metadata reads."""
    clock = SimClock()
    pool = StoragePool("meta", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(HDD_PROFILE, 6)
    store = _build_store(kind, pool, clock)
    log = SnapshotLog()
    table_path = "tables/hours"
    for partition in range(partitions):
        added = tuple(
            DataFileMeta(
                path=f"{table_path}/data/h{partition}/f{i}.col",
                partition=f"h{partition}",
                record_count=1000,
                size_bytes=1 * MiB,
                value_ranges={"start_time": (partition, partition + 1)},
            )
            for i in range(FILES_PER_PARTITION)
        )
        commit = CommitFile(
            commit_id=log.new_commit_id(),
            timestamp=float(partition),
            operation="insert",
            added=added,
        )
        snapshot = log.record(commit)
        store.record_commit(table_path, commit, snapshot)
    total = 0.0
    live_files = partitions * FILES_PER_PARTITION
    for _ in range(QUERIES):
        total += store.read_state_cost(table_path, partitions, live_files)
    return total


def test_fig15a_metadata_operations(benchmark) -> None:
    def sweep():
        out = []
        for partitions in PARTITION_COUNTS:
            out.append({
                "partitions": partitions,
                "files": partitions * FILES_PER_PARTITION,
                "file_s": _metadata_op_time("file", partitions),
                "accel_s": _metadata_op_time("accel", partitions),
            })
        return out

    results = run_once(benchmark, sweep)
    table = ResultTable(
        "Fig 15(a) - metadata operation time, 100 queries",
        ["partitions", "files", "file-based s", "accelerated s", "speedup"],
    )
    for entry in results:
        table.add_row(
            entry["partitions"], entry["files"], entry["file_s"],
            entry["accel_s"], entry["file_s"] / entry["accel_s"],
        )
    table.show()

    # file-based grows ~linearly with partitions...
    file_growth = results[-1]["file_s"] / results[0]["file_s"]
    partition_growth = PARTITION_COUNTS[-1] / PARTITION_COUNTS[0]
    assert file_growth > partition_growth * 0.6, (
        f"file-based should grow ~linearly: {file_growth:.1f}x time over "
        f"{partition_growth:.1f}x partitions"
    )
    # ...while the accelerated path "increases moderately": even at the
    # largest partition count it stays cheaper than the file-based path
    # at the SMALLEST count, and the end-to-end gap is orders of magnitude
    assert results[-1]["accel_s"] < results[0]["file_s"], (
        "accelerated at max partitions should beat file-based at min"
    )
    assert results[-1]["file_s"] > 100 * results[-1]["accel_s"], (
        "at the largest partition count the gap should be significant"
    )


def _query_time_vs_memory(kind: str, memory_mb: int) -> float | None:
    """One Fig 15(b) cell: query sim time, or None on OOM."""
    clock = SimClock()
    pool = StoragePool("data", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(HDD_PROFILE, 6)
    bus = DataBus(clock)
    store = _build_store(kind, pool, clock)
    lake = Lakehouse(pool, bus, clock, meta_store=store, row_group_size=500)
    schema = Schema([
        Column("hour", ColumnType.INT64),
        Column("value", ColumnType.INT64),
    ])
    table = lake.create_table("events", schema, PartitionSpec.by("hour"))
    # many small files: 40 inserts x 60 partitions = 2,400 manifests
    for batch in range(40):
        rows = [
            {"hour": hour, "value": batch * 100 + hour}
            for hour in range(60)
            for _ in range(2)
        ]
        table.insert(rows)
    try:
        from repro.table.table import QueryStats

        stats = QueryStats()
        table.select(
            Predicate("hour", "=", 30),
            memory_budget_bytes=memory_mb * MiB,
            stats=stats,
        )
        return stats.total_cost_s
    except OutOfMemoryError:
        return None


def test_fig15b_memory(benchmark) -> None:
    budgets_mb = [1, 2, 4, 8]

    def sweep():
        return [
            {
                "mb": mb,
                "file": _query_time_vs_memory("file", mb),
                "accel": _query_time_vs_memory("accel", mb),
            }
            for mb in budgets_mb
        ]

    results = run_once(benchmark, sweep)
    table = ResultTable(
        "Fig 15(b) - query time vs allocated compute memory "
        "(paper: GB; scaled to MB with file count)",
        ["memory", "file-based s", "accelerated s"],
    )
    for entry in results:
        table.add_row(
            f"{entry['mb']} MB",
            "OOM" if entry["file"] is None else entry["file"],
            "OOM" if entry["accel"] is None else entry["accel"],
        )
    table.show()

    assert results[0]["file"] is None, (
        "file-based metadata should OOM at the smallest allocation"
    )
    assert all(entry["accel"] is not None for entry in results), (
        "the accelerated path should run at every allocation"
    )
    survivors = [e["file"] for e in results if e["file"] is not None]
    assert survivors, "file-based should run at larger allocations"
    accel_large = [e["accel"] for e in results][-1]
    assert accel_large <= min(survivors) * 1.5, (
        "accelerated queries should be at least as fast as file-based"
    )
