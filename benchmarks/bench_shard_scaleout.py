"""Shard scale-out: one query fanned over 1/2/4/8 workers.

The sharded data plane (:mod:`repro.parallel`) partitions a scan's
surviving data files over workers by the DHT shard namespace, runs each
shard under a forked execution context, and reunites per-shard
aggregate partials into the serial answer.  This bench drives a
≥10M-row GROUP BY COUNT/SUM/AVG through that path at increasing worker
counts and records three things per point:

* **measured per-shard wall cost** — every shard task's compute is
  timed individually (tasks run back-to-back in serial mode, so each
  timing is pure single-shard work, not GIL/scheduler interleaving);
* **scheduled wall** — the LPT makespan of those per-shard costs over
  the worker count: the wave's wall time on a machine with that many
  cores, and exactly the model the executor charges to sim time.  The
  headline ``speedup_scheduled`` comes from this metric, with
  ``cores_available`` recorded so a 1-core CI box is not misread as
  real 8-way hardware;
* **raw concurrent wall** — what a thread pool actually achieves on
  *this* machine's cores, as the honesty check.

Every sharded run must return rows identical to the serial
``table.select`` oracle with matching scan counters (integral values
keep SUM/AVG exact) — a scale-out number for a wrong answer is
worthless.  Results land in ``BENCH_shard.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.bench import ResultTable
from repro.common.clock import SimClock, lpt_makespan
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

NUM_FILES = 1_280
ROWS_PER_FILE = 8_192  # 1280 x 8192 = 10,485,760 rows
WORKER_COUNTS = [1, 2, 4, 8]
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_shard.json"

SCHEMA = Schema([
    Column("id", ColumnType.INT64),
    Column("province", ColumnType.STRING),
    Column("bytes_down", ColumnType.FLOAT64, nullable=True),
    Column("start_time", ColumnType.TIMESTAMP),
])

SPECS = [
    AggregateSpec("COUNT", group_by=("province",)),
    AggregateSpec("SUM", "bytes_down", group_by=("province",)),
    AggregateSpec("AVG", "bytes_down", group_by=("province",)),
]

#: matches every row, so the full data path runs (no footer shortcut)
PREDICATE = Predicate("id", ">=", 0)

COUNTERS = (
    "files_total", "files_scanned", "files_skipped", "rows_scanned",
    "rows_returned", "bytes_scanned", "bytes_transferred",
)


def _build_table(context: ExecutionContext, num_files: int,
                 rows_per_file: int):
    """An unpartitioned table of ``num_files`` single-commit data files.

    Unpartitioned on purpose: partition files carry constant-valued
    partition-column chunks whose content-addressed cache keys collide
    across files, which a shared serial cache dedups but per-shard
    caches cannot — identical counters require collision-free chunks.
    Values are integral so SUM/AVG merge exactly in any grouping.
    """
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
                "province": f"province_{(row_id * 2_654_435_761) % 16:02d}",
                "bytes_down": (
                    None if row_id % 50 == 0 else float(row_id % 4096)
                ),
                "start_time": 1_656_806_400 + row_id,
            })
            row_id += 1
        table.insert(rows)
    return table


def run_shard_bench(num_files: int = NUM_FILES,
                    rows_per_file: int = ROWS_PER_FILE,
                    worker_counts: list[int] | None = None,
                    result_path: Path | None = RESULT_PATH) -> dict:
    worker_counts = worker_counts or WORKER_COUNTS
    num_rows = num_files * rows_per_file
    context = ExecutionContext(name="bench-shard")
    with use_context(context):
        table = _build_table(context, num_files, rows_per_file)

        # Every run (oracle and each width) starts cold: the block and
        # footer tiers otherwise serve every post-oracle run for free —
        # zero pool reads, zero sim read cost — and a sim "speedup"
        # between two zero-cost runs is meaningless (0/0).  Cold runs
        # charge the same per-file read costs at every width, so the
        # sim ratio is pure write-wave scheduler math.
        def _cold() -> None:
            table.cache_hierarchy.clear()
            context.chunk_cache = None

        # serial oracle: rows, counters and wall time to beat
        oracle_stats = QueryStats()
        _cold()
        started = time.perf_counter()
        oracle_rows = table.select(
            predicate=PREDICATE, aggregate=SPECS, stats=oracle_stats
        )
        serial_wall_s = time.perf_counter() - started

        points = []
        for workers in worker_counts:
            stats = QueryStats()
            _cold()
            started = time.perf_counter()
            result = sharded_select(
                table, predicate=PREDICATE, aggregate=SPECS,
                num_workers=workers, mode="serial", stats=stats,
                context=context,
            )
            raw_serialized_s = time.perf_counter() - started
            assert result.rows == oracle_rows, (
                f"{workers}-worker result diverged from the serial oracle"
            )
            for counter in COUNTERS:
                assert getattr(stats, counter) == getattr(
                    oracle_stats, counter
                ), f"{counter} diverged at {workers} workers"
            lookups = stats.chunk_cache_hits + stats.chunk_cache_misses
            oracle_lookups = (
                oracle_stats.chunk_cache_hits
                + oracle_stats.chunk_cache_misses
            )
            assert lookups == oracle_lookups
            scheduled = lpt_makespan(result.shard_walls, workers)
            points.append({
                "workers": workers,
                "wall_scheduled_s": scheduled,
                "wall_serialized_s": raw_serialized_s,
                "sim_data_cost_s": stats.data_cost_s,
                "files_per_worker": result.files_per_worker,
                "shard_walls_s": [
                    round(wall, 6) for wall in result.shard_walls
                ],
            })

        # honesty check: what a thread pool achieves on THIS machine
        _cold()
        started = time.perf_counter()
        threaded = sharded_select(
            table, predicate=PREDICATE, aggregate=SPECS,
            num_workers=worker_counts[-1], mode="thread", context=context,
        )
        thread_raw_s = time.perf_counter() - started
        assert threaded.rows == oracle_rows

    base = points[0]
    top = points[-1]
    results = {
        "num_rows": num_rows,
        "num_files": num_files,
        "rows_per_file": rows_per_file,
        "num_groups": len(oracle_rows),
        "cores_available": os.cpu_count(),
        "serial_select_wall_s": serial_wall_s,
        "points": points,
        "speedup_scheduled": (
            base["wall_scheduled_s"] / top["wall_scheduled_s"]
        ),
        "speedup_sim": base["sim_data_cost_s"] / top["sim_data_cost_s"],
        "thread_pool_workers": worker_counts[-1],
        "thread_pool_raw_wall_s": thread_raw_s,
        "results_identical_to_serial": True,
    }
    if result_path is not None:
        result_path.write_text(json.dumps(results, indent=2) + "\n")

    table_out = ResultTable(
        f"shard scale-out: {num_rows:,} rows, {num_files} files, GROUP BY "
        f"COUNT/SUM/AVG ({results['cores_available']} core(s) available)",
        ["workers", "scheduled wall", "sim data cost", "speedup"],
    )
    for point in points:
        table_out.add_row(
            str(point["workers"]),
            f"{point['wall_scheduled_s'] * 1e3:,.1f} ms",
            f"{point['sim_data_cost_s'] * 1e3:,.3f} ms",
            f"{base['wall_scheduled_s'] / point['wall_scheduled_s']:.2f}x",
        )
    table_out.show()
    print(
        f"thread-pool raw wall at {results['thread_pool_workers']} workers: "
        f"{thread_raw_s * 1e3:,.1f} ms on "
        f"{results['cores_available']} core(s); "
        f"scheduled speedup {results['speedup_scheduled']:.2f}x, "
        f"sim speedup {results['speedup_sim']:.2f}x"
    )
    return results


def test_shard_scaleout(benchmark) -> None:
    from conftest import run_once

    results = run_once(benchmark, run_shard_bench)
    assert results["results_identical_to_serial"]
    assert results["speedup_scheduled"] >= 3.0
    assert results["speedup_sim"] >= 3.0


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_shard_bench(
        num_files=16 if smoke else NUM_FILES,
        rows_per_file=512 if smoke else ROWS_PER_FILE,
        worker_counts=[1, 2] if smoke else None,
        result_path=None if smoke else RESULT_PATH,
    )
    floor = 1.2 if smoke else 3.0
    if outcome["speedup_scheduled"] < floor:
        raise SystemExit(
            f"shard scale-out too weak: "
            f"{outcome['speedup_scheduled']:.2f}x < {floor}x"
        )
