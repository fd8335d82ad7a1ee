"""Join stack: vectorized hash join, cost-based planner, result cache.

Four measurements over 100k-row TPC-H inputs (lineitem ⋈ orders
[⋈ supplier]), all landing in ``BENCH_join.json``:

* **kernel vs oracle** — ``hash_join`` on dictionary codes against the
  nested-loop ``join_rows`` oracle.  The oracle is O(n*m), so it is
  timed on a slice (where the kernel is also asserted row-identical)
  and extrapolated linearly in compared pairs to the full input; both
  the slice-measured and extrapolated speedups are recorded.
* **planner** — a three-way join planned with SPN cardinalities: the
  chosen order's modelled cost must beat the worst enumerated order.
* **result cache** — a workload of random aggregate joins run cold
  then warm; the warm pass must finish with zero cache-tier lookups
  (no chunk decodes) and zero storage-pool extent reads.
* **sharded reunion** — the same query run through
  ``sharded_join_kernel`` at 1/2/4 workers must return rows identical
  to the serial kernel.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.bench import ResultTable
from repro.common.clock import SimClock
from repro.common.context import ExecutionContext, current_context, use_context
from repro.common.stats import join_stats
from repro.parallel import sharded_join_kernel
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.table.expr import Predicate
from repro.table.join import ColumnSet, hash_join, join_rows
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.planner import (
    JoinCondition,
    JoinQuery,
    TableRef,
    plan_join,
)
from repro.table.schema import PartitionSpec
from repro.table.sql import execute_join_select, parse_select, query
from repro.table.table import Lakehouse
from repro.workloads.tpch import (
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    SUPPLIER_SCHEMA,
    TPCHGenerator,
    generate_join_workload,
)

NUM_LINEITEM = 100_000  # orders = 25,000; supplier = 10,000
ORACLE_LEFT = 800       # nested-loop slice: 800 x 2,000 = 1.6M pairs
ORACLE_RIGHT = 2_000
WORKLOAD_QUERIES = 8
REPEATS = 3
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_join.json"

PLAN_QUERY = JoinQuery(
    tables=(TableRef("lineitem", "l"), TableRef("orders", "o"),
            TableRef("supplier", "s")),
    conditions=(JoinCondition("l", "l_orderkey", "o", "o_orderkey"),
                JoinCondition("l", "l_suppkey", "s", "s_suppkey")),
    predicates=(("o", Predicate("o_totalprice", ">=", 450_000.0)),),
)

SHARD_SQL = (
    "SELECT o.o_orderpriority, COUNT(*) AS n, "
    "SUM(l.l_extendedprice) AS revenue "
    "FROM lineitem l "
    "JOIN orders o ON l.l_orderkey = o.o_orderkey "
    "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
    "WHERE l.l_quantity < 12 "
    "GROUP BY o.o_orderpriority ORDER BY n DESC"
)


def _best_of(repeats: int, fn) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _oracle_pairs(left_rows, right_rows, how):
    left_pos = {id(row): index for index, row in enumerate(left_rows)}
    right_pos = {id(row): index for index, row in enumerate(right_rows)}
    return [
        (left_pos[id(left)], None if right is None else right_pos[id(right)])
        for left, right in join_rows(
            left_rows, right_rows, ["l_orderkey"], ["o_orderkey"], how
        )
    ]


def _kernel_pairs(left: ColumnSet, right: ColumnSet, how):
    result = hash_join(left, right, ["l_orderkey"], ["o_orderkey"], how)
    return [
        (int(probe), None if build < 0 else int(build))
        for probe, build in zip(result.left_indices, result.right_indices)
    ]


def _build_lakehouse(context, lineitem_rows, orders_rows, supplier_rows,
                     batch: int = 10_000) -> Lakehouse:
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    lake = Lakehouse(
        pool, DataBus(clock), clock,
        meta_store=AcceleratedMetadataStore(
            KVEngine("meta"), pool, clock
        ),
        context=context,
    )
    for name, schema, rows in (
        ("lineitem", LINEITEM_SCHEMA, lineitem_rows),
        ("orders", ORDERS_SCHEMA, orders_rows),
        ("supplier", SUPPLIER_SCHEMA, supplier_rows),
    ):
        table = lake.create_table(name, schema, PartitionSpec())
        for start in range(0, len(rows), batch):
            table.insert(rows[start:start + batch])
    return lake


def _tier_lookups(lakehouse: Lakehouse) -> int:
    hierarchy = lakehouse.cache_hierarchy
    chunks = current_context().cache_stats("table.chunk_cache")
    return (
        hierarchy.blocks.stats.hits + hierarchy.blocks.stats.misses
        + hierarchy.footers.stats.hits + hierarchy.footers.stats.misses
        + chunks.hits + chunks.misses
    )


def run_join_bench(num_lineitem: int = NUM_LINEITEM,
                   oracle_left: int = ORACLE_LEFT,
                   oracle_right: int = ORACLE_RIGHT,
                   result_path: Path | None = RESULT_PATH) -> dict:
    generator = TPCHGenerator(rows_per_sf=num_lineitem)
    lineitem_rows = generator.lineitem()
    orders_rows = generator.orders()
    supplier_rows = generator.supplier()

    # --- kernel vs nested-loop oracle -------------------------------------
    left = ColumnSet.from_rows(LINEITEM_SCHEMA, lineitem_rows)
    right = ColumnSet.from_rows(ORDERS_SCHEMA, orders_rows)
    kernel_s, kernel_result = _best_of(REPEATS, lambda: hash_join(
        left, right, ["l_orderkey"], ["o_orderkey"], "inner"
    ))
    full_pairs = len(lineitem_rows) * len(orders_rows)

    sub_left_rows = lineitem_rows[:oracle_left]
    sub_right_rows = orders_rows[:oracle_right]
    sub_left = ColumnSet.from_rows(LINEITEM_SCHEMA, sub_left_rows)
    sub_right = ColumnSet.from_rows(ORDERS_SCHEMA, sub_right_rows)
    oracle_start = time.perf_counter()
    oracle_inner = _oracle_pairs(sub_left_rows, sub_right_rows, "inner")
    oracle_s = time.perf_counter() - oracle_start
    slice_kernel_s, slice_inner = _best_of(REPEATS, lambda: _kernel_pairs(
        sub_left, sub_right, "inner"
    ))
    assert slice_inner == oracle_inner
    assert _kernel_pairs(sub_left, sub_right, "left") == _oracle_pairs(
        sub_left_rows, sub_right_rows, "left"
    )
    slice_pairs = len(sub_left_rows) * len(sub_right_rows)
    oracle_full_est_s = oracle_s * full_pairs / slice_pairs
    speedup_slice = oracle_s / slice_kernel_s
    speedup_full = oracle_full_est_s / kernel_s

    # --- planner: chosen order vs worst enumerated ------------------------
    context = ExecutionContext(name="bench-join")
    with use_context(context):
        lake = _build_lakehouse(
            context, lineitem_rows, orders_rows, supplier_rows
        )
        plan = plan_join(lake, PLAN_QUERY)
        assert plan.cost_s < plan.worst_cost_s

        # --- result cache: cold vs warm workload pass ---------------------
        workload = generate_join_workload(WORKLOAD_QUERIES, seed=3)
        cold_start = time.perf_counter()
        cold_rows = [query(lake, sql) for sql in workload]
        cold_s = time.perf_counter() - cold_start
        lookups_before = _tier_lookups(lake)
        extents_before = lake.table("lineitem").pool.stats.extents_read
        warm_start = time.perf_counter()
        warm_rows = [query(lake, sql) for sql in workload]
        warm_s = time.perf_counter() - warm_start
        assert warm_rows == cold_rows
        assert _tier_lookups(lake) == lookups_before
        assert lake.table("lineitem").pool.stats.extents_read == extents_before
        counters = join_stats().snapshot()

        # --- sharded probe fan-out must reunite to the serial rows --------
        statement = parse_select(SHARD_SQL)
        serial_s, serial_rows = _best_of(1, lambda: execute_join_select(
            statement, lake
        ))
        shard_points = []
        for workers in (1, 2, 4):
            wall_s, rows = _best_of(1, lambda: execute_join_select(
                statement, lake, join_kernel=sharded_join_kernel(workers)
            ))
            assert rows == serial_rows
            shard_points.append({"workers": workers, "wall_s": wall_s})

    results = {
        "num_lineitem": len(lineitem_rows),
        "num_orders": len(orders_rows),
        "num_supplier": len(supplier_rows),
        "kernel_inner_rows": kernel_result.num_rows,
        "kernel_s": kernel_s,
        "kernel_rows_per_s": len(lineitem_rows) / kernel_s,
        "oracle_slice": {"left": len(sub_left_rows),
                         "right": len(sub_right_rows),
                         "wall_s": oracle_s},
        "oracle_full_est_s": oracle_full_est_s,
        "speedup_slice_measured": speedup_slice,
        "speedup_full_extrapolated": speedup_full,
        "plan": {
            "order": list(plan.order),
            "cost_s": plan.cost_s,
            "worst_cost_s": plan.worst_cost_s,
            "alternatives": len(plan.alternatives),
            "scan_order": list(plan.scan_order),
        },
        "workload_queries": len(workload),
        "workload_cold_s": cold_s,
        "workload_warm_s": warm_s,
        "workload_warm_speedup": cold_s / warm_s,
        "result_cache": {
            "hits": counters["result_cache_hits"],
            "misses": counters["result_cache_misses"],
        },
        "sharded": {"serial_wall_s": serial_s, "points": shard_points},
        "join_stats": counters,
    }
    if result_path is not None:
        result_path.write_text(json.dumps(results, indent=2) + "\n")

    table = ResultTable(
        f"hash join: {len(lineitem_rows):,} x {len(orders_rows):,} rows "
        f"(oracle timed on {len(sub_left_rows)}x{len(sub_right_rows)} slice)",
        ["measurement", "value", "speedup"],
    )
    table.add_row("nested-loop oracle (extrapolated)",
                  f"{oracle_full_est_s:,.0f} s", "1.0x")
    table.add_row("vectorized kernel", f"{kernel_s * 1e3:,.1f} ms",
                  f"{speedup_full:,.0f}x")
    table.add_row("slice-measured", f"{oracle_s * 1e3:,.0f} ms oracle",
                  f"{speedup_slice:,.0f}x")
    table.add_row("plan cost (chosen vs worst)",
                  f"{plan.cost_s:.4f} s vs {plan.worst_cost_s:.4f} s",
                  f"{plan.worst_cost_s / plan.cost_s:.1f}x")
    table.add_row("workload warm vs cold",
                  f"{warm_s * 1e3:,.1f} ms vs {cold_s * 1e3:,.0f} ms",
                  f"{cold_s / warm_s:,.0f}x")
    table.show()
    print(f"join order: {' -> '.join(plan.order)}; "
          f"result cache {counters['result_cache_hits']} hits / "
          f"{counters['result_cache_misses']} misses; "
          f"sharded identical at {[p['workers'] for p in shard_points]} "
          "workers")
    return results


def test_join_bench(benchmark) -> None:
    from conftest import run_once

    results = run_once(benchmark, run_join_bench)
    assert results["speedup_slice_measured"] >= 10.0
    assert results["speedup_full_extrapolated"] >= 10.0
    assert results["plan"]["cost_s"] < results["plan"]["worst_cost_s"]


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_join_bench(
        num_lineitem=8_000 if smoke else NUM_LINEITEM,
        oracle_left=300 if smoke else ORACLE_LEFT,
        oracle_right=500 if smoke else ORACLE_RIGHT,
        result_path=None if smoke else RESULT_PATH,
    )
    floor = 3.0 if smoke else 10.0
    if outcome["speedup_slice_measured"] < floor:
        raise SystemExit(
            f"join kernel too slow: {outcome['speedup_slice_measured']:.1f}x"
        )
