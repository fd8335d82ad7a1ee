"""Sharded scan + aggregation over a worker pool.

:func:`sharded_select` is the parallel twin of
:meth:`repro.table.table.TableObject.select`: it runs the same scan
plan, then partitions the surviving data files over workers by
``shard_of(file path)`` (:mod:`repro.parallel.partition`) and fans the
per-file decode/filter/aggregate work out to a
:class:`~repro.parallel.executor.ShardPool`.  Each worker runs inside a
**forked execution context** — its own counters, chunk cache, RNG and
clock — so nothing is shared hot; the driver then *reunites* the
per-shard pieces:

* ``AggregateState`` partials merge into the final state with
  ``counted=False`` (the single-process oracle only counts per-file
  merges, so merged counters stay value-identical);
* each shard's execution-context counters fold into the parent context
  with :meth:`~repro.common.context.ExecutionContext.merge`;
* row results reassemble in scan-plan order from per-file indices.

Results and merged counters are value-identical to the serial
``table.select`` run — the equivalence tests and the scale-out bench
assert exactly that.

Simulated time follows the shard assignment, not the wall clock: each
worker's read costs sum serially, the wave costs the slowest worker
(the fixed-assignment makespan — shard routing pins files to workers,
so there is no LPT rebalancing within a query), and the result transfer
is charged once on the driver.  At one worker this degenerates to the
serial model exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.clock import SimClock
from repro.common.context import CacheConfig, ExecutionContext, \
    current_context, use_context
from repro.common.stats import join_stats
from repro.parallel.executor import ShardPool
from repro.parallel.partition import WorkPartitioner
from repro.table.agg import AggregateState, aggregate_file, footer_answerable
from repro.table.chunkcache import default_chunk_cache
from repro.table.columnar import ColumnarFile
from repro.table.expr import Expression
from repro.table.join import ColumnSet, JoinResult, build_side, join_codes, \
    probe_codes
from repro.table.pushdown import AggregateSpec, result_size_bytes
from repro.table.table import QueryStats, TableObject, count_tier_lookups

__all__ = [
    "ShardTask", "ShardResult", "ShardedQueryResult", "sharded_select",
    "JoinShardTask", "JoinShardResult", "sharded_hash_join",
    "sharded_join_kernel",
]


@dataclass
class ShardTask:
    """One worker's slice of a query: its files plus the query shape.

    Everything here pickles (bytes payloads, frozen spec/expression
    dataclasses, scalars), so the same task runs under thread *and*
    process pools.
    """

    worker: int
    #: (position in scan-plan order, raw file payload)
    files: list[tuple[int, bytes]]
    specs: list[AggregateSpec] | None
    labels: list[str] | None
    predicate: Expression | None
    columns: list[str] | None
    seed: int
    clock_start: float
    chunk_capacity_bytes: int


@dataclass
class ShardResult:
    """What comes back from one shard: partials plus that shard's stats."""

    worker: int
    wall_s: float
    rows_scanned: int
    row_groups_skipped: int
    state: AggregateState | None
    rows_by_file: dict[int, list[dict[str, object]]] | None
    #: the worker's context, carrying only its counters back
    counters: ExecutionContext


@dataclass
class ShardedQueryResult:
    """A sharded query's rows plus the evidence of how it ran."""

    rows: list[dict[str, object]]
    stats: QueryStats
    num_workers: int
    mode: str
    #: wall seconds each shard task actually took (empty buckets omitted)
    shard_walls: list[float] = field(default_factory=list)
    #: files assigned per worker (including empty buckets)
    files_per_worker: list[int] = field(default_factory=list)


def _run_shard(task: ShardTask) -> ShardResult:
    """Execute one shard task inside a fresh execution context.

    Module-level (not a closure) so process pools can pickle it.  The
    context is built *here* rather than shipped: only the seed and the
    clock origin cross the pool boundary.
    """
    context = ExecutionContext(
        name=f"shard-{task.worker}",
        rng=random.Random(task.seed),
        clock=SimClock(start=task.clock_start),
        cache_config=CacheConfig(chunk_capacity_bytes=task.chunk_capacity_bytes),
    )
    started = time.perf_counter()
    rows_scanned = 0
    row_groups_skipped = 0
    with use_context(context):
        cache = default_chunk_cache(context)
        state: AggregateState | None = None
        rows_by_file: dict[int, list[dict[str, object]]] | None = None
        if task.specs is not None:
            state = AggregateState(task.specs, task.labels)
        else:
            rows_by_file = {}
        for position, payload in task.files:
            data_file = ColumnarFile.from_bytes(payload)
            if task.predicate is not None:
                row_groups_skipped += data_file.skipped_row_groups(
                    task.predicate
                )
            rows_scanned += data_file.num_rows
            if state is not None:
                state.merge(aggregate_file(
                    data_file, task.specs, state.labels, task.predicate,
                    cache,
                ))
            else:
                assert rows_by_file is not None
                rows_by_file[position] = data_file.scan(
                    task.predicate, task.columns, cache=cache
                )
    context.chunk_cache = context.cache_hierarchy = None  # counters only
    return ShardResult(
        worker=task.worker,
        wall_s=time.perf_counter() - started,
        rows_scanned=rows_scanned,
        row_groups_skipped=row_groups_skipped,
        state=state,
        rows_by_file=rows_by_file,
        counters=context,
    )


def sharded_select(
    table: TableObject,
    predicate: Expression | None = None,
    columns: list[str] | None = None,
    aggregate: AggregateSpec | list[AggregateSpec] | None = None,
    as_of: float | None = None,
    num_workers: int = 1,
    mode: str = "thread",
    pool: ShardPool | None = None,
    stats: QueryStats | None = None,
    context: ExecutionContext | None = None,
) -> ShardedQueryResult:
    """SELECT over ``table`` with shard-parallel execution.

    Returns a :class:`ShardedQueryResult` whose ``rows`` are
    value-identical to ``table.select(...)`` with the same arguments,
    and whose counter side effects (merged into ``context``, default
    the ambient context) match the serial run's.  ``pool`` reuses an
    existing :class:`ShardPool` across queries; otherwise one is built
    for this call (and closed, unless serial).
    """
    context = context if context is not None else current_context()
    stats = stats if stats is not None else QueryStats()
    specs: list[AggregateSpec] | None = None
    labels: list[str] | None = None
    if aggregate is not None:
        specs = (
            [aggregate] if isinstance(aggregate, AggregateSpec)
            else list(aggregate)
        )
        labels = AggregateState(specs).labels  # validates shared GROUP BY
    candidates = table.scan_plan(predicate, as_of=as_of, stats=stats)

    hierarchy = table.cache_hierarchy
    fold_tier_lookups = count_tier_lookups(stats, hierarchy)

    if specs is not None and footer_answerable(specs, predicate):
        # Metadata fast path: the driver answers every file from the
        # footer tier — the exact lookup sequence the serial path runs —
        # and nothing fans out, so per-tier counters (and the merged
        # snapshot) stay value-identical to ``table.select``.
        read_costs = []
        with use_context(context):
            final_state = AggregateState(specs, labels)
            for meta in candidates:
                stats.files_scanned += 1
                stats.bytes_scanned += meta.size_bytes
                footer, read_cost = hierarchy.load_footer(
                    table.pool, meta.path, now=table.clock.now
                )
                read_costs.append(read_cost)
                stats.rows_scanned += footer.num_rows
                partial = AggregateState(specs, labels)
                for rows_in_group, group_stats, nulls in \
                        footer.group_summaries():
                    partial.update_from_stats(
                        rows_in_group, group_stats, nulls, footer.schema
                    )
                final_state.merge(partial)
            context.aggregation.queries += 1
            output = final_state.rows()
        fold_tier_lookups()
        stats.data_cost_s += sum(read_costs)
        stats.rows_returned = len(output)
        stats.bytes_transferred = result_size_bytes(output)
        stats.data_cost_s += table.bus.transfer(stats.bytes_transferred)
        table.clock.advance(stats.data_cost_s)
        return ShardedQueryResult(
            rows=output,
            stats=stats,
            num_workers=num_workers,
            mode=pool.mode if pool is not None else mode,
            shard_walls=[],
            files_per_worker=[0] * num_workers,
        )

    # Fetch payloads on the driver (the pool is a live object graph the
    # workers can't hold) through the block tier, tracking per-file read
    # cost for sim charging.  The footer tier warms alongside — the same
    # two lookups per file the serial path performs.
    payloads: list[bytes] = []
    read_costs: list[float] = []
    for meta in candidates:
        payload, read_cost = hierarchy.load_payload(
            table.pool, meta.path, now=table.clock.now
        )
        hierarchy.footer_for(table.pool, meta.path, payload)
        payloads.append(payload)
        read_costs.append(read_cost)
        stats.files_scanned += 1
        stats.bytes_scanned += meta.size_bytes
    fold_tier_lookups()

    partitioner = WorkPartitioner(num_workers)
    buckets = partitioner.partition([meta.path for meta in candidates])
    tasks = [
        ShardTask(
            worker=worker,
            files=[(position, payloads[position]) for position in bucket],
            specs=specs,
            labels=labels,
            predicate=predicate,
            columns=columns,
            seed=context.rng.randrange(2 ** 63),
            clock_start=context.clock.now,
            chunk_capacity_bytes=context.cache_config.chunk_capacity_bytes,
        )
        for worker, bucket in enumerate(buckets)
        if bucket
    ]

    owned_pool = pool is None
    if pool is None:
        pool = ShardPool(num_workers, mode)
    try:
        results = pool.map(_run_shard, tasks)
    finally:
        if owned_pool:
            pool.close()

    # --- reunion: fold per-shard pieces back into one answer ---------------
    with use_context(context):
        final_state: AggregateState | None = (
            AggregateState(specs, labels) if specs is not None else None
        )
        rows: list[dict[str, object]] = []
        rows_by_file: dict[int, list[dict[str, object]]] = {}
        for result in results:
            stats.rows_scanned += result.rows_scanned
            stats.row_groups_skipped += result.row_groups_skipped
            if final_state is not None and result.state is not None:
                # uncounted: the serial oracle only counts per-file merges,
                # which already happened (and were counted) shard-side
                final_state.merge(result.state, counted=False)
            if result.rows_by_file is not None:
                rows_by_file.update(result.rows_by_file)
            context.merge(result.counters)
            # only the decoded-chunk tier runs shard-side; the block and
            # footer tiers are driver-only and already charged
            chunk = result.counters.caches.get("table.chunk_cache")
            if chunk is not None:
                stats.chunk_cache_hits += chunk.hits
                stats.chunk_cache_misses += chunk.misses
        if final_state is not None:
            context.aggregation.queries += 1
            output = final_state.rows()
        else:
            for position in range(len(candidates)):
                rows.extend(rows_by_file.get(position, []))
            output = rows

    # Sim time: each worker reads its assigned files serially; the wave
    # costs the slowest worker.  One worker degenerates to the serial sum.
    per_worker_read = [0.0] * num_workers
    for worker, bucket in enumerate(buckets):
        per_worker_read[worker] = sum(
            read_costs[position] for position in bucket
        )
    stats.data_cost_s += max(per_worker_read) if per_worker_read else 0.0
    stats.rows_returned = len(output)
    stats.bytes_transferred = result_size_bytes(output)
    stats.data_cost_s += table.bus.transfer(stats.bytes_transferred)
    table.clock.advance(stats.data_cost_s)

    return ShardedQueryResult(
        rows=output,
        stats=stats,
        num_workers=num_workers,
        mode=pool.mode,
        shard_walls=[result.wall_s for result in results],
        files_per_worker=[len(bucket) for bucket in buckets],
    )


@dataclass
class JoinShardTask:
    """One worker's contiguous slice of a join's probe side.

    Only dense ``int64`` code arrays cross the pool boundary — the
    shared code space and the sorted build side are computed once on the
    driver (building is inherently serial; probing embarrassingly
    parallel), so the task pickles cheaply under process pools too.
    """

    worker: int
    #: global probe position of this slice's first row
    start: int
    probe: np.ndarray
    sorted_build: np.ndarray
    build_order: np.ndarray
    how: str
    seed: int
    clock_start: float


@dataclass
class JoinShardResult:
    """One shard's match pairs (probe indices already globalized)."""

    worker: int
    wall_s: float
    probe_indices: np.ndarray
    build_indices: np.ndarray
    #: the worker's context, carrying only its counters back
    counters: ExecutionContext


def _run_join_shard(task: JoinShardTask) -> JoinShardResult:
    """Probe one slice inside a fresh execution context.

    Module-level so process pools can pickle it, like :func:`_run_shard`.
    """
    context = ExecutionContext(
        name=f"join-shard-{task.worker}",
        rng=random.Random(task.seed),
        clock=SimClock(start=task.clock_start),
    )
    started = time.perf_counter()
    with use_context(context):
        probe_indices, build_indices = probe_codes(
            task.sorted_build, task.build_order, task.probe, task.how
        )
        counters = join_stats()
        counters.probe_rows += int(len(task.probe))
        counters.matches_emitted += int(len(probe_indices))
    return JoinShardResult(
        worker=task.worker,
        wall_s=time.perf_counter() - started,
        probe_indices=(probe_indices + task.start).astype(np.intp),
        build_indices=build_indices,
        counters=context,
    )


def sharded_hash_join(
    left: ColumnSet,
    right: ColumnSet,
    left_on: list[str],
    right_on: list[str],
    how: str = "inner",
    num_workers: int = 1,
    mode: str = "thread",
    pool: ShardPool | None = None,
    context: ExecutionContext | None = None,
) -> JoinResult:
    """:func:`~repro.table.join.hash_join` with a sharded probe phase.

    The driver computes the shared code space and sorts the build side
    once; the probe side splits into ``num_workers`` **contiguous**
    slices, each probed in its own execution context.  Because slices
    are contiguous and ascending, concatenating shard outputs in worker
    order reproduces the serial kernel's probe-row-ascending output
    exactly — same :class:`JoinResult`, and the per-shard
    :class:`JoinStats` fold back additively into counters identical to
    the serial run's (``probe_rows`` sums over slices, ``build_rows``
    and ``joins_executed`` count once on the driver).
    """
    context = context if context is not None else current_context()
    with use_context(context):
        left_codes, right_codes = join_codes(left, right, left_on, right_on)
        sorted_build, build_order = build_side(right_codes)
        counters = join_stats()
        counters.joins_executed += 1
        counters.build_rows += right.num_rows
    bounds = np.linspace(0, left.num_rows, num_workers + 1).astype(int)
    tasks = [
        JoinShardTask(
            worker=worker,
            start=int(bounds[worker]),
            probe=left_codes[bounds[worker]:bounds[worker + 1]],
            sorted_build=sorted_build,
            build_order=build_order,
            how=how,
            seed=context.rng.randrange(2 ** 63),
            clock_start=context.clock.now,
        )
        for worker in range(num_workers)
        if bounds[worker + 1] > bounds[worker]
    ]
    owned_pool = pool is None
    if pool is None:
        pool = ShardPool(num_workers, mode)
    try:
        results = pool.map(_run_join_shard, tasks)
    finally:
        if owned_pool:
            pool.close()
    results = sorted(results, key=lambda result: result.worker)
    for result in results:
        context.merge(result.counters)
    if results:
        probe_indices = np.concatenate(
            [result.probe_indices for result in results]
        ).astype(np.intp)
        build_indices = np.concatenate(
            [result.build_indices for result in results]
        ).astype(np.intp)
    else:
        probe_indices = np.zeros(0, dtype=np.intp)
        build_indices = np.zeros(0, dtype=np.intp)
    return JoinResult(probe_indices, build_indices, how)


def sharded_join_kernel(num_workers: int, mode: str = "thread",
                        pool: ShardPool | None = None):
    """A drop-in ``join_kernel`` for :func:`repro.table.planner.
    execute_plan` that fans every probe across ``num_workers`` shards."""
    def kernel(left: ColumnSet, right: ColumnSet, left_on: list[str],
               right_on: list[str], how: str = "inner") -> JoinResult:
        return sharded_hash_join(
            left, right, left_on, right_on, how,
            num_workers=num_workers, mode=mode, pool=pool,
        )
    return kernel
