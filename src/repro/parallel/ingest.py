"""Sharded ingest: parallel PLog group commit with makespan charging.

The paper's write path (Fig 4) distributes slices across 4096 logical
shards by DHT hash precisely so appends land in parallel on independent
PLog units.  The serial :meth:`~repro.storage.plog.PLogManager.append_batch_serial`
models the opposite: one monolithic EC encode and a placement loop whose
cost is the *sum* of per-extent write times, as if every extent queued
behind the previous one on a single device path.

:func:`sharded_append_batch` restores the paper's concurrency to the
cost model.  One group commit becomes per-shard-owner *write waves*:

1. **Reserve** — PLog addresses are reserved on the driver, in input
   order, through the same :meth:`~repro.storage.plog.PLogManager._reserve`
   the serial path uses, so both paths assign bit-identical addresses.
2. **Partition** — keys bucket by PLog shard ownership via
   :class:`~repro.parallel.partition.WorkPartitioner` (rendezvous-hashed
   :meth:`~repro.storage.dht.ShardMap.owner_index_of_key`), the same
   placement scheme that buckets scan and conversion work.
3. **Encode + place** — each partition runs in a forked
   :class:`~repro.common.context.ExecutionContext` on a
   :class:`~repro.parallel.executor.ShardPool` worker: the Reed-Solomon
   ``fragment_batch`` runs concurrently (NumPy releases the GIL) with
   ``counted=False``, then placement goes through one
   :meth:`~repro.storage.pool.StoragePool.store_batch` per partition
   under a lock — pool/disk metadata is shared mutable state, and disks
   already model fragment-level parallelism internally.
4. **Reconcile** — the driver merges the forked counters, charges the
   encode counters once (``count_fragment_batch``, matching the serial
   oracle's single counted encode), indexes the acked keys in input
   order through the shared ``_index_acked`` bookkeeping, and reports
   the **LPT makespan** of per-partition costs
   (:func:`repro.common.clock.lpt_makespan`) as the wave's simulated
   seconds instead of their sum.

Cost-model note: like the serial path, this function does *not* advance
any clock — sim time propagates by return value, and the caller advances
its clock by the wave's makespan.

Acked-write semantics under tears: each partition is its own
``store_batch``, so a :class:`~repro.errors.TornWriteError` in partition
*k* leaves exactly *k*'s durable prefix acked while other partitions
commit (or tear) independently.  The global acked set is the union of
per-partition durable prefixes — never a cross-partition false ack —
and the raised ``TornWriteError`` names acked and lost keys in input
order, exactly as the serial path does for its single prefix.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.clock import lpt_makespan
from repro.common.context import ExecutionContext, current_context, use_context
from repro.errors import TornWriteError
from repro.parallel.executor import ShardPool
from repro.parallel.partition import WorkPartitioner

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.storage.plog import PLogAddress, PLogManager

__all__ = ["IngestWave", "sharded_append_batch"]

#: Partitioners are cached per worker count: building one hashes the
#: whole 4096-shard namespace, which would otherwise dominate small
#: group commits.
_PARTITIONERS: dict[int, WorkPartitioner] = {}
_PARTITIONERS_LOCK = threading.Lock()


def _partitioner(num_workers: int) -> WorkPartitioner:
    with _PARTITIONERS_LOCK:
        partitioner = _PARTITIONERS.get(num_workers)
        if partitioner is None:
            partitioner = _PARTITIONERS[num_workers] = WorkPartitioner(
                num_workers
            )
        return partitioner


@dataclass
class IngestWave:
    """Outcome of one sharded group commit."""

    #: PLog addresses in input order (bit-identical to the serial oracle)
    addresses: list["PLogAddress"]
    #: keys acknowledged (all of them on a clean commit), input order
    acked_keys: list[str]
    #: sim seconds of the wave: LPT makespan of per-partition costs
    sim_elapsed_s: float
    #: back-to-back sum of per-extent costs (the serial oracle's charge)
    sim_serial_s: float
    partition_costs: list[float] = field(default_factory=list)
    partition_sizes: list[int] = field(default_factory=list)
    partition_walls: list[float] = field(default_factory=list)
    workers: int = 1

    @property
    def speedup(self) -> float:
        """Serial-over-makespan sim-time ratio (>= 1.0)."""
        if self.sim_elapsed_s <= 0.0:
            return 1.0
        return self.sim_serial_s / self.sim_elapsed_s


def sharded_append_batch(
    plogs: "PLogManager",
    items: list[tuple[str, bytes]],
    num_workers: int,
    mode: str = "thread",
    pool: ShardPool | None = None,
    context: ExecutionContext | None = None,
) -> IngestWave:
    """Group-commit ``items`` through per-shard-owner write waves.

    Semantically identical to
    :meth:`~repro.storage.plog.PLogManager.append_batch_serial` — same
    addresses, same index contents, same acked keys, same merged
    counters — but the simulated cost is the LPT makespan of the
    per-partition waves over ``num_workers`` instead of the serial sum.

    On a tear anywhere in the group, indexes the union of per-partition
    durable prefixes and raises :class:`TornWriteError` naming acked and
    lost keys (input order), mirroring the serial contract.  ``mode``
    follows :class:`~repro.parallel.executor.ShardPool` except that
    ``process`` is rejected: partitions mutate the live pool/PLog object
    graph in place.
    """
    if mode == "process":
        raise ValueError(
            "sharded ingest cannot use process pools: partitions mutate "
            "the live storage pool and PLog index in place"
        )
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    context = context if context is not None else current_context()
    placements = plogs._reserve(items)
    buckets = _partitioner(num_workers).partition([key for key, _ in items])
    work = [positions for positions in buckets if positions]
    forks = [context.fork(f"ingest-{index}") for index in range(len(work))]
    storage = plogs.pool
    place_lock = threading.Lock()

    def _run(index: int) -> tuple[float, int, float]:
        """One partition's write wave: encode, then place under the lock.

        Returns (sim cost, durable count, wall seconds).  A torn
        partition reports its durable prefix and no cost instead of
        raising — the driver reconciles the global acked set and raises
        once, so a torn wave's makespan is never used.
        """
        positions = work[index]
        part = [placements[position] for position in positions]
        batch = [(address.extent_id(), payload)
                 for _, payload, address in part]
        started = time.perf_counter()
        with use_context(forks[index]):
            fragments = storage.policy.fragment_batch(
                [payload for _, payload in batch], counted=False
            )
            with place_lock:
                try:
                    cost = storage.store_batch(batch, fragments_per=fragments)
                    durable_count = len(batch)
                except TornWriteError as exc:
                    cost = 0.0
                    durable_count = len(exc.durable)
        return cost, durable_count, time.perf_counter() - started

    owned_pool = pool is None
    if pool is None:
        pool = ShardPool(min(num_workers, len(work)) or 1, mode)
    try:
        outcomes = pool.map(_run, range(len(work)))
    finally:
        if owned_pool:
            pool.close()

    for fork in forks:
        context.merge(fork)
    # one counted encode for the whole group, like the serial oracle
    storage.policy.count_fragment_batch(len(items))

    costs = [cost for cost, _, _ in outcomes]
    makespan = lpt_makespan(costs, num_workers)
    acked_positions = sorted(
        position
        for positions, (_, durable_count, _) in zip(work, outcomes)
        if durable_count
        for position in positions[:durable_count]
    )
    acked = [placements[position] for position in acked_positions]
    plogs._index_acked(acked)

    torn = any(
        durable_count < len(positions)
        for positions, (_, durable_count, _) in zip(work, outcomes)
    )
    if torn:
        acked_set = set(acked_positions)
        raise TornWriteError(
            f"PLog sharded group commit torn: {len(acked)} of "
            f"{len(items)} appends durable",
            durable=[key for key, _, __ in acked],
            lost=[key for position, (key, _) in enumerate(items)
                  if position not in acked_set],
        )
    return IngestWave(
        addresses=[address for *_, address in placements],
        acked_keys=[key for key, _, __ in placements],
        sim_elapsed_s=makespan,
        sim_serial_s=sum(costs),
        partition_costs=costs,
        partition_sizes=[len(positions) for positions in work],
        partition_walls=[wall for _, _, wall in outcomes],
        workers=num_workers,
    )
