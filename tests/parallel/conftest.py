"""Builders for sharded-execution tests: one full stack per context.

Equivalence tests need *two* identical stacks — one scanned serially,
one through the sharded driver — each under its own execution context
so counter side effects can be compared context-to-context.  The
builder is deterministic: same seed, same inserted rows, same files.
"""

from __future__ import annotations

import random

import pytest

from repro.common.clock import SimClock
from repro.common.context import ExecutionContext, use_context
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.schema import Column, ColumnType, PartitionSpec, Schema
from repro.table.table import Lakehouse, TableObject

SCHEMA = Schema([
    Column("city", ColumnType.STRING),
    Column("amount", ColumnType.INT64),
    Column("score", ColumnType.FLOAT64, nullable=True),
])

CITIES = ["shenzhen", "beijing", "chengdu", "wuhan", "xian"]


def build_table(context: ExecutionContext, batches: int = 6,
                rows_per_batch: int = 400, seed: int = 7,
                partitioned: bool = False) -> TableObject:
    """A populated table living entirely inside ``context``.

    Values are integral (scores are whole floats) so SUM/AVG are exact
    and sharded results compare bit-for-bit against the serial oracle.

    Unpartitioned by default: a table partitioned by ``city`` writes
    constant-valued city chunks, and two partition files with equal row
    counts then share a content-addressed cache key — a serial shared
    cache dedups those across files while per-shard caches cannot, so
    hit/miss counts would differ legitimately (see
    ``test_partitioned_cache_dedup_caveat``).  Unpartitioned files mix
    cities randomly, making every chunk blob unique.
    """
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
        table = lake.create_table(
            "events", SCHEMA,
            PartitionSpec.by("city") if partitioned else PartitionSpec(),
        )
        rng = random.Random(seed)
        for _ in range(batches):
            table.insert([
                {
                    "city": rng.choice(CITIES),
                    "amount": rng.randrange(0, 1000),
                    "score": float(rng.randrange(0, 50)),
                }
                for _ in range(rows_per_batch)
            ])
    return table


@pytest.fixture
def table_builder():
    """The deterministic stack builder, as a fixture (no package import)."""
    return build_table
