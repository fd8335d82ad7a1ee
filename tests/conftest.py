"""Shared fixtures: clocks, pools, services, lakehouses on small hardware."""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.storage.bus import DataBus
from repro.storage.disk import HDD_PROFILE, NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.storage.replication import Replication
from repro.stream.service import MessageStreamingService
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.table import Lakehouse


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def ec_pool(clock: SimClock) -> StoragePool:
    """An SSD pool with RS(4+2) erasure coding."""
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    return pool


@pytest.fixture
def replicated_pool(clock: SimClock) -> StoragePool:
    """An HDD pool with 3x replication."""
    pool = StoragePool("hdd", clock, policy=Replication(3))
    pool.add_disks(HDD_PROFILE, 4)
    return pool


@pytest.fixture
def bus(clock: SimClock) -> DataBus:
    return DataBus(clock)


@pytest.fixture
def plogs(ec_pool: StoragePool, clock: SimClock) -> PLogManager:
    return PLogManager(ec_pool, clock)


@pytest.fixture
def service(plogs: PLogManager, bus: DataBus, clock: SimClock,
            replicated_pool: StoragePool) -> MessageStreamingService:
    return MessageStreamingService(
        plogs, bus, clock, num_workers=3, archive_pool=replicated_pool
    )


@pytest.fixture
def lakehouse(ec_pool: StoragePool, bus: DataBus,
              clock: SimClock) -> Lakehouse:
    return Lakehouse(
        ec_pool, bus, clock,
        meta_store=AcceleratedMetadataStore(
            KVEngine("meta"), ec_pool, clock
        ),
    )
