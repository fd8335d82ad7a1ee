"""Unit tests for stream workers: produce/consume, quotas, caches."""

import pytest

from repro.common.clock import SimClock
from repro.common.units import GiB
from repro.errors import QuotaExceededError
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.replication import Replication
from repro.storage.scm import SCMCache
from repro.stream.object import StreamObject
from repro.stream.records import MessageRecord
from repro.stream.worker import StreamWorker


def build(scm=False, quota=None):
    clock = SimClock()
    pool = StoragePool("p", clock, policy=Replication(2))
    pool.add_disks(NVME_SSD_PROFILE, 3)
    plogs = PLogManager(pool, clock)
    cache = SCMCache(1 * GiB) if scm else None
    worker = StreamWorker("w0", DataBus(clock), clock, scm_cache=cache)
    obj = StreamObject("obj", plogs, clock)
    worker.attach_stream("t/0", obj, quota)
    return worker, obj, clock


def msgs(count, prefix=b"m"):
    return [
        MessageRecord(topic="t", key=str(i), value=prefix + str(i).encode())
        for i in range(count)
    ]


def test_produce_appends_to_object():
    worker, obj, _ = build()
    offset, cost = worker.produce("t/0", msgs(5))
    assert offset == 0
    assert obj.end_offset == 5
    assert worker.messages_in == 5


def test_consume_returns_produced_records():
    worker, _, _ = build()
    worker.produce("t/0", msgs(7))
    records, cost = worker.consume("t/0", 0)
    assert len(records) == 7
    assert worker.messages_out == 7


def test_consume_from_offset():
    worker, _, _ = build()
    worker.produce("t/0", msgs(10))
    records, _ = worker.consume("t/0", 6)
    assert [r.offset for r in records] == [6, 7, 8, 9]


def test_local_cache_makes_repeat_reads_free():
    worker, _, _ = build()
    worker.produce("t/0", msgs(5))
    _, first_cost = worker.consume("t/0", 0)
    records, repeat_cost = worker.consume("t/0", 0)
    assert repeat_cost == 0.0
    assert len(records) == 5


def test_produce_invalidates_read_cache():
    worker, _, _ = build()
    worker.produce("t/0", msgs(3))
    worker.consume("t/0", 0)
    worker.produce("t/0", msgs(2, prefix=b"new"))
    records, _ = worker.consume("t/0", 0)
    assert len(records) == 5


def test_drop_read_cache():
    worker, _, _ = build()
    worker.produce("t/0", msgs(3))
    worker.consume("t/0", 0)
    worker.drop_read_cache()
    _, cost = worker.consume("t/0", 0)
    assert cost > 0.0


def test_scm_cache_serves_rereads_cheaply():
    worker, _, _ = build(scm=True)
    worker.produce("t/0", msgs(5))
    worker.consume("t/0", 0)
    worker.drop_read_cache()
    records, cost = worker.consume("t/0", 0)
    assert len(records) == 5
    # SCM hit: microseconds, far below a storage read
    assert cost < 1e-3


def test_quota_enforced():
    worker, _, clock = build(quota=10)
    worker.produce("t/0", msgs(10))
    with pytest.raises(QuotaExceededError):
        worker.produce("t/0", msgs(5))
    clock.advance(1.0)  # refill
    worker.produce("t/0", msgs(5))


def test_detach_stream():
    worker, obj, _ = build()
    detached = worker.detach_stream("t/0")
    assert detached is obj
    assert worker.streams() == []


def test_heartbeat_reports_state():
    worker, _, _ = build()
    worker.produce("t/0", msgs(4))
    beat = worker.heartbeat()
    assert beat["worker"] == "w0"
    assert beat["healthy"] is True
    assert beat["streams"] == 1
    assert beat["messages_in"] == 4
