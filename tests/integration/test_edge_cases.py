"""Edge-case and robustness integration tests."""

import json

import pytest

from repro import build_streamlake
from repro.common.units import MiB
from repro.errors import CapacityError, QuotaExceededError
from repro.storage.disk import Disk, DiskProfile
from repro.storage.pool import StoragePool
from repro.storage.replication import Replication
from repro.stream.config import ConvertToTableConfig, TopicConfig
from repro.stream.producer import Producer
from repro.table.conversion import StreamTableConverter
from repro.table.pushdown import AggregateSpec
from repro.table.schema import Schema


def test_pool_capacity_exhaustion_is_clean():
    """Filling tiny disks raises CapacityError, never corrupts state."""
    from repro.common.clock import SimClock

    clock = SimClock()
    tiny = DiskProfile("tiny", capacity_bytes=4096, seek_latency_s=1e-6,
                       read_bandwidth_bps=1e9, write_bandwidth_bps=1e9)
    pool = StoragePool("small", clock, policy=Replication(2))
    for index in range(2):
        pool.add_disk(Disk(f"d{index}", tiny))
    pool.store("fits", b"x" * 1000)
    with pytest.raises(CapacityError):
        pool.store("too-big", b"x" * 5000)
    # the failed store must not have leaked partial fragments
    assert pool.fetch("fits")[0] == b"x" * 1000
    assert not pool.has_extent("too-big")


def test_quota_rejection_does_not_corrupt_stream():
    lake = build_streamlake()
    lake.streaming.create_topic("t", TopicConfig(stream_num=1,
                                                 quota_msgs_per_s=10))
    from repro.stream.records import MessageRecord

    lake.streaming.deliver("t/0", [MessageRecord("t", "k", b"1")] * 10)
    with pytest.raises(QuotaExceededError):
        lake.streaming.deliver("t/0", [MessageRecord("t", "k", b"2")] * 5)
    lake.clock.advance(1.0)
    lake.streaming.deliver("t/0", [MessageRecord("t", "k", b"3")] * 5)
    records, _ = lake.streaming.fetch("t/0", 0)
    assert len(records) == 15  # the rejected batch never landed


def test_conversion_is_idempotent_across_repeated_forces():
    lake = build_streamlake()
    schema_dict = {"v": "int64"}
    lake.streaming.create_topic("t", TopicConfig(
        stream_num=1,
        convert_2_table=ConvertToTableConfig(
            enabled=True, table_schema=schema_dict,
            table_path="tables/t", split_offset=10**9,
        ),
    ))
    table = lake.lakehouse.create_table(
        "t", Schema.from_dict(schema_dict), path="tables/t"
    )
    converter = StreamTableConverter(lake.streaming, "t", table, lake.clock)
    producer = Producer(lake.streaming, batch_size=1)
    for index in range(10):
        producer.send("t", json.dumps({"v": index}).encode())
    for _ in range(4):
        converter.run_cycle(force=True)
    assert table.select(aggregate=AggregateSpec("COUNT")) == [{"COUNT": 10}]


def test_huge_single_message_spans_buffers():
    lake = build_streamlake()
    lake.streaming.create_topic("t", TopicConfig(stream_num=1))
    big = b"B" * (2 * MiB)
    from repro.stream.records import MessageRecord

    lake.streaming.deliver("t/0", [MessageRecord("t", "k", big)])
    lake.streaming.flush_all()
    from repro.stream.object import ReadControl

    records, _ = lake.streaming.fetch(
        "t/0", 0, ReadControl(max_bytes=4 * MiB)
    )
    assert records[0].value == big


def test_many_topics_share_the_substrate():
    lake = build_streamlake()
    from repro.stream.records import MessageRecord

    for index in range(20):
        lake.streaming.create_topic(f"topic-{index}",
                                    TopicConfig(stream_num=2))
        lake.streaming.deliver(
            f"topic-{index}/0",
            [MessageRecord(f"topic-{index}", "k", f"m{index}".encode())],
        )
    for index in range(20):
        records, _ = lake.streaming.fetch(f"topic-{index}/0", 0)
        assert records[0].value == f"m{index}".encode()
    assert len(lake.streaming.dispatcher.topics()) == 20


def test_empty_table_queries():
    lake = build_streamlake()
    schema = Schema.from_dict({"v": "int64"})
    table = lake.lakehouse.create_table("empty", schema)
    assert table.select() == []
    assert table.select(aggregate=AggregateSpec("COUNT")) == [{"COUNT": 0}]
    from repro.table.expr import Predicate

    assert table.delete(Predicate("v", "=", 1)) == 0.0


def test_unicode_keys_and_values_roundtrip():
    lake = build_streamlake()
    lake.streaming.create_topic("t", TopicConfig(stream_num=2))
    producer = Producer(lake.streaming, batch_size=1)
    value = "消息流存储 — ストリーム 🎉".encode()
    producer.send("t", value, key="北京/用户-42")
    consumer = lake.consumer()
    consumer.subscribe("t")
    records, _ = consumer.drain()
    assert records[0].value == value
    assert records[0].key == "北京/用户-42"


def test_interleaved_producers_preserve_per_producer_order():
    lake = build_streamlake()
    lake.streaming.create_topic("t", TopicConfig(stream_num=1))
    alpha = Producer(lake.streaming, batch_size=3)
    beta = Producer(lake.streaming, batch_size=2)
    for index in range(12):
        alpha.send("t", f"a{index}".encode(), key="k")
        beta.send("t", f"b{index}".encode(), key="k")
    alpha.flush()
    beta.flush()
    consumer = lake.consumer()
    consumer.subscribe("t")
    values = [r.value.decode() for r in consumer.drain()[0]]
    a_sequence = [v for v in values if v.startswith("a")]
    b_sequence = [v for v in values if v.startswith("b")]
    assert a_sequence == [f"a{i}" for i in range(12)]
    assert b_sequence == [f"b{i}" for i in range(12)]
