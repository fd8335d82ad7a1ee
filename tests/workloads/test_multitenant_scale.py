"""Multi-stream, multi-tenant reconciliation: produced == converted ==
scannable, per tenant, through the serving front end — seed-pinned."""

from __future__ import annotations

import json

import pytest

from repro.common.clock import SimClock
from repro.serving import ServingFrontend, TenantQuota, TenantRegistry
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.stream.config import ConvertToTableConfig, TopicConfig
from repro.stream.service import MessageStreamingService
from repro.table.conversion import StreamTableConverter
from repro.table.expr import Predicate
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.pushdown import AggregateSpec
from repro.table.schema import PartitionSpec, Schema
from repro.table.table import Lakehouse
from repro.workloads import (
    MultiTenantOpenMessagingDriver,
    PacketGenerator,
    TenantLoad,
    zipf_rates,
)
from repro.workloads.packets import PacketConfig

NUM_TENANTS = 3
NUM_STREAMS = 8


def build_stack(topic: str, schema_dict: dict[str, str],
                stream_num: int = NUM_STREAMS):
    clock = SimClock()
    pool = StoragePool("mt", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    bus = DataBus(clock)
    plogs = PLogManager(pool, clock)
    service = MessageStreamingService(plogs, bus, clock, num_workers=3)
    service.create_topic(topic, TopicConfig(
        stream_num=stream_num,
        convert_2_table=ConvertToTableConfig(
            enabled=True, table_schema=schema_dict,
            table_path=f"tables/{topic}", split_offset=500,
            split_time_s=1e9,
        ),
    ))
    lake = Lakehouse(pool, bus, clock, meta_store=AcceleratedMetadataStore(
        KVEngine(f"{topic}-meta"), pool, clock))
    table = lake.create_table(
        topic, Schema.from_dict(schema_dict), PartitionSpec(),
        path=f"tables/{topic}")
    converter = StreamTableConverter(service, topic, table, clock)
    return service, table, converter


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_packets_tenant_counts_reconcile_end_to_end(seed):
    """DPI packets, tenant-tagged, through admission -> DRR -> group
    commit -> conversion -> scan: per-tenant counts agree at every
    stage."""
    generator = PacketGenerator(PacketConfig(
        num_packets=900, seed=seed, tenants=NUM_TENANTS))
    schema = generator.schema()
    service, table, converter = build_stack(f"dpi{seed}", schema)
    registry = TenantRegistry()
    for index in range(NUM_TENANTS):
        registry.register(f"tenant_{index:02d}", TenantQuota(
            rate_msgs_per_s=1e6, rate_bytes_per_s=1e9,
            max_in_flight=1000,
        ))
    frontend = ServingFrontend(service, registry)
    frontend.attach_converter(f"dpi{seed}", converter)

    # group the generated packets by their tenant tag, then produce
    # each tenant's records through its own admission envelope
    produced: dict[str, int] = {}
    pending: dict[str, tuple[list[bytes], list[str]]] = {}
    for row in generator.rows():
        tenant = row["tenant"]
        values, keys = pending.setdefault(tenant, ([], []))
        values.append(json.dumps(row, separators=(",", ":")).encode())
        keys.append(str(row["user_id"]))
        produced[tenant] = produced.get(tenant, 0) + 1
        if len(values) == 100:
            frontend.produce(tenant, f"dpi{seed}", values, keys=keys)
            frontend.drain()
            pending.pop(tenant)
    for tenant, (values, keys) in sorted(pending.items()):
        frontend.produce(tenant, f"dpi{seed}", values, keys=keys)
    frontend.drain()
    service.flush_all()

    assert sum(produced.values()) == 900
    landed = sum(
        service.object_for(stream_id).end_offset
        for stream_id in service.dispatcher.streams_of(f"dpi{seed}")
    )
    assert landed == 900

    converted = 0
    while True:
        report = converter.run_cycle(force=True)
        if report.converted == 0:
            break
        converted += report.converted
        assert report.malformed == 0
    assert converted == 900

    # scannable: the table agrees with the generator, tenant by tenant
    assert table.select(aggregate=AggregateSpec("COUNT")) == \
        [{"COUNT": 900}]
    for tenant, count in sorted(produced.items()):
        scanned = table.select(
            predicate=Predicate("tenant", "=", tenant),
            aggregate=AggregateSpec("COUNT"),
        )
        assert scanned == [{"COUNT": count}], tenant
    # the SLO tracker saw every tenant that produced
    assert sorted(frontend.slo.snapshot()) == sorted(produced)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_openmessaging_driver_counts_reconcile(seed):
    """The closed-loop driver's sent counter equals the records in the
    stream objects, and reruns replay to the identical trace."""
    schema = {"k": "string", "v": "int64"}

    def run():
        service, _, _ = build_stack(f"omb{seed}", schema, stream_num=16)
        registry = TenantRegistry()
        rates = zipf_rates(5, 50_000.0)
        loads = []
        for index, rate in enumerate(rates):
            tenant = f"t{index:02d}"
            registry.register(tenant, TenantQuota(
                rate_msgs_per_s=rate, rate_bytes_per_s=rate * 1100,
                max_in_flight=64, burst_s=1.0,
            ))
            loads.append(TenantLoad(
                tenant_id=tenant, rate_msgs_per_s=rate,
                messages=1000 + seed + 37 * index,
            ))
        frontend = ServingFrontend(service, registry)
        driver = MultiTenantOpenMessagingDriver(
            frontend, f"omb{seed}", loads, batch_size=125)
        report = driver.run()
        landed = sum(
            service.object_for(stream_id).end_offset
            for stream_id in service.dispatcher.streams_of(f"omb{seed}")
        )
        return report, landed, list(frontend.scheduler.trace)

    report, landed, trace = run()
    assert report.messages_sent == sum(
        1000 + seed + 37 * index for index in range(5))
    assert report.messages_shed == 0      # every load is within quota
    assert landed == report.messages_sent
    assert report.trace_length == len(trace) > 0

    # deterministic replay: identical outcome, identical dispatch order
    report2, landed2, trace2 = run()
    assert landed2 == landed
    assert trace2 == trace
    assert {t: (o.offered, o.sent) for t, o in report2.tenants.items()} \
        == {t: (o.offered, o.sent) for t, o in report.tenants.items()}
