"""Sharded conversion waves: fan-out equals N serial cycles."""

import json

import pytest

from repro.common.clock import SimClock
from repro.common.context import ExecutionContext, use_context
from repro.parallel import run_conversion_wave
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.stream.config import ConvertToTableConfig, TopicConfig
from repro.stream.producer import Producer
from repro.stream.service import MessageStreamingService
from repro.table.conversion import StreamTableConverter
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.schema import PartitionSpec, Schema
from repro.table.table import Lakehouse

SCHEMA_DICT = {"user": "string", "value": "int64", "ts": "timestamp"}


def build_shard(index: int, messages: int = 90):
    """One self-contained topic+table stack driving its own clock."""
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    bus = DataBus(clock)
    plogs = PLogManager(pool, clock)
    service = MessageStreamingService(plogs, bus, clock, num_workers=2)
    service.create_topic(f"topic{index}", TopicConfig(
        stream_num=2,
        convert_2_table=ConvertToTableConfig(
            enabled=True, table_schema=SCHEMA_DICT,
            table_path=f"tables/t{index}", split_offset=50,
            split_time_s=1e9,
        ),
    ))
    lake = Lakehouse(pool, bus, clock, meta_store=AcceleratedMetadataStore(
        KVEngine(f"meta{index}"), pool, clock
    ))
    table = lake.create_table(
        f"t{index}", Schema.from_dict(SCHEMA_DICT), PartitionSpec(),
        path=f"tables/t{index}",
    )
    producer = Producer(service, batch_size=10)
    for n in range(messages):
        producer.send(
            f"topic{index}",
            json.dumps({"user": f"u{n % 3}", "value": n, "ts": n}).encode(),
            key=str(n),
        )
    producer.flush()
    return StreamTableConverter(service, f"topic{index}", table, clock), table


@pytest.mark.parametrize("mode", ["serial", "thread"])
def test_wave_converts_every_shard(mode):
    context = ExecutionContext(name=f"wave-{mode}")
    with use_context(context):
        converters, tables = zip(*(build_shard(i) for i in range(3)))
        wave = run_conversion_wave(
            list(converters), num_workers=3, mode=mode, context=context,
        )
    assert wave.converted == 3 * 90
    assert wave.malformed == 0
    assert [report.converted for report in wave.reports] == [90, 90, 90]
    with use_context(context):
        for table in tables:
            assert len(table.select(columns=["value"])) == 90


def test_wave_counters_match_serial_cycles():
    """Fanned-out counters merge to what N serial cycles accumulate."""
    serial_context = ExecutionContext(name="serial")
    with use_context(serial_context):
        for index in range(3):
            converter, _ = build_shard(index)
            converter.run_cycle()
    wave_context = ExecutionContext(name="wave")
    with use_context(wave_context):
        converters = [build_shard(i)[0] for i in range(3)]
        run_conversion_wave(converters, num_workers=3, context=wave_context)
    wave = wave_context.conversion.snapshot()
    serial = serial_context.conversion.snapshot()
    # validation_s is measured wall time — nondeterministic by nature
    wave.pop("validation_s")
    serial.pop("validation_s")
    assert wave == serial


def test_wave_charges_makespan_not_sum():
    context = ExecutionContext(name="makespan")
    with use_context(context):
        converters = [build_shard(i)[0] for i in range(4)]
        before = context.clock.now
        wave = run_conversion_wave(
            converters, num_workers=4, context=context
        )
    assert wave.sim_elapsed_s < wave.sim_serial_s
    assert context.clock.now - before == pytest.approx(wave.sim_elapsed_s)
    assert len(wave.shard_sim_deltas) == 4


def test_one_worker_wave_costs_the_serial_sum():
    context = ExecutionContext(name="one")
    with use_context(context):
        converters = [build_shard(i)[0] for i in range(3)]
        wave = run_conversion_wave(
            converters, num_workers=1, context=context
        )
    assert wave.sim_elapsed_s == pytest.approx(wave.sim_serial_s)


def test_idle_converters_report_no_trigger():
    context = ExecutionContext(name="idle")
    with use_context(context):
        converters = [build_shard(i, messages=5)[0] for i in range(2)]
        wave = run_conversion_wave(converters, context=context)
    assert wave.converted == 0
    assert all(report.triggered_by == "none" for report in wave.reports)


def test_force_overrides_triggers():
    context = ExecutionContext(name="forced")
    with use_context(context):
        converters = [build_shard(i, messages=5)[0] for i in range(2)]
        wave = run_conversion_wave(converters, force=True, context=context)
    assert wave.converted == 10


def test_process_mode_rejected():
    with pytest.raises(ValueError, match="process"):
        run_conversion_wave([], mode="process")
