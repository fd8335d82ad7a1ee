"""Backpressure: sealed-slice lag, throttle signal, and the invariant
machine — no acked record dropped and lag bounded under any seeded
fault/slow schedule, driven by multiple tenants."""

from __future__ import annotations

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.common import stats
from repro.common.clock import SimClock
from repro.errors import BackpressureThrottledError, QuotaExceededError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.serving import (
    Backpressure,
    ServingFrontend,
    TenantQuota,
    TenantRegistry,
    sealed_lag,
)
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.stream.config import ConvertToTableConfig, TopicConfig
from repro.stream.records import RECORDS_PER_SLICE
from repro.stream.service import MessageStreamingService
from repro.table.conversion import StreamTableConverter
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.pushdown import AggregateSpec
from repro.table.schema import PartitionSpec, Schema
from repro.table.table import Lakehouse


class _FakeObject:
    """Just enough of StreamObject for sealed_lag: sorted sealed slices."""

    def __init__(self, slices):
        self._slices = slices

    def sealed_slices(self):
        return self._slices


# --- sealed_lag --------------------------------------------------------------


def test_sealed_lag_empty_object():
    assert sealed_lag(_FakeObject([]), 0) == 0


@pytest.mark.parametrize("converted,expected", [
    (0, 2),       # nothing converted: both slices lag
    (100, 2),     # frontier inside the first slice: it still lags
    (256, 1),     # first slice fully converted
    (300, 1),     # frontier inside the second slice
    (512, 0),     # everything converted
])
def test_sealed_lag_boundaries(converted, expected):
    obj = _FakeObject([(0, 256, "p0"), (256, 256, "p1")])
    assert sealed_lag(obj, converted) == expected


def test_sealed_lag_with_short_slices():
    obj = _FakeObject([(0, 100, "p0"), (100, 50, "p1"), (150, 200, "p2")])
    assert sealed_lag(obj, 0) == 3
    assert sealed_lag(obj, 100) == 2
    assert sealed_lag(obj, 149) == 2
    assert sealed_lag(obj, 150) == 1
    assert sealed_lag(obj, 350) == 0


# --- signal and throttle -----------------------------------------------------


def test_signal_ramp():
    bp = Backpressure(high_water_slices=10, low_water_fraction=0.5)
    bp.observe("s", 0)
    assert bp.signal("s") == 0.0
    bp.observe("s", 5)
    assert bp.signal("s") == 0.0          # at the low-water mark
    bp.observe("s", 7)
    assert bp.signal("s") == pytest.approx(0.4)
    bp.observe("s", 10)
    assert bp.signal("s") == 1.0
    bp.observe("s", 50)
    assert bp.signal("s") == 1.0          # clamped


def test_throttle_delay_scales_with_signal():
    bp = Backpressure(high_water_slices=10, low_water_fraction=0.5,
                      max_throttle_delay_s=0.1)
    bp.observe("s", 8)
    delay = bp.throttle("s", 1)
    assert delay == pytest.approx(0.6 * 0.1)
    assert stats.serving_stats().throttle_delay_s >= delay


def test_throttle_refuses_past_high_water():
    bp = Backpressure(high_water_slices=4)
    bp.observe("s", 4)
    with pytest.raises(BackpressureThrottledError) as err:
        bp.throttle("s", 1)               # projects one more slice
    assert err.value.high_water_slices == 4
    assert err.value.lag_slices == 5


def test_throttle_projection_counts_slices_conservatively():
    bp = Backpressure(high_water_slices=4)
    bp.observe("s", 2)
    # 2 + ceil(600/256) = 5 > 4
    with pytest.raises(BackpressureThrottledError):
        bp.throttle("s", 600)
    assert bp.throttle("s", 512) >= 0.0   # 2 + 2 = 4: allowed


def test_observe_rejects_negative_lag():
    with pytest.raises(ValueError):
        Backpressure().observe("s", -1)


# --- the invariant machine ---------------------------------------------------

SCHEMA_DICT = {"user": "string", "value": "int64", "ts": "timestamp"}

#: storage faults + slow links: every produce that returns without an
#: exception must stay durable and countable, so the fault set excludes
#: the kinds that surface as producer-visible errors (torn commits,
#: dropped transfers, partitions)
_RATES = {
    FaultKind.TORN_COMMIT: 0.0,
    FaultKind.DROP_TRANSFERS: 0.0,
    FaultKind.PARTITION: 0.0,
    FaultKind.CRASH_DISK: 0.05,
    FaultKind.ERASE_FRAGMENT: 0.6,
    FaultKind.SECTOR_ERROR: 0.6,
    FaultKind.SLOW_LINK: 0.4,
}

HIGH_WATER = 6
TENANTS = ["red", "blue", "green"]


class BackpressureMachine(RuleBasedStateMachine):
    """Multi-tenant produce/convert/fault interleavings.

    Invariants after every step:

    * **no acked record dropped** — every record whose ``produce`` call
      returned without raising is in a stream object (and, after the
      teardown conversion, in the table) exactly once;
    * **bounded lag** — no stream's sealed-slice lag ever exceeds the
      backpressure high-water mark, no matter how long the converter
      stalls or how hostile the fault schedule.
    """

    @initialize(seed=st.integers(0, 2 ** 16))
    def setup(self, seed):
        stats.serving_stats().reset()
        self.clock = SimClock()
        self.pool = StoragePool(
            "bp-chaos", self.clock, policy=erasure_coding_policy(3, 2))
        self.pool.add_disks(NVME_SSD_PROFILE, 7)
        self.bus = DataBus(self.clock)
        self.plogs = PLogManager(self.pool, self.clock)
        self.service = MessageStreamingService(
            self.plogs, self.bus, self.clock, num_workers=2)
        self.service.create_topic("bp", TopicConfig(
            stream_num=2,
            convert_2_table=ConvertToTableConfig(
                enabled=True, table_schema=SCHEMA_DICT,
                table_path="tables/bp", split_offset=200,
                split_time_s=1e9,
            ),
        ))
        lake = Lakehouse(
            self.pool, self.bus, self.clock,
            meta_store=AcceleratedMetadataStore(
                KVEngine("bp-meta"), self.pool, self.clock))
        self.table = lake.create_table(
            "bp", Schema.from_dict(SCHEMA_DICT), PartitionSpec(),
            path="tables/bp")
        self.converter = StreamTableConverter(
            self.service, "bp", self.table, self.clock)
        registry = TenantRegistry()
        for tenant in TENANTS:
            registry.register(tenant, TenantQuota(
                rate_msgs_per_s=1e9, rate_bytes_per_s=1e12,
                max_in_flight=1000,
            ))
        self.frontend = ServingFrontend(
            self.service, registry,
            backpressure=Backpressure(high_water_slices=HIGH_WATER),
        )
        self.frontend.attach_converter("bp", self.converter)
        plan = FaultPlan.generate(seed, duration_s=30.0, rates=_RATES)
        self.injector = FaultInjector(plan, self.clock, self.pool, self.bus)
        self.acked = 0
        self.throttled = 0
        self._next = 0

    def _payloads(self, count):
        out = []
        for _ in range(count):
            out.append(json.dumps({
                "user": f"u{self._next % 5}", "value": self._next,
                "ts": self._next,
            }).encode())
            self._next += 1
        return out

    @rule(
        pick=st.integers(0, len(TENANTS) - 1),
        count=st.integers(1, 2 * RECORDS_PER_SLICE),
    )
    def produce(self, pick, count):
        tenant = TENANTS[pick]
        values = self._payloads(count)
        keys = [str(self._next)] * count   # one stream per request
        try:
            self.frontend.produce(tenant, "bp", values, keys=keys)
        except BackpressureThrottledError:
            self.throttled += 1
            return
        except QuotaExceededError:
            return
        self.frontend.drain()
        self.acked += count

    @rule()
    def flush(self):
        self.service.flush_all()

    @rule()
    def convert(self):
        self.converter.run_cycle(force=True)
        self.frontend.sync_backpressure()

    @rule()
    def fault_tick(self):
        self.clock.advance(1.0)
        self.injector.tick()

    @invariant()
    def lag_never_exceeds_high_water(self):
        if not hasattr(self, "frontend"):
            return
        positions = self.converter.positions()
        for stream_id in self.service.dispatcher.streams_of("bp"):
            obj = self.service.object_for(stream_id)
            lag = sealed_lag(obj, positions.get(stream_id, 0))
            assert lag <= HIGH_WATER, (
                f"{stream_id}: sealed lag {lag} > {HIGH_WATER}"
            )

    @invariant()
    def acked_records_all_landed(self):
        if not hasattr(self, "frontend"):
            return
        landed = sum(
            self.service.object_for(stream_id).end_offset
            for stream_id in self.service.dispatcher.streams_of("bp")
        )
        assert landed == self.acked

    def teardown(self):
        if not hasattr(self, "frontend"):
            return
        # convert everything: every acked record must be scannable once
        self.service.flush_all()
        while True:
            report = self.converter.run_cycle(force=True)
            if report.converted == 0:
                break
        counted = self.table.select(aggregate=AggregateSpec("COUNT"))
        assert counted == [{"COUNT": self.acked}]


BackpressureMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=25, deadline=None)
TestBackpressureInvariants = BackpressureMachine.TestCase
