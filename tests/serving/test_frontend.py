"""ServingFrontend integration: produce path, scan path, reporting."""

from __future__ import annotations

import pytest

from repro.common import stats
from repro.errors import AdmissionRejectedError, UnknownTenantError
from repro.serving import ServingFrontend, TenantQuota, TenantRegistry
from repro.table.expr import Predicate
from repro.table.pushdown import AggregateSpec
from repro.table.schema import PartitionSpec, Schema


def landed(service, topic) -> int:
    return sum(
        service.object_for(stream_id).end_offset
        for stream_id in service.dispatcher.streams_of(topic)
    )


def test_produce_lands_after_drain(frontend, service):
    ticket = frontend.produce(
        "alpha", "orders", [b"v" * 64] * 100,
        keys=[f"k{i}" for i in range(100)],
    )
    assert ticket.records == 100
    assert landed(service, "orders") == 0     # queued, not delivered
    assert frontend.scheduler.backlog > 0
    dispatches = frontend.drain()
    assert landed(service, "orders") == 100
    assert frontend.scheduler.backlog == 0
    assert all(d.completed_at > d.started_at for d in dispatches)


def test_produce_routes_each_distinct_key_once(frontend, service,
                                               monkeypatch):
    """The throttle check and the send share one routing plan."""
    routed: list[str] = []
    route_key = service.dispatcher.route_key

    def counting(topic, key):
        routed.append(key)
        return route_key(topic, key)

    monkeypatch.setattr(service.dispatcher, "route_key", counting)
    keys = [f"k{i % 7}" for i in range(40)]
    frontend.produce("alpha", "orders", [b"v" * 16] * 40, keys=keys)
    frontend.drain()
    assert sorted(routed) == sorted(set(keys))
    assert landed(service, "orders") == 40


def test_drain_advances_the_clock_to_last_completion(frontend, service):
    frontend.produce("alpha", "orders", [b"v" * 64] * 50)
    before = service.clock.now
    dispatches = frontend.drain()
    assert service.clock.now == dispatches[-1].completed_at
    assert service.clock.now > before


def test_produce_unknown_tenant_rejected(frontend):
    with pytest.raises(UnknownTenantError):
        frontend.produce("ghost", "orders", [b"x"])


def test_in_flight_held_until_drain(frontend):
    """Tickets pin in-flight slots while batches sit in the scheduler;
    the cap rejects further requests until a drain retires them."""
    for _ in range(8):                        # alpha's max_in_flight
        frontend.produce("alpha", "orders", [b"x" * 16] * 4)
    with pytest.raises(AdmissionRejectedError):
        frontend.produce("alpha", "orders", [b"x" * 16] * 4)
    frontend.drain()
    assert frontend.admission.in_flight("alpha") == 0
    frontend.produce("alpha", "orders", [b"x" * 16] * 4)


def test_latencies_recorded_per_request(frontend):
    for _ in range(5):
        frontend.produce("alpha", "orders", [b"v" * 128] * 20)
        frontend.produce("beta", "orders", [b"v" * 128] * 20)
    frontend.drain()
    snap = frontend.slo.snapshot()
    assert snap["alpha"]["produce_samples"] == 5
    assert snap["beta"]["produce_samples"] == 5
    assert snap["alpha"]["produce_p999_s"] > 0


def test_weighted_tenant_gets_larger_share_under_contention(service):
    """With equal offered bytes and weights 2:1, a partial drain serves
    alpha roughly twice beta's bytes."""
    registry = TenantRegistry()
    registry.register("alpha", TenantQuota(weight=2, max_in_flight=1000))
    registry.register("beta", TenantQuota(weight=1, max_in_flight=1000))
    # a quantum near one batch's wire size, so a partial drain leaves
    # both tenants backlogged and the weighted shares are measurable
    frontend = ServingFrontend(service, registry, quantum_bytes=20_000)
    service.create_topic("contended")
    for index in range(40):
        key = [f"r{index}"] * 64
        frontend.produce("alpha", "contended", [b"a" * 256] * 64, keys=key)
        frontend.produce("beta", "contended", [b"b" * 256] * 64, keys=key)
    frontend.scheduler.drain(frontend.clock.now, max_rounds=8)
    share_alpha = frontend.scheduler.bytes_dispatched("alpha")
    share_beta = frontend.scheduler.bytes_dispatched("beta")
    assert share_beta > 0
    assert share_alpha / share_beta == pytest.approx(2.0, rel=0.35)


def test_scan_path_records_slo_and_counts(frontend, lakehouse):
    schema = Schema.from_dict({"k": "int64", "v": "int64"})
    table = lakehouse.create_table(
        "serving_scan", schema, PartitionSpec(), path="tables/serving_scan")
    table.insert([{"k": i, "v": i * 10} for i in range(200)])
    result = frontend.select(
        "alpha", table, aggregate=AggregateSpec("COUNT"), num_workers=2)
    assert result.rows == [{"COUNT": 200}]
    assert result.latency_s > 0
    snap = frontend.slo.snapshot()["alpha"]
    assert snap["scan_samples"] == 1
    assert snap["scan_p99_s"] == pytest.approx(result.latency_s)
    assert frontend.admission.in_flight("alpha") == 0


def test_scan_matches_unscheduled_select(frontend, lakehouse):
    schema = Schema.from_dict({"k": "int64", "v": "int64"})
    table = lakehouse.create_table(
        "serving_scan_eq", schema, PartitionSpec(),
        path="tables/serving_scan_eq")
    table.insert([{"k": i, "v": i % 7} for i in range(300)])
    predicate = Predicate("v", "=", 3)
    via_frontend = frontend.select(
        "beta", table, predicate=predicate, columns=["k"])
    direct = table.select(predicate=predicate, columns=["k"])
    assert via_frontend.rows == direct


def test_report_shape(frontend):
    frontend.produce("alpha", "orders", [b"x"] * 10)
    frontend.drain()
    report = frontend.report()
    assert set(report) == {
        "tenants", "serving", "scheduler_rounds", "backlog"}
    assert report["backlog"] == 0
    assert report["serving"]["requests_admitted"] >= 1
    assert "alpha" in report["tenants"]


def test_serving_counters_fork_merge_identity(service):
    """Serving counters obey the context fork/merge algebra: child
    counters folded into the parent equal one serial accumulation."""
    from repro.common.context import ExecutionContext, use_context

    parent = ExecutionContext(name="serve-parent")
    with use_context(parent):
        stats.serving_stats().requests_admitted += 3
    child = parent.fork("serve-child")
    with use_context(child):
        stats.serving_stats().requests_admitted += 4
        stats.serving_stats().slo_violations += 1
    parent.merge(child)
    assert parent.serving.requests_admitted == 7
    assert parent.serving.slo_violations == 1
    snapshot = parent.snapshot()
    assert snapshot["serving"]["requests_admitted"] == 7


def test_registry_shared_across_layers(service):
    """Admission, scheduler and SLO resolve the same registry object —
    a quota registered once is visible everywhere."""
    registry = TenantRegistry()
    frontend = ServingFrontend(service, registry)
    registry.register("late", TenantQuota(weight=3))
    service.create_topic("late_topic")
    frontend.produce("late", "late_topic", [b"x"] * 5)
    dispatches = frontend.drain()
    assert dispatches and dispatches[0].batch.tenant_id == "late"
