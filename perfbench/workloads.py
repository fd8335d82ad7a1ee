"""The benchmark's four workloads, driven through the public API of ``repro``.

Every workload is a fixed *pass*: set-up (generate the inputs from the
seed, build a fresh stack, preload) followed by a timed phase whose work
is the same on every pass and every commit.  Simulated (``SimClock``)
results and counters are therefore identical from pass to pass; the
wall-clock figures are what varies.  All load comes from this one thread.

* ``stream``: 8 Zipf-skewed tenants produce DPI packets keyed by
  ``user_id`` through :class:`~repro.serving.ServingFrontend` into one
  16-stream topic on an open-loop schedule; a consumer tails every stream.
* ``reunion``: the same producers plus a stream->table converter that
  runs at a fixed simulated interval and serves as the backpressure
  source; after each cycle every tenant reads its dashboard aggregate.
* ``analytics``: read-only SQL over a preloaded, hour-partitioned table
  whose working set is several times the block and chunk cache tiers.
* ``degraded``: ``analytics`` with one failed disk and a rebuild queue
  draining a fixed number of extents between queries.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.common.clock import SimClock
from repro.common.context import ExecutionContext, use_context
from repro.errors import (
    AdmissionRejectedError,
    BackpressureThrottledError,
    QuotaExceededError,
)
from repro.serving import ServingFrontend, TenantQuota, TenantRegistry
from repro.serving.backpressure import Backpressure
from repro.storage.bus import DataBus, TransportKind
from repro.storage import disk
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.rebuild import RebuildQueue
from repro.storage.redundancy import erasure_coding_policy
from repro.stream.config import ConvertToTableConfig, TopicConfig
from repro.stream.consumer import Consumer
from repro.stream.service import MessageStreamingService
from repro.table import sql
from repro.table.conversion import StreamTableConverter
from repro.table.expr import Predicate
from repro.table.pushdown import AggregateSpec
from repro.table.schema import PartitionSpec, Schema
from repro.table.table import Lakehouse, QueryStats
from repro.table.vector import NumericVector
from repro.workloads import zipf_rates
from repro.workloads.packets import (
    BASE_TIMESTAMP,
    PROVINCES,
    PacketConfig,
    PacketGenerator,
)

from tracing import Tracer

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())
STACK = SPEC["stack"]
WORKLOADS = tuple(SPEC["workloads"])
TOPIC = "dpi"

#: refusals the serving front end raises instead of accepting a request
SERVING_ERRORS = (QuotaExceededError, AdmissionRejectedError,
                  BackpressureThrottledError)

ROW_SCHEMA = Schema.from_dict({**PacketGenerator.SCHEMA, "tenant": "string"})
DASHBOARD = [
    AggregateSpec("COUNT", group_by=("province",)),
    AggregateSpec("SUM", "bytes_down", group_by=("province",)),
]
REGIONS = {province: f"region_{index % 7}"
           for index, province in enumerate(PROVINCES)}


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class PassResult:
    """One pass: its set-up time, timed wall time and measurements."""

    setup_s: float
    wall_s: float
    #: wall-time samples, pooled across passes
    samples: dict[str, list[float]]
    #: additive wall-side totals (items done, seconds inside calls)
    totals: dict[str, float]
    #: simulated metrics and counts: must repeat exactly on every pass
    exact: dict[str, float]
    #: per-layer counts (simulated, so also repeat exactly)
    layers: dict[str, float]
    #: digest of the outputs (records read back or query answers)
    digest: str
    attempted: int
    failed: int
    #: trace span index range [first, last) of this pass's timed phase
    spans: tuple[int, int] = (0, 0)
    hook_counts: dict[str, float] = field(default_factory=dict)


class TimedPhase:
    """Wall clock, tracer switch and span range of a pass's timed phase."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.wall_s = 0.0
        self.spans = (0, 0)
        self.hook_counts: dict[str, float] = {}
        self._started = 0.0

    def __enter__(self) -> "TimedPhase":
        gc.collect()
        if self.tracer is not None:
            self.spans = (len(self.tracer), len(self.tracer))
            self.tracer.reset_counts()
            self.tracer.active = True
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self._started
        if self.tracer is not None:
            self.tracer.active = False
            self.spans = (self.spans[0], len(self.tracer))
            self.hook_counts = dict(self.tracer.counts)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _storage(clock: SimClock) -> tuple[StoragePool, DataBus]:
    """The pool (RS(4+2) over 8 NVMe disks) and its RDMA bus."""
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(
        STACK["ec_data_shards"], STACK["ec_parity_shards"]))
    pool.add_disks(getattr(disk, STACK["disk_profile"]), STACK["disks"])
    return pool, DataBus(clock, transport=TransportKind[STACK["bus"]])


def _failed_disk_index(seed: int) -> int:
    return int(np.random.default_rng([seed, 7]).integers(STACK["disks"]))


def _context(name: str, seed: int) -> ExecutionContext:
    return ExecutionContext(name=name, rng=random.Random(seed))


def _layer_counts(context: ExecutionContext, pool: StoragePool,
                  pool_before, user_bytes: int) -> dict[str, float]:
    """Counters of the timed phase from the context and ``PoolStats``."""
    snap = context.snapshot()
    serving, ingest, faults = snap["serving"], snap["ingest"], snap["faults"]
    conversion, aggregation, joins = (
        snap["conversion"], snap["aggregation"], snap["joins"])

    def tier(name: str) -> dict[str, float]:
        return snap.get(f"cache:{name}", {"hit_rate": 0.0, "evictions": 0})

    answered = aggregation["row_groups_footer_answered"]
    reduced = aggregation["row_groups_aggregated"]
    return {
        "serving.rejected": serving["rejected_quota"]
        + serving["rejected_inflight"],
        "serving.throttled": serving["throttle_events"],
        "stream.slices_sealed": ingest["slices_sealed"],
        "stream.compression_ratio": ingest["compression_ratio"],
        "plog.group_commits": ingest["plog_group_commits"],
        "pool.extents_written": pool.stats.extents_written
        - pool_before.extents_written,
        "pool.extents_read": pool.stats.extents_read
        - pool_before.extents_read,
        "pool.degraded_reads": pool.stats.degraded_reads
        - pool_before.degraded_reads,
        "faults.fragments_reconstructed": faults["fragments_reconstructed"],
        "conversion.rows": conversion["rows_converted"],
        "conversion.malformed": conversion["rows_malformed"],
        "agg.footer_answered_ratio": (
            answered / (answered + reduced) if answered + reduced else 0.0),
        "join.build_rows": joins["build_rows"],
        "join.probe_rows": joins["probe_rows"],
        "cache.result.hit_rate": tier("table.result_cache")["hit_rate"],
        "cache.chunk.hit_rate": tier("table.chunk_cache")["hit_rate"],
        "cache.block.hit_rate": tier("table.block_cache")["hit_rate"],
        "cache.footer.hit_rate": tier("table.footer_cache")["hit_rate"],
        "cache.block.evictions": tier("table.block_cache")["evictions"],
        "user_bytes": user_bytes,
        # set by the workloads that run these layers
        "serving.queue_wait_sim_s": 0.0,
        "serving.generator_late_sim_s": 0.0,
        "table.files_written": 0,
        "table.rows_scanned_per_row_returned": 0.0,
        "table.files_skipped_ratio": 0.0,
        "table.bytes_scanned": 0,
        "rebuild.extents": 0,
        "rebuild.retries": 0,
        "rebuild.sim_s": 0.0,
    }


def _scan_counts(stats: list[QueryStats]) -> dict[str, float]:
    scanned = sum(s.rows_scanned for s in stats)
    returned = sum(s.rows_returned for s in stats)
    files = sum(s.files_total for s in stats)
    return {
        "table.rows_scanned_per_row_returned": scanned / max(returned, 1),
        "table.files_skipped_ratio": (
            sum(s.files_skipped for s in stats) / files if files else 0.0),
        "table.bytes_scanned": sum(s.bytes_scanned for s in stats),
    }


# --- stream and reunion -------------------------------------------------------


@dataclass
class IngestInputs:
    """The open-loop request schedule and its payloads."""

    dues: list[float]
    tenants: list[str]
    values: list[list[bytes]]
    keys: list[list[str]]
    rates: list[float]
    #: per request: records whose value is deliberately malformed
    malformed: list[int]


def make_ingest_inputs(seed: int, cfg: dict) -> IngestInputs:
    """Generate the request schedule and DPI payloads for ``seed``.

    Tenant ``t`` sends one request of ``records_per_request`` records
    every ``records_per_request / rate_t`` simulated seconds from a
    seeded phase; rates are Zipf-skewed and sum to the offered rate, a
    constant of the workload.  Every ``malformed_every``-th record is a
    truncated JSON line, as real log pipelines carry.
    """
    per_request = cfg["records_per_request"]
    requests = cfg["records"] // per_request
    rates = zipf_rates(cfg["tenants"], cfg["offered_records_per_s"],
                       s=cfg["tenant_zipf_s"])
    phases = np.random.default_rng([seed, 1]).random(cfg["tenants"])
    horizon = requests * per_request / cfg["offered_records_per_s"]
    schedule = []
    for tenant, rate in enumerate(rates):
        interval = per_request / rate
        for k in range(int(horizon / interval) + 2):
            schedule.append(((k + phases[tenant]) * interval, tenant))
    schedule.sort()
    schedule = schedule[:requests]
    rows = PacketGenerator(
        PacketConfig(num_packets=requests * per_request, seed=seed)).rows()
    every = cfg["malformed_every"]
    inputs = IngestInputs([], [], [], [], rates, [])
    index = 0
    for due, tenant in schedule:
        name = f"tenant_{tenant:02d}"
        values, keys, bad = [], [], 0
        for _ in range(per_request):
            row = next(rows)
            row["tenant"] = name
            value = json.dumps(row, separators=(",", ":")).encode()
            index += 1
            if index % every == 0:
                value = value[: len(value) // 2]
                bad += 1
            values.append(value)
            keys.append(str(row["user_id"]))
        inputs.dues.append(due)
        inputs.tenants.append(name)
        inputs.values.append(values)
        inputs.keys.append(keys)
        inputs.malformed.append(bad)
    return inputs


def _key_digests(pairs) -> dict[str, int]:
    """Order-sensitive digest of each key's values.

    Keys are ``producer/user`` pairs: a stream keeps each producer's
    per-key order, while two tenants' records for one user interleave
    in scheduler order.  Each key folds its values' 64-bit hashes in
    sequence, so equal digests mean equal values in equal order (up to
    hash collisions)."""
    digests: dict[str, int] = {}
    for key, value in pairs:
        value_hash = int.from_bytes(
            hashlib.blake2b(value, digest_size=8).digest(), "little")
        digests[key] = (digests.get(key, 0) * 1_000_003 + value_hash) \
            % (1 << 64)
    return digests


def _digest_of(digests: dict[str, int]) -> str:
    total = hashlib.sha256()
    for key in sorted(digests):
        total.update(f"{key}={digests[key]};".encode())
    return total.hexdigest()


def run_ingest_pass(workload: str, seed: int, tracer: Tracer | None,
                    verify: bool) -> PassResult:
    """One ``stream`` or ``reunion`` pass."""
    cfg = SPEC["workloads"][workload]
    reunion = workload == "reunion"
    started = time.perf_counter()
    inputs = make_ingest_inputs(seed, cfg)
    per_request = cfg["records_per_request"]
    context = _context(workload, seed)
    with use_context(context):
        clock = SimClock()
        pool, bus = _storage(clock)
        service = MessageStreamingService(
            PLogManager(pool, clock), bus, clock,
            num_workers=STACK["stream_workers"])
        convert = ConvertToTableConfig(
            enabled=True, table_schema=ROW_SCHEMA.to_dict(),
            table_path=f"tables/{TOPIC}", split_offset=10**12,
            split_time_s=1e12,
        ) if reunion else ConvertToTableConfig()
        service.create_topic(TOPIC, TopicConfig(
            stream_num=cfg["streams"], convert_2_table=convert))
        registry = TenantRegistry()
        for tenant, rate in enumerate(inputs.rates):
            # quotas far above the offered rates: nothing queues for tokens
            registry.register(f"tenant_{tenant:02d}", TenantQuota(
                rate_msgs_per_s=4 * rate, rate_bytes_per_s=4 * rate * 512,
                max_in_flight=4096))
        frontend = ServingFrontend(service, registry, backpressure=(
            Backpressure(high_water_slices=cfg["backpressure_high_water"])
            if reunion else None))
        frontend.configure_write_parallelism(
            STACK["plog_write_parallelism"], mode=STACK["plog_write_mode"])
        consumer = table = converter = None
        if reunion:
            lakehouse = Lakehouse(pool, bus, clock, context=context)
            table = lakehouse.create_table(
                TOPIC, ROW_SCHEMA, PartitionSpec.by(cfg["table_partition"]),
                path=f"tables/{TOPIC}")
            converter = StreamTableConverter(service, TOPIC, table, clock)
            frontend.attach_converter(TOPIC, converter)
        else:
            consumer = Consumer(service)
            consumer.subscribe(TOPIC)
    setup_s = time.perf_counter() - started

    produce_wall: list[float] = []
    produce_sim: list[float] = []
    query_wall: list[float] = []
    query_sim: list[float] = []
    freshness: list[float] = []
    query_stats: list[QueryStats] = []
    unconverted: list[float] = []  # due times of acked requests
    totals = {"records": 0, "consumed": 0, "consume_wall_s": 0.0,
              "queries": 0}
    late = queue_wait = 0.0
    ops = {"attempted": 0, "failed": 0}
    converted_rows = malformed_rows = acked_malformed = 0
    dashboards: dict[str, int] = {}
    tick = cfg["tick_s"]
    interval = cfg.get("conversion_interval_s", 0.0)
    next_conversion = interval
    requests = len(inputs.dues)

    def conversion_cycle() -> None:
        nonlocal next_conversion, converted_rows, malformed_rows
        cycle_start = clock.now
        report = converter.run_cycle(force=True)
        cycle_end = cycle_start + report.sim_seconds
        converted_rows += report.converted
        malformed_rows += report.malformed
        freshness.extend(cycle_end - due for due in unconverted)
        unconverted.clear()
        frontend.sync_backpressure(TOPIC)
        while next_conversion <= clock.now:
            next_conversion += interval
        for tenant in sorted(registry.tenants()):
            ops["attempted"] += 1
            began = time.perf_counter()
            try:
                result = frontend.select(
                    tenant, table, predicate=Predicate("tenant", "=", tenant),
                    aggregate=DASHBOARD,
                    num_workers=STACK["select_workers"], mode="serial")
            except SERVING_ERRORS:
                ops["failed"] += 1
                continue
            query_wall.append(time.perf_counter() - began)
            query_sim.append(result.sharded.stats.total_cost_s)
            query_stats.append(result.sharded.stats)
            totals["queries"] += 1
            dashboards[tenant] = sum(row["COUNT(*)"] for row in result.rows)

    pool_before = replace(pool.stats)
    context.reset_stats()
    with TimedPhase(tracer) as timed, use_context(context):
        j = 0
        while j < requests:
            tick_end = (int(inputs.dues[j] / tick) + 1) * tick
            admitted = []
            while j < requests and inputs.dues[j] < tick_end:
                due = inputs.dues[j]
                clock.advance_to(due)
                late += clock.now - due
                ops["attempted"] += 1
                if tracer is not None:
                    tracer.request_id = j
                began = time.perf_counter()
                try:
                    ticket = frontend.produce(
                        inputs.tenants[j], TOPIC, inputs.values[j],
                        inputs.keys[j], batch_size=per_request)
                except SERVING_ERRORS:
                    ops["failed"] += 1
                else:
                    admitted.append((ticket, due, began, j))
                j += 1
            dispatches = frontend.drain()
            drained = time.perf_counter()
            completed: dict[int, float] = {}
            for dispatch in dispatches:
                batch = dispatch.batch
                queue_wait += dispatch.started_at - batch.enqueued_at
                done = dispatch.completed_at + batch.pre_delay_s
                key = id(batch.ticket)
                if done > completed.get(key, 0.0):
                    completed[key] = done
            for ticket, due, began, index in admitted:
                produce_sim.append(completed[id(ticket)] - due)
                produce_wall.append(drained - began)
                totals["records"] += ticket.records
                acked_malformed += inputs.malformed[index]
                unconverted.append(due)
            if consumer is not None:
                began = time.perf_counter()
                records, _ = consumer.poll(cfg["poll_max_records"])
                totals["consume_wall_s"] += time.perf_counter() - began
                totals["consumed"] += len(records)
            else:
                # the load generator refreshes the lag signal every tick;
                # between refreshes each admitted request inflates it
                frontend.sync_backpressure(TOPIC)
                if clock.now >= next_conversion or j == requests:
                    conversion_cycle()
        if consumer is not None:
            while True:
                began = time.perf_counter()
                records, _ = consumer.poll(cfg["poll_max_records"])
                totals["consume_wall_s"] += time.perf_counter() - began
                if not records:
                    break
                totals["consumed"] += len(records)

    with use_context(context):
        service.flush_all()
        user_bytes = sum(
            len(value) for values in inputs.values for value in values)
        layers = _layer_counts(context, pool, pool_before, user_bytes)
        layers["serving.queue_wait_sim_s"] = queue_wait
        layers["serving.generator_late_sim_s"] = late
        if reunion:
            layers["table.files_written"] = table.live_file_count()
            layers.update(_scan_counts(query_stats))
        exact = {
            "produce_sim_p50_ms": 1e3 * percentile(produce_sim, 50),
            "produce_sim_p99_ms": 1e3 * percentile(produce_sim, 99),
            "stored_bytes_per_user_byte": pool.used_bytes / user_bytes,
        }
        check(totals["records"] == requests * per_request,
              f"{workload}: {totals['records']} of "
              f"{requests * per_request} records acked")
        if reunion:
            exact["query_sim_p50_ms"] = 1e3 * percentile(query_sim, 50)
            exact["query_sim_p99_ms"] = 1e3 * percentile(query_sim, 99)
            exact["freshness_sim_p99_s"] = percentile(freshness, 99)
            check(converted_rows == totals["records"] - acked_malformed,
                  f"reunion: converted {converted_rows} rows, expected "
                  f"{totals['records']} acked - {acked_malformed} malformed")
            check(malformed_rows == acked_malformed,
                  f"reunion: {malformed_rows} rows counted malformed, "
                  f"{acked_malformed} were sent")
            digest = _verify_dashboards(inputs, dashboards)
        else:
            check(totals["consumed"] == totals["records"],
                  f"stream: consumer read {totals['consumed']} of "
                  f"{totals['records']} acked records")
            digest = (_verify_stream(inputs, service, pool, seed)
                      if verify else "")
    return PassResult(
        setup_s=setup_s, wall_s=timed.wall_s,
        samples={"produce_wall_ms": [1e3 * w for w in produce_wall],
                 "query_wall_ms": [1e3 * w for w in query_wall]},
        totals=totals, exact=exact, layers=layers, digest=digest,
        attempted=ops["attempted"], failed=ops["failed"],
        spans=timed.spans, hook_counts=timed.hook_counts,
    )


def _verify_stream(inputs: IngestInputs, service, pool, seed: int) -> str:
    """Every acked record reads back byte-identical after a disk loss
    (through degraded EC reads)."""
    expected = _key_digests(
        (f"tenant:{tenant}/{key}", value)
        for tenant, keys, values in zip(inputs.tenants, inputs.keys,
                                        inputs.values)
        for key, value in zip(keys, values))
    pool.disks[_failed_disk_index(seed)].fail()
    service.drop_read_caches()
    reader = Consumer(service)
    reader.subscribe(TOPIC)

    def read_back():
        while True:
            records, _ = reader.poll(4096)
            # the worker read cache keeps every record read until the
            # next write; nothing is re-read here, so release it
            service.drop_read_caches()
            if not records:
                return
            for record in records:
                yield f"{record.producer_id}/{record.key}", record.value

    check(_key_digests(read_back()) == expected,
          "stream: records read back after the disk loss differ from the "
          "acked records")
    check(pool.stats.degraded_reads > 0,
          "stream: the read-back after the disk loss was not degraded")
    return _digest_of(expected)


def _verify_dashboards(inputs: IngestInputs,
                       dashboards: dict[str, int]) -> str:
    """The last dashboard of each tenant counts all its well-formed rows."""
    expected: dict[str, int] = {}
    for tenant, values, bad in zip(inputs.tenants, inputs.values,
                                   inputs.malformed):
        expected[tenant] = expected.get(tenant, 0) + len(values) - bad
    check(dashboards == expected,
          f"reunion: dashboard row counts {dashboards} differ from the "
          f"acked well-formed rows {expected}")
    return hashlib.sha256(
        json.dumps(sorted(expected.items())).encode()).hexdigest()


# --- analytics and degraded ---------------------------------------------------


@dataclass
class QueryInputs:
    """Generated table columns, the province dimension and the queries."""

    columns: dict[str, object]
    num_rows: int
    user_bytes: int
    queries: list[tuple[str, tuple]]


def _zipf_choice(rng: np.random.Generator, domain: list, count: int,
                 s: float) -> list:
    """``count`` draws from ``domain`` with Zipf(s) popularity.

    The sequence of popularity ranks is a constant of the workload (drawn
    from a fixed generator), so every seed repeats parameters at the same
    positions and the result-tier hit share does not move with the seed;
    the seed decides which parameters are hot."""
    weights = 1.0 / np.arange(1, len(domain) + 1) ** s
    ranks = np.random.default_rng(len(domain)).choice(
        len(domain), size=count, p=weights / weights.sum())
    order = rng.permutation(len(domain))
    return [domain[order[rank]] for rank in ranks]


def make_query_inputs(seed: int, cfg: dict) -> QueryInputs:
    rows = list(PacketGenerator(PacketConfig(
        num_packets=cfg["rows"], hours=cfg["hours"], seed=seed)).rows())
    user_bytes = sum(
        len(json.dumps(row, separators=(",", ":"))) for row in rows)
    columns: dict[str, object] = {}
    for name, kind in PacketGenerator.SCHEMA.items():
        values = [row[name] for row in rows]
        if kind == "string":
            columns[name] = values
        else:
            array = np.asarray(values, dtype=bool if kind == "bool"
                               else np.int64)
            columns[name] = NumericVector(array, np.ones(len(array), bool))
    rng = np.random.default_rng([seed, 2])
    mix = cfg["query_mix"]
    count = cfg["queries_per_pass"]
    kinds = [mix[i % len(mix)] for i in range(count)]
    urls = sorted(set(columns["url"]))
    users = [int(u) for u in rng.choice(
        columns["user_id"].values, size=cfg["point_lookup_users"],
        replace=False)]
    domains = {
        "dau": [(url, m * 600) for url in urls
                for m in range((cfg["hours"] - 24) * 6 + 1)],
        "province_traffic": [(m * 600,)
                             for m in range((cfg["hours"] - 6) * 6 + 1)],
        "join_region": [(m * 600,)
                        for m in range((cfg["hours"] - 12) * 6 + 1)],
        "point_lookup": [(user,) for user in users],
    }
    draws = {kind: iter(_zipf_choice(rng, domain, kinds.count(kind),
                                     cfg["param_zipf_s"]))
             for kind, domain in domains.items()}
    queries = [(kind, next(draws[kind])) for kind in kinds]
    return QueryInputs(columns, len(rows), user_bytes, queries)


def query_sql(kind: str, params: tuple) -> str:
    if kind == "dau":
        url, offset = params
        start = BASE_TIMESTAMP + offset
        return ("SELECT COUNT(*) AS DAU FROM dpi "
                f"WHERE url = '{url}' AND start_time >= {start} "
                f"AND start_time < {start + 86_400} GROUP BY province")
    if kind == "province_traffic":
        start = BASE_TIMESTAMP + params[0]
        return ("SELECT province, SUM(bytes_down) AS traffic FROM dpi "
                f"WHERE start_time >= {start} AND start_time < "
                f"{start + 6 * 3600} GROUP BY province")
    if kind == "join_region":
        start = BASE_TIMESTAMP + params[0]
        return ("SELECT d.region, SUM(p.bytes_up) AS up FROM dpi p "
                "JOIN provinces d ON p.province = d.province "
                f"WHERE p.start_time >= {start} AND p.start_time < "
                f"{start + 12 * 3600} GROUP BY d.region")
    return f"SELECT * FROM dpi WHERE user_id = {params[0]}"


def canonical(rows: list[dict[str, object]]) -> list:
    """Order-free, type-normalised form of a result for comparison."""
    def plain(value):
        return value.item() if isinstance(value, np.generic) else value
    return sorted(
        sorted((key, plain(value)) for key, value in row.items())
        for row in rows)


def reference_answer(inputs: QueryInputs, kind: str, params: tuple) -> list:
    """The query's answer computed with NumPy from the generated rows."""
    cols = inputs.columns
    start_time = cols["start_time"].values
    provinces = np.asarray(cols["province"])
    if kind == "point_lookup":
        hits = np.flatnonzero(cols["user_id"].values == params[0])
        rows = []
        for index in hits:
            row = {}
            for name, data in cols.items():
                value = (data.values[index] if isinstance(data, NumericVector)
                         else data[index])
                row[name] = value.item() if isinstance(value, np.generic) \
                    else value
            rows.append(row)
        return canonical(rows)
    if kind == "dau":
        url, offset = params
        low = BASE_TIMESTAMP + offset
        mask = ((np.asarray(cols["url"]) == url) & (start_time >= low)
                & (start_time < low + 86_400))
        groups, counts = np.unique(provinces[mask], return_counts=True)
        return canonical([{"province": str(g), "DAU": int(c)}
                          for g, c in zip(groups, counts)])
    low = BASE_TIMESTAMP + params[0]
    if kind == "province_traffic":
        mask = (start_time >= low) & (start_time < low + 6 * 3600)
        values = cols["bytes_down"].values[mask]
        keys = provinces[mask]
        label, column = "province", "traffic"
    else:
        mask = (start_time >= low) & (start_time < low + 12 * 3600)
        values = cols["bytes_up"].values[mask]
        keys = np.asarray([REGIONS[p] for p in provinces[mask]])
        label, column = "d.region", "up"
    groups, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=len(groups))
    return canonical([{label: str(g), column: int(round(s))}
                      for g, s in zip(groups, sums)])


def run_query_pass(workload: str, seed: int, tracer: Tracer | None,
                   verify: bool) -> PassResult:
    """One ``analytics`` or ``degraded`` pass."""
    cfg = SPEC["workloads"]["analytics"]
    degraded = workload == "degraded"
    per_query = SPEC["workloads"]["degraded"]["rebuild_extents_per_query"]
    started = time.perf_counter()
    inputs = make_query_inputs(seed, cfg)
    context = _context(workload, seed)
    context.configure_caches(block_capacity_bytes=cfg["block_tier_bytes"],
                             chunk_capacity_bytes=cfg["chunk_tier_bytes"])
    with use_context(context):
        clock = SimClock()
        pool, bus = _storage(clock)
        lakehouse = Lakehouse(pool, bus, clock, context=context)
        schema = Schema.from_dict(PacketGenerator.SCHEMA)
        table = lakehouse.create_table(
            TOPIC, schema, PartitionSpec.by(cfg["table_partition"]))
        bounds = np.linspace(0, inputs.num_rows, cfg["preload_batches"] + 1,
                             dtype=np.int64)
        for low, high in zip(bounds[:-1], bounds[1:]):
            part = {}
            for name, data in inputs.columns.items():
                if isinstance(data, NumericVector):
                    part[name] = NumericVector(data.values[low:high],
                                               data.valid()[low:high])
                else:
                    part[name] = data[low:high]
            table.insert_columns(part, int(high - low))
        dimension = lakehouse.create_table("provinces", Schema.from_dict(
            {"province": "string", "region": "string"}))
        dimension.insert([{"province": p, "region": r}
                          for p, r in REGIONS.items()])
        rebuild = None
        if degraded:
            pool.disks[_failed_disk_index(seed)].fail()
            rebuild = RebuildQueue(pool, bus, clock)
            rebuild.scan_and_enqueue()
        table_bytes = table.total_bytes()
    setup_s = time.perf_counter() - started

    query_wall: list[float] = []
    query_sim: list[float] = []
    query_stats: list[QueryStats] = []
    answers: list[list] = []
    rebuilt = {"rebuild.extents": 0, "rebuild.retries": 0,
               "rebuild.sim_s": 0.0}
    failed = 0

    pool_before = replace(pool.stats)
    context.reset_stats()
    with TimedPhase(tracer) as timed, use_context(context):
        for index, (kind, params) in enumerate(inputs.queries):
            statement = query_sql(kind, params)
            stats = QueryStats()
            if tracer is not None:
                tracer.request_id = index
            began = time.perf_counter()
            rows = sql.query(lakehouse, statement, stats=stats)
            query_wall.append(time.perf_counter() - began)
            query_sim.append(stats.total_cost_s)
            query_stats.append(stats)
            answers.append(rows)
            if rebuild is not None and len(rebuild):
                report = rebuild.run(max_ops=per_query)
                rebuilt["rebuild.extents"] += report.rebuilt_extents
                rebuilt["rebuild.retries"] += report.retries
                rebuilt["rebuild.sim_s"] += report.sim_seconds
                failed += len(report.gave_up) + len(report.unrecoverable)

    layers = _layer_counts(context, pool, pool_before, inputs.user_bytes)
    layers.update(_scan_counts(query_stats))
    layers.update(rebuilt)
    layers["table_bytes"] = table_bytes
    canon = [canonical(rows) for rows in answers]
    digest = hashlib.sha256(
        json.dumps(canon, default=str).encode()).hexdigest()
    if verify:
        for (kind, params), got in zip(inputs.queries, canon):
            want = reference_answer(inputs, kind, params)
            check(got == want,
                  f"{workload}: {query_sql(kind, params)!r} returned "
                  f"{got[:3]}..., the NumPy reference gives {want[:3]}...")
    if degraded:
        check(len(rebuild) == 0 and pool.fully_redundant,
              "degraded: the pool is not fully redundant after the pass")
    exact = {
        "stored_bytes_per_user_byte": pool.used_bytes / inputs.user_bytes,
    }
    if not degraded:
        exact["query_sim_p50_ms"] = 1e3 * percentile(query_sim, 50)
        exact["query_sim_p99_ms"] = 1e3 * percentile(query_sim, 99)
    return PassResult(
        setup_s=setup_s, wall_s=timed.wall_s,
        samples={"query_wall_ms": [1e3 * w for w in query_wall]},
        totals={"queries": len(inputs.queries)},
        exact=exact, layers=layers, digest=digest,
        attempted=len(inputs.queries) + rebuilt["rebuild.extents"],
        failed=failed, spans=timed.spans, hook_counts=timed.hook_counts,
    )


def run_pass(workload: str, seed: int, tracer: Tracer | None,
             verify: bool) -> PassResult:
    if workload in ("stream", "reunion"):
        return run_ingest_pass(workload, seed, tracer, verify)
    return run_query_pass(workload, seed, tracer, verify)
