"""Equivalence tests for the vectorized reunion path (stream->table).

The vectorized converter (:meth:`StreamTableConverter.run_cycle`) and the
vectorized compaction (:meth:`TableObject.compact`) must behave exactly
like their row-at-a-time oracles (``run_cycle_rows`` / ``compact_rows``):
same converted/malformed counts, same table content, same statistics.
Hypothesis drives randomized payload mixes (malformed JSON, missing and
extra fields, unicode, wrong types, all-null columns) through twin stacks
running both paths.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.common import stats
from repro.common.clock import SimClock
from repro.storage.bus import DataBus
from repro.storage.disk import HDD_PROFILE, NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.storage.replication import Replication
from repro.stream.config import ConvertToTableConfig, TopicConfig
from repro.stream.producer import Producer
from repro.stream.service import MessageStreamingService
from repro.table.conversion import StreamTableConverter
from repro.table.expr import Predicate
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.schema import Column, ColumnType, PartitionSpec, Schema
from repro.table.table import Lakehouse

REUNION_SCHEMA = Schema([
    Column("user", ColumnType.STRING),
    Column("value", ColumnType.INT64),
    Column("score", ColumnType.FLOAT64, nullable=True),
    Column("flag", ColumnType.BOOL, nullable=True),
    Column("note", ColumnType.STRING, nullable=True),
    Column("ts", ColumnType.TIMESTAMP),
])


def make_stack():
    """A full fresh stack (hypothesis tests cannot reuse fixtures)."""
    clock = SimClock()
    ec_pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    ec_pool.add_disks(NVME_SSD_PROFILE, 8)
    hdd_pool = StoragePool("hdd", clock, policy=Replication(3))
    hdd_pool.add_disks(HDD_PROFILE, 4)
    bus = DataBus(clock)
    plogs = PLogManager(ec_pool, clock)
    service = MessageStreamingService(
        plogs, bus, clock, num_workers=3, archive_pool=hdd_pool
    )
    lakehouse = Lakehouse(
        ec_pool, bus, clock,
        meta_store=AcceleratedMetadataStore(
            KVEngine("meta"), ec_pool, clock
        ),
    )
    return service, lakehouse, clock


def make_converter(service, lakehouse, clock, partition_spec=None):
    config = TopicConfig(
        stream_num=2,
        convert_2_table=ConvertToTableConfig(
            enabled=True,
            table_schema={
                column.name: column.type.value
                for column in REUNION_SCHEMA.columns
            },
            table_path="tables/events",
            split_offset=50,
            split_time_s=100.0,
        ),
    )
    service.create_topic("events", config)
    table = lakehouse.create_table(
        "events", REUNION_SCHEMA, partition_spec or PartitionSpec(),
        path="tables/events",
    )
    return StreamTableConverter(service, "events", table, clock), table


def publish(service, payloads, batch_size=10):
    producer = Producer(service, batch_size=batch_size)
    for index, payload in enumerate(payloads):
        producer.send("events", payload, key=str(index))
    producer.flush()


def canon(rows):
    """Order-independent canonical form of a row set."""
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


def run_both(payloads, partition_spec=None):
    """Run the vectorized path and the row-wise oracle on twin stacks."""
    service_v, lake_v, clock_v = make_stack()
    converter_v, table_v = make_converter(
        service_v, lake_v, clock_v, partition_spec
    )
    publish(service_v, payloads)
    report_v = converter_v.run_cycle(force=True)

    service_r, lake_r, clock_r = make_stack()
    converter_r, table_r = make_converter(
        service_r, lake_r, clock_r, partition_spec
    )
    publish(service_r, payloads)
    report_r = converter_r.run_cycle_rows(force=True)
    return (report_v, table_v, converter_v), (report_r, table_r, converter_r)


def assert_equivalent(payloads, partition_spec=None):
    (report_v, table_v, conv_v), (report_r, table_r, conv_r) = run_both(
        payloads, partition_spec
    )
    assert report_v.converted == report_r.converted
    assert report_v.malformed == report_r.malformed
    assert canon(table_v.select()) == canon(table_r.select())
    assert conv_v._positions == conv_r._positions
    if partition_spec is not None:
        assert sorted(table_v.partitions()) == sorted(table_r.partitions())


def row_bytes(user="u", value=0, ts=0, **extra):
    return json.dumps(
        {"user": user, "value": value, "ts": ts, **extra},
        ensure_ascii=False,
    ).encode()


# --- curated equivalence cases ---------------------------------------------


def test_equivalence_clean_batch():
    assert_equivalent([row_bytes(value=i, ts=i) for i in range(120)])


def test_equivalence_malformed_json():
    assert_equivalent([
        row_bytes(value=1),
        b"this is not json",
        b"{truncated",
        b"1,2",  # merges across the batch-join commas; per-value it fails
        b"",
        row_bytes(value=2),
    ])


def test_equivalence_non_dict_documents():
    assert_equivalent([
        b"[1,2,3]", b'"a string"', b"42", b"null", b"true",
        row_bytes(value=7),
    ])


def test_equivalence_missing_and_extra_fields():
    assert_equivalent([
        b'{"user":"u","value":1}',                 # missing ts: malformed
        b'{"value":2,"ts":2}',                     # missing user: malformed
        row_bytes(value=3),                        # nullable fields missing: ok
        row_bytes(value=4, unknown_field="x"),     # extra field dropped
        b'{}',
    ])


def test_equivalence_wrong_types():
    assert_equivalent([
        row_bytes(value="not an int"),
        row_bytes(value=True),          # bool is not an int64
        row_bytes(value=1.5),           # float is not an int64
        row_bytes(user=99),
        row_bytes(value=5, score="x"),
        row_bytes(value=6, flag=1),     # int is not a bool
        row_bytes(value=7, score=3),    # int IS valid in a float column
        row_bytes(value=8, flag=True, score=2.5, note="ok"),
    ])


def test_equivalence_unicode():
    assert_equivalent([
        row_bytes(user="北京", value=1, note="héllo ✓"),
        row_bytes(user="\x00ctl", value=2),
        row_bytes(user="🚀", value=3, note="émoji"),
    ])


def test_equivalence_all_null_columns():
    assert_equivalent([
        row_bytes(value=i, score=None, flag=None, note=None)
        for i in range(30)
    ])


def test_equivalence_empty_cycle():
    (report_v, table_v, _), (report_r, table_r, _) = run_both([])
    assert report_v.converted == report_r.converted == 0
    assert report_v.malformed == report_r.malformed == 0
    assert table_v.select() == table_r.select() == []


def test_equivalence_partitioned_with_day_transform():
    spec = PartitionSpec.by("user", "day(ts)")
    assert_equivalent(
        [
            row_bytes(user=f"u{i % 3}", value=i, ts=i * 40_000)
            for i in range(60)
        ],
        partition_spec=spec,
    )


def test_equivalence_transactions():
    """Open transactions block conversion at the LSO in both paths."""
    outcomes = []
    for method in ("run_cycle", "run_cycle_rows"):
        service, lakehouse, clock = make_stack()
        converter, table = make_converter(service, lakehouse, clock)
        committed = Producer(service, batch_size=4)
        open_producer = Producer(service, batch_size=4)
        committed.begin_transaction()
        for i in range(8):
            committed.send("events", row_bytes(value=i), key=str(i))
        committed.commit_transaction()
        open_producer.begin_transaction()
        for i in range(8, 12):
            open_producer.send("events", row_bytes(value=i), key=str(i))
        open_producer.flush()
        # messages behind the open transaction's barrier must not convert
        publish(service, [row_bytes(value=i) for i in range(12, 16)])
        report = getattr(converter, method)(force=True)
        first = (report.converted, report.malformed, canon(table.select()),
                 dict(converter._positions))
        open_producer.abort_transaction()
        report2 = getattr(converter, method)(force=True)
        outcomes.append(first + (report2.converted,
                                 canon(table.select()),
                                 dict(converter._positions)))
    assert outcomes[0] == outcomes[1]
    # the committed transaction's rows did convert in the first cycle
    assert outcomes[0][0] == 8


# --- hypothesis: randomized payload mixes ----------------------------------

_text = st.text(max_size=8)
_valid_row = st.fixed_dictionaries(
    {
        "user": _text,
        "value": st.integers(-2**40, 2**40),
        "ts": st.integers(0, 2**33),
    },
    optional={
        "score": st.none() | st.integers(-100, 100) | st.floats(
            allow_nan=False, allow_infinity=False, width=32
        ),
        "flag": st.none() | st.booleans(),
        "note": st.none() | _text,
        "extra_field": st.integers(),
    },
)
_bad_typed_row = st.fixed_dictionaries({
    "user": st.integers() | st.booleans(),
    "value": _text | st.floats(allow_nan=False),
    "ts": st.integers(0, 100),
})
_payload = st.one_of(
    _valid_row.map(lambda r: json.dumps(r, ensure_ascii=False).encode()),
    _bad_typed_row.map(lambda r: json.dumps(r).encode()),
    st.sampled_from([
        b"not json", b"{", b'"str"', b"[1,2]", b"1,2", b"null", b"{}",
        b'{"user":"u","value":1}',
    ]),
)


@settings(max_examples=25, deadline=None)
@given(payloads=st.lists(_payload, max_size=40))
def test_equivalence_random_payload_mix(payloads):
    assert_equivalent(payloads)


# --- conversion statistics ---------------------------------------------------


def test_conversion_stats_counters():
    counters = stats.conversion_stats()
    counters.reset()
    (report_v, _, _), _ = run_both(
        [row_bytes(value=i) for i in range(20)] + [b"broken"]
    )
    snapshot = counters.snapshot()
    assert snapshot["cycles"] == 1
    assert snapshot["rows_converted"] == report_v.converted == 20
    assert snapshot["rows_malformed"] == report_v.malformed == 1
    assert snapshot["slices_consumed"] == report_v.slices_consumed
    assert snapshot["validation_s"] == report_v.validation_s > 0.0
    # the broken value forces the per-row parse fallback
    assert snapshot["row_parse_fallbacks"] >= 1


def test_report_counts_sealed_slices(service, lakehouse, clock):
    converter, _ = make_converter(service, lakehouse, clock)
    publish(service, [row_bytes(value=i) for i in range(400)])
    report = converter.run_cycle(force=True)
    assert report.converted == 400
    assert report.slices_consumed > 0


# --- compaction equivalence ---------------------------------------------------


def _filled_table(lakehouse, name):
    table = lakehouse.create_table(
        name, REUNION_SCHEMA, PartitionSpec.by("user"), path=f"tables/{name}"
    )
    for batch in range(4):
        table.insert([
            {
                "user": f"u{i % 2}",
                "value": batch * 10 + i,
                "score": None if i % 3 == 0 else i * 1.5,
                "flag": None if i % 4 == 0 else (i % 2 == 0),
                "note": None if i % 5 == 0 else f"note-{i}",
                "ts": batch * 1000 + i,
            }
            for i in range(10)
        ])
    return table


def test_compact_matches_rowwise_oracle(lakehouse):
    vectorized = _filled_table(lakehouse, "vec")
    oracle = _filled_table(lakehouse, "row")
    before = canon(vectorized.select())
    assert before == canon(oracle.select())
    for partition in sorted(vectorized.partitions()):
        vectorized.compact(partition, target_file_bytes=10**9)
        oracle.compact_rows(partition, target_file_bytes=10**9)
    assert canon(vectorized.select()) == canon(oracle.select()) == before
    assert vectorized.live_file_count() == oracle.live_file_count() == 2
    # merged files carry identical footer statistics
    vec_meta = {
        partition: (metas[0].record_count, metas[0].value_ranges)
        for partition, metas in vectorized.partitions().items()
    }
    row_meta = {
        partition: (metas[0].record_count, metas[0].value_ranges)
        for partition, metas in oracle.partitions().items()
    }
    assert vec_meta == row_meta


def test_compact_preserves_scan_and_stats(lakehouse):
    table = _filled_table(lakehouse, "events")
    predicate = Predicate("value", "<", 15)
    before_all = canon(table.select())
    before_pred = canon(table.select(predicate))
    version_before = table.snapshots.current_version
    for partition in sorted(table.partitions()):
        assert table.compact(partition, target_file_bytes=10**9) > 0.0
    assert table.snapshots.current_version > version_before
    assert canon(table.select()) == before_all
    assert canon(table.select(predicate)) == before_pred
    for partition, metas in table.partitions().items():
        assert len(metas) == 1
        meta = metas[0]
        assert meta.record_count == 20
        low, high = meta.value_ranges["user"]
        assert low == high == partition.split("=", 1)[1]
