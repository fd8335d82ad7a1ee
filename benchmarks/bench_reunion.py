"""Reunion write path: vectorized conversion/compaction vs row-wise oracle.

The stream->table converter used to materialize every record, parse its
JSON value and validate it row by row, then insert row dicts that the
columnar writer re-validated and re-gathered per column.  The vectorized
path (``run_cycle``) streams whole packed slices' values out, parses the
batch as one JSON array, validates column-at-a-time into typed NumPy
vectors and builds row groups straight from column slices; compaction
(``compact``) merges files at the decoded-vector level the same way.

This bench runs the same 100k-message JSON log workload through both
paths and a 20-file compaction through both merge implementations,
recording rows/sec into ``BENCH_reunion.json`` together with a
:class:`~repro.common.stats.ConversionStats` snapshot.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

from repro.bench import ResultTable
from repro.common.clock import SimClock
from repro.common.stats import conversion_stats
from repro.storage.bus import DataBus, TransportKind
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
from repro.table.schema import Column, ColumnType, PartitionSpec, Schema
from repro.table.table import Lakehouse

NUM_MESSAGES = 100_000
COMPACT_FILES = 20
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_reunion.json"

#: acceptance gates: the vectorized paths must keep these speedups over
#: the row-at-a-time oracles (relaxed in --smoke mode, where fixed
#: per-cycle overheads dominate the smaller workload)
MIN_CONVERT_SPEEDUP = 5.0
MIN_COMPACT_SPEEDUP = 3.0

SCHEMA = Schema([
    Column("user", ColumnType.STRING),
    Column("value", ColumnType.INT64),
    Column("score", ColumnType.FLOAT64, nullable=True),
    Column("flag", ColumnType.BOOL, nullable=True),
    Column("ts", ColumnType.TIMESTAMP),
])


def _payloads(count: int) -> list[bytes]:
    """JSON log lines: mostly clean, with a sprinkle of malformed ones."""
    out = []
    for index in range(count):
        if index % 1000 == 999:
            out.append(b"@@ mangled log line %d" % index)
            continue
        out.append(json.dumps({
            "user": f"u{index % 50}",
            "value": index,
            "score": None if index % 7 == 0 else (index % 1000) / 8,
            "flag": index % 3 == 0,
            "ts": 1_700_000_000 + index,
        }, separators=(",", ":")).encode())
    return out


def _build_stack() -> tuple[MessageStreamingService, Lakehouse, SimClock]:
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    plogs = PLogManager(pool, clock)
    bus = DataBus(clock, transport=TransportKind.RDMA)
    service = MessageStreamingService(plogs, bus, clock, num_workers=2)
    lakehouse = Lakehouse(
        pool, bus, clock,
        meta_store=AcceleratedMetadataStore(KVEngine("meta"), pool,
                                            clock),
    )
    return service, lakehouse, clock


def _build_converter(service, lakehouse, clock) -> StreamTableConverter:
    config = TopicConfig(
        stream_num=2,
        convert_2_table=ConvertToTableConfig(
            enabled=True,
            table_schema=SCHEMA.to_dict(),
            table_path="tables/events",
            split_offset=10_000,
            split_time_s=3600.0,
        ),
    )
    service.create_topic("events", config)
    table = lakehouse.create_table(
        "events", SCHEMA, PartitionSpec(), path="tables/events"
    )
    return StreamTableConverter(service, "events", table, clock)


#: timed regions repeat this many times (fresh stack each) and the best
#: run wins — scheduler noise on shared machines otherwise dominates the
#: single-digit-second measurements
REPEATS = 3


def _run_conversion(method: str, payloads: list[bytes],
                    repeats: int = REPEATS) -> dict:
    """Publish the workload, then time one forced conversion cycle.

    Best-of-``repeats``: each attempt rebuilds the whole stack and
    republishes, so runs are independent and the minimum wall time
    reflects the path's cost rather than transient machine load.
    """
    best: dict | None = None
    for _ in range(repeats):
        service, lakehouse, clock = _build_stack()
        converter = _build_converter(service, lakehouse, clock)
        producer = Producer(service, batch_size=1024)
        producer.send_batch("events", payloads)
        producer.flush()
        conversion_stats().reset()
        gc.collect()

        start = time.perf_counter()
        report = getattr(converter, method)(force=True)
        elapsed = time.perf_counter() - start
        expected = len(payloads) - report.malformed
        if report.converted != expected:
            raise AssertionError(
                f"{method} converted {report.converted}, expected {expected}"
            )
        if best is None or elapsed < best["wall_s"]:
            best = {
                "method": method,
                "rows_converted": report.converted,
                "rows_malformed": report.malformed,
                "wall_s": elapsed,
                "rows_per_s": report.converted / elapsed,
                "sim_seconds": report.sim_seconds,
                "conversion_stats": conversion_stats().snapshot(),
            }
    return best


def _run_compaction(method: str, num_rows: int,
                    repeats: int = REPEATS) -> dict:
    """Insert ``COMPACT_FILES`` small files, then time one merge.

    Best-of-``repeats`` with a fresh table per attempt, like
    :func:`_run_conversion`.
    """
    parsed = [json.loads(p) for p in _payloads(num_rows)
              if not p.startswith(b"@@")]
    best: dict | None = None
    for _ in range(repeats):
        _, lakehouse, _ = _build_stack()
        table = lakehouse.create_table("logs", SCHEMA, PartitionSpec(),
                                       path="tables/logs")
        per_file = max(1, len(parsed) // COMPACT_FILES)
        for start in range(0, len(parsed), per_file):
            table.insert(parsed[start:start + per_file])
        files_before = table.live_file_count()
        gc.collect()

        start_t = time.perf_counter()
        getattr(table, method)("all", target_file_bytes=10**12)
        elapsed = time.perf_counter() - start_t
        if table.live_file_count() != 1:
            raise AssertionError(
                f"{method} left {table.live_file_count()} files"
            )
        if best is None or elapsed < best["wall_s"]:
            best = {
                "method": method,
                "files_merged": files_before,
                "rows": len(parsed),
                "wall_s": elapsed,
                "rows_per_s": len(parsed) / elapsed,
            }
    return best


def run_reunion_bench(num_messages: int = NUM_MESSAGES,
                      result_path: Path | None = RESULT_PATH) -> dict:
    payloads = _payloads(num_messages)
    convert_rows = _run_conversion("run_cycle_rows", payloads)
    convert_vec = _run_conversion("run_cycle", payloads)
    compact_rows = _run_compaction("compact_rows", num_messages)
    compact_vec = _run_compaction("compact", num_messages)

    results = {
        "num_messages": num_messages,
        "compact_files": COMPACT_FILES,
        "repeats": REPEATS,
        "convert_rowwise": convert_rows,
        "convert_vectorized": convert_vec,
        "compact_rowwise": compact_rows,
        "compact_vectorized": compact_vec,
        "speedup_convert": (convert_vec["rows_per_s"]
                            / convert_rows["rows_per_s"]),
        "speedup_compact": (compact_vec["rows_per_s"]
                            / compact_rows["rows_per_s"]),
    }
    if result_path is not None:
        result_path.write_text(json.dumps(results, indent=2) + "\n")

    table = ResultTable(
        f"Reunion write path: {num_messages:,} JSON log messages",
        ["path", "convert rows/s", "compact rows/s"],
    )
    table.add_row("row-at-a-time oracle",
                  f"{convert_rows['rows_per_s']:,.0f}",
                  f"{compact_rows['rows_per_s']:,.0f}")
    table.add_row("vectorized",
                  f"{convert_vec['rows_per_s']:,.0f}",
                  f"{compact_vec['rows_per_s']:,.0f}")
    table.show()
    print(
        f"speedups vs row-wise: convert {results['speedup_convert']:.1f}x, "
        f"compact {results['speedup_compact']:.1f}x"
    )
    print(f"vectorized conversion stats: {convert_vec['conversion_stats']}")
    return results


def test_reunion_vectorized(benchmark) -> None:
    from conftest import run_once

    results = run_once(benchmark, run_reunion_bench)
    assert results["speedup_convert"] >= MIN_CONVERT_SPEEDUP
    assert results["speedup_compact"] >= MIN_COMPACT_SPEEDUP
    vec = results["convert_vectorized"]
    assert (vec["rows_converted"]
            == results["convert_rowwise"]["rows_converted"])
    assert vec["conversion_stats"]["slices_consumed"] > 0


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_reunion_bench(
        num_messages=10_000 if smoke else NUM_MESSAGES,
        # smoke runs gate CI but must not clobber the committed full-scale
        # result file
        result_path=None if smoke else RESULT_PATH,
    )
    convert_floor = 2.5 if smoke else MIN_CONVERT_SPEEDUP
    compact_floor = 1.5 if smoke else MIN_COMPACT_SPEEDUP
    if outcome["speedup_convert"] < convert_floor:
        raise SystemExit(
            f"vectorized conversion too slow: "
            f"{outcome['speedup_convert']:.1f}x (need >= {convert_floor}x)"
        )
    if outcome["speedup_compact"] < compact_floor:
        raise SystemExit(
            f"vectorized compaction too slow: "
            f"{outcome['speedup_compact']:.1f}x (need >= {compact_floor}x)"
        )
