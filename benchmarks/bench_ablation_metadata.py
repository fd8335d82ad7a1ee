"""Ablation: metadata-acceleration design choices.

Sweeps the MetaFresher flush threshold (how many cached commits aggregate
into one merged metadata file) and isolates the two ingredients of the
acceleration — the KV write cache and the merged flush — to show each
contributes (DESIGN.md: "metadata acceleration" design choices).
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import ResultTable
from repro.common.clock import SimClock
from repro.common.units import MiB
from repro.storage.disk import HDD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.table.commit import CommitFile, DataFileMeta
from repro.table.metacache import AcceleratedMetadataStore, FileMetadataStore
from repro.table.snapshot import SnapshotLog

COMMITS = 600
QUERIES = 100


def _drive(store, log: SnapshotLog) -> tuple[float, float]:
    """Returns (total commit cost, total query-planning cost)."""
    table_path = "tables/ablation"
    write_cost = 0.0
    for index in range(COMMITS):
        commit = CommitFile(
            commit_id=log.new_commit_id(),
            timestamp=float(index),
            operation="insert",
            added=(DataFileMeta(
                path=f"{table_path}/data/h{index}/f.col",
                partition=f"h{index}", record_count=1000,
                size_bytes=1 * MiB, value_ranges={"t": (index, index + 1)},
            ),),
        )
        snapshot = log.record(commit)
        write_cost += store.record_commit(table_path, commit, snapshot)
    read_cost = sum(
        store.read_state_cost(table_path, COMMITS, COMMITS)
        for _ in range(QUERIES)
    )
    return write_cost, read_cost


def _make(kind: str, flush_threshold: int = 256):
    clock = SimClock()
    pool = StoragePool("meta", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(HDD_PROFILE, 6)
    if kind == "file":
        return FileMetadataStore(pool, clock)
    return AcceleratedMetadataStore(
        KVEngine("kv"), pool, clock, flush_threshold=flush_threshold
    )


def test_ablation_flush_threshold(benchmark) -> None:
    def sweep():
        out = []
        for threshold in (1, 16, 64, 256, 1024):
            store = _make("accel", threshold)
            write_cost, read_cost = _drive(store, SnapshotLog())
            out.append({
                "threshold": threshold,
                "write_s": write_cost,
                "read_s": read_cost,
                "flushes": store.flushes,
            })
        file_store = _make("file")
        write_cost, read_cost = _drive(file_store, SnapshotLog())
        out.append({
            "threshold": "file-based",
            "write_s": write_cost,
            "read_s": read_cost,
            "flushes": COMMITS,
        })
        return out

    results = run_once(benchmark, sweep)
    table = ResultTable(
        "Ablation - MetaFresher flush threshold "
        f"({COMMITS} commits, {QUERIES} queries)",
        ["flush threshold", "commit cost s", "query metadata s", "flushes"],
    )
    for entry in results:
        table.add_row(entry["threshold"], entry["write_s"],
                      entry["read_s"], entry["flushes"])
    table.show()

    accel = [e for e in results if e["threshold"] != "file-based"]
    file_based = results[-1]
    # flush threshold 1 degenerates to one metadata file per commit: no
    # better than the file-based catalog; larger thresholds win clearly
    assert accel[-1]["write_s"] < accel[0]["write_s"]
    assert accel[0]["read_s"] < file_based["read_s"] * 1.5
    for entry in accel:
        if entry["threshold"] >= 16:  # type: ignore[operator]
            assert entry["read_s"] < file_based["read_s"] / 5


def test_ablation_write_cache_isolates_small_io(benchmark) -> None:
    """The write cache turns per-commit small files into few merged ones."""

    def measure():
        aggregated = _make("accel", 256)
        _drive(aggregated, SnapshotLog())
        per_commit = _make("accel", 1)
        _drive(per_commit, SnapshotLog())
        return aggregated, per_commit

    aggregated, per_commit = run_once(benchmark, measure)
    table = ResultTable(
        "Ablation - metadata files written",
        ["configuration", "merged files (flushes)"],
    )
    table.add_row("write cache, threshold 256", aggregated.flushes)
    table.add_row("flush every commit", per_commit.flushes)
    table.show()
    assert aggregated.flushes * 50 < per_commit.flushes
