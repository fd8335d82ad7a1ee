"""Unit tests for metadata stores: file-based vs accelerated (Fig 9)."""

import pytest

from repro.common.clock import SimClock
from repro.storage.disk import HDD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.storage.replication import Replication
from repro.table.commit import CommitFile, DataFileMeta
from repro.table.metacache import AcceleratedMetadataStore, FileMetadataStore
from repro.table.snapshot import SnapshotLog


def build(kind, flush_threshold=4):
    clock = SimClock()
    pool = StoragePool("meta", clock, policy=Replication(2))
    pool.add_disks(HDD_PROFILE, 2)
    if kind == "file":
        store = FileMetadataStore(pool, clock)
    else:
        store = AcceleratedMetadataStore(
            KVEngine("kv"), pool, clock, flush_threshold=flush_threshold
        )
    return store, pool, clock


def make_commit(log, files=2):
    added = tuple(
        DataFileMeta(
            path=f"t/data/p/f{log._next_commit_id}-{i}.col",
            partition="p", record_count=10, size_bytes=1000,
            value_ranges={"x": (0, 1)},
        )
        for i in range(files)
    )
    commit = CommitFile(
        commit_id=log.new_commit_id(), timestamp=0.0,
        operation="insert", added=added,
    )
    return commit, log.record(commit)


def test_file_store_writes_commit_and_snapshot_files():
    store, pool, _ = build("file")
    log = SnapshotLog()
    commit, snapshot = make_commit(log)
    cost = store.record_commit("t", commit, snapshot)
    assert cost > 0
    extents = pool.extent_ids()
    assert any("commit-" in e for e in extents)
    assert any("snapshot-" in e for e in extents)


def test_file_store_read_cost_linear_in_commits():
    store, _, _ = build("file")
    small = store.read_state_cost("t", num_commits=10, num_live_files=100)
    large = store.read_state_cost("t", num_commits=100, num_live_files=1000)
    assert large > 5 * small


def test_accel_store_caches_commits_in_kv():
    store, pool, _ = build("accel", flush_threshold=100)
    log = SnapshotLog()
    commit, snapshot = make_commit(log)
    store.record_commit("t", commit, snapshot)
    assert store.pending_commits("t") == 1
    assert pool.extent_ids() == []  # nothing on disk until MetaFresher runs
    assert store._kv.get(f"meta/t/commit/{commit.commit_id}/{commit.added[0].path}")


def test_metafresher_flush_at_threshold():
    store, pool, _ = build("accel", flush_threshold=3)
    log = SnapshotLog()
    for _ in range(3):
        commit, snapshot = make_commit(log)
        store.record_commit("t", commit, snapshot)
    assert store.pending_commits("t") == 0
    assert store.flushes == 1
    assert store.flushed_commits == 3
    merged = [e for e in pool.extent_ids() if "merged-" in e]
    assert len(merged) == 1


def test_flush_clears_kv_entries():
    store, _, _ = build("accel", flush_threshold=2)
    log = SnapshotLog()
    commits = []
    for _ in range(2):
        commit, snapshot = make_commit(log)
        commits.append(commit)
        store.record_commit("t", commit, snapshot)
    for commit in commits:
        assert list(store._kv.scan(f"meta/t/commit/{commit.commit_id}/")) == []


def test_accel_read_cost_flat_in_commits():
    store, _, _ = build("accel", flush_threshold=256)
    small = store.read_state_cost("t", num_commits=10, num_live_files=100)
    large = store.read_state_cost("t", num_commits=200, num_live_files=2000)
    assert large < small * 10  # near-flat (Fig 15(a) accelerated curve)


def test_accel_much_cheaper_than_file_based():
    accel, _, _ = build("accel", flush_threshold=256)
    file_store, _, _ = build("file")
    commits, files = 500, 5000
    assert accel.read_state_cost("t", commits, files) < (
        file_store.read_state_cost("t", commits, files) / 20
    )


def test_drop_clears_cache_then_disk():
    """Drop table hard: clear the cache first, then delete from disk."""
    store, pool, _ = build("accel", flush_threshold=2)
    log = SnapshotLog()
    for _ in range(3):  # 2 flushed + 1 pending
        commit, snapshot = make_commit(log)
        store.record_commit("t", commit, snapshot)
    assert store.pending_commits("t") == 1
    store.drop("t")
    assert store.pending_commits("t") == 0
    assert list(store._kv.scan("meta/t/")) == []
    assert [e for e in pool.extent_ids() if e.startswith("t/metadata/")] == []


def test_file_store_drop():
    store, pool, _ = build("file")
    log = SnapshotLog()
    commit, snapshot = make_commit(log)
    store.record_commit("t", commit, snapshot)
    store.drop("t")
    assert [e for e in pool.extent_ids() if e.startswith("t/metadata/")] == []


def test_invalid_flush_threshold():
    clock = SimClock()
    pool = StoragePool("p", clock, policy=Replication(2))
    pool.add_disks(HDD_PROFILE, 2)
    with pytest.raises(ValueError):
        AcceleratedMetadataStore(KVEngine("k"), pool, clock,
                                 flush_threshold=0)


def test_empty_commit_cached_under_sentinel():
    store, _, _ = build("accel", flush_threshold=10)
    log = SnapshotLog()
    commit = CommitFile(commit_id=log.new_commit_id(), timestamp=0.0,
                        operation="delete", removed=("gone",))
    snapshot = log.record(commit)
    store.record_commit("t", commit, snapshot)
    assert store._kv.get(f"meta/t/commit/{commit.commit_id}/_") is commit
