"""Unit tests for storage pools: redundant storage, GC, snapshots, repair."""

import pytest

from repro.common.clock import SimClock
from repro.common.context import ExecutionContext, use_context
from repro.errors import CapacityError, ObjectNotFoundError, UnrecoverableDataError
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.storage.replication import Replication


def make_pool(policy, disks=8):
    clock = SimClock()
    pool = StoragePool("p", clock, policy=policy)
    pool.add_disks(NVME_SSD_PROFILE, disks)
    return pool


def test_store_fetch_roundtrip_ec():
    pool = make_pool(erasure_coding_policy(4, 2))
    pool.store("k", b"hello pool")
    payload, cost = pool.fetch("k")
    assert payload == b"hello pool"
    assert cost > 0


def test_store_fetch_roundtrip_replication():
    pool = make_pool(Replication(3), disks=3)
    pool.store("k", b"hello pool")
    assert pool.fetch("k")[0] == b"hello pool"


def test_duplicate_store_raises():
    pool = make_pool(Replication(2), disks=2)
    pool.store("k", b"x")
    with pytest.raises(ValueError):
        pool.store("k", b"y")


def test_fragments_on_distinct_disks():
    pool = make_pool(erasure_coding_policy(4, 2))
    pool.store("k", b"z" * 1000)
    holders = [d for d in pool.disks if d.used_bytes > 0]
    assert len(holders) == 6


def test_not_enough_disks_raises():
    pool = make_pool(erasure_coding_policy(4, 2), disks=5)
    with pytest.raises(CapacityError):
        pool.store("k", b"x")


def test_ec_physical_overhead():
    pool = make_pool(erasure_coding_policy(4, 2))
    pool.store("k", b"x" * 4000)
    assert pool.used_bytes == pytest.approx(6000, abs=16)
    assert pool.logical_bytes == 4000


def test_replication_physical_overhead():
    pool = make_pool(Replication(3), disks=3)
    pool.store("k", b"x" * 1000)
    assert pool.used_bytes == 3000


def test_fetch_survives_tolerated_failures():
    pool = make_pool(erasure_coding_policy(4, 2))
    pool.store("k", b"resilient" * 100)
    failed = [d for d in pool.disks if d.used_bytes > 0][:2]
    for disk in failed:
        disk.fail()
    assert pool.fetch("k")[0] == b"resilient" * 100


def test_fetch_fails_beyond_tolerance():
    pool = make_pool(erasure_coding_policy(4, 1), disks=5)
    pool.store("k", b"fragile" * 100)
    for disk in [d for d in pool.disks if d.used_bytes > 0][:2]:
        disk.fail()
    with pytest.raises(UnrecoverableDataError):
        pool.fetch("k")


def test_delete_then_fetch_raises():
    pool = make_pool(Replication(2), disks=2)
    pool.store("k", b"x")
    pool.delete("k")
    with pytest.raises(ObjectNotFoundError):
        pool.fetch("k")
    assert not pool.has_extent("k")


def test_gc_reclaims_tombstones():
    pool = make_pool(Replication(2), disks=2)
    pool.store("k", b"x" * 500)
    pool.delete("k")
    assert pool.used_bytes == 1000  # tombstoned, not yet reclaimed
    freed = pool.garbage_collect()
    assert freed == 1000
    assert pool.used_bytes == 0


def test_snapshot_pins_extents_across_gc():
    pool = make_pool(Replication(2), disks=2)
    pool.store("k", b"keep me")
    pool.snapshot("snap1")
    pool.delete("k")
    assert pool.garbage_collect() == 0  # pinned by the snapshot
    pool.drop_snapshot("snap1")
    assert pool.garbage_collect() > 0


def test_snapshot_duplicate_name_raises():
    pool = make_pool(Replication(2), disks=2)
    pool.snapshot("s")
    with pytest.raises(ValueError):
        pool.snapshot("s")


def test_snapshot_extent_listing():
    pool = make_pool(Replication(2), disks=2)
    pool.store("a", b"1")
    pool.snapshot("s")
    pool.store("b", b"2")
    assert pool.snapshot_extents("s") == {"a"}


def test_repair_disk_restores_redundancy():
    pool = make_pool(erasure_coding_policy(4, 2))
    pool.store("k", b"repairable" * 200)
    victim = next(d for d in pool.disks if d.used_bytes > 0)
    victim_id = victim.disk_id
    victim.fail()
    rebuilt = pool.repair_disk(victim_id)
    assert rebuilt == 1
    assert victim.used_bytes > 0
    # after repair, two *different* failures are survivable again
    others = [d for d in pool.disks if d.used_bytes > 0 and d.disk_id != victim_id]
    others[0].fail()
    victim2 = others[1]
    victim2.fail()
    assert pool.fetch("k")[0] == b"repairable" * 200


def test_repairs_are_not_counted_as_ingest_encodes():
    """Rebuilding a fragment is repair work, not stream ingestion: the
    ingest EC counters stay put while the pool's repair counters move."""
    pool = make_pool(erasure_coding_policy(4, 2))
    data = bytes(range(256)) * 40
    pool.store("k", data)
    holders = [d for d in pool.disks if d.used_bytes > 0]
    with use_context(ExecutionContext(name="repair")) as context:
        holders[0].fail()
        assert pool.rebuild_extent("k")[0] == 1
        holders[1].fail()
        assert pool.repair_disk(holders[1].disk_id) == 1
    assert context.ingest.ec_encode_calls == 0
    assert context.ingest.ec_payloads_encoded == 0
    assert pool.stats.rebuilds == 1
    assert pool.stats.repairs == 1
    assert pool.fetch("k")[0] == data


def test_repair_healthy_disk_raises():
    pool = make_pool(Replication(2), disks=2)
    with pytest.raises(ValueError):
        pool.repair_disk(pool.disks[0].disk_id)


def test_repair_unknown_disk_raises():
    pool = make_pool(Replication(2), disks=2)
    with pytest.raises(KeyError):
        pool.repair_disk("ghost")


def test_stats_counters():
    pool = make_pool(Replication(2), disks=2)
    pool.store("a", b"1")
    pool.fetch("a")
    assert pool.stats.extents_written == 1
    assert pool.stats.extents_read == 1


def test_replication_fast_path_reads_one_replica():
    pool = make_pool(Replication(3), disks=3)
    pool.store("k", b"q" * 100)
    reads_before = sum(d.bytes_read for d in pool.disks)
    pool.fetch("k")
    reads_after = sum(d.bytes_read for d in pool.disks)
    assert reads_after - reads_before == 100  # one replica, not three


def test_failed_store_rolls_back_partial_fragments():
    """A store that fails mid-way leaves no orphaned fragments behind."""
    from repro.storage.disk import Disk, DiskProfile

    clock = SimClock()
    roomy = DiskProfile("roomy", 10_000, 1e-6, 1e9, 1e9)
    tiny = DiskProfile("tiny", 100, 1e-6, 1e9, 1e9)
    pool = StoragePool("mixed", clock, policy=Replication(2))
    pool.add_disk(Disk("big", roomy))
    pool.add_disk(Disk("small", tiny))
    # the small disk is emptier, so it is chosen first and a 500-byte
    # replica fails there... but ordering may pick either; force failure
    # by exceeding the small disk only
    with pytest.raises(CapacityError):
        pool.store("doomed", b"x" * 500)
    assert pool.used_bytes == 0  # nothing leaked on the big disk
    assert not pool.has_extent("doomed")
    pool.store("fine", b"y" * 50)
    assert pool.fetch("fine")[0] == b"y" * 50


def test_store_batch_exposes_per_extent_costs():
    """The group commit's return value is the serial cost model: the sum
    of what each extent costs stored on its own, on a twin pool."""
    pool = make_pool(erasure_coding_policy(4, 2))
    twin = make_pool(erasure_coding_policy(4, 2))
    items = [(f"e{i}", bytes([i]) * (400 + 100 * i)) for i in range(5)]
    total = pool.store_batch(items)
    costs = [twin.store(extent_id, payload) for extent_id, payload in items]
    assert all(cost > 0 for cost in costs)
    # bigger payloads cost more on a homogeneous pool
    assert costs == sorted(costs)
    assert total == pytest.approx(sum(costs))


def test_store_batch_accepts_precomputed_fragments():
    pool = make_pool(erasure_coding_policy(4, 2))
    items = [(f"e{i}", bytes([i]) * 500) for i in range(3)]
    fragments_per = pool.policy.fragment_batch(
        [payload for _, payload in items], counted=False
    )
    pool.store_batch(items, fragments_per=fragments_per)
    for extent_id, payload in items:
        assert pool.fetch(extent_id)[0] == payload


def test_torn_store_batch_keeps_durable_prefix_costs():
    from repro.errors import TornWriteError

    pool = make_pool(erasure_coding_policy(4, 2))
    items = [(f"e{i}", bytes([i]) * 500) for i in range(4)]
    pool.arm_torn_commit(2)
    with pytest.raises(TornWriteError) as info:
        pool.store_batch(items)
    assert info.value.durable == ["e0", "e1"]


def test_arm_torn_commit_queues_fifo():
    """Repeated arming tears successive commits at their own points —
    how tests target a specific partition of a sharded group commit."""
    from repro.errors import TornWriteError

    pool = make_pool(erasure_coding_policy(4, 2))
    pool.arm_torn_commit(1)
    pool.arm_torn_commit(0)
    with pytest.raises(TornWriteError) as first:
        pool.store_batch([("a0", b"x" * 64), ("a1", b"y" * 64)])
    assert first.value.durable == ["a0"]
    with pytest.raises(TornWriteError) as second:
        pool.store_batch([("b0", b"x" * 64), ("b1", b"y" * 64)])
    assert second.value.durable == []
    # queue drained: the third commit lands clean
    pool.store_batch([("c0", b"x" * 64)])
    assert pool.has_extent("c0")


def test_disarm_torn_commits_drops_pending():
    pool = make_pool(erasure_coding_policy(4, 2))
    pool.arm_torn_commit(0)
    pool.arm_torn_commit(1)
    assert pool.disarm_torn_commits() == 2
    pool.store_batch([("ok", b"z" * 64)])
    assert pool.has_extent("ok")
