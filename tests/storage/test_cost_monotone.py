"""Metamorphic properties of the storage cost model.

Simulated time moves one way: each component returns what its work
cost, and the caller advances the clock.  These properties pin that the
returned costs are physically monotone (more bytes or more lost
fragments never cost less) and that the rebuild queue's report agrees
with the clock it advanced.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.storage.bus import DataBus, TransportKind
from repro.storage.disk import HDD_PROFILE, NVME_SSD_PROFILE, Disk
from repro.storage.pool import StoragePool
from repro.storage.rebuild import RebuildQueue
from repro.storage.redundancy import erasure_coding_policy

profiles = st.sampled_from([NVME_SSD_PROFILE, HDD_PROFILE])
sizes = st.lists(st.integers(0, 4 << 20), min_size=2, max_size=6)


@given(profiles, sizes)
def test_disk_cost_never_falls_as_bytes_grow(profile, lengths):
    disk = Disk("d", profile)
    writes, reads = [], []
    for index, length in enumerate(sorted(lengths)):
        key = f"x{index}"
        writes.append(disk.write(key, bytes(length)))
        reads.append(disk.read(key)[1])
    assert writes == sorted(writes)
    assert reads == sorted(reads)


@given(st.sampled_from(list(TransportKind)), sizes,
       st.floats(1.0, 8.0))
def test_bus_cost_never_falls_as_bytes_grow(transport, lengths, slow):
    bus = DataBus(SimClock(), transport=transport)
    bus.set_slow_factor(slow)
    # urgent transfers skip small-I/O aggregation, which buffers at zero
    # cost and bills the batch on the flush
    costs = [bus.transfer(length, urgent=True) for length in sorted(lengths)]
    assert costs == sorted(costs)


def _ec_pool(k: int, m: int, profile) -> StoragePool:
    # one device profile per pool: a clean read costs its slowest
    # fragment, so on a mixed pool losing the slow fragment is cheaper
    pool = StoragePool("p", SimClock(), policy=erasure_coding_policy(k, m))
    pool.add_disks(profile, k + m + 2)
    return pool


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), profiles,
       st.integers(1, 64 << 10), st.data())
def test_fetch_cost_never_falls_as_fragments_are_erased(k, m, profile,
                                                        length, data):
    pool = _ec_pool(k, m, profile)
    payload = bytes(index % 251 for index in range(length))
    pool.store("e", payload)
    order = data.draw(st.permutations(range(k + m)))
    how = data.draw(st.lists(st.sampled_from(["erase", "corrupt", "fail"]),
                             min_size=m, max_size=m))
    got, previous = pool.fetch("e")
    assert got == payload
    for index, kind in zip(order[:m], how):
        if kind == "erase":
            pool.erase_fragment("e", index)
        elif kind == "corrupt":
            pool.corrupt_fragment("e", index)
        else:
            disk_id = pool.fragment_locations()["e"][index]
            next(d for d in pool.disks if d.disk_id == disk_id).fail()
        got, cost = pool.fetch("e")
        assert got == payload
        assert cost >= previous
        previous = cost


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), profiles,
       st.integers(1, 64 << 10), st.data())
def test_rebuild_cost_positive_when_it_rebuilt(k, m, profile, length, data):
    pool = _ec_pool(k, m, profile)
    pool.store("e", bytes(length))
    lost = data.draw(st.sets(st.integers(0, k + m - 1), max_size=m))
    for index in lost:
        pool.erase_fragment("e", index)
    rebuilt, cost = pool.rebuild_extent("e")
    assert rebuilt == len(lost)
    assert pool.fully_redundant
    if rebuilt:
        # survivors are read, then the lost fragments written, each set
        # in parallel over same-profile disks
        fragment = pool.used_bytes // (k + m)
        assert cost > 0
        assert cost == pytest.approx(
            profile.read_cost(fragment) + profile.write_cost(fragment))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 3), st.integers(0, 2),
       st.sampled_from([None, 1, 3]))
def test_rebuild_report_matches_clock_delta(extents, failed_disks, drops,
                                            max_ops):
    clock = SimClock()
    pool = StoragePool("p", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 9)
    for index in range(extents):
        pool.store(f"e{index}", bytes([index]) * (1000 * (index + 1)))
    for disk in pool.disks[:failed_disks]:
        disk.fail()
    bus = DataBus(clock, aggregate_small_io=False)
    bus.inject_drops(drops)
    queue = RebuildQueue(pool, bus, clock)
    queue.scan_and_enqueue()
    clock.advance(1.0)  # a drain starts wherever the clock already is
    before = clock.now
    report = queue.run(max_ops=max_ops)
    assert report.sim_seconds == clock.now - before
    if report.rebuilt_fragments:
        assert report.sim_seconds > 0


def test_rebuild_report_is_transfers_plus_rebuilds():
    """With no faults in flight a drain costs exactly each op's bus
    transfer plus its rebuild, as replayed on a twin pool."""
    def degraded_pool():
        clock = SimClock()
        pool = StoragePool("p", clock, policy=erasure_coding_policy(4, 2))
        pool.add_disks(NVME_SSD_PROFILE, 8)
        for index in range(6):
            pool.store(f"e{index}", bytes([index]) * (100_000 * (index + 1)))
        pool.disks[0].fail()
        return clock, pool, DataBus(clock, aggregate_small_io=False)

    clock, pool, bus = degraded_pool()
    queue = RebuildQueue(pool, bus, clock)
    queue.scan_and_enqueue()
    report = queue.run()

    _, twin, twin_bus = degraded_pool()
    expected = 0.0
    for extent_id in twin.missing_fragments():
        expected += twin_bus.transfer(twin.extent_length(extent_id))
        expected += twin.rebuild_extent(extent_id)[1]
    assert report.rebuilt_extents > 0
    assert report.sim_seconds == expected
