"""Unit tests for the simulated disk."""

import pytest

from repro.common.clock import SimClock
from repro.common.payload import Zeros
from repro.errors import CapacityError, DiskFailedError
from repro.storage.disk import Disk, DiskProfile, HDD_PROFILE, NVME_SSD_PROFILE


@pytest.fixture
def disk():
    return Disk("d0", NVME_SSD_PROFILE)


def test_write_read_roundtrip(disk):
    disk.write("x", b"payload")
    payload, cost = disk.read("x")
    assert payload == b"payload"
    assert cost > 0


def test_usage_accounting(disk):
    disk.write("a", b"1234")
    disk.write("b", b"12")
    assert disk.used_bytes == 6
    assert disk.free_bytes == disk.profile.capacity_bytes - 6


def test_overwrite_adjusts_usage(disk):
    disk.write("a", b"123456")
    disk.write("a", b"12")
    assert disk.used_bytes == 2


def test_delete_frees(disk):
    disk.write("a", b"12345")
    assert disk.delete("a") == 5
    assert disk.used_bytes == 0
    assert disk.delete("a") == 0  # idempotent


def test_read_missing_raises(disk):
    with pytest.raises(KeyError):
        disk.read("nope")


def test_capacity_enforced():
    tiny = DiskProfile("tiny", 10, 1e-3, 1e6, 1e6)
    disk = Disk("t", tiny)
    disk.write("a", b"12345678")
    with pytest.raises(CapacityError):
        disk.write("b", b"12345")


def test_failure_injection(disk):
    disk.write("a", b"x")
    disk.fail()
    with pytest.raises(DiskFailedError):
        disk.read("a")
    with pytest.raises(DiskFailedError):
        disk.write("b", b"y")
    assert not disk.has_extent("a")


def test_recover_comes_back_empty(disk):
    disk.write("a", b"x")
    disk.fail()
    disk.recover()
    assert not disk.failed
    assert disk.used_bytes == 0
    assert not disk.has_extent("a")


def test_costs_follow_profile(disk):
    _, small = disk.write("s", b"x"), None
    cost_small = disk.profile.write_cost(1)
    cost_large = disk.profile.write_cost(10_000_000)
    assert cost_large > cost_small
    assert cost_small >= disk.profile.seek_latency_s


def test_hdd_slower_than_ssd():
    size = 1_000_000
    assert HDD_PROFILE.read_cost(size) > NVME_SSD_PROFILE.read_cost(size)
    assert HDD_PROFILE.write_cost(size) > NVME_SSD_PROFILE.write_cost(size)


def test_accepts_sized_placeholder(disk):
    disk.write("z", Zeros(1_000_000))
    assert disk.used_bytes == 1_000_000


def test_clock_charged(disk):
    """The disk returns each access's cost; the caller advances a clock."""
    clock = SimClock()
    clock.advance(disk.write("a", b"x" * 1000))
    clock.advance(disk.read("a")[1])
    assert clock.now == pytest.approx(
        NVME_SSD_PROFILE.write_cost(1000) + NVME_SSD_PROFILE.read_cost(1000))


def test_bytes_counters(disk):
    disk.write("a", b"abc")
    disk.read("a")
    disk.read("a")
    assert disk.bytes_written == 3
    assert disk.bytes_read == 6
