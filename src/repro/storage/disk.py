"""Simulated block devices with latency/bandwidth cost models.

A :class:`Disk` stores real bytes (so round-trip and corruption tests are
meaningful) and returns the simulated time of every access:

    access_time = seek_latency + size / bandwidth

Two stock profiles match the paper's hardware (Section VII-C): an 800 GB
NVMe SSD and a SAS HDD.  Fault injection (``fail()``) makes every subsequent
access raise, which the redundancy policies must tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import GiB, MiB, TiB
from repro.errors import CapacityError, DiskFailedError, SectorError


@dataclass(frozen=True)
class DiskProfile:
    """Performance/capacity envelope of a device class."""

    name: str
    capacity_bytes: int
    seek_latency_s: float
    read_bandwidth_bps: float
    write_bandwidth_bps: float

    def read_cost(self, size: int) -> float:
        """Simulated seconds to read ``size`` bytes."""
        return self.seek_latency_s + size / self.read_bandwidth_bps

    def write_cost(self, size: int) -> float:
        """Simulated seconds to write ``size`` bytes."""
        return self.seek_latency_s + size / self.write_bandwidth_bps


#: 800 GB NVMe SSD per the paper's Set-1/Set-2 node configuration.
NVME_SSD_PROFILE = DiskProfile(
    name="nvme-ssd",
    capacity_bytes=800 * GiB,
    seek_latency_s=80e-6,
    read_bandwidth_bps=3.2 * GiB,
    write_bandwidth_bps=2.0 * GiB,
)

#: Large SAS HDD (the paper attaches 3 PB of SAS HDD per node; we model a
#: single large device and let pools aggregate several).
HDD_PROFILE = DiskProfile(
    name="sas-hdd",
    capacity_bytes=16 * TiB,
    seek_latency_s=8e-3,
    read_bandwidth_bps=180 * MiB,
    write_bandwidth_bps=160 * MiB,
)


class Disk:
    """A single simulated device holding extent-addressed byte payloads.

    Payloads are keyed by caller-chosen extent ids; the disk only tracks
    usage and returns each access's cost.  Allocation policy lives in the
    pool above.
    """

    def __init__(self, disk_id: str, profile: DiskProfile) -> None:
        self.disk_id = disk_id
        self.profile = profile
        self._extents: dict[str, bytes] = {}
        self._corrupt: set[str] = set()
        self._used = 0
        self._failed = False
        self.bytes_read = 0
        self.bytes_written = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.profile.capacity_bytes - self._used

    @property
    def failed(self) -> bool:
        return self._failed

    def fail(self) -> None:
        """Fault injection: all subsequent accesses raise DiskFailedError."""
        self._failed = True

    def recover(self) -> None:
        """Bring a failed disk back empty (it was replaced, not repaired)."""
        self._failed = False
        self._extents.clear()
        self._corrupt.clear()
        self._used = 0

    def corrupt_extent(self, extent_id: str) -> bool:
        """Fault injection: mark an extent's sectors latently bad.

        The error is *latent* — ``has_extent`` still reports the extent
        present, and nothing happens until a read touches it and raises
        :class:`SectorError`.  Returns False when the extent is absent
        (nothing to corrupt).  A rewrite of the extent remaps the sectors
        and clears the error.
        """
        if self._failed or extent_id not in self._extents:
            return False
        self._corrupt.add(extent_id)
        return True

    def is_corrupt(self, extent_id: str) -> bool:
        """Oracle for tests/scrubbers: is a latent error pending here?"""
        return extent_id in self._corrupt

    def _check_alive(self) -> None:
        if self._failed:
            raise DiskFailedError(f"disk {self.disk_id} has failed")

    def write(self, extent_id: str, payload) -> float:
        """Store ``payload`` under ``extent_id``; returns simulated seconds.

        ``payload`` is ``bytes`` or any sized bytes-like object (e.g.
        :class:`repro.common.payload.Zeros` for accounting-only writes).
        """
        self._check_alive()
        previous = len(self._extents.get(extent_id, b""))
        delta = len(payload) - previous
        if delta > self.free_bytes:
            raise CapacityError(
                f"disk {self.disk_id}: need {delta} bytes, {self.free_bytes} free"
            )
        self._extents[extent_id] = payload
        self._corrupt.discard(extent_id)  # rewriting remaps bad sectors
        self._used += delta
        self.bytes_written += len(payload)
        return self.profile.write_cost(len(payload))

    def read(self, extent_id: str) -> tuple[bytes, float]:
        """Return (payload, simulated seconds) for ``extent_id``."""
        self._check_alive()
        if extent_id not in self._extents:
            raise KeyError(f"disk {self.disk_id}: no extent {extent_id!r}")
        payload = self._extents[extent_id]
        self.bytes_read += len(payload)
        if extent_id in self._corrupt:
            # the bytes were read before the checksum caught it
            raise SectorError(
                f"disk {self.disk_id}: latent sector error under "
                f"extent {extent_id!r}"
            )
        return payload, self.profile.read_cost(len(payload))

    def delete(self, extent_id: str) -> int:
        """Drop an extent, returning the bytes freed (0 if absent)."""
        self._check_alive()
        payload = self._extents.pop(extent_id, None)
        self._corrupt.discard(extent_id)
        if payload is None:
            return 0
        self._used -= len(payload)
        return len(payload)

    def has_extent(self, extent_id: str) -> bool:
        return not self._failed and extent_id in self._extents

    def extent_ids(self) -> list[str]:
        self._check_alive()
        return list(self._extents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "FAILED" if self._failed else "ok"
        return f"Disk({self.disk_id}, {self.profile.name}, used={self._used}, {state})"
