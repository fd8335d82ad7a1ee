"""HDFS-like distributed block store baseline.

Files split into 128 MB blocks, each replicated 3x across datanodes; a
namenode holds all file->block metadata and charges a per-operation cost.
This is the batch-storage half of the China Mobile baseline: every ETL
stage writes a full copy of the data here, and 3x replication yields the
33% disk utilization the paper contrasts with erasure coding's 91%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.clock import SimClock
from repro.common.payload import Zeros
from repro.common.units import MiB
from repro.storage.bus import TCP_PROFILE
from repro.storage.disk import Disk, DiskProfile, HDD_PROFILE

#: HDFS default block size.
HDFS_BLOCK_SIZE = 128 * MiB
#: Namenode RPC cost per metadata operation (lookup/addBlock/complete).
NAMENODE_OP_S = 150e-6


@dataclass
class _FileEntry:
    path: str
    size: int
    blocks: list[str] = field(default_factory=list)


class HDFSCluster:
    """Namenode + datanodes with replicated block storage."""

    def __init__(self, clock: SimClock, num_datanodes: int = 3,
                 replication_factor: int = 3,
                 disk_profile: DiskProfile = HDD_PROFILE,
                 block_size: int = HDFS_BLOCK_SIZE) -> None:
        if replication_factor > num_datanodes:
            raise ValueError(
                f"replication {replication_factor} exceeds "
                f"{num_datanodes} datanodes"
            )
        self._clock = clock
        self.replication_factor = replication_factor
        self.block_size = block_size
        self._datanodes = [
            Disk(f"hdfs-dn-{i}", disk_profile)
            for i in range(num_datanodes)
        ]
        self._files: dict[str, _FileEntry] = {}
        self._next_block = 0
        self._next_dn = 0
        self.namenode_ops = 0

    # --- namenode ------------------------------------------------------------

    def _namenode_op(self) -> float:
        self.namenode_ops += 1
        return NAMENODE_OP_S

    def exists(self, path: str) -> bool:
        return path in self._files

    def file_size(self, path: str) -> int:
        return self._files[path].size

    def list_files(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    # --- data path ----------------------------------------------------------------

    def write(self, path: str, size: int) -> float:
        """Write a file of ``size`` bytes; returns simulated seconds.

        Each block: namenode addBlock, pipeline write through
        ``replication_factor`` datanodes (network hop + disk write each,
        pipelined so the slowest stage bounds per-block latency).
        """
        if path in self._files:
            raise FileExistsError(f"HDFS path {path!r} already exists")
        if size < 0:
            raise ValueError(f"negative file size {size!r}")
        entry = _FileEntry(path=path, size=size)
        cost = self._namenode_op()  # create
        remaining = size
        while remaining > 0 or not entry.blocks:
            block_bytes = min(self.block_size, remaining) if size else 0
            block_id = f"blk_{self._next_block}"
            self._next_block += 1
            cost += self._namenode_op()  # addBlock
            write_cost = 0.0
            for replica in range(self.replication_factor):
                datanode = self._datanodes[
                    (self._next_dn + replica) % len(self._datanodes)
                ]
                datanode.write(f"{block_id}-r{replica}", Zeros(block_bytes))
                write_cost = max(
                    write_cost, datanode.profile.write_cost(block_bytes)
                )
            self._next_dn += 1
            # pipeline: one network hop per replica stage
            cost += write_cost + self.replication_factor * TCP_PROFILE.cost(
                block_bytes
            ) / max(1, self.replication_factor)
            entry.blocks.append(block_id)
            remaining -= block_bytes
            if size == 0:
                break
        cost += self._namenode_op()  # complete
        self._files[path] = entry
        self._clock.advance(cost)
        return cost

    def read(self, path: str) -> float:
        """Read a whole file; returns simulated seconds."""
        entry = self._files.get(path)
        if entry is None:
            raise FileNotFoundError(f"no HDFS path {path!r}")
        cost = self._namenode_op()  # getBlockLocations
        remaining = entry.size
        for _ in entry.blocks:
            block_bytes = min(self.block_size, remaining)
            remaining -= block_bytes
            cost += self._datanodes[0].profile.read_cost(block_bytes)
            cost += TCP_PROFILE.cost(block_bytes)
        self._clock.advance(cost)
        return cost

    def delete(self, path: str) -> float:
        entry = self._files.pop(path, None)
        if entry is None:
            raise FileNotFoundError(f"no HDFS path {path!r}")
        for block_id in entry.blocks:
            for replica in range(self.replication_factor):
                for datanode in self._datanodes:
                    if datanode.has_extent(f"{block_id}-r{replica}"):
                        datanode.delete(f"{block_id}-r{replica}")
                        break
        return self._namenode_op()

    # --- accounting ------------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Physical bytes including replication."""
        return sum(dn.used_bytes for dn in self._datanodes)

    def logical_bytes(self) -> int:
        return sum(entry.size for entry in self._files.values())

    @property
    def disk_utilization(self) -> float:
        """Logical / physical — ~33% at replication 3 (Section I)."""
        physical = self.storage_bytes()
        return self.logical_bytes() / physical if physical else 0.0
