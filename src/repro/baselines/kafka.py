"""Kafka-like message broker baseline.

The architecture the paper contrasts with StreamLake (Sections I, II):
messages persist through the broker's **local file system** as segmented
log files, replicated to follower brokers (default factor 3), with reads
served from the page cache when hot.  Compute and storage are coupled:
partitions live on specific brokers, so scaling the cluster requires
**moving partition data** (unlike StreamLake's remap-only scaling) —
:meth:`add_broker` returns the bytes that had to migrate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.common.clock import SimClock
from repro.common.payload import Zeros
from repro.common.units import MiB
from repro.errors import TopicExistsError, TopicNotFoundError
from repro.storage.bus import TCP_PROFILE
from repro.storage.disk import Disk, DiskProfile, HDD_PROFILE
from repro.stream.records import MessageRecord, encode_records

#: Kafka-style log segment size.
SEGMENT_BYTES = 64 * MiB
#: Fraction of recent segment reads served from the OS page cache.
PAGE_CACHE_SEGMENTS = 2


@dataclass
class _Segment:
    base_offset: int
    records: list[MessageRecord] = field(default_factory=list)
    bytes: int = 0
    sealed: bool = False
    extent_id: str = ""


class _Partition:
    """One partition's segmented log on its leader broker."""

    def __init__(self, topic: str, index: int, leader: "_Broker") -> None:
        self.topic = topic
        self.index = index
        self.leader = leader
        self.segments: list[_Segment] = [_Segment(base_offset=0)]
        self.next_offset = 0

    @property
    def active(self) -> _Segment:
        return self.segments[-1]

    def roll(self) -> None:
        self.active.sealed = True
        self.segments.append(_Segment(base_offset=self.next_offset))

    def total_bytes(self) -> int:
        return sum(segment.bytes for segment in self.segments)


class _Broker:
    """A broker node with its own local disk."""

    def __init__(self, broker_id: str, disk: Disk) -> None:
        self.broker_id = broker_id
        self.disk = disk


class KafkaCluster:
    """A broker cluster with replicated, file-backed partitions."""

    def __init__(self, clock: SimClock, num_brokers: int = 3,
                 replication_factor: int = 3,
                 disk_profile: DiskProfile = HDD_PROFILE) -> None:
        if replication_factor > num_brokers:
            raise ValueError(
                f"replication factor {replication_factor} exceeds "
                f"{num_brokers} brokers"
            )
        self._clock = clock
        self.replication_factor = replication_factor
        self._brokers = [
            _Broker(f"broker-{i}", Disk(f"kafka-disk-{i}", disk_profile))
            for i in range(num_brokers)
        ]
        self._partitions: dict[tuple[str, int], _Partition] = {}
        self._topics: dict[str, int] = {}
        self._next_leader = 0
        self.messages_in = 0
        self.messages_out = 0
        self.migrated_bytes = 0

    # --- topics ------------------------------------------------------------

    def create_topic(self, topic: str, partitions: int = 3) -> None:
        if topic in self._topics:
            raise TopicExistsError(f"topic {topic!r} already exists")
        self._topics[topic] = partitions
        for index in range(partitions):
            leader = self._brokers[self._next_leader % len(self._brokers)]
            self._next_leader += 1
            self._partitions[(topic, index)] = _Partition(topic, index, leader)

    def _partition(self, topic: str, index: int) -> _Partition:
        partition = self._partitions.get((topic, index))
        if partition is None:
            raise TopicNotFoundError(f"no partition {topic}[{index}]")
        return partition

    # --- produce -----------------------------------------------------------------

    def produce(self, topic: str, index: int,
                records: list[MessageRecord]) -> tuple[int, float]:
        """Append a batch; returns (base offset, simulated seconds).

        Cost: TCP to the leader, a local sequential write, then TCP
        replication to ``replication_factor - 1`` followers, each with its
        own local write (acks=all semantics -> slowest follower bounds).
        """
        partition = self._partition(topic, index)
        base = partition.next_offset
        stamped = []
        for record in records:
            stamped.append(record.with_offset(partition.next_offset))
            partition.next_offset += 1
        wire = encode_records(stamped)
        # producer batch compression (lz4-style): brokers store and
        # replicate the compressed batch
        payload = zlib.compress(wire, level=1)
        cost = TCP_PROFILE.cost(len(payload), messages=len(records))
        segment = partition.active
        position = segment.bytes  # distinguishes batches within a segment
        segment.records.extend(stamped)
        segment.bytes += len(payload)
        # leader + follower writes happen in parallel; slowest bounds
        write_cost = 0.0
        for replica in range(self.replication_factor):
            broker = self._replica_broker(partition, replica)
            broker.disk.write(
                f"{topic}-{index}-{segment.base_offset}-{position}-r{replica}",
                Zeros(len(payload)),
            )
            write_cost = max(
                write_cost, broker.disk.profile.write_cost(len(payload))
            )
        if self.replication_factor > 1:
            cost += TCP_PROFILE.cost(len(payload))  # replication hop
        cost += write_cost
        if segment.bytes >= SEGMENT_BYTES:
            partition.roll()
        self.messages_in += len(records)
        return base, cost

    def _replica_broker(self, partition: _Partition, replica: int) -> _Broker:
        leader_index = self._brokers.index(partition.leader)
        return self._brokers[(leader_index + replica) % len(self._brokers)]

    # --- consume -------------------------------------------------------------------

    def consume(self, topic: str, index: int, offset: int,
                max_records: int = 1024) -> tuple[list[MessageRecord], float]:
        """Read from an offset; recent segments hit the page cache."""
        partition = self._partition(topic, index)
        out: list[MessageRecord] = []
        cost = TCP_PROFILE.cost(0)
        hot_from = max(0, len(partition.segments) - PAGE_CACHE_SEGMENTS)
        for seg_index, segment in enumerate(partition.segments):
            if segment.base_offset + len(segment.records) <= offset:
                continue
            if seg_index < hot_from:
                cost += partition.leader.disk.profile.read_cost(segment.bytes)
            for record in segment.records:
                if record.offset < offset:
                    continue
                out.append(record)
                if len(out) >= max_records:
                    break
            if len(out) >= max_records:
                break
        wire = sum(record.size_bytes for record in out)
        cost += TCP_PROFILE.cost(wire, messages=max(1, len(out)))
        self.messages_out += len(out)
        return out, cost

    # --- accounting / scaling ---------------------------------------------------------

    def storage_bytes(self) -> int:
        """Physical bytes on all brokers (payload x replication)."""
        return sum(broker.disk.used_bytes for broker in self._brokers)

    def logical_bytes(self) -> int:
        return sum(p.total_bytes() for p in self._partitions.values())

    def add_broker(self, disk_profile: DiskProfile = HDD_PROFILE,
                   rebalance_fraction: float | None = None
                   ) -> tuple[int, float]:
        """Scale out: partitions must migrate to the new broker.

        Unlike StreamLake's remap-only scaling, a fraction of partition
        data (default: an even share) is physically copied.  Returns
        (bytes moved, simulated seconds).
        """
        broker = _Broker(
            f"broker-{len(self._brokers)}",
            Disk(f"kafka-disk-{len(self._brokers)}", disk_profile),
        )
        self._brokers.append(broker)
        fraction = (
            rebalance_fraction
            if rebalance_fraction is not None
            else 1.0 / len(self._brokers)
        )
        moved = int(self.logical_bytes() * self.replication_factor * fraction)
        elapsed = (
            TCP_PROFILE.cost(moved)
            + broker.disk.profile.write_cost(max(1, moved))
        )
        self.migrated_bytes += moved
        self._clock.advance(elapsed)
        return moved, elapsed
