"""Consumer groups: coordinated, offset-committed consumption.

Section V-A promises compatibility with "the open-source de facto
standard" consumer APIs, whose central abstraction is the consumer group:
a set of consumers sharing a subscription such that each partition is
consumed by exactly one member, with committed offsets surviving member
churn.

The coordinator keeps group state (members, generation, assignments) and
committed offsets in the dispatcher's fault-tolerant KV store; rebalances
are range assignments recomputed on every join/leave, bumping the
generation so stale members are fenced.
"""

from __future__ import annotations

import itertools

from repro.storage.kv import KVEngine
from repro.stream.object import ReadControl
from repro.stream.records import MessageRecord
from repro.stream.service import MessageStreamingService


class GroupCoordinator:
    """Group membership, partition assignment and offset storage."""

    def __init__(self, service: MessageStreamingService,
                 kv: KVEngine | None = None) -> None:
        self._service = service
        self._kv = kv if kv is not None else KVEngine("group-coordinator")
        self._members: dict[str, list[str]] = {}
        self._topics: dict[str, list[str]] = {}
        self._generations: dict[str, int] = {}
        self.rebalances = 0

    # --- membership ---------------------------------------------------------

    def join(self, group: str, member_id: str,
             topics: list[str]) -> tuple[int, list[str]]:
        """Add a member; returns (generation, assigned stream ids)."""
        for topic in topics:
            self._service.dispatcher.config_of(topic)  # validates existence
        members = self._members.setdefault(group, [])
        if member_id not in members:
            members.append(member_id)
        self._topics[group] = sorted(set(self._topics.get(group, [])) |
                                     set(topics))
        self._rebalance(group)
        return self._generations[group], self.assignment(group, member_id)

    def leave(self, group: str, member_id: str) -> None:
        """Remove a member; its partitions move to the survivors."""
        members = self._members.get(group, [])
        if member_id in members:
            members.remove(member_id)
            self._rebalance(group)

    def _rebalance(self, group: str) -> None:
        """Range assignment: streams split contiguously across members."""
        members = sorted(self._members.get(group, []))
        streams: list[str] = []
        for topic in self._topics.get(group, []):
            streams.extend(self._service.dispatcher.streams_of(topic))
        self._generations[group] = self._generations.get(group, 0) + 1
        self.rebalances += 1
        self._kv.clear_prefix(f"assign/{group}/")
        if not members:
            return
        for index, stream_id in enumerate(sorted(streams)):
            owner = members[index % len(members)]
            self._kv.put(f"assign/{group}/{stream_id}", owner)

    def generation(self, group: str) -> int:
        return self._generations.get(group, 0)

    def assignment(self, group: str, member_id: str) -> list[str]:
        return sorted(
            key.removeprefix(f"assign/{group}/")
            for key, owner in self._kv.scan(f"assign/{group}/")
            if owner == member_id
        )

    def members(self, group: str) -> list[str]:
        return sorted(self._members.get(group, []))

    # --- offsets ---------------------------------------------------------------

    def commit_offset(self, group: str, stream_id: str, offset: int) -> None:
        self._kv.put(f"offset/{group}/{stream_id}", offset)

    def committed_offset(self, group: str, stream_id: str) -> int:
        stored = self._kv.get(f"offset/{group}/{stream_id}")
        if stored is not None:
            return stored  # type: ignore[return-value]
        return self._service.object_for(stream_id).trim_offset


_member_ids = itertools.count()


class GroupConsumer:
    """A group member: polls only its assigned streams, commits offsets."""

    def __init__(self, coordinator: GroupCoordinator, group: str,
                 member_id: str | None = None) -> None:
        self._coordinator = coordinator
        self._service = coordinator._service
        self.group = group
        self.member_id = (
            member_id if member_id is not None
            else f"member-{next(_member_ids)}"
        )
        self._generation = -1
        self._positions: dict[str, int] = {}
        self.received = 0

    def subscribe(self, topics: list[str]) -> list[str]:
        """Join the group; returns the assigned stream ids."""
        self._generation, assigned = self._coordinator.join(
            self.group, self.member_id, topics
        )
        self._load_positions(assigned)
        return assigned

    def _load_positions(self, assigned: list[str]) -> None:
        self._positions = {
            stream_id: self._coordinator.committed_offset(
                self.group, stream_id
            )
            for stream_id in assigned
        }

    def _refresh_if_rebalanced(self) -> None:
        current = self._coordinator.generation(self.group)
        if current != self._generation:
            self._generation = current
            self._load_positions(
                self._coordinator.assignment(self.group, self.member_id)
            )

    @property
    def assignment(self) -> list[str]:
        self._refresh_if_rebalanced()
        return sorted(self._positions)

    def poll(self, max_records: int = 1024
             ) -> tuple[list[MessageRecord], float]:
        """Fetch new records from this member's assigned streams only."""
        self._refresh_if_rebalanced()
        out: list[MessageRecord] = []
        cost = 0.0
        control = ReadControl(max_records=max_records)
        for stream_id in sorted(self._positions):
            if len(out) >= max_records:
                break
            records, read_cost = self._service.fetch(
                stream_id, self._positions[stream_id], control
            )
            cost += read_cost
            if records:
                out.extend(records)
                self._positions[stream_id] = records[-1].offset + 1
        self.received += len(out)
        return out, cost

    def commit(self) -> None:
        """Persist the current positions (at-least-once checkpoint)."""
        self._refresh_if_rebalanced()
        for stream_id, offset in self._positions.items():
            self._coordinator.commit_offset(self.group, stream_id, offset)

    def close(self) -> None:
        """Commit and leave the group (its partitions rebalance away)."""
        self.commit()
        self._coordinator.leave(self.group, self.member_id)
