"""Storage pools: redundant extent storage over groups of disks.

Section III (store layer): physical space is divided into slices organized
as logical units *across disks in various servers* for redundancy and load
balance.  A :class:`StoragePool` owns a set of same-tier disks and stores
extents under a :class:`~repro.storage.redundancy.RedundancyPolicy`,
placing each fragment on a distinct disk chosen by free-space-weighted
round-robin.

Pool-level features the paper lists — garbage collection, data
reconstruction after disk failure, snapshots and thin provisioning — are
implemented as simple, observable mechanisms on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import stats
from repro.common.clock import SimClock
from repro.errors import (
    CapacityError,
    CorruptionError,
    ObjectNotFoundError,
    StorageError,
    TornWriteError,
)
from repro.storage.disk import Disk, DiskProfile
from repro.storage.redundancy import RedundancyPolicy
from repro.storage.replication import Replication


@dataclass
class _ExtentMeta:
    """Placement record for one stored extent."""

    length: int
    disk_ids: list[str]
    tombstoned: bool = False
    #: physical fragments belong to this extent id (copy-on-write clones)
    clone_of: str | None = None
    #: write-once-read-many: delete/overwrite is refused
    worm: bool = False


@dataclass
class PoolStats:
    """Counters surfaced to benches and tests."""

    extents_written: int = 0
    extents_read: int = 0
    gc_reclaimed_bytes: int = 0
    repairs: int = 0
    repair_bytes: int = 0
    degraded_reads: int = 0
    rebuilds: int = 0
    rebuilt_fragments: int = 0


class StoragePool:
    """A named tier ("ssd"/"hdd") of disks with redundant extent storage."""

    def __init__(self, name: str, clock: SimClock,
                 policy: RedundancyPolicy | None = None) -> None:
        # ``clock`` stays in the signature for existing callers: every
        # access returns its cost and the caller advances the clock
        self.name = name
        self.policy = policy if policy is not None else Replication(3)
        self._disks: dict[str, Disk] = {}
        self._extents: dict[str, _ExtentMeta] = {}
        self._snapshots: dict[str, set[str]] = {}
        self._provisioned: dict[str, int] = {}
        self._torn_armings: list[int] = []
        self.stats = PoolStats()

    # --- membership -------------------------------------------------------

    def add_disk(self, disk: Disk) -> None:
        if disk.disk_id in self._disks:
            raise ValueError(f"disk {disk.disk_id!r} already in pool {self.name!r}")
        self._disks[disk.disk_id] = disk

    def add_disks(self, profile: DiskProfile, count: int,
                  prefix: str | None = None) -> list[Disk]:
        """Convenience: create and add ``count`` identical disks."""
        prefix = prefix if prefix is not None else f"{self.name}-{profile.name}"
        created = []
        start = len(self._disks)
        for index in range(count):
            disk = Disk(f"{prefix}-{start + index}", profile)
            self.add_disk(disk)
            created.append(disk)
        return created

    @property
    def disks(self) -> list[Disk]:
        return list(self._disks.values())

    def _alive_disks(self) -> list[Disk]:
        return [d for d in self._disks.values() if not d.failed]

    # --- capacity accounting ----------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return sum(d.profile.capacity_bytes for d in self._alive_disks())

    @property
    def used_bytes(self) -> int:
        return sum(d.used_bytes for d in self._alive_disks())

    @property
    def logical_bytes(self) -> int:
        """User bytes stored (pre-redundancy), live extents only."""
        return sum(m.length for m in self._extents.values() if not m.tombstoned)

    # --- extent I/O ---------------------------------------------------------

    def store(self, extent_id: str, payload: bytes) -> float:
        """Write an extent under the pool's redundancy policy.

        Fragments land on distinct disks (fewest-used-bytes first).  Returns
        the simulated seconds of the slowest fragment write (fragments are
        written in parallel on different devices).
        """
        return self._place(extent_id, payload, self.policy.fragment(payload))

    def store_batch(self, items: list[tuple[str, bytes]],
                    fragments_per: list[list[bytes]] | None = None) -> float:
        """Group-commit several extents: one policy ``fragment_batch`` call
        (amortizing EC matrix setup), then per-extent placement.

        Returns the summed simulated seconds — the *serial* cost model,
        where extents land back-to-back on the device queue.  Callers that
        overlap commits (the sharded committer in
        :mod:`repro.parallel.ingest`) issue one call per write wave and
        take the LPT makespan of the returned sums.

        ``fragments_per`` lets such callers pass in fragments they already
        encoded (e.g. per-partition, in a forked context); when omitted
        the policy encodes here.

        Acked-write semantics: when the commit tears mid-batch — a storage
        failure while placing member *i*, or an armed
        :meth:`arm_torn_commit` injection — the already-placed prefix
        stays durable and a :class:`TornWriteError` names both sides of
        the tear, so callers never mistake lost-in-flight extents for
        acknowledged ones.  The tearing member itself is rolled back by
        :meth:`_place` (all-or-nothing per extent), so no partial extent
        ever survives.
        """
        if fragments_per is None:
            fragments_per = self.policy.fragment_batch(
                [payload for _, payload in items]
            )
        torn_after = self._torn_armings.pop(0) if self._torn_armings else None
        extent_costs: list[float] = []
        durable: list[str] = []
        for index, ((extent_id, payload), fragments) in enumerate(
            zip(items, fragments_per)
        ):
            if torn_after is not None and index >= torn_after:
                stats.fault_stats().torn_commits += 1
                raise TornWriteError(
                    f"pool {self.name!r}: group commit torn after "
                    f"{index} of {len(items)} extents",
                    durable=durable,
                    lost=[eid for eid, _ in items[index:]],
                )
            try:
                extent_costs.append(self._place(extent_id, payload, fragments))
            except StorageError as exc:
                raise TornWriteError(
                    f"pool {self.name!r}: group commit member "
                    f"{extent_id!r} failed after {index} durable "
                    f"extents: {exc}",
                    durable=durable,
                    lost=[eid for eid, _ in items[index:]],
                ) from exc
            durable.append(extent_id)
        return sum(extent_costs)

    def arm_torn_commit(self, after_extents: int) -> None:
        """Fault injection: tear an upcoming group commit.

        Armings queue FIFO: each :meth:`store_batch` call consumes one —
        persisting its first ``after_extents`` members, then failing with
        a :class:`TornWriteError` — whether or not the batch was long
        enough to tear.  Repeated arming targets successive commits,
        which is how tests tear a *specific partition* of a sharded
        group commit (each per-partition write wave is one
        ``store_batch`` call; see :mod:`repro.parallel.ingest`).
        """
        if after_extents < 0:
            raise ValueError(f"negative tear point {after_extents!r}")
        self._torn_armings.append(after_extents)

    def disarm_torn_commits(self) -> int:
        """Drop queued tear armings; returns how many were pending.

        Test harnesses disarm between scenarios so an arming meant for a
        short commit never leaks into an unrelated later one.
        """
        pending = len(self._torn_armings)
        self._torn_armings.clear()
        return pending

    def _place(self, extent_id: str, payload: bytes,
               fragments: list[bytes]) -> float:
        if extent_id in self._extents and not self._extents[extent_id].tombstoned:
            raise ValueError(f"extent {extent_id!r} already stored")
        candidates = sorted(self._alive_disks(), key=lambda d: d.used_bytes)
        if len(candidates) < len(fragments):
            raise CapacityError(
                f"pool {self.name!r}: policy needs {len(fragments)} disks, "
                f"{len(candidates)} alive"
            )
        chosen = candidates[: len(fragments)]
        slowest = 0.0
        written: list[Disk] = []
        try:
            for disk, fragment in zip(chosen, fragments):
                slowest = max(
                    slowest,
                    disk.write(f"{extent_id}#{disk.disk_id}", fragment),
                )
                written.append(disk)
        except StorageError:
            # all-or-nothing: roll back fragments already written so a
            # failed store never leaks partial extents.  Only typed store
            # errors (disk failure, capacity) are swallowed into the
            # rollback; a logic error propagates untouched.
            for disk in written:
                disk.delete(f"{extent_id}#{disk.disk_id}")
            raise
        self._extents[extent_id] = _ExtentMeta(
            length=len(payload), disk_ids=[d.disk_id for d in chosen]
        )
        self.stats.extents_written += 1
        return slowest

    def fetch(self, extent_id: str) -> tuple[bytes, float]:
        """Read an extent back, reconstructing through the policy if disks
        failed.  Returns (payload, simulated seconds).

        Crashed disks, erased fragments and latent sector errors
        (:class:`SectorError` surfacing mid-read) all count as erasures;
        as long as no more than the policy's fault tolerance are gone the
        read degrades — reconstructs and returns byte-identical data —
        instead of failing, and the degradation is counted in
        :class:`PoolStats` and the global fault counters.
        """
        meta = self._live_meta(extent_id)
        owner = self._physical_owner(extent_id)
        faults = stats.fault_stats()
        fragments: list[bytes | None] = []
        slowest = 0.0
        erased = 0
        for disk_id in meta.disk_ids:
            disk = self._disks[disk_id]
            key = f"{owner}#{disk_id}"
            if disk.failed or not disk.has_extent(key):
                fragments.append(None)
                erased += 1
                continue
            try:
                payload, cost = disk.read(key)
            except CorruptionError:
                # latent sector error surfaced by this read
                faults.sector_errors_detected += 1
                fragments.append(None)
                erased += 1
                continue
            fragments.append(payload)
            slowest = max(slowest, cost)
            if isinstance(self.policy, Replication):
                # one healthy replica suffices; stop after the first
                fragments.extend([None] * (len(meta.disk_ids) - len(fragments)))
                break
        self.stats.extents_read += 1
        if erased:
            self.stats.degraded_reads += 1
            faults.degraded_reads += 1
        payload = self.policy.assemble(fragments, meta.length)
        if erased and not isinstance(self.policy, Replication):
            # the EC decode just reconstructed the erased fragments
            faults.fragments_reconstructed += erased
            faults.reconstructed_bytes += meta.length
        return payload, slowest

    def delete(self, extent_id: str) -> None:
        """Tombstone an extent; space is reclaimed by :meth:`garbage_collect`."""
        meta = self._live_meta(extent_id)
        if meta.worm:
            raise PermissionError(
                f"extent {extent_id!r} is write-once-read-many"
            )
        meta.tombstoned = True

    # --- clones / WORM / thin provisioning ----------------------------------

    def clone(self, source_id: str, clone_id: str) -> None:
        """Copy-on-write clone: a new extent id sharing the source's
        physical fragments (Section III: the pools implement clone).

        Zero extra physical bytes; the shared fragments survive until
        *every* extent referencing them is deleted and collected.
        """
        source = self._live_meta(source_id)
        if clone_id in self._extents and not self._extents[clone_id].tombstoned:
            raise ValueError(f"extent {clone_id!r} already stored")
        self._extents[clone_id] = _ExtentMeta(
            length=source.length,
            disk_ids=list(source.disk_ids),
            clone_of=source.clone_of or source_id,
        )

    def _physical_owner(self, extent_id: str) -> str:
        meta = self._extents[extent_id]
        return meta.clone_of or extent_id

    def mark_worm(self, extent_id: str) -> None:
        """Write-once-read-many: further deletes of this extent raise."""
        self._live_meta(extent_id).worm = True

    def provision(self, volume_id: str, size_bytes: int) -> None:
        """Thin provisioning: reserve logical capacity without physical
        allocation.  Overcommit is allowed (that is the point); callers
        watch :meth:`overcommit_ratio`."""
        if size_bytes < 0:
            raise ValueError(f"negative provision size {size_bytes!r}")
        self._provisioned[volume_id] = size_bytes

    def unprovision(self, volume_id: str) -> None:
        self._provisioned.pop(volume_id, None)

    @property
    def provisioned_bytes(self) -> int:
        return sum(self._provisioned.values())

    @property
    def overcommit_ratio(self) -> float:
        """Provisioned / physical capacity (>1 means overcommitted)."""
        capacity = self.capacity_bytes
        return self.provisioned_bytes / capacity if capacity else 0.0

    def _live_meta(self, extent_id: str) -> _ExtentMeta:
        meta = self._extents.get(extent_id)
        if meta is None or meta.tombstoned:
            raise ObjectNotFoundError(
                f"pool {self.name!r}: no extent {extent_id!r}"
            )
        return meta

    def has_extent(self, extent_id: str) -> bool:
        meta = self._extents.get(extent_id)
        return meta is not None and not meta.tombstoned

    def extent_ids(self) -> list[str]:
        return [e for e, m in self._extents.items() if not m.tombstoned]

    # --- snapshots ----------------------------------------------------------

    def snapshot(self, name: str) -> None:
        """Record the live extent set; snapshotted extents survive GC."""
        if name in self._snapshots:
            raise ValueError(f"snapshot {name!r} already exists")
        self._snapshots[name] = {
            e for e, m in self._extents.items() if not m.tombstoned
        }

    def drop_snapshot(self, name: str) -> None:
        if name not in self._snapshots:
            raise KeyError(f"no snapshot {name!r}")
        del self._snapshots[name]

    def snapshot_extents(self, name: str) -> set[str]:
        return set(self._snapshots[name])

    # --- maintenance --------------------------------------------------------

    def garbage_collect(self) -> int:
        """Reclaim tombstoned extents not pinned by any snapshot.

        Returns bytes of physical space freed.
        """
        pinned: set[str] = set()
        for extents in self._snapshots.values():
            pinned |= extents
        live_owners = {
            self._physical_owner(extent_id)
            for extent_id, meta in self._extents.items()
            if not meta.tombstoned or extent_id in pinned
        }
        freed = 0
        for extent_id in list(self._extents):
            meta = self._extents[extent_id]
            if not meta.tombstoned or extent_id in pinned:
                continue
            owner = self._physical_owner(extent_id)
            if owner not in live_owners:
                for disk_id in meta.disk_ids:
                    disk = self._disks[disk_id]
                    if not disk.failed:
                        freed += disk.delete(f"{owner}#{disk_id}")
                live_owners.add(owner)  # fragments freed once
            del self._extents[extent_id]
        self.stats.gc_reclaimed_bytes += freed
        return freed

    def repair_disk(self, disk_id: str) -> int:
        """Reconstruct every fragment the failed disk held onto healthy disks.

        The disk is recovered (replaced) first.  Returns fragments rebuilt.
        Raises UnrecoverableDataError when an extent lost more fragments
        than the policy tolerates.
        """
        disk = self._disks.get(disk_id)
        if disk is None:
            raise KeyError(f"pool {self.name!r}: unknown disk {disk_id!r}")
        if not disk.failed:
            raise ValueError(f"disk {disk_id!r} has not failed")
        disk.recover()
        rebuilt = 0
        repaired_owners: set[str] = set()
        for extent_id, meta in self._extents.items():
            if meta.tombstoned or disk_id not in meta.disk_ids:
                continue
            physical = self._physical_owner(extent_id)
            if physical in repaired_owners:
                continue
            repaired_owners.add(physical)
            index = meta.disk_ids.index(disk_id)
            fragments, _, _ = self._read_survivors(meta, physical)
            fragment = self.policy.repair(fragments, index, meta.length)
            disk.write(f"{physical}#{disk_id}", fragment)
            rebuilt += 1
            self.stats.repair_bytes += len(fragment)
        self.stats.repairs += 1
        stats.fault_stats().disks_repaired += 1
        return rebuilt

    # --- fault injection -----------------------------------------------------

    def erase_fragment(self, extent_id: str, index: int) -> str:
        """Fault injection: silently destroy one stored fragment.

        Models an undetected shard erasure (bit rot, lost write): the
        fragment vanishes from its disk without any error being raised
        until a read or scrub notices.  Returns the disk id that lost it.
        """
        meta = self._live_meta(extent_id)
        owner = self._physical_owner(extent_id)
        disk_id = meta.disk_ids[index % len(meta.disk_ids)]
        disk = self._disks[disk_id]
        if not disk.failed:
            disk.delete(f"{owner}#{disk_id}")
        stats.fault_stats().fragments_erased += 1
        return disk_id

    def corrupt_fragment(self, extent_id: str, index: int) -> str:
        """Fault injection: plant a latent sector error under one fragment.

        The fragment stays "present" until read (see
        :meth:`Disk.corrupt_extent`).  Returns the disk id affected.
        """
        meta = self._live_meta(extent_id)
        owner = self._physical_owner(extent_id)
        disk_id = meta.disk_ids[index % len(meta.disk_ids)]
        if self._disks[disk_id].corrupt_extent(f"{owner}#{disk_id}"):
            stats.fault_stats().sector_errors_injected += 1
        return disk_id

    # --- redundancy oracles (metadata-only, charge no simulated time) --------

    def fragment_locations(self) -> dict[str, list[str]]:
        """Disk ids holding each live extent's fragments, one entry per
        physical fragment set (clones collapse onto their owner's)."""
        out: dict[str, list[str]] = {}
        seen: set[str] = set()
        for extent_id in sorted(self._extents):
            meta = self._extents[extent_id]
            if meta.tombstoned:
                continue
            owner = self._physical_owner(extent_id)
            if owner in seen:
                continue
            seen.add(owner)
            out[extent_id] = list(meta.disk_ids)
        return out

    def missing_fragments(self) -> dict[str, list[int]]:
        """Fragment indices currently lost per live extent.

        Counts crashed disks, erased fragments and *flagged* latent
        sector errors (the oracle sees the flag; real readers only find
        out via :meth:`scrub` or a degraded read).  Extents with a full
        fragment set are omitted; clones collapse onto one entry.
        """
        out: dict[str, list[int]] = {}
        for extent_id, disk_ids in self.fragment_locations().items():
            owner = self._physical_owner(extent_id)
            missing = []
            for index, disk_id in enumerate(disk_ids):
                disk = self._disks[disk_id]
                key = f"{owner}#{disk_id}"
                if (disk.failed or not disk.has_extent(key)
                        or disk.is_corrupt(key)):
                    missing.append(index)
            if missing:
                out[extent_id] = missing
        return out

    def redundancy_deficit(self) -> int:
        """Total fragments that must be rebuilt to restore full redundancy."""
        return sum(len(lost) for lost in self.missing_fragments().values())

    @property
    def fully_redundant(self) -> bool:
        """True when every live extent has its full fragment set healthy."""
        return not self.missing_fragments()

    def scrub(self) -> dict[str, list[int]]:
        """Read every live fragment to surface latent errors, returning the
        same mapping :meth:`missing_fragments` would — but discovered by
        I/O rather than by oracle."""
        out: dict[str, list[int]] = {}
        for extent_id in self.fragment_locations():
            _, bad, _ = self._read_survivors(
                self._extents[extent_id], self._physical_owner(extent_id))
            if bad:
                out[extent_id] = bad
        return out

    def extent_length(self, extent_id: str) -> int:
        """Logical byte length of a live extent (for rebuild sizing)."""
        return self._live_meta(extent_id).length

    def rebuild_extent(self, extent_id: str) -> tuple[int, float]:
        """Reconstruct one extent's lost/corrupt fragments onto healthy disks.

        Unlike :meth:`repair_disk` (whole-disk replacement), this targets a
        single extent: surviving fragments are read, each lost one is
        rebuilt through the policy and re-placed — in place when its disk
        is alive (rewriting clears a latent error), otherwise onto another
        alive disk holding no fragment of this extent, with the placement
        metadata of the extent *and every clone sharing its fragments*
        updated.  Returns (fragments rebuilt, simulated seconds): the
        slowest surviving-fragment read plus the slowest rebuilt-fragment
        write, since each set runs in parallel across its disks.  An
        already healthy extent returns 0 fragments and the read time.
        Raises :class:`UnrecoverableDataError` when more fragments are
        gone than the policy tolerates, and :class:`CapacityError` when no
        healthy disk can take a re-placed fragment.
        """
        meta = self._live_meta(extent_id)
        owner = self._physical_owner(extent_id)
        faults = stats.fault_stats()
        fragments, lost, slowest_read = self._read_survivors(meta, owner)
        if not lost:
            return 0, slowest_read
        slowest_write = 0.0
        # clones share the owner's physical fragments: every extent pointing
        # at this owner (tombstoned ones included, so GC frees the fragments
        # at their new homes) must see the new placement
        family = [
            m for eid, m in self._extents.items()
            if self._physical_owner(eid) == owner
        ]
        for index in lost:
            fragment = self.policy.repair(fragments, index, meta.length)
            old_disk = self._disks[meta.disk_ids[index]]
            if not old_disk.failed:
                target = old_disk
            else:
                holders = set(meta.disk_ids)
                candidates = sorted(
                    (d for d in self._alive_disks()
                     if d.disk_id not in holders),
                    key=lambda d: d.used_bytes,
                )
                if not candidates:
                    raise CapacityError(
                        f"pool {self.name!r}: no healthy disk can take a "
                        f"rebuilt fragment of {extent_id!r}"
                    )
                target = candidates[0]
            slowest_write = max(
                slowest_write,
                target.write(f"{owner}#{target.disk_id}", fragment),
            )
            for member in family:
                member.disk_ids[index] = target.disk_id
            fragments[index] = fragment
            self.stats.rebuilt_fragments += 1
            self.stats.repair_bytes += len(fragment)
            faults.fragments_reconstructed += 1
            faults.reconstructed_bytes += len(fragment)
        self.stats.rebuilds += 1
        return len(lost), slowest_read + slowest_write

    def _read_survivors(
        self, meta: _ExtentMeta, owner: str,
    ) -> tuple[list[bytes | None], list[int], float]:
        """Read every live fragment of one extent, in placement order.

        Returns (fragments with ``None`` for each lost one, lost indices,
        slowest read's simulated seconds).  A crashed disk, an erased
        fragment and a latent sector error surfaced by the read all count
        as lost; the last is counted in the fault stats.
        """
        fragments: list[bytes | None] = []
        lost: list[int] = []
        slowest = 0.0
        for index, disk_id in enumerate(meta.disk_ids):
            disk = self._disks[disk_id]
            key = f"{owner}#{disk_id}"
            if disk.failed or not disk.has_extent(key):
                fragments.append(None)
                lost.append(index)
                continue
            try:
                payload, cost = disk.read(key)
            except CorruptionError:
                stats.fault_stats().sector_errors_detected += 1
                fragments.append(None)
                lost.append(index)
                continue
            fragments.append(payload)
            slowest = max(slowest, cost)
        return fragments, lost, slowest
