"""Persistence logs (PLogs): the append-only units behind every shard.

Fig 4(e,f): each of the 4096 logical shards has its storage space managed by
a PLog unit controlling a fixed amount of space (128 MB of addresses per
shard).  Appended payloads are redundantly persisted by the backing
:class:`~repro.storage.pool.StoragePool`, and a key-value index maps
logical keys to PLog addresses for fast record lookup.

When a PLog's 128 MB address space fills, the shard seals it and opens the
next generation — mirroring how OceanStor rotates PLog extents.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import stats
from repro.common.clock import SimClock
from repro.common.units import MiB
from repro.errors import ObjectNotFoundError, TornWriteError
from repro.storage.dht import NUM_SHARDS, shard_of
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool

#: Address space per PLog unit (paper: "128 MB of addresses per shard").
PLOG_ADDRESS_SPACE = 128 * MiB


@dataclass(frozen=True)
class PLogAddress:
    """Stable address of an appended payload: (shard, generation, offset)."""

    shard: int
    generation: int
    offset: int

    def extent_id(self) -> str:
        return f"plog/{self.shard}/{self.generation}/{self.offset}"


class PLogUnit:
    """One generation of a shard's persistence log."""

    def __init__(self, shard: int, generation: int,
                 address_space: int = PLOG_ADDRESS_SPACE) -> None:
        self.shard = shard
        self.generation = generation
        self.address_space = address_space
        self.used = 0
        self.sealed = False

    @property
    def free(self) -> int:
        return self.address_space - self.used

    def reserve(self, size: int) -> int | None:
        """Reserve ``size`` bytes; returns the offset, or None if full."""
        if self.sealed or size > self.free:
            return None
        offset = self.used
        self.used += size
        return offset

    def seal(self) -> None:
        self.sealed = True


class PLogManager:
    """Routes appends to per-shard PLogs over a redundant storage pool."""

    def __init__(self, pool: StoragePool, clock: SimClock,
                 num_shards: int = NUM_SHARDS,
                 address_space: int = PLOG_ADDRESS_SPACE,
                 index: KVEngine | None = None,
                 write_parallelism: int = 1,
                 write_mode: str = "thread") -> None:
        self.pool = pool
        self._clock = clock
        self.num_shards = num_shards
        self.address_space = address_space
        self.index = index if index is not None else KVEngine("plog-index")
        self._active: dict[int, PLogUnit] = {}
        self._history: dict[int, list[PLogUnit]] = {}
        self.appends = 0
        self.bytes_appended = 0
        #: group commits fan over this many write-wave workers (1 = serial)
        self.write_parallelism = write_parallelism
        #: ShardPool mode for the write waves ("serial"/"thread")
        self.write_mode = write_mode

    def configure_write_parallelism(self, workers: int,
                                    mode: str = "thread") -> None:
        """Route group commits through the sharded committer
        (:func:`repro.parallel.ingest.sharded_append_batch`) ``workers``
        wide; ``workers=1`` restores the serial path."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.write_parallelism = workers
        self.write_mode = mode

    def _unit_for(self, shard: int, size: int) -> tuple[PLogUnit, int]:
        unit = self._active.get(shard)
        if unit is not None:
            offset = unit.reserve(size)
            if offset is not None:
                return unit, offset
            unit.seal()
        generation = len(self._history.get(shard, [])) + (1 if unit else 0)
        if unit is not None:
            self._history.setdefault(shard, []).append(unit)
            generation = unit.generation + 1
        unit = PLogUnit(shard, generation, self.address_space)
        offset = unit.reserve(size)
        if offset is None:
            raise ValueError(
                f"payload of {size} bytes exceeds PLog address space "
                f"{self.address_space}"
            )
        self._active[shard] = unit
        return unit, offset

    def _reserve(
        self, items: list[tuple[str, bytes]]
    ) -> list[tuple[str, bytes, PLogAddress]]:
        """Reserve an address per item, in input order.

        Shared by the serial commit and the sharded committer
        (:mod:`repro.parallel.ingest`): reservation always happens on the
        driver in input order, so both paths assign bit-identical
        addresses — the first leg of the equivalence oracle.
        """
        placements: list[tuple[str, bytes, PLogAddress]] = []
        for key, payload in items:
            shard = shard_of(key, self.num_shards)
            unit, offset = self._unit_for(shard, len(payload))
            placements.append(
                (key, payload, PLogAddress(shard, unit.generation, offset))
            )
        return placements

    def _index_acked(
        self, placements: list[tuple[str, bytes, PLogAddress]]
    ) -> None:
        """Index acknowledged appends and charge the append counters.

        The single bookkeeping path for every ack — :meth:`append`,
        :meth:`append_batch_serial` (clean and torn) and the sharded
        committer all come through here, so no commit path can drift
        ``appends``/``bytes_appended`` or the context-routed ingest
        counters relative to another.
        """
        ingest = stats.ingest_stats()
        index_put = self.index.put
        for key, payload, address in placements:
            index_put(f"addr/{key}", address.extent_id())
            self.bytes_appended += len(payload)
            ingest.plog_bytes_acked += len(payload)
        self.appends += len(placements)
        ingest.plog_appends_acked += len(placements)

    def append(self, key: str, payload: bytes) -> tuple[PLogAddress, float]:
        """Persist ``payload`` for ``key``; returns (address, sim seconds).

        The shard is chosen by the DHT hash of ``key`` so slices distribute
        evenly (Fig 4(d)); the index records key -> address for lookup.
        """
        shard = shard_of(key, self.num_shards)
        unit, offset = self._unit_for(shard, len(payload))
        address = PLogAddress(shard, unit.generation, offset)
        cost = self.pool.store(address.extent_id(), payload)
        self._index_acked([(key, payload, address)])
        return address, cost

    def append_batch(
        self, items: list[tuple[str, bytes]]
    ) -> tuple[list[PLogAddress], float]:
        """Group-commit several payloads; returns (addresses in input
        order, simulated seconds).

        With ``write_parallelism == 1`` (the default) this is the serial
        path: one :meth:`StoragePool.store_batch` charging extents
        back-to-back.  A wider setting routes the group through
        :func:`repro.parallel.ingest.sharded_append_batch`, which
        partitions the group by PLog shard ownership, fans EC encode and
        placement over workers, and charges the LPT makespan of the
        per-partition write waves — with this serial path as its
        equivalence oracle (identical addresses, index contents, acked
        keys and merged counters; only the returned sim seconds shrink).
        """
        if not items:
            return [], 0.0
        if self.write_parallelism > 1 and len(items) > 1:
            # imported lazily: repro.parallel sits above the storage layer
            from repro.parallel.ingest import sharded_append_batch

            wave = sharded_append_batch(
                self, items,
                num_workers=self.write_parallelism,
                mode=self.write_mode,
            )
            return wave.addresses, wave.sim_elapsed_s
        return self.append_batch_serial(items)

    def append_batch_serial(
        self, items: list[tuple[str, bytes]]
    ) -> tuple[list[PLogAddress], float]:
        """The serial group commit (and the sharded committer's oracle):
        reserve all addresses, store the extents through one
        :meth:`StoragePool.store_batch` call (one EC encode for the whole
        group), then index the keys.

        Acked-write semantics: a group commit that tears mid-batch (see
        :meth:`StoragePool.store_batch`) indexes only the durable prefix
        — those keys are acknowledged and will be served — then re-raises
        :class:`TornWriteError` naming the acked keys and the
        lost-in-flight ones, which were never acknowledged and whose
        address-space reservations become dead holes in their PLog units.
        """
        if not items:
            return [], 0.0
        placements = self._reserve(items)
        try:
            cost = self.pool.store_batch(
                [(address.extent_id(), payload)
                 for _, payload, address in placements]
            )
        except TornWriteError as exc:
            # the pool stored extents in placement order: the durable
            # prefix maps back onto the first len(exc.durable) keys
            durable = placements[: len(exc.durable)]
            self._index_acked(durable)
            raise TornWriteError(
                f"PLog group commit torn: {len(durable)} of "
                f"{len(placements)} appends durable",
                durable=[key for key, _, __ in durable],
                lost=[key for key, _, __ in placements[len(durable):]],
            ) from exc
        self._index_acked(placements)
        return [address for *_, address in placements], cost

    def read(self, address: PLogAddress) -> tuple[bytes, float]:
        """Read a payload back by address."""
        return self.pool.fetch(address.extent_id())

    def read_key(self, key: str) -> tuple[bytes, float]:
        """Index-assisted lookup: key -> address -> payload."""
        extent_id = self.index.get(f"addr/{key}")
        if extent_id is None:
            raise ObjectNotFoundError(f"no PLog entry for key {key!r}")
        return self.pool.fetch(extent_id)

    def delete_key(self, key: str) -> None:
        extent_id = self.index.get(f"addr/{key}")
        if extent_id is None:
            raise ObjectNotFoundError(f"no PLog entry for key {key!r}")
        self.pool.delete(extent_id)
        self.index.delete(f"addr/{key}")

    def shard_utilization(self) -> dict[int, float]:
        """Fraction of address space used per active shard (load balance)."""
        return {
            shard: unit.used / unit.address_space
            for shard, unit in self._active.items()
        }
