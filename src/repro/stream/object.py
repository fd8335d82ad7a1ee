"""The stream object: native stream storage abstraction (Section IV-A).

A stream object stores one partition of a message stream as a sequence of
slices of up to 256 records.  Unlike Kafka, which persists messages through
a local file system, the stream object appends directly into PLogs in the
disaggregated store layer, so serving capacity (workers) can scale without
moving data.

The operations mirror Fig 3 of the paper:

    CreateServerStreamObject  -> StreamObjectStore.create
    DestroyServerStreamObject -> StreamObjectStore.destroy
    AppendServerStreamObject  -> StreamObject.append
    ReadServerStreamObject    -> StreamObject.read

Delivery guarantees implemented here (Section V-A):

* strict ordering — offsets are assigned monotonically at append;
* idempotent writes — duplicate (producer_id, sequence) pairs are detected
  and the original offset returned instead of appending twice;
* transactional visibility — records carrying an uncommitted ``txn_id``
  are excluded from reads until the transaction manager marks them
  committed.

The open slice is one packed arena (:class:`~repro.stream.records.SliceArena`):
appends copy producer-packed header rows and varlen bytes into it, a full
slice is framed by one :func:`~repro.stream.records.repack_slices` call,
and open-slice reads decode only the records appended since the last read.
"""

from __future__ import annotations

import itertools
import zlib
from bisect import bisect_right
from dataclasses import dataclass

from repro.common import stats
from repro.common.clock import SimClock
from repro.errors import InvalidOffsetError, ObjectNotFoundError, TornWriteError
from repro.storage.plog import PLogManager
from repro.stream.records import (
    RECORDS_PER_SLICE,
    MessageRecord,
    PackedRecordBatch,
    SliceArena,
    decode_slice,
    decode_slice_full,
    encode_records,
    encode_slice_legacy,
    packed_positions,
    slice_values,
)


@dataclass(frozen=True)
class ReadControl:
    """Read options (the paper's READ_CTRL_S): bounds on a read call."""

    max_records: int = 1024
    max_bytes: int = 4 * 1024 * 1024
    committed_only: bool = True


@dataclass
class _SliceInfo:
    """Index entry for one sealed slice."""

    start_offset: int
    count: int
    plog_key: str


def _run_lookup(state: list[list[int]], sequence: int) -> int | None:
    """Offset at which ``sequence`` was applied, or None if unseen.

    ``state`` is the per-producer list of ``[first_sequence, first_offset,
    count]`` runs sorted by first_sequence; offsets within a run track the
    sequences one-to-one.
    """
    i = bisect_right(state, sequence, key=lambda run: run[0]) - 1
    if i >= 0:
        run = state[i]
        if sequence < run[0] + run[2]:
            return run[1] + (sequence - run[0])
    return None


def _run_insert(state: list[list[int]], run: list[int]) -> None:
    """Insert a new run keeping the state sorted by first sequence."""
    state.insert(bisect_right(state, run[0], key=lambda r: r[0]), run)


class StreamObject:
    """One partition's append-only record log backed by PLogs."""

    def __init__(self, object_id: str, plogs: PLogManager, clock: SimClock,
                 redundancy: str = "ec", codec: str = "binary") -> None:
        if codec not in ("binary", "legacy"):
            raise ValueError(f"codec must be 'binary' or 'legacy', got {codec!r}")
        self.object_id = object_id
        self.redundancy = redundancy
        self.codec = codec
        self._plogs = plogs
        self._clock = clock
        self._sealed: list[_SliceInfo] = []
        #: the open slice, packed
        self._arena = SliceArena()
        #: offset of the first record in the open slice
        self._open_base = 0
        self._next_offset = 0
        #: idempotence state per producer: sorted runs of consecutively
        #: applied sequences, each ``[first_sequence, first_offset, count]``
        #: — one entry per contiguous run instead of one dict entry per
        #: record, so batch appends record a whole batch in O(1)
        self._producer_state: dict[str, list[list[int]]] = {}
        self._committed_txns: set[str] = set()
        self._aborted_txns: set[str] = set()
        self.records_appended = 0
        self.bytes_appended = 0
        self.trim_offset = 0  # records below this were archived/expired

    # --- write path ---------------------------------------------------------

    @property
    def end_offset(self) -> int:
        """Offset the next appended record will receive."""
        return self._next_offset

    def append(
        self, records: list[MessageRecord] | PackedRecordBatch
    ) -> tuple[int, float]:
        """Append records, returning (start offset, simulated seconds).

        Duplicates (same producer_id + sequence) are skipped; if *all*
        records are duplicates, the original first offset is returned.

        A :class:`PackedRecordBatch` takes the zero-materialization path:
        the view is deduplicated as a whole and its byte ranges are copied
        into the open-slice arena.  A record list runs through one pass
        with the producer-state lookups hoisted out of the loop, and its
        accepted records are packed once and copied the same way.  Either
        way, every slice the batch fills is sealed in a single group
        commit (one PLog append_batch, one EC encode) at the end.
        """
        if isinstance(records, PackedRecordBatch):
            return self._append_packed(records)
        if not records:
            raise ValueError("append requires at least one record")
        start = self._next_offset
        first_offset: int | None = None
        producer_state = self._producer_state
        next_offset = self._next_offset
        accepted: list[MessageRecord] = []
        for record in records:
            pid = record.producer_id
            sequence = record.sequence
            if pid and sequence >= 0:
                state = producer_state.get(pid)
                if state is None:
                    producer_state[pid] = [[sequence, next_offset, 1]]
                else:
                    last = state[-1]
                    if (sequence == last[0] + last[2]
                            and next_offset == last[1] + last[2]):
                        # the expected next sequence extends the run
                        last[2] += 1
                    else:
                        existing = _run_lookup(state, sequence)
                        if existing is not None:
                            if first_offset is None:
                                first_offset = existing
                            continue
                        _run_insert(state, [sequence, next_offset, 1])
            if first_offset is None:
                first_offset = next_offset
            accepted.append(record)
            next_offset += 1
        self._next_offset = next_offset
        self.records_appended += len(accepted)
        self.bytes_appended += sum(record.size_bytes for record in accepted)
        cost = 0.0
        if accepted:
            # offsets are stamped into the wire format at seal time
            data = encode_records(accepted)
            cost = self._fill(data, packed_positions(data), 0, len(accepted))
        if first_offset is None:
            first_offset = start
        return first_offset, cost

    def _append_packed(self, batch: PackedRecordBatch) -> tuple[int, float]:
        """Append a producer-packed view without materializing records."""
        n = batch.count
        if not n:
            raise ValueError("append requires at least one record")
        pid = batch.producer_id
        base_sequence = batch.base_sequence
        next_offset = self._next_offset
        if pid and base_sequence >= 0:
            state = self._producer_state.get(pid)
            if state is None:
                self._producer_state[pid] = [[base_sequence, next_offset, n]]
            else:
                last = state[-1]
                if (base_sequence == last[0] + last[2]
                        and next_offset == last[1] + last[2]):
                    last[2] += n
                elif base_sequence >= last[0] + last[2]:
                    state.append([base_sequence, next_offset, n])
                else:
                    # retry overlap: some sequence may already be applied,
                    # so fall back to the per-record dedupe path
                    return self.append(batch.records())
        self._next_offset = next_offset + n
        self.records_appended += n
        self.bytes_appended += batch.wire_bytes
        cost = self._fill(batch.data, batch.positions, batch.start,
                          batch.stop)
        return next_offset, cost

    def _fill(self, data: bytes, positions: list[int], start: int,
              stop: int) -> float:
        """Copy records ``start..stop`` of a packed buffer into the open
        slice; every slice they fill is sealed in one group commit."""
        arena = self._arena
        sealed: list[tuple[int, int, bytes]] = []
        while start < stop:
            take = min(RECORDS_PER_SLICE - arena.count, stop - start)
            arena.put(data, positions, start, start + take)
            start += take
            if arena.count == RECORDS_PER_SLICE:
                sealed.append(self._seal_open())
        return self._commit(sealed) if sealed else 0.0

    def _seal_open(self) -> tuple[int, int, bytes]:
        """Encode the open slice: (base offset, record count, bytes);
        the next open slice starts after it."""
        base = self._open_base
        count = self._arena.count
        if self.codec == "binary":
            # offsets are stamped straight into the wire format
            encoded = self._arena.seal(base)
        else:
            encoded = encode_slice_legacy(self._arena.records(base))
        self._arena.clear()
        self._open_base = base + count
        return base, count, encoded

    def _commit(self, slices: list[tuple[int, int, bytes]]) -> float:
        """Group-commit encoded ``slices`` (from :meth:`_seal_open`)."""
        ingest = stats.ingest_stats()
        items: list[tuple[str, bytes]] = []
        infos: list[_SliceInfo] = []
        for start, count, encoded in slices:
            key = f"{self.object_id}/slice/{start}"
            # slices compress before persistence: one of the stream object's
            # advantages over file-based logs (Section I "well store, compress")
            payload = zlib.compress(encoded, level=1)
            items.append((key, payload))
            infos.append(
                _SliceInfo(start_offset=start, count=count, plog_key=key)
            )
            ingest.records_appended += count
            ingest.bytes_encoded += len(encoded)
            ingest.bytes_compressed += len(payload)
        ingest.slices_sealed += len(items)
        ingest.plog_group_commits += 1
        try:
            _, cost = self._plogs.append_batch(items)
        except TornWriteError as exc:
            # the slices the PLogs acked stay served; the lost slices'
            # records were never acked and their offsets become holes
            # readers skip over.  Matched by key, not prefix length: a
            # sharded group commit (write_parallelism > 1) acks the union
            # of per-partition durable prefixes, which need not be a
            # prefix of the whole group.
            durable_keys = set(exc.durable)
            self._sealed.extend(
                info for info in infos if info.plog_key in durable_keys
            )
            raise
        self._sealed.extend(infos)
        return cost

    def flush(self) -> float:
        """Seal the open slice even if it is not full (shutdown/fsync)."""
        if not self._arena.count:
            return 0.0
        return self._commit([self._seal_open()])

    # --- transaction visibility ----------------------------------------------

    def mark_committed(self, txn_id: str) -> None:
        self._committed_txns.add(txn_id)

    def mark_aborted(self, txn_id: str) -> None:
        self._aborted_txns.add(txn_id)

    def _classify(self, record: MessageRecord, committed_only: bool) -> str:
        """Read-visibility of one record: 'take', 'skip' or 'stop'.

        Aborted-transaction records are skipped.  Records of a still-open
        transaction form a *barrier* for committed-only readers (Kafka's
        last-stable-offset semantics): reading stops before them so the
        consumer re-polls once the transaction resolves, never missing or
        reordering records.
        """
        if record.txn_id is None:
            return "take"
        if record.txn_id in self._aborted_txns:
            return "skip"
        if record.txn_id in self._committed_txns:
            return "take"
        return "stop" if committed_only else "take"

    # --- read path ------------------------------------------------------------

    def read(self, offset: int,
             control: ReadControl | None = None) -> tuple[list[MessageRecord], float]:
        """Read records from ``offset`` onward, bounded by ``control``.

        Returns (records, simulated seconds).  Sealed slices come back
        from PLogs; the open slice is served from the write buffer
        ("real-time stream processing", Section IV-A).
        """
        control = control if control is not None else ReadControl()
        if offset < self.trim_offset or offset > self._next_offset:
            raise InvalidOffsetError(
                f"{self.object_id}: offset {offset} outside "
                f"[{self.trim_offset}, {self._next_offset}]"
            )
        out: list[MessageRecord] = []
        total_bytes = 0
        cost = 0.0
        committed_only = control.committed_only
        max_records = control.max_records
        max_bytes = control.max_bytes
        committed = self._committed_txns
        aborted = self._aborted_txns
        # offsets are consecutive within a slice, so the slice-level index
        # locates the starting slice by bisection and the packed codec
        # decodes only from the target record forward
        first = bisect_right(
            self._sealed, offset, key=lambda info: info.start_offset
        ) - 1
        for info in self._sealed[max(first, 0):]:
            if info.start_offset + info.count <= offset:
                continue
            payload, read_cost = self._plogs.read_key(info.plog_key)
            cost += read_cost
            skip = offset - info.start_offset if offset > info.start_offset else 0
            records, slice_bytes, has_txn = decode_slice_full(
                zlib.decompress(payload), start=skip
            )
            if (not has_txn and len(out) + len(records) <= max_records
                    and total_bytes + slice_bytes < max_bytes):
                # whole-slice take: no transactions to classify and the
                # bounds cannot trip mid-slice
                out += records
                total_bytes += slice_bytes
                if len(out) >= max_records:
                    return out, cost
                continue
            for record in records:
                txn = record.txn_id
                if txn is not None:
                    if txn in aborted:
                        continue
                    if txn not in committed and committed_only:
                        # open-transaction barrier (last-stable-offset)
                        return out, cost
                out.append(record)
                total_bytes += record.size_bytes
                if len(out) >= max_records or total_bytes >= max_bytes:
                    return out, cost
        open_base = self._open_base
        start_index = offset - open_base if offset > open_base else 0
        for record in self._arena.records(open_base)[start_index:]:
            txn = record.txn_id
            if txn is not None:
                if txn in aborted:
                    continue
                if txn not in committed and committed_only:
                    break
            out.append(record)
            total_bytes += record.size_bytes
            if len(out) >= max_records or total_bytes >= max_bytes:
                break
        return out, cost

    def read_values(self, offset: int) -> tuple[list[bytes], int, float, int]:
        """Committed record *values* from ``offset`` to the end of the log.

        The stream->table conversion read path (Section V-B): a converter
        needs only the message payloads, so sealed slices without
        transactional records take a fast path that slices the value bytes
        straight out of the packed buffer (:func:`slice_values`) without
        materializing any :class:`MessageRecord`.  Slices carrying
        transaction ids fall back to record-level classification with the
        same visibility rules as :meth:`read` (aborted records skipped,
        open transactions form a stop barrier).

        Returns ``(values, next_offset, simulated seconds, slices read)``
        where ``next_offset`` is the position a follow-up call should
        resume from (past skipped aborted records, at the barrier when one
        was hit).
        """
        if offset < self.trim_offset or offset > self._next_offset:
            raise InvalidOffsetError(
                f"{self.object_id}: offset {offset} outside "
                f"[{self.trim_offset}, {self._next_offset}]"
            )
        values: list[bytes] = []
        cost = 0.0
        slices_read = 0
        position = offset
        first = bisect_right(
            self._sealed, offset, key=lambda info: info.start_offset
        ) - 1
        for info in self._sealed[max(first, 0):]:
            if info.start_offset + info.count <= position:
                continue
            payload, read_cost = self._plogs.read_key(info.plog_key)
            cost += read_cost
            slices_read += 1
            skip = (
                position - info.start_offset
                if position > info.start_offset else 0
            )
            data = zlib.decompress(payload)
            slice_vals, has_txn = slice_values(data, start=skip)
            if not has_txn:
                values += slice_vals
                position = info.start_offset + info.count
                continue
            for record in decode_slice(data, start=skip):
                kind = self._classify(record, committed_only=True)
                if kind == "stop":
                    return values, position, cost, slices_read
                if kind == "take":
                    values.append(record.value)
                position = record.offset + 1
        open_base = self._open_base
        start_index = position - open_base if position > open_base else 0
        open_records = self._arena.records(open_base)[start_index:]
        for index, record in enumerate(open_records, start_index):
            kind = self._classify(record, committed_only=True)
            if kind == "stop":
                break
            if kind == "take":
                values.append(record.value)
            position = open_base + index + 1
        return values, position, cost, slices_read

    # --- maintenance ------------------------------------------------------------

    def sealed_slices(self) -> list[tuple[int, int, str]]:
        """(start_offset, count, plog_key) per sealed slice, oldest first."""
        return [(s.start_offset, s.count, s.plog_key) for s in self._sealed]

    def trim(self, upto_offset: int) -> list[str]:
        """Drop sealed slices entirely below ``upto_offset`` (archival).

        Returns the PLog keys released so the caller can reclaim them.
        """
        released = []
        kept = []
        for info in self._sealed:
            if info.start_offset + info.count <= upto_offset:
                released.append(info.plog_key)
                self.trim_offset = max(
                    self.trim_offset, info.start_offset + info.count
                )
            else:
                kept.append(info)
        self._sealed = kept
        return released


class StreamObjectStore:
    """Registry of stream objects in the store layer (Fig 3 create/destroy).

    ``CREATE_OPTIONS_S`` lets callers pick the redundancy method per
    object ("replicate or erasure code", Section IV-A): objects created
    with ``redundancy="replicate"`` persist through ``replicated_plogs``
    when one is supplied, everything else through the default (EC)
    manager.
    """

    def __init__(self, plogs: PLogManager, clock: SimClock,
                 replicated_plogs: PLogManager | None = None,
                 codec: str = "binary") -> None:
        self._plogs = plogs
        self._replicated_plogs = replicated_plogs
        self._clock = clock
        self.default_codec = codec
        self._objects: dict[str, StreamObject] = {}
        self._ids = itertools.count()

    def _manager_for(self, redundancy: str) -> PLogManager:
        if redundancy == "replicate" and self._replicated_plogs is not None:
            return self._replicated_plogs
        return self._plogs

    def create(self, redundancy: str = "ec",
               object_id: str | None = None,
               codec: str | None = None) -> StreamObject:
        """CreateServerStreamObject: allocate a new stream object."""
        if redundancy not in ("ec", "replicate"):
            raise ValueError(
                f"redundancy must be 'ec' or 'replicate', got {redundancy!r}"
            )
        if object_id is None:
            object_id = f"sobj-{next(self._ids)}"
        if object_id in self._objects:
            raise ValueError(f"stream object {object_id!r} already exists")
        obj = StreamObject(
            object_id, self._manager_for(redundancy), self._clock, redundancy,
            codec=codec if codec is not None else self.default_codec,
        )
        self._objects[object_id] = obj
        return obj

    def destroy(self, object_id: str) -> None:
        """DestroyServerStreamObject: drop the object and release its slices."""
        obj = self._objects.pop(object_id, None)
        if obj is None:
            raise ObjectNotFoundError(f"no stream object {object_id!r}")
        for _, __, plog_key in obj.sealed_slices():
            obj._plogs.delete_key(plog_key)

    def get(self, object_id: str) -> StreamObject:
        obj = self._objects.get(object_id)
        if obj is None:
            raise ObjectNotFoundError(f"no stream object {object_id!r}")
        return obj

    def __len__(self) -> int:
        return len(self._objects)
