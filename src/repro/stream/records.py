"""Message records and their binary codec.

A record is a key-value pair published to a topic (Fig 4(a-c)): records are
assigned to stream-object slices based on topic, key and offset.  Each slice
holds up to 256 records (Section IV-A).

Two wire formats exist:

* **Packed** (current): the whole batch is one buffer — a magic-prefixed
  header, a block of fixed-width per-record struct headers
  (offset/timestamp/sequence plus the five varlen-region lengths), a
  ``u32`` per-record offset index into the varlen blob (so a reader can
  seek straight to record *i* without touching records ``0..i-1``), then
  the varlen topic/key/producer/txn/value regions back-to-back.  The
  header block and index are contiguous so both encode and decode handle
  them as single NumPy arrays; one CRC32 covers the entire batch instead
  of three nested per-record frames.
* **Legacy** (seed): each record is JSON metadata + value wrapped in three
  nested length+CRC frames, concatenated per slice.  Decoders dispatch on
  the magic bytes, so slices persisted before the packed codec still read
  (:func:`decode_legacy`).

On the ingest path a producer packs each request once
(:func:`pack_request`) and hands the stream object views of record ranges
of that buffer (:class:`PackedRecordBatch`).  The stream object copies the
views' header rows and varlen bytes into its open slice
(:class:`SliceArena`) and frames each full slice with one
:func:`repack_slices` call, so per-buffer NumPy work is paid once per
request and once per slice, not once per record.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.common import stats
from repro.common.codec import frame, frames, unframe
from repro.errors import CorruptionError

#: Paper, Section IV-A: "Each slice contains up to 256 records."
RECORDS_PER_SLICE = 256

#: Magic prefix of the packed batch layout ("StreamLake Binary v1").  A
#: legacy slice starts with the little-endian length of its first record
#: frame, which would have to be ~0.8 GB to collide with these bytes.
PACKED_MAGIC = b"SLB1"

#: magic, record count, crc32(header block + index + varlen blob)
_BATCH_HEADER = struct.Struct("<4sII")
#: one fixed-width header per record: offset:i64, timestamp:f64,
#: sequence:i64, then u32 lengths of the varlen topic/key/producer_id/
#: txn_id/value regions.  Headers are stored as one contiguous block so
#: the whole batch encodes/decodes through a single NumPy record array.
_HEADER_DTYPE = np.dtype([
    ("offset", "<i8"), ("timestamp", "<f8"), ("sequence", "<i8"),
    ("topic_len", "<u4"), ("key_len", "<u4"), ("pid_len", "<u4"),
    ("txn_len", "<u4"), ("value_len", "<u4"),
])
#: txn_id length sentinel distinguishing ``None`` from an empty string.
_NO_TXN = 0xFFFFFFFF


@dataclass(frozen=True)
class MessageRecord:
    """One key-value message within a stream.

    ``offset`` is assigned by the stream object at append time (-1 before).
    ``producer_id``/``sequence`` implement idempotent writes: a stream
    object ignores a (producer, sequence) pair it has already applied.
    ``txn_id`` marks the record as part of an open transaction; such
    records stay invisible to consumers until the transaction commits.
    """

    topic: str
    key: str
    value: bytes
    offset: int = -1
    timestamp: float = 0.0
    producer_id: str = ""
    sequence: int = -1
    txn_id: str | None = None

    def with_offset(self, offset: int) -> "MessageRecord":
        # hot path: a plain __dict__ copy skips dataclass __init__ and
        # carries the cached size_bytes along (it does not depend on offset)
        clone = object.__new__(MessageRecord)
        clone.__dict__.update(self.__dict__)
        clone.__dict__["offset"] = offset
        return clone

    @cached_property
    def size_bytes(self) -> int:
        """Approximate wire size (key + value + fixed header)."""
        return len(self.key.encode()) + len(self.value) + 48

    def encode(self) -> bytes:
        """Serialize to a framed byte string (the legacy record codec)."""
        header = json.dumps(
            {
                "t": self.topic,
                "k": self.key,
                "o": self.offset,
                "ts": self.timestamp,
                "p": self.producer_id,
                "s": self.sequence,
                "x": self.txn_id,
            },
            separators=(",", ":"),
        ).encode()
        return frame(frame(header) + frame(self.value))

    @classmethod
    def decode(cls, data: bytes) -> "MessageRecord":
        parts = frames(unframe(data))
        if len(parts) != 2:
            raise ValueError(f"malformed record: {len(parts)} frames")
        meta = json.loads(parts[0])
        return cls(
            topic=meta["t"],
            key=meta["k"],
            value=parts[1],
            offset=meta["o"],
            timestamp=meta["ts"],
            producer_id=meta["p"],
            sequence=meta["s"],
            txn_id=meta["x"],
        )


def is_packed(data: bytes) -> bool:
    """Does ``data`` carry the packed batch layout (vs legacy frames)?"""
    return len(data) >= _BATCH_HEADER.size and data[:4] == PACKED_MAGIC


def _encode_packed(records: list[MessageRecord],
                   base_offset: int | None = None) -> bytes:
    n = len(records)
    # (topic, key, producer_id, txn_id) tuples repeat heavily within a
    # slice; each distinct tuple is encoded once into a concatenated
    # varlen prefix, and the per-record loop only looks it up.  The
    # fixed-width lengths live in small per-tuple LUTs expanded to
    # per-record columns with one fancy index each.
    memo: dict[tuple[str, str, str, str | None], tuple[int, bytes]] = {}
    topic_lens: list[int] = []
    key_lens: list[int] = []
    pid_lens: list[int] = []
    txn_lens: list[int] = []
    mids: list[int] = []
    value_lens: list[int] = []
    timestamps: list[float] = []
    sequences: list[int] = []
    offsets: list[int] | None = [] if base_offset is None else None
    parts: list[bytes] = []
    parts_append = parts.append
    for record in records:
        d = record.__dict__
        value = d["value"]
        meta_key = (d["topic"], d["key"], d["producer_id"], d["txn_id"])
        meta = memo.get(meta_key)
        if meta is None:
            topic_b = meta_key[0].encode()
            key_b = meta_key[1].encode()
            pid_b = meta_key[2].encode()
            txn_b = b"" if meta_key[3] is None else meta_key[3].encode()
            prefix = topic_b + key_b + pid_b + txn_b
            meta = memo[meta_key] = (len(memo), prefix)
            topic_lens.append(len(topic_b))
            key_lens.append(len(key_b))
            pid_lens.append(len(pid_b))
            txn_lens.append(_NO_TXN if meta_key[3] is None else len(txn_b))
        mids.append(meta[0])
        value_lens.append(len(value))
        timestamps.append(d["timestamp"])
        sequences.append(d["sequence"])
        if offsets is not None:
            offsets.append(d["offset"])
        parts_append(meta[1])
        parts_append(value)
    mid = np.asarray(mids, dtype=np.intp)
    headers = np.empty(n, dtype=_HEADER_DTYPE)
    if offsets is None:
        headers["offset"] = np.arange(base_offset, base_offset + n,
                                      dtype=np.int64)
    else:
        headers["offset"] = offsets
    headers["timestamp"] = timestamps
    headers["sequence"] = sequences
    headers["topic_len"] = np.asarray(topic_lens, dtype=np.int64)[mid]
    headers["key_len"] = np.asarray(key_lens, dtype=np.int64)[mid]
    headers["pid_len"] = np.asarray(pid_lens, dtype=np.int64)[mid]
    headers["txn_len"] = np.asarray(txn_lens, dtype=np.uint32)[mid]
    headers["value_len"] = value_lens
    return _frame(headers, _record_starts(headers), b"".join(parts))


def _frame(headers: np.ndarray, starts: np.ndarray,
           body: bytes | bytearray) -> bytes:
    """One packed buffer: header rows, their varlen-blob positions
    (``starts``) and the blob, under one CRC."""
    header_bytes = headers.tobytes()
    index_bytes = starts.astype("<u4").tobytes()
    crc = zlib.crc32(body, zlib.crc32(index_bytes, zlib.crc32(header_bytes)))
    return (_BATCH_HEADER.pack(PACKED_MAGIC, headers.shape[0], crc)
            + header_bytes + index_bytes + body)


def _decode_packed(data: bytes, start: int = 0) -> list[MessageRecord]:
    magic, count, crc = _BATCH_HEADER.unpack_from(data)
    if magic != PACKED_MAGIC:
        raise CorruptionError("packed batch magic mismatch")
    # one CRC over header block + index + varlen blob; it also catches
    # truncation, so the per-record loop needs no bounds checks
    if zlib.crc32(memoryview(data)[_BATCH_HEADER.size:]) != crc:
        raise CorruptionError("packed batch checksum mismatch")
    if len(data) < _BATCH_HEADER.size + (_HEADER_DTYPE.itemsize + 4) * count:
        raise CorruptionError("packed batch truncated")
    _, headers, index, blob_start = _packed_parts(data)
    return _decode_rows(data, headers[start:],
                        index[start:].astype(np.int64) + blob_start)


def _record_sizes(headers: np.ndarray) -> np.ndarray:
    """Varlen bytes per record (topic + key + producer + txn + value)."""
    txn_real = np.where(headers["txn_len"] == _NO_TXN, 0,
                        headers["txn_len"])
    return (headers["topic_len"].astype(np.int64) + headers["key_len"]
            + headers["pid_len"] + txn_real + headers["value_len"])


def _record_starts(headers: np.ndarray) -> np.ndarray:
    """Each record's position in a back-to-back varlen blob."""
    starts = np.zeros(headers.shape[0], dtype=np.int64)
    if headers.shape[0] > 1:
        np.cumsum(_record_sizes(headers[:-1]), out=starts[1:])
    return starts


def _decode_rows(data: bytes, headers: np.ndarray,
                 starts: np.ndarray) -> list[MessageRecord]:
    """Materialize records from header rows and each record's position
    in ``data``."""
    # the header rows convert to plain python columns in a few
    # vectorized passes; only string slicing remains per record
    offsets = headers["offset"].tolist()
    timestamps = headers["timestamp"].tolist()
    sequences = headers["sequence"].tolist()
    topic_lens = headers["topic_len"].tolist()
    key_lens = headers["key_len"].tolist()
    txn_lens = headers["txn_len"].tolist()
    value_lens = headers["value_len"].tolist()
    prefix_lens = (_record_sizes(headers) - headers["value_len"]).tolist()
    starts = starts.tolist()
    # distinct (prefix bytes, lengths) tuples decode to strings once
    memo: dict[tuple[bytes, int, int, int], tuple[str, str, str, str | None]] = {}
    out: list[MessageRecord] = []
    append = out.append
    new = object.__new__
    for i in range(len(starts)):
        position = starts[i]
        prefix_len = prefix_lens[i]
        praw = data[position:position + prefix_len]
        topic_len = topic_lens[i]
        key_len = key_lens[i]
        txn_len = txn_lens[i]
        mkey = (praw, topic_len, key_len, txn_len)
        meta = memo.get(mkey)
        if meta is None:
            key_end = topic_len + key_len
            pid_end = prefix_len if txn_len == _NO_TXN else prefix_len - txn_len
            meta = memo[mkey] = (
                praw[:topic_len].decode(),
                praw[topic_len:key_end].decode(),
                praw[key_end:pid_end].decode(),
                None if txn_len == _NO_TXN else praw[pid_end:].decode(),
            )
        value_len = value_lens[i]
        value_start = position + prefix_len
        # hot path: fill the instance dict directly instead of running the
        # dataclass __init__; pre-seat the cached size_bytes for free
        record = new(MessageRecord)
        d = record.__dict__
        d["topic"] = meta[0]
        d["key"] = meta[1]
        d["value"] = data[value_start:value_start + value_len]
        d["offset"] = offsets[i]
        d["timestamp"] = timestamps[i]
        d["producer_id"] = meta[2]
        d["sequence"] = sequences[i]
        d["txn_id"] = meta[3]
        d["size_bytes"] = key_len + value_len + 48
        append(record)
    return out


class PackedRecordBatch:
    """One delivery of producer-packed records bound for one stream.

    The producer packs a whole ``send_batch`` request into one buffer
    (:func:`pack_request`); each per-key delivery is a view of the record
    range ``start..stop`` of that shared buffer.  The parsed header rows
    (``headers``) and each record's byte position in ``data`` plus the
    end of the last record (``positions``) are computed once per buffer
    and shared by its views, so the stream object copies a view into its
    open slice with two byte-range copies.  Per-record Python runs only
    where records are materialized: the idempotence-overlap fallback
    (:meth:`records`) and reads of the open slice.

    ``base_sequence``..``base_sequence + count - 1`` are the (consecutive)
    producer sequences inside; the stream object uses them for batch-level
    idempotence checks.
    """

    __slots__ = ("data", "headers", "positions", "start", "stop", "count",
                 "producer_id", "base_sequence", "txn_id", "wire_bytes")

    def __init__(self, data: bytes, headers: np.ndarray,
                 positions: list[int], start: int, stop: int,
                 producer_id: str, base_sequence: int, txn_id: str | None,
                 wire_bytes: int) -> None:
        self.data = data
        self.headers = headers
        self.positions = positions
        self.start = start
        self.stop = stop
        self.count = stop - start
        self.producer_id = producer_id
        self.base_sequence = base_sequence
        self.txn_id = txn_id
        self.wire_bytes = wire_bytes

    def __len__(self) -> int:
        return self.count

    def records(self) -> list[MessageRecord]:
        """Materialize this view's records (the slow path: dedupe
        conflicts only); the rest of the shared buffer is not decoded."""
        return _decode_rows(
            self.data, self.headers[self.start:self.stop],
            np.asarray(self.positions[self.start:self.stop], dtype=np.int64),
        )


def pack_request(topic: str, groups: list[tuple[str, list[bytes]]],
                 timestamp: float, producer_id: str, base_sequence: int,
                 txn_id: str | None,
                 chunk: int) -> list[list[PackedRecordBatch]]:
    """Pack a produce request into one buffer; return its deliveries.

    ``groups`` are (key, values) runs in delivery order.  Their records go
    into the buffer back-to-back with consecutive sequences from
    ``base_sequence``; offsets are left at -1 for the stream object to
    stamp when it seals them into a slice.  Returns, per group, views of
    its records in runs of at most ``chunk``.
    """
    topic_b = topic.encode()
    pid_b = producer_id.encode()
    txn_b = b"" if txn_id is None else txn_id.encode()
    values: list[bytes] = []
    parts: list[bytes] = []
    key_lens: list[int] = []
    for key, group in groups:
        key_b = key.encode()
        # interleave prefix/value pairs without a per-record loop
        run = [topic_b + key_b + pid_b + txn_b] * (2 * len(group))
        run[1::2] = group
        parts += run
        values += group
        key_lens.append(len(key_b))
    n = len(values)
    value_lens = np.fromiter(map(len, values), dtype=np.int64, count=n)
    headers = np.empty(n, dtype=_HEADER_DTYPE)
    headers["offset"] = -1
    headers["timestamp"] = timestamp
    headers["sequence"] = np.arange(base_sequence, base_sequence + n,
                                    dtype=np.int64)
    headers["topic_len"] = len(topic_b)
    headers["key_len"] = np.repeat(key_lens, [len(g) for _, g in groups])
    headers["pid_len"] = len(pid_b)
    headers["txn_len"] = _NO_TXN if txn_id is None else len(txn_b)
    headers["value_len"] = value_lens
    starts = _record_starts(headers)
    body = b"".join(parts)
    data = _frame(headers, starts, body)
    positions = (starts + len(data) - len(body)).tolist() + [len(data)]
    value_ends = [0] + np.cumsum(value_lens).tolist()
    deliveries: list[list[PackedRecordBatch]] = []
    first = 0
    for (_, group), key_len in zip(groups, key_lens):
        end = first + len(group)
        views = []
        for start in range(first, end, chunk):
            stop = min(start + chunk, end)
            views.append(PackedRecordBatch(
                data, headers, positions, start, stop, producer_id,
                base_sequence + start, txn_id,
                (key_len + 48) * (stop - start)
                + value_ends[stop] - value_ends[start],
            ))
        deliveries.append(views)
        first = end
    return deliveries


def pack_values(topic: str, values: list[bytes], key: str, timestamp: float,
                producer_id: str, base_sequence: int,
                txn_id: str | None) -> PackedRecordBatch:
    """Encode ``values`` (at least one) as one packed batch sharing all
    metadata: a :func:`pack_request` of a single group and delivery."""
    if not values:
        raise ValueError("pack_values needs at least one value")
    (views,) = pack_request(topic, [(key, values)], timestamp, producer_id,
                            base_sequence, txn_id, len(values))
    return views[0]


def packed_positions(data: bytes) -> list[int]:
    """Each record's byte position in a packed buffer, plus its end
    (the ``positions`` of a :class:`PackedRecordBatch` over ``data``)."""
    _, _, index, blob_start = _packed_parts(data)
    return (index.astype(np.int64) + blob_start).tolist() + [len(data)]


def _packed_parts(data: bytes) -> tuple[int, np.ndarray, np.ndarray, int]:
    """(count, header array, index array, varlen-blob start) of a buffer."""
    count = _BATCH_HEADER.unpack_from(data)[1]
    headers = np.frombuffer(data, dtype=_HEADER_DTYPE, count=count,
                            offset=_BATCH_HEADER.size)
    index = np.frombuffer(
        data, dtype="<u4", count=count,
        offset=_BATCH_HEADER.size + _HEADER_DTYPE.itemsize * count,
    )
    blob_start = _BATCH_HEADER.size + (_HEADER_DTYPE.itemsize + 4) * count
    return count, headers, index, blob_start


def repack_slices(headers: np.ndarray, body: bytes | bytearray,
                  base_offset: int) -> bytes:
    """Frame header rows and their varlen bytes as one packed slice.

    ``headers`` are records' fixed-width header rows copied out of packed
    buffers and ``body`` their varlen regions back-to-back (a
    :class:`SliceArena`).  Offsets are stamped to the consecutive run
    ``base_offset + i`` and the offset index is rebuilt from the header
    lengths.  Everything is NumPy column work and bytes copies — no
    records are materialized.
    """
    headers["offset"] = np.arange(base_offset,
                                  base_offset + headers.shape[0],
                                  dtype=np.int64)
    return _frame(headers, _record_starts(headers), body)


class SliceArena:
    """A stream object's open slice: up to 256 records, packed.

    The header rows live in one preallocated block and the varlen bytes
    in one blob, so appending records from a packed buffer is two
    byte-range copies.  The offset index is not kept: it is the running
    sum of the record sizes in the header rows, rebuilt when the slice is
    sealed (:func:`repack_slices`) or read (:meth:`records`).  Records
    decoded by a read are kept, so the next read decodes only the
    records put since.
    """

    def __init__(self) -> None:
        self._block = bytearray(RECORDS_PER_SLICE * _HEADER_DTYPE.itemsize)
        self._rows = np.frombuffer(self._block, dtype=_HEADER_DTYPE)
        self.clear()

    def put(self, data: bytes, positions: list[int], start: int,
            stop: int) -> None:
        """Copy records ``start..stop`` of the packed buffer ``data``
        (``positions`` as on :class:`PackedRecordBatch`)."""
        size = _HEADER_DTYPE.itemsize
        rows = _BATCH_HEADER.size + start * size
        self._block[self.count * size:(self.count + stop - start) * size] = \
            data[rows:rows + (stop - start) * size]
        self._blob += data[positions[start]:positions[stop]]
        self.count += stop - start

    def seal(self, base_offset: int) -> bytes:
        """The packed slice of every record held, offsets from
        ``base_offset``."""
        return repack_slices(self._rows[:self.count], self._blob,
                             base_offset)

    def clear(self) -> None:
        self._blob = bytearray()
        self._decoded: list[MessageRecord] = []
        self.count = 0

    def records(self, base_offset: int) -> list[MessageRecord]:
        """The records held, record *i* at offset ``base_offset + i``."""
        decoded = self._decoded
        start = len(decoded)
        if start < self.count:
            rows = self._rows[start:self.count]
            rows["offset"] = np.arange(base_offset + start,
                                       base_offset + self.count,
                                       dtype=np.int64)
            starts = _record_starts(self._rows[:self.count])[start:]
            first = int(starts[0])
            decoded += _decode_rows(bytes(self._blob[first:]), rows,
                                    starts - first)
        return decoded


def encode_slice(records: list[MessageRecord],
                 base_offset: int | None = None) -> bytes:
    """Serialize a slice (<= RECORDS_PER_SLICE records) to packed bytes.

    ``base_offset`` overrides the records' own offsets with the consecutive
    run ``base_offset + i`` — the stream object's seal path uses this to
    stamp offsets into the wire format without cloning every record first.
    """
    if len(records) > RECORDS_PER_SLICE:
        raise ValueError(
            f"slice holds at most {RECORDS_PER_SLICE} records, got {len(records)}"
        )
    return _encode_packed(records, base_offset)


def decode_slice(data: bytes, start: int = 0) -> list[MessageRecord]:
    """Inverse of :func:`encode_slice`, from record index ``start`` onward.

    Packed slices seek straight to ``start`` via the offset index; legacy
    slices (no magic) fall back to :func:`decode_legacy`.
    """
    if is_packed(data):
        return _decode_packed(data, start)
    return decode_legacy(data)[start:]


def decode_slice_full(
    data: bytes, start: int = 0
) -> tuple[list[MessageRecord], int, bool]:
    """Like :func:`decode_slice`, plus (total size_bytes, any txn record).

    Both extras come from vectorized passes over the packed header block,
    so readers taking a whole slice (the common case) can skip per-record
    size/transaction bookkeeping entirely.
    """
    if is_packed(data):
        _, headers, _, _ = _packed_parts(data)
        tail = headers[start:]
        size = int(tail["key_len"].sum() + tail["value_len"].sum()) \
            + 48 * tail.shape[0]
        has_txn = bool((tail["txn_len"] != _NO_TXN).any())
        return _decode_packed(data, start), size, has_txn
    records = decode_legacy(data)[start:]
    size = sum(record.size_bytes for record in records)
    has_txn = any(record.txn_id is not None for record in records)
    return records, size, has_txn


def slice_values(data: bytes, start: int = 0) -> tuple[list[bytes], bool]:
    """Extract just the record *values* of a slice, plus an any-txn flag.

    The stream->table conversion fast path: converting a slice needs only
    the message payloads, so no :class:`MessageRecord` objects are built.
    For packed slices the value byte ranges come from vectorized passes
    over the header block and are sliced straight out of the buffer; the
    txn flag (computed the same way) tells the caller whether it must fall
    back to record-level visibility classification instead of using the
    returned values.  Legacy slices decode through :func:`decode_legacy`.
    """
    if not is_packed(data):
        records = decode_legacy(data)[start:]
        has_txn = any(record.txn_id is not None for record in records)
        return [record.value for record in records], has_txn
    count, headers, index, blob_start = _packed_parts(data)
    crc = _BATCH_HEADER.unpack_from(data)[2]
    if zlib.crc32(memoryview(data)[_BATCH_HEADER.size:]) != crc:
        raise CorruptionError("packed batch checksum mismatch")
    tail = headers[start:]
    has_txn = bool((tail["txn_len"] != _NO_TXN).any())
    ends = index[start:].astype(np.int64) + blob_start + _record_sizes(tail)
    starts = ends - tail["value_len"]
    return [
        data[lo:hi] for lo, hi in zip(starts.tolist(), ends.tolist())
    ], has_txn


def encode_slice_legacy(records: list[MessageRecord]) -> bytes:
    """The seed's slice codec: per-record JSON in three nested frames."""
    if len(records) > RECORDS_PER_SLICE:
        raise ValueError(
            f"slice holds at most {RECORDS_PER_SLICE} records, got {len(records)}"
        )
    return b"".join(frame(record.encode()) for record in records)


def decode_legacy(data: bytes) -> list[MessageRecord]:
    """Decode a legacy (pre-packed-codec) frame concatenation."""
    stats.ingest_stats().legacy_slices_decoded += 1
    return [MessageRecord.decode(payload) for payload in frames(data)]


def encode_records(records: list[MessageRecord]) -> bytes:
    """Serialize an arbitrary-length batch (no slice-size limit)."""
    return _encode_packed(records)


def decode_records(data: bytes) -> list[MessageRecord]:
    """Inverse of :func:`encode_records` (legacy batches auto-detected)."""
    if is_packed(data):
        return _decode_packed(data)
    return decode_legacy(data)
