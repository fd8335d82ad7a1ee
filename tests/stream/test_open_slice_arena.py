"""Oracle property: the open-slice arena seals and serves exactly the
records a per-record model of the stream object accepts.

Random interleavings of multi-key packed views (whole requests, and
partial or reordered deliveries of them), record-list appends with
retried and duplicate sequences, transactional records, flushes, reads
at random offsets and torn group commits run against one
:class:`StreamObject`.  A plain-Python model assigns offsets with
per-record idempotence.  Every sealed slice, read back from the PLogs
and decompressed, must equal the slice encoding of the model's records,
and every read must return exactly the model's records with offsets
stamped.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.errors import TornWriteError
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.stream.object import ReadControl, StreamObject
from repro.stream.records import (
    RECORDS_PER_SLICE,
    MessageRecord,
    encode_slice,
    encode_slice_legacy,
    pack_request,
)

TOPIC = "dpi"
PRODUCERS = ("pa", "pb")
KEYS = ("", "u1", "u2", "ключ")
UNBOUNDED = ReadControl(max_records=10**9, max_bytes=10**12)
UNBOUNDED_DIRTY = ReadControl(max_records=10**9, max_bytes=10**12,
                              committed_only=False)

values = st.lists(st.binary(max_size=24), min_size=1, max_size=40)


class Model:
    """Per-record reference: offsets, idempotence, holes, visibility."""

    def __init__(self) -> None:
        self.log: list[MessageRecord | None] = []
        self.applied: dict[str, set[int]] = {pid: set() for pid in PRODUCERS}
        self.next_sequence = dict.fromkeys(PRODUCERS, 0)
        self.txns: list[str] = []
        self.committed: set[str] = set()
        self.aborted: set[str] = set()

    def append(self, records: list[MessageRecord]) -> None:
        for record in records:
            pid, sequence = record.producer_id, record.sequence
            if pid and sequence >= 0:
                if sequence in self.applied[pid]:
                    continue
                self.applied[pid].add(sequence)
            self.log.append(record.with_offset(len(self.log)))

    def visible(self, offset: int, committed_only: bool) -> list[MessageRecord]:
        out = []
        for record in self.log[offset:]:
            if record is None or record.txn_id in self.aborted:
                continue
            if (committed_only and record.txn_id is not None
                    and record.txn_id not in self.committed):
                break
            out.append(record)
        return out


def expected_records(groups, timestamp, pid, base, txn):
    """The records one packed request stands for, in delivery order."""
    out = []
    for key, group in groups:
        for value in group:
            out.append(MessageRecord(TOPIC, key, value, timestamp=timestamp,
                                     producer_id=pid, sequence=base + len(out),
                                     txn_id=txn))
    return out


def make_object(codec: str) -> tuple[StreamObject, StoragePool, PLogManager]:
    clock = SimClock()
    pool = StoragePool("arena", clock, policy=erasure_coding_policy(3, 2))
    pool.add_disks(NVME_SSD_PROFILE, 7)
    plogs = PLogManager(pool, clock)
    return StreamObject("obj", plogs, clock, codec=codec), pool, plogs


def pick_txn(data, model: Model) -> str | None:
    if not model.txns:
        return None
    return data.draw(st.none() | st.sampled_from(model.txns))


def draw_groups(data) -> list[tuple[str, list[bytes]]]:
    keys = data.draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=4,
                              unique=True))
    return [(key, data.draw(values)) for key in keys]


def draw_base(data, model: Model, pid: str) -> int:
    """A fresh base sequence, or one overlapping applied sequences."""
    fresh = model.next_sequence[pid]
    if fresh and data.draw(st.booleans()):
        return data.draw(st.integers(min_value=0, max_value=fresh - 1))
    return fresh


def op_packed(data, obj, model, *, partial: bool) -> None:
    pid = data.draw(st.sampled_from(PRODUCERS))
    groups = draw_groups(data)
    base = draw_base(data, model, pid)
    txn = pick_txn(data, model)
    chunk = data.draw(st.integers(min_value=1, max_value=16))
    deliveries = [view for views in pack_request(
        TOPIC, groups, 1.5, pid, base, txn, chunk) for view in views]
    records = expected_records(groups, 1.5, pid, base, txn)
    total = len(records)
    model.next_sequence[pid] = max(model.next_sequence[pid], base + total)
    if partial:
        # lost or reordered deliveries: an overlapping view must add only
        # its own records, never the rest of the shared buffer
        chosen = data.draw(st.permutations(range(len(deliveries))))
        chosen = chosen[:data.draw(st.integers(0, len(chosen)))]
        deliveries = [deliveries[i] for i in chosen]
    for view in deliveries:
        obj.append(view)
        model.append(records[view.start:view.stop])


def op_records(data, obj, model) -> None:
    batch = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        pid = data.draw(st.sampled_from(("",) + PRODUCERS))
        if not pid or data.draw(st.integers(0, 9)) == 0:
            sequence = -1  # unsequenced: never deduplicated
        elif model.next_sequence[pid] and data.draw(st.booleans()):
            # a retry of an earlier sequence (maybe in this very batch)
            sequence = data.draw(st.integers(0, model.next_sequence[pid] - 1))
        else:
            sequence = model.next_sequence[pid]
            model.next_sequence[pid] += 1
        batch.append(MessageRecord(
            TOPIC, data.draw(st.sampled_from(KEYS)),
            data.draw(st.binary(max_size=24)),
            offset=data.draw(st.integers(-1, 10**6)), timestamp=2.5,
            producer_id=pid, sequence=sequence,
            txn_id=pick_txn(data, model)))
    obj.append(batch)
    model.append(batch)


def op_torn(data, obj, pool, model) -> None:
    """A group commit that loses its slices from a tear point on."""
    pool.arm_torn_commit(data.draw(st.integers(min_value=0, max_value=1)))
    try:
        if data.draw(st.booleans()):
            pid = data.draw(st.sampled_from(PRODUCERS))
            base = model.next_sequence[pid]
            count = 2 * RECORDS_PER_SLICE
            groups = [("u1", [b"torn-%d" % i for i in range(count)])]
            (views,) = pack_request(TOPIC, groups, 3.0, pid, base, None,
                                    count)
            model.next_sequence[pid] = base + count
            model.append(expected_records(groups, 3.0, pid, base, None))
            obj.append(views[0])
        else:
            obj.flush()
    except TornWriteError as exc:
        # the lost slices' records were never acked: their offsets are holes
        for key in exc.lost:
            start = int(key.rsplit("/", 1)[1])
            for offset in range(start, min(start + RECORDS_PER_SLICE,
                                           obj.end_offset)):
                model.log[offset] = None
    finally:
        pool.disarm_torn_commits()


def check_reads(data, obj, model) -> None:
    offset = data.draw(st.integers(min_value=0, max_value=len(model.log)))
    got, _ = obj.read(offset, UNBOUNDED)
    assert got == model.visible(offset, committed_only=True)
    got, _ = obj.read(offset, UNBOUNDED_DIRTY)
    assert got == model.visible(offset, committed_only=False)
    got_values, _, _, _ = obj.read_values(offset)
    assert got_values == [
        r.value for r in model.visible(offset, committed_only=True)]


def check_sealed(obj, plogs, model) -> None:
    for start, count, key in obj.sealed_slices():
        payload, _ = plogs.read_key(key)
        records = model.log[start:start + count]
        assert None not in records
        encoded = zlib.decompress(payload)
        if obj.codec == "binary":
            assert encoded == encode_slice(records, base_offset=start)
        else:
            assert encoded == encode_slice_legacy(records)


@pytest.mark.parametrize("codec", ["binary", "legacy"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_arena_matches_per_record_model(codec, data):
    obj, pool, plogs = make_object(codec)
    model = Model()
    ops = st.sampled_from(["packed", "partial", "records", "begin",
                           "resolve", "flush", "read", "torn"])
    for op in data.draw(st.lists(ops, min_size=1, max_size=14)):
        if op == "packed":
            op_packed(data, obj, model, partial=False)
        elif op == "partial":
            op_packed(data, obj, model, partial=True)
        elif op == "records":
            op_records(data, obj, model)
        elif op == "begin":
            model.txns.append(f"x{len(model.txns)}")
        elif op == "resolve":
            txn = pick_txn(data, model)
            if txn is not None and data.draw(st.booleans()):
                obj.mark_committed(txn)
                model.committed.add(txn)
            elif txn is not None:
                obj.mark_aborted(txn)
                model.aborted.add(txn)
        elif op == "flush":
            obj.flush()
        elif op == "torn":
            op_torn(data, obj, pool, model)
        else:
            check_reads(data, obj, model)
        assert obj.end_offset == len(model.log)
    check_reads(data, obj, model)
    check_sealed(obj, plogs, model)
    obj.flush()
    check_sealed(obj, plogs, model)
    check_reads(data, obj, model)


def test_overlapping_view_decodes_only_its_records():
    """The overlap fallback materializes the view, not the shared buffer."""
    obj, _, _ = make_object("binary")
    groups = [("a", [b"a0", b"a1"]), ("b", [b"b0"]), ("c", [b"c0", b"c1"])]
    views = [v for vs in pack_request(TOPIC, groups, 0.0, "pa", 0, None, 8)
             for v in vs]
    obj.append(views[0])
    obj.append(views[0])  # a retry: overlaps the applied sequences 0..1
    obj.append(views[2])  # delivered before the lost middle view
    assert [r.value for r in views[2].records()] == [b"c0", b"c1"]
    got, _ = obj.read(0)
    assert [(r.offset, r.value) for r in got] == [
        (0, b"a0"), (1, b"a1"), (2, b"c0"), (3, b"c1")]
    obj.append(views[1])  # the late view: sequence 2 is not applied yet
    obj.append(views[1])
    got, _ = obj.read(4)
    assert [(r.offset, r.value, r.sequence) for r in got] == [(4, b"b0", 2)]
