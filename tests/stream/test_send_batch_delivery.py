"""Delivery equivalence: packing a request once changes no delivery.

``Producer.send_batch`` packs a whole request into one buffer and hands
the service per-key views of it.  The sequence of deliveries must equal
what packing each key chunk separately with :func:`pack_values` gave:
the same stream ids, counts, base sequences, wire sizes, transaction
ids and records, chunked by ``batch_size``, with records buffered by
``send()`` flushed before the first delivery to their stream.
"""

import zlib

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.stream.producer import Producer, plan_batch
from repro.stream.records import PackedRecordBatch, pack_values

TOPIC = "dpi"


class Dispatcher:
    """Routes keys to three streams and counts the calls."""

    def __init__(self) -> None:
        self.calls = 0

    def route_key(self, topic: str, key: str) -> str:
        self.calls += 1
        return f"{topic}/{zlib.crc32(key.encode()) % 3}"


class Service:
    """Records every delivery as comparable plain data."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self.dispatcher = Dispatcher()
        self.deliveries: list[tuple] = []

    def deliver(self, stream_id, records, txn_id=None) -> float:
        if isinstance(records, PackedRecordBatch):
            self.deliveries.append((
                stream_id, "packed", records.count, records.base_sequence,
                records.wire_bytes, records.txn_id, txn_id, records.records(),
            ))
        else:
            self.deliveries.append((stream_id, "records", list(records),
                                    txn_id))
        return 0.0


def per_key_send_batch(producer: Producer, topic: str, values: list[bytes],
                       keys: list[str] | None) -> None:
    """The reference: group by key, pack every chunk on its own."""
    service = producer._service
    groups: dict[str, list[bytes]] = {}
    for key, value in zip(keys if keys is not None else [""] * len(values),
                          values):
        groups.setdefault(key, []).append(value)
    for key, group in groups.items():
        stream_id = service.dispatcher.route_key(topic, key)
        producer._flush_stream(stream_id)
        for start in range(0, len(group), producer.batch_size):
            part = group[start:start + producer.batch_size]
            batch = pack_values(topic, part, key, service.clock.now,
                                producer.producer_id, producer._sequence,
                                producer._txn_id)
            producer._sequence += len(part)
            service.deliver(stream_id, batch, producer._txn_id)
    producer.sent += len(values)


requests = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(["", "u1", "u2", "u3", "ключ"]),
                           st.binary(max_size=16)), max_size=40),
        st.booleans(),  # keyless request
    ),
    min_size=1, max_size=5,
)
buffered = st.lists(st.tuples(st.sampled_from(["u1", "u9"]),
                              st.binary(max_size=8)), max_size=4)


@settings(max_examples=100, deadline=None)
@given(requests=requests, buffered=buffered,
       batch_size=st.integers(min_value=1, max_value=12),
       txn=st.none() | st.just("txn-1"))
def test_send_batch_delivers_what_per_key_packing_did(requests, buffered,
                                                      batch_size, txn):
    new_service, old_service = Service(), Service()
    new = Producer(new_service, producer_id="p", batch_size=batch_size)
    old = Producer(old_service, producer_id="p", batch_size=batch_size)
    for producer in (new, old):
        producer._txn_id = txn
        producer.batch_size = 64  # send() buffers below a full batch
        for key, value in buffered:
            producer.send(TOPIC, value, key)
        producer.batch_size = batch_size
    for pairs, keyless in requests:
        values = [value for _, value in pairs]
        keys = None if keyless else [key for key, _ in pairs]
        new_service.clock.advance(0.5)
        old_service.clock.advance(0.5)
        new.send_batch(TOPIC, values, keys)
        per_key_send_batch(old, TOPIC, values, keys)
    assert new_service.deliveries == old_service.deliveries
    assert (new._sequence, new.sent) == (old._sequence, old.sent)


def test_plan_routes_each_distinct_key_once():
    service = Service()
    keys = ["u1", "u2", "u1", "u3", "u2", "u1"]
    values = [b"%d" % i for i in range(len(keys))]
    plan = plan_batch(service.dispatcher, TOPIC, values, keys)
    assert service.dispatcher.calls == 3
    assert [(key, len(group)) for key, _, group in plan] == [
        ("u1", 3), ("u2", 2), ("u3", 1)]
    producer = Producer(service, producer_id="p", batch_size=8)
    producer.send_batch(TOPIC, values, keys, plan=plan)
    assert service.dispatcher.calls == 3  # the send reused the plan
    assert [d[2] for d in service.deliveries] == [3, 2, 1]
