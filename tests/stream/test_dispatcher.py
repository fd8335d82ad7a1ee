"""Unit tests for the stream dispatcher: topology, routing, elasticity."""

import pytest

from repro.common.clock import SimClock
from repro.errors import TopicExistsError, TopicNotFoundError
from repro.storage.kv import KVEngine
from repro.stream.config import TopicConfig
from repro.stream.dispatcher import StreamDispatcher


@pytest.fixture
def dispatcher():
    clock = SimClock()
    dispatcher = StreamDispatcher(KVEngine("meta"), clock)
    for index in range(3):
        dispatcher.register_worker(f"w{index}")
    return dispatcher


def test_create_topic_creates_streams(dispatcher):
    streams = dispatcher.create_topic("t", TopicConfig(stream_num=4))
    assert streams == ["t/0", "t/1", "t/2", "t/3"]
    assert dispatcher.streams_of("t") == streams


def test_duplicate_topic_raises(dispatcher):
    dispatcher.create_topic("t", TopicConfig())
    with pytest.raises(TopicExistsError):
        dispatcher.create_topic("t", TopicConfig())


def test_round_robin_assignment(dispatcher):
    dispatcher.create_topic("t", TopicConfig(stream_num=6))
    counts = {}
    for stream in dispatcher.streams_of("t"):
        counts[dispatcher.worker_of(stream)] = (
            counts.get(dispatcher.worker_of(stream), 0) + 1
        )
    assert set(counts.values()) == {2}  # 6 streams over 3 workers


def test_route_key_stable_and_in_range(dispatcher):
    dispatcher.create_topic("t", TopicConfig(stream_num=3))
    stream = dispatcher.route_key("t", "user-42")
    assert stream == dispatcher.route_key("t", "user-42")
    assert stream in dispatcher.streams_of("t")


def test_unknown_topic_raises(dispatcher):
    with pytest.raises(TopicNotFoundError):
        dispatcher.config_of("ghost")
    with pytest.raises(TopicNotFoundError):
        dispatcher.worker_of("ghost/0")


def test_bind_and_lookup_object(dispatcher):
    dispatcher.create_topic("t", TopicConfig())
    dispatcher.bind_object("t/0", "sobj-7")
    assert dispatcher.object_of("t/0") == "sobj-7"


def test_unbound_object_raises(dispatcher):
    dispatcher.create_topic("t", TopicConfig())
    with pytest.raises(TopicNotFoundError):
        dispatcher.object_of("t/0")


def test_add_worker_rebalances_metadata_only(dispatcher):
    dispatcher.create_topic("t", TopicConfig(stream_num=9))
    moved, elapsed = dispatcher.add_worker("w3")
    assert moved > 0
    assert elapsed > 0
    load = {}
    for stream in dispatcher.streams_of("t"):
        worker = dispatcher.worker_of(stream)
        load[worker] = load.get(worker, 0) + 1
    assert max(load.values()) - min(load.values()) <= 1


def test_remove_worker_reassigns_streams(dispatcher):
    dispatcher.create_topic("t", TopicConfig(stream_num=6))
    victims = dispatcher.streams_of_worker("w1")
    moved, _ = dispatcher.remove_worker("w1")
    assert moved == len(victims)
    for stream in dispatcher.streams_of("t"):
        assert dispatcher.worker_of(stream) in ("w0", "w2")


def test_remove_last_worker_raises():
    clock = SimClock()
    dispatcher = StreamDispatcher(KVEngine("meta"), clock)
    dispatcher.register_worker("only")
    with pytest.raises(ValueError):
        dispatcher.remove_worker("only")


def test_scale_topic_grows_partitions(dispatcher):
    dispatcher.create_topic("t", TopicConfig(stream_num=2))
    created, elapsed = dispatcher.scale_topic("t", 10)
    assert len(created) == 8
    assert elapsed > 0
    assert len(dispatcher.streams_of("t")) == 10


def test_scale_topic_shrink_raises(dispatcher):
    dispatcher.create_topic("t", TopicConfig(stream_num=5))
    with pytest.raises(ValueError):
        dispatcher.scale_topic("t", 3)


def test_scale_time_proportional_to_new_streams(dispatcher):
    dispatcher.create_topic("a", TopicConfig(stream_num=1))
    dispatcher.create_topic("b", TopicConfig(stream_num=1))
    _, small = dispatcher.scale_topic("a", 11)
    _, large = dispatcher.scale_topic("b", 101)
    assert large == pytest.approx(small * 10)


def test_delete_topic_clears_metadata(dispatcher):
    dispatcher.create_topic("t", TopicConfig(stream_num=2))
    dispatcher.bind_object("t/0", "o0")
    dispatcher.delete_topic("t")
    assert "t" not in dispatcher.topics()
    with pytest.raises(TopicNotFoundError):
        dispatcher.config_of("t")


def test_topics_listing(dispatcher):
    dispatcher.create_topic("alpha", TopicConfig())
    dispatcher.create_topic("beta", TopicConfig())
    assert dispatcher.topics() == ["alpha", "beta"]


def test_register_duplicate_worker_raises(dispatcher):
    with pytest.raises(ValueError):
        dispatcher.register_worker("w0")


def test_dispatcher_recovers_from_kv_after_restart():
    """The topology survives a dispatcher crash: a fresh instance over the
    same fault-tolerant KV store serves the same routing answers."""
    clock = SimClock()
    kv = KVEngine("meta")
    original = StreamDispatcher(kv, clock)
    for index in range(3):
        original.register_worker(f"w{index}")
    original.create_topic("t", TopicConfig(stream_num=6))
    original.bind_object("t/0", "sobj:t/0")
    routing_before = {
        stream: original.worker_of(stream)
        for stream in original.streams_of("t")
    }
    # dispatcher process dies; a new one attaches to the same KV store
    recovered = StreamDispatcher(kv, clock)
    assert set(recovered.workers) == {"w0", "w1", "w2"}
    assert recovered.topics() == ["t"]
    assert recovered.object_of("t/0") == "sobj:t/0"
    assert {
        stream: recovered.worker_of(stream)
        for stream in recovered.streams_of("t")
    } == routing_before
    # and it can keep evolving the topology
    recovered.create_topic("u", TopicConfig(stream_num=2))
    assert recovered.worker_of("u/0") in {"w0", "w1", "w2"}
