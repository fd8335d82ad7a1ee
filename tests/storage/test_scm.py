"""Unit tests for the SCM (persistent memory) cache."""

import pytest

from repro.common.clock import SimClock
from repro.storage.scm import SCM_READ_S, SCMCache


def loader_returning(payload, cost=1e-3):
    def loader():
        return payload, cost
    return loader


def test_miss_then_hit():
    cache = SCMCache(capacity_bytes=1024)
    payload, cost = cache.get("k", loader_returning(b"value"))
    assert payload == b"value"
    assert cost == 1e-3
    payload, cost = cache.get("k", loader_returning(b"other"))
    assert payload == b"value"  # served from cache, loader not consulted
    assert cost == SCM_READ_S
    assert cache.hits == 1
    assert cache.misses == 1


def test_hit_rate():
    cache = SCMCache(capacity_bytes=1024)
    cache.get("a", loader_returning(b"1"))
    cache.get("a", loader_returning(b"1"))
    cache.get("a", loader_returning(b"1"))
    assert cache.hit_rate == pytest.approx(2 / 3)


def test_lru_eviction():
    cache = SCMCache(capacity_bytes=10)
    cache.put("a", b"12345")
    cache.put("b", b"12345")
    cache.put("c", b"1")  # evicts "a" (least recently used)
    assert cache.evictions == 1
    assert cache.get("a", loader_returning(b"reloaded"))[0] == b"reloaded"
    assert cache.misses == 1


def test_access_refreshes_lru_order():
    cache = SCMCache(capacity_bytes=10)
    cache.put("a", b"12345")
    cache.put("b", b"12345")
    cache.get("a", loader_returning(b""))  # refresh "a"
    cache.put("c", b"12345")  # should evict "b", not "a"
    assert cache.get("a", loader_returning(b"miss"))[0] == b"12345"


def test_oversized_payload_not_cached():
    cache = SCMCache(capacity_bytes=4)
    cache.put("big", b"123456")
    assert cache.used_bytes == 0


def test_overwrite_replaces_bytes():
    cache = SCMCache(capacity_bytes=100)
    cache.put("a", b"12345678")
    cache.put("a", b"12")
    assert cache.used_bytes == 2


def test_invalidate():
    cache = SCMCache(capacity_bytes=100)
    cache.put("a", b"123")
    cache.invalidate("a")
    assert cache.used_bytes == 0
    cache.invalidate("a")  # idempotent


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        SCMCache(capacity_bytes=0)


def test_clock_charged_on_hit():
    """A hit returns one SCM read for the caller to advance a clock by."""
    clock = SimClock()
    cache = SCMCache(capacity_bytes=100)
    cache.put("a", b"x")
    clock.advance(cache.get("a", loader_returning(b""))[1])
    assert clock.now == SCM_READ_S
