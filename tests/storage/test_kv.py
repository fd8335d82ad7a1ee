"""Unit and property tests for the distributed KV engine."""

import pytest
from hypothesis import given, strategies as st

from repro.storage.kv import KV_WRITE_S, KVEngine

keys = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=12,
)


@pytest.fixture
def kv():
    return KVEngine("kv")


def test_put_get(kv):
    kv.put("a", 1)
    assert kv.get("a") == 1


def test_get_missing_default(kv):
    assert kv.get("missing") is None
    assert kv.get("missing", "fallback") == "fallback"


def test_overwrite(kv):
    kv.put("a", 1)
    kv.put("a", 2)
    assert kv.get("a") == 2
    assert len(kv) == 1


def test_delete(kv):
    kv.put("a", 1)
    assert kv.delete("a") is True
    assert kv.get("a") is None
    assert kv.delete("a") is False


def test_contains(kv):
    kv.put("a", 1)
    assert "a" in kv
    assert "b" not in kv


def test_scan_prefix_ordered(kv):
    for key in ("t/2", "t/1", "u/1", "t/3"):
        kv.put(key, key)
    assert [k for k, _ in kv.scan("t/")] == ["t/1", "t/2", "t/3"]


def test_scan_empty_prefix_returns_all(kv):
    kv.put("b", 2)
    kv.put("a", 1)
    assert [k for k, _ in kv.scan("")] == ["a", "b"]


def test_scan_range(kv):
    for key in ("a", "b", "c", "d"):
        kv.put(key, key)
    assert [k for k, _ in kv.scan_range("b", "d")] == ["b", "c"]


def test_clear_prefix(kv):
    for key in ("p/1", "p/2", "q/1"):
        kv.put(key, key)
    assert kv.clear_prefix("p/") == 2
    assert kv.keys() == ["q/1"]


def test_costs_charged(kv):
    """A mutation returns its write-ahead-log cost; reads return values."""
    assert kv.put("a", 1) == KV_WRITE_S > 0
    assert kv.get("a") == 1
    assert kv.reads == 1
    assert kv.writes == 1


@given(st.dictionaries(keys, st.integers(), max_size=50))
def test_model_based_contents(mapping):
    kv = KVEngine("m")
    for key, value in mapping.items():
        kv.put(key, value)
    assert len(kv) == len(mapping)
    assert kv.keys() == sorted(mapping)
    for key, value in mapping.items():
        assert kv.get(key) == value


@given(st.lists(st.tuples(keys, st.booleans()), max_size=60))
def test_model_based_put_delete_sequence(operations):
    """Interleaved puts/deletes match a dict model."""
    kv = KVEngine("m")
    model: dict[str, int] = {}
    for index, (key, is_delete) in enumerate(operations):
        if is_delete:
            assert kv.delete(key) == (key in model)
            model.pop(key, None)
        else:
            kv.put(key, index)
            model[key] = index
    assert kv.keys() == sorted(model)
    for key, value in model.items():
        assert kv.get(key) == value


# --- lazy re-sort on bulk loads -----------------------------------------


def test_bulk_load_stays_unsorted_until_first_ordered_read(kv):
    for index in (5, 3, 9, 1):
        kv.put(f"k{index}", index)
    assert kv._sorted is False
    assert kv.keys() == ["k1", "k3", "k5", "k9"]  # first ordered read sorts
    assert kv._sorted is True


def test_in_order_appends_never_trigger_a_resort(kv):
    for index in range(10):
        kv.put(f"k{index}", index)
    assert kv._sorted is True
    assert kv.keys() == [f"k{index}" for index in range(10)]


def test_overwrite_does_not_duplicate_or_unsort(kv):
    kv.put("b", 1)
    kv.put("a", 1)
    kv.put("a", 2)  # overwrite while unsorted
    assert kv.keys() == ["a", "b"]
    assert len(kv) == 2


def test_delete_and_scan_interleaved_with_unsorted_puts(kv):
    for key in ("z", "m", "a"):
        kv.put(key, key)
    assert kv.delete("m") is True  # delete forces the lazy sort first
    kv.put("b", "b")               # unsorted again
    assert [k for k, _ in kv.scan("")] == ["a", "b", "z"]
    assert [k for k, _ in kv.scan_range("a", "c")] == ["a", "b"]


def test_put_cost_unchanged_by_lazy_sort():
    kv = KVEngine("cost")
    costs = [kv.put("z", 0)]
    costs += [kv.put(f"k{index}", index) for index in range(99)]
    assert costs == [KV_WRITE_S] * 100
