"""Unit tests for the KV-backed catalog."""

import pytest

from repro.errors import TableExistsError, TableNotFoundError
from repro.storage.kv import KVEngine
from repro.table.catalog import Catalog
from repro.table.schema import Column, ColumnType, PartitionSpec, Schema


@pytest.fixture
def catalog():
    return Catalog(KVEngine("catalog"))


SCHEMA = Schema([Column("x", ColumnType.INT64)])


def test_create_and_get(catalog):
    info = catalog.create("t", "tables/t", SCHEMA, PartitionSpec(), now=1.0)
    assert info.table_id == 0
    fetched = catalog.get("t")
    assert fetched.path == "tables/t"
    assert fetched.created_at == 1.0


def test_ids_unique(catalog):
    a = catalog.create("a", "pa", SCHEMA, PartitionSpec(), now=0)
    b = catalog.create("b", "pb", SCHEMA, PartitionSpec(), now=0)
    assert a.table_id != b.table_id


def test_duplicate_create_raises(catalog):
    catalog.create("t", "p", SCHEMA, PartitionSpec(), now=0)
    with pytest.raises(TableExistsError):
        catalog.create("t", "p2", SCHEMA, PartitionSpec(), now=0)


def test_get_missing_raises(catalog):
    with pytest.raises(TableNotFoundError):
        catalog.get("ghost")


def test_update_snapshot(catalog):
    catalog.create("t", "p", SCHEMA, PartitionSpec(), now=0)
    catalog.update_snapshot("t", 7, {"rows": 100}, now=5.0)
    info = catalog.get("t")
    assert info.current_snapshot == 7
    assert info.snapshot_description == {"rows": 100}
    assert info.modified_at == 5.0


def test_soft_delete_hides_table(catalog):
    catalog.create("t", "p", SCHEMA, PartitionSpec(), now=0)
    catalog.soft_delete("t", now=1.0)
    assert not catalog.exists("t")
    with pytest.raises(TableNotFoundError):
        catalog.get("t")
    assert catalog.tables() == []
    assert catalog.tables(include_soft_deleted=True) == ["t"]


def test_restore_soft_deleted(catalog):
    original = catalog.create("t", "p", SCHEMA, PartitionSpec(), now=0)
    catalog.soft_delete("t", now=1.0)
    restored = catalog.restore("t", "t_back", now=2.0)
    assert restored.path == "p"  # linked to the original table path
    assert restored.table_id == original.table_id
    assert catalog.exists("t_back")
    assert not catalog.exists("t")


def test_restore_live_table_raises(catalog):
    catalog.create("t", "p", SCHEMA, PartitionSpec(), now=0)
    with pytest.raises(TableNotFoundError):
        catalog.restore("t", "t2", now=1.0)


def test_restore_to_existing_name_raises(catalog):
    catalog.create("busy", "p", SCHEMA, PartitionSpec(), now=0)
    catalog.create("t", "p2", SCHEMA, PartitionSpec(), now=0)
    catalog.soft_delete("t", now=1.0)
    with pytest.raises(TableExistsError):
        catalog.restore("t", "busy", now=2.0)


def test_hard_delete(catalog):
    catalog.create("t", "p", SCHEMA, PartitionSpec(), now=0)
    catalog.hard_delete("t")
    assert catalog.tables(include_soft_deleted=True) == []
    with pytest.raises(TableNotFoundError):
        catalog.hard_delete("t")


def test_tables_sorted(catalog):
    for name in ("zeta", "alpha", "mid"):
        catalog.create(name, name, SCHEMA, PartitionSpec(), now=0)
    assert catalog.tables() == ["alpha", "mid", "zeta"]
