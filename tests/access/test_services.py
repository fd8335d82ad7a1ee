"""Unit tests for the block / NAS / S3 access services."""

import pytest

from repro.access import PROTOCOL_OVERHEAD_S
from repro.access.auth import AccessControl, Action
from repro.access.block import BLOCK_SIZE, BlockService
from repro.access.nas import NASService
from repro.access.object import S3ObjectService
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.pool import StoragePool
from repro.storage.replication import Replication


@pytest.fixture
def pool(clock):
    pool = StoragePool("p", clock, policy=Replication(2))
    pool.add_disks(NVME_SSD_PROFILE, 3)
    return pool


# --- block service -----------------------------------------------------------

def test_block_write_read_roundtrip(pool, clock):
    service = BlockService(pool, clock)
    service.create_volume("lun0", 1024 * BLOCK_SIZE)
    service.write_block("lun0", 5, b"sector five")
    payload, cost = service.read_block("lun0", 5)
    assert payload.rstrip(b"\0") == b"sector five"
    assert cost > 0


def test_block_thin_provisioning(pool, clock):
    service = BlockService(pool, clock)
    service.create_volume("lun0", 10**9)  # 1 GB logical
    assert pool.provisioned_bytes == 10**9
    assert pool.used_bytes == 0  # nothing materialized yet
    service.write_block("lun0", 0, b"x")
    assert pool.used_bytes == 2 * BLOCK_SIZE  # one block, 2 replicas
    assert service.volume("lun0").materialized_bytes == BLOCK_SIZE


def test_block_unwritten_reads_zeros(pool, clock):
    service = BlockService(pool, clock)
    service.create_volume("lun0", 16 * BLOCK_SIZE)
    payload, _ = service.read_block("lun0", 3)
    assert payload == b"\0" * BLOCK_SIZE


def test_block_overwrite(pool, clock):
    service = BlockService(pool, clock)
    service.create_volume("lun0", 16 * BLOCK_SIZE)
    service.write_block("lun0", 0, b"old")
    service.write_block("lun0", 0, b"new")
    assert service.read_block("lun0", 0)[0].rstrip(b"\0") == b"new"
    assert service.volume("lun0").blocks_written == 1


def test_block_bounds_checked(pool, clock):
    service = BlockService(pool, clock)
    service.create_volume("lun0", 4 * BLOCK_SIZE)
    with pytest.raises(ValueError):
        service.write_block("lun0", 4, b"x")
    with pytest.raises(ValueError):
        service.read_block("lun0", -1)
    with pytest.raises(ValueError):
        service.write_block("lun0", 0, b"z" * (BLOCK_SIZE + 1))


def test_block_delete_volume(pool, clock):
    service = BlockService(pool, clock)
    service.create_volume("lun0", 4 * BLOCK_SIZE)
    service.write_block("lun0", 1, b"data")
    service.delete_volume("lun0")
    assert pool.used_bytes == 0
    assert pool.provisioned_bytes == 0
    with pytest.raises(KeyError):
        service.read_block("lun0", 0)


def test_block_acl_enforced(pool, clock):
    acl = AccessControl()
    acl.register("ops", "pw")
    acl.grant("ops", "block/lun0", Action.ADMIN)
    acl.register("viewer", "pw")
    acl.grant("viewer", "block/lun0", Action.READ)
    service = BlockService(pool, clock, acl=acl)
    ops = acl.authenticate("ops", "pw")
    viewer = acl.authenticate("viewer", "pw")
    service.create_volume("lun0", 4 * BLOCK_SIZE, token=ops)
    service.write_block("lun0", 0, b"x", token=ops)
    service.read_block("lun0", 0, token=viewer)
    with pytest.raises(PermissionError):
        service.write_block("lun0", 0, b"y", token=viewer)
    with pytest.raises(PermissionError):
        service.write_block("lun0", 0, b"y")  # no token at all


# --- NAS service -----------------------------------------------------------------

def test_nas_tree_operations(pool, clock):
    nas = NASService(pool, clock)
    nas.mkdir("/logs")
    nas.mkdir("/logs/2026")
    nas.write_file("/logs/2026/app.log", b"line1\nline2")
    assert nas.listdir("/") == ["logs"]
    assert nas.listdir("/logs") == ["2026"]
    assert nas.listdir("/logs/2026") == ["app.log"]
    assert nas.read_file("/logs/2026/app.log")[0] == b"line1\nline2"
    assert nas.stat("/logs/2026/app.log") == {"type": "file", "size": 11}


def test_nas_missing_parent(pool, clock):
    nas = NASService(pool, clock)
    with pytest.raises(FileNotFoundError):
        nas.write_file("/nope/file", b"x")
    with pytest.raises(FileNotFoundError):
        nas.mkdir("/a/b")


def test_nas_overwrite_file(pool, clock):
    nas = NASService(pool, clock)
    nas.write_file("/f", b"old contents")
    nas.write_file("/f", b"new")
    assert nas.read_file("/f")[0] == b"new"


def test_nas_remove(pool, clock):
    nas = NASService(pool, clock)
    nas.mkdir("/d")
    nas.write_file("/d/f", b"x")
    with pytest.raises(OSError):
        nas.remove("/d")  # not empty
    nas.remove("/d/f")
    nas.remove("/d")
    with pytest.raises(FileNotFoundError):
        nas.stat("/d")
    assert pool.logical_bytes == 0


def test_nas_path_normalization(pool, clock):
    nas = NASService(pool, clock)
    nas.mkdir("dir")
    nas.write_file("dir//nested/../file.txt", b"v")
    assert nas.read_file("/dir/file.txt")[0] == b"v"


# --- S3 object service ---------------------------------------------------------------

def test_s3_put_get_roundtrip(pool, clock):
    s3 = S3ObjectService(pool, clock)
    s3.create_bucket("lake")
    info = s3.put_object("lake", "raw/day=1/part-0", b"object bytes",
                         metadata={"source": "dpi"})
    assert info.size == 12
    payload, fetched = s3.get_object("lake", "raw/day=1/part-0")
    assert payload == b"object bytes"
    assert fetched.metadata == {"source": "dpi"}
    assert fetched.etag == info.etag


def test_s3_list_prefix(pool, clock):
    s3 = S3ObjectService(pool, clock)
    s3.create_bucket("lake")
    for key in ("raw/a", "raw/b", "curated/c"):
        s3.put_object("lake", key, b"x")
    listed = s3.list_objects("lake", prefix="raw/")
    assert [info.key for info in listed] == ["raw/a", "raw/b"]


def test_s3_delete_object_and_bucket(pool, clock):
    s3 = S3ObjectService(pool, clock)
    s3.create_bucket("lake")
    s3.put_object("lake", "k", b"x")
    with pytest.raises(OSError):
        s3.delete_bucket("lake")  # not empty
    s3.delete_object("lake", "k")
    s3.delete_bucket("lake")
    assert s3.buckets() == []
    assert pool.logical_bytes == 0


def test_s3_missing_things_raise(pool, clock):
    s3 = S3ObjectService(pool, clock)
    with pytest.raises(KeyError):
        s3.put_object("ghost", "k", b"x")
    s3.create_bucket("lake")
    with pytest.raises(KeyError):
        s3.get_object("lake", "missing")
    with pytest.raises(ValueError):
        s3.create_bucket("lake")


def test_s3_etag_changes_with_content(pool, clock):
    s3 = S3ObjectService(pool, clock)
    s3.create_bucket("lake")
    first = s3.put_object("lake", "k", b"v1")
    s3.delete_object("lake", "k")
    second = s3.put_object("lake", "k", b"v2")
    assert first.etag != second.etag


# --- protocol overheads (the DPC claim) -----------------------------------------------

def test_dpc_is_the_cheapest_path():
    overheads = PROTOCOL_OVERHEAD_S
    assert overheads["dpc"] < min(
        overheads["iscsi"], overheads["nfs"], overheads["smb"], overheads["s3"]
    )


def test_s3_costs_more_per_op_than_block(pool, clock):
    """The gateway-protocol cost ordering shows up in measured ops."""
    s3 = S3ObjectService(pool, clock)
    s3.create_bucket("b")
    block = BlockService(pool, clock)
    block.create_volume("v", 4 * BLOCK_SIZE)
    s3_before = clock.now
    s3.put_object("b", "k", b"x" * 100)
    s3_cost = clock.now - s3_before
    block_before = clock.now
    block.write_block("v", 0, b"x" * 100)
    block_cost = clock.now - block_before
    assert s3_cost > block_cost
