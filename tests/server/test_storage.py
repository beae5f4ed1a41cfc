"""Stable storage: versioning, rollback pointer, disk timing model."""

import pytest

from repro.crypto.fastpath import DIFF_BLOCK
from repro.errors import StorageError
from repro.server.storage import DiskModel, StableStorage


class TestStableStorage:
    def test_empty_load_returns_none(self):
        assert StableStorage().load() is None

    def test_store_then_load(self):
        storage = StableStorage()
        storage.store(b"v1")
        assert storage.load() == b"v1"

    def test_load_returns_latest(self):
        storage = StableStorage()
        storage.store(b"v1")
        storage.store(b"v2")
        assert storage.load() == b"v2"

    def test_all_versions_retained(self):
        storage = StableStorage()
        for i in range(5):
            storage.store(f"v{i}".encode())
        assert storage.version_count() == 5
        assert storage.load_version(0) == b"v0"
        assert storage.load_version(4) == b"v4"

    def test_rollback_repoints_current(self):
        storage = StableStorage()
        storage.store(b"old")
        storage.store(b"new")
        storage.rollback_to(0)
        assert storage.load() == b"old"

    def test_store_after_rollback_still_appends(self):
        storage = StableStorage()
        storage.store(b"old")
        storage.store(b"new")
        storage.rollback_to(0)
        storage.store(b"after")
        assert storage.version_count() == 3
        assert storage.load() == b"after"

    def test_rollback_out_of_range(self):
        storage = StableStorage()
        storage.store(b"v")
        with pytest.raises(StorageError):
            storage.rollback_to(5)

    def test_load_version_out_of_range(self):
        with pytest.raises(StorageError):
            StableStorage().load_version(0)

    def test_non_bytes_rejected(self):
        with pytest.raises(StorageError):
            StableStorage().store("not-bytes")

    def test_counters_and_totals(self):
        storage = StableStorage()
        storage.store(b"abc")
        storage.load()
        storage.load()
        assert storage.stores == 1
        assert storage.loads == 2
        assert storage.total_bytes() == 3
        assert storage.latest_index() == 0

    def test_last_delta_bytes_tracks_the_persisted_suffix(self):
        """A store retains the blocks that differ from the previous
        version and whatever lies beyond its length — not the suffix from
        the first change on."""
        storage = StableStorage()
        assert storage.last_delta_bytes() is None
        old = bytes(range(256)) * 4  # four blocks
        storage.store(old)
        assert storage.last_delta_bytes() == len(old)  # a snapshot
        patched = bytearray(old)
        patched[300] ^= 1  # block 1
        patched[1000] ^= 1  # block 3
        grown = bytes(patched) + b"tail"
        storage.store(grown)
        # blocks 1 and 3 plus the four bytes past the old length
        assert DIFF_BLOCK == 256
        assert storage.last_delta_bytes() == 256 + 256 + 4
        storage.store(grown)
        assert storage.last_delta_bytes() == 0
        storage.store(grown[:600])  # a shrink keeps its equal prefix
        assert storage.last_delta_bytes() == 0
        assert storage.physical_bytes() == len(old) + 516
        assert [storage.load_version(i) for i in range(4)] == [
            old, grown, grown, grown[:600]
        ]


class TestDiskModel:
    def test_async_much_faster_than_fsync(self):
        disk = DiskModel()
        assert disk.write_time(1000, fsync=False) < disk.write_time(1000, fsync=True)

    def test_fsync_dominated_by_flush_latency(self):
        disk = DiskModel(fsync_latency=5e-3)
        assert disk.write_time(100, fsync=True) == pytest.approx(5e-3, rel=0.01)

    def test_transfer_term_scales_with_size(self):
        disk = DiskModel(bytes_per_second=1e6)
        small = disk.write_time(1000, fsync=False)
        large = disk.write_time(2000, fsync=False)
        assert large - small == pytest.approx(1000 / 1e6)
