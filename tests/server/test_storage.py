"""Stable storage: versioning, rollback pointer, disk timing model."""

import pytest

from repro.errors import StorageError
from repro.server.storage import SNAPSHOT_INTERVAL, DiskModel, StableStorage


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

    def test_whole_blobs_are_snapshots(self):
        storage = StableStorage()
        assert storage.last_delta_bytes() is None
        for blob in (b"abcdef", b"abcdef", b"abc"):
            storage.store(blob)
            assert storage.last_delta_bytes() == len(blob)
        assert storage.physical_bytes() == storage.total_bytes() == 15


class TestDeltaStores:
    """A delta ``(base_length, length, runs)`` patches the newest version."""

    def test_delta_patches_the_newest_version(self):
        storage = StableStorage()
        storage.store(b"0123456789")
        # equal length: two runs rewritten in place
        storage.store((10, 10, [(1, b"ab"), (7, b"x")]))
        assert storage.load() == b"0ab3456x89"
        assert storage.last_delta_bytes() == 3
        # growth: the last run covers everything past the base
        storage.store((10, 13, [(8, b"YYZZZ")]))
        assert storage.load() == b"0ab3456xYYZZZ"
        # shrink: cut to the new length, then patch
        storage.store((13, 4, [(0, b"Q")]))
        assert storage.load() == b"Qab3"
        # nothing changed: an empty delta retains nothing
        storage.store((4, 4, []))
        assert storage.last_delta_bytes() == 0
        assert [storage.load_version(i) for i in range(5)] == [
            b"0123456789", b"0ab3456x89", b"0ab3456xYYZZZ", b"Qab3", b"Qab3"
        ]
        assert storage.physical_bytes() == 10 + 3 + 5 + 1 + 0
        assert storage.total_bytes() == 10 + 10 + 13 + 4 + 4

    def test_loads_return_bytes_the_next_delta_cannot_change(self):
        storage = StableStorage()
        storage.store(b"aaaa")
        storage.store((4, 4, [(0, b"b")]))
        newest = storage.load()
        assert type(newest) is bytes and newest == b"baaa"
        storage.store((4, 4, [(1, b"c")]))
        assert newest == b"baaa"
        assert type(storage.load_version(1)) is bytes

    def test_delta_after_a_rollback_patches_the_newest_not_the_current(self):
        storage = StableStorage()
        storage.store(b"old!")
        storage.store(b"newer")
        storage.rollback_to(0)
        storage.store((5, 5, [(0, b"N")]))
        assert storage.load() == b"Newer"

    def test_base_length_mismatch_refused(self):
        storage = StableStorage()
        with pytest.raises(StorageError):
            storage.store((0, 1, [(0, b"x")]))  # nothing to patch yet
        storage.store(b"abc")
        with pytest.raises(StorageError):
            storage.store((4, 4, [(0, b"x")]))
        assert storage.version_count() == 1

    def test_run_outside_the_new_length_refused(self):
        storage = StableStorage()
        storage.store(b"abcdef")
        with pytest.raises(StorageError):
            storage.store((6, 6, [(5, b"xy")]))  # past the end
        with pytest.raises(StorageError):
            storage.store((6, 6, [(-1, b"x")]))
        with pytest.raises(StorageError):
            storage.store((6, 3, [(2, b"xy")]))  # past a shrunk end
        assert storage.load() == b"abcdef"

    def test_negative_length_refused(self):
        storage = StableStorage()
        storage.store(b"abcdefghij")
        with pytest.raises(StorageError):
            storage.store((10, -3, []))
        assert storage.load() == b"abcdefghij"
        assert storage.version_count() == 1

    def test_runs_out_of_order_refused(self):
        storage = StableStorage()
        storage.store(b"abcdef")
        with pytest.raises(StorageError):
            storage.store((6, 6, [(3, b"x"), (1, b"y")]))
        with pytest.raises(StorageError):
            storage.store((6, 6, [(1, b"xyz"), (2, b"q")]))  # overlapping
        assert storage.load() == b"abcdef"

    def test_uncovered_growth_refused(self):
        """A run past the end of a ``bytearray`` would land at its end,
        not at its offset: growth must be covered from the base on."""
        storage = StableStorage()
        storage.store(b"abc")
        with pytest.raises(StorageError):
            storage.store((3, 6, [(4, b"xy")]))  # [3, 4) left out
        with pytest.raises(StorageError):
            storage.store((3, 6, [(3, b"x")]))  # [4, 6) left out
        with pytest.raises(StorageError):
            storage.store((3, 6, []))
        storage.store((3, 6, [(2, b"Xx"), (4, b"yz")]))
        assert storage.load() == b"abXxyz"

    def test_runs_hold_bytes_only(self):
        storage = StableStorage()
        storage.store(b"abc")
        with pytest.raises(StorageError):
            storage.store((3, 3, [(0, bytearray(b"x"))]))
        with pytest.raises(StorageError):
            storage.store((3, 3, [(0, memoryview(b"x"))]))

    def test_snapshot_every_interval(self):
        storage = StableStorage()
        storage.store(b"v" * 8)
        for index in range(1, 2 * SNAPSHOT_INTERVAL + 1):
            storage.store((8, 8, [(0, bytes([index % 256]))]))
            snapshot = index % SNAPSHOT_INTERVAL == 0
            assert storage.last_delta_bytes() == (8 if snapshot else 1)
        assert storage.load_version(SNAPSHOT_INTERVAL + 3) == (
            bytes([SNAPSHOT_INTERVAL + 3]) + b"v" * 7
        )


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
