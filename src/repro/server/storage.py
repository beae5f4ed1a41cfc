"""Versioned stable storage and the disk timing model.

``StableStorage`` retains *every* blob ever stored.  A correct server's
``load`` returns the most recent one; keeping the full version history is
what gives a malicious server its rollback ammunition ("a malicious server
may still return a correctly protected but outdated state", Sec. 2.3) and
lets tests assert exactly which stale state was replayed.

Consecutive per-batch versions of a sealed state blob differ in a few
places: the sections a batch resealed, the V rows of the clients it
answered and the manifest tag; the key and static-config boxes change
only on membership or key events.  The store exploits that: each version
is kept as ``(length, runs)`` — the ``(offset, bytes)`` runs of
:data:`~repro.crypto.fastpath.DIFF_BLOCK`-byte blocks that differ from
the previously appended version, found in one pass by the fastpath
backend's ``diff_blocks`` — with a full snapshot every
:data:`SNAPSHOT_INTERVAL` versions so any version reconstructs from a
bounded number of records.  A store therefore retains O(bytes it
changed), wherever in the blob they lie.  The external contract is
unchanged: ``load``/``load_version`` return the exact bytes stored.

``DiskModel`` supplies the timing side for the performance experiments:
Fig. 5 runs with asynchronous writes (the write syscall returns after
hitting the page cache), Fig. 6 with fsync per state store, which the paper
shows flattens every non-batching system to a few hundred ops/s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import fastpath as _fastpath
from repro.errors import StorageError

#: Every Nth version is stored in full, bounding delta-chain reconstruction.
SNAPSHOT_INTERVAL = 64

#: A stored version: the whole blob (a snapshot), or its length and the
#: ``(offset, bytes)`` runs that differ from the previously appended one.
_Record = bytes | tuple[int, list[tuple[int, bytes]]]


def _retained_bytes(record: _Record) -> int:
    if isinstance(record, bytes):
        return len(record)
    return sum(len(data) for _, data in record[1])


@dataclass(frozen=True)
class DiskModel:
    """Latency model for one store of a state blob.

    ``async_write_latency`` models a buffered write on the paper's SSD;
    ``fsync_latency`` the full synchronous flush.  Values are calibrated in
    :mod:`repro.perf.costs`; these defaults match a SATA SSD of the period.
    """

    async_write_latency: float = 30e-6
    fsync_latency: float = 4.0e-3
    bytes_per_second: float = 450e6  # sequential write bandwidth

    def write_time(self, size_bytes: int, *, fsync: bool) -> float:
        transfer = size_bytes / self.bytes_per_second
        if fsync:
            return self.fsync_latency + transfer
        return self.async_write_latency + transfer


class StableStorage:
    """Append-only version store with a movable "current" pointer.

    A correct host only ever calls :meth:`store` and :meth:`load`.  The
    malicious host additionally uses :meth:`version_count`,
    :meth:`load_version` and :meth:`rollback_to` — the latter repoints
    "current" at an older version, which is precisely a rollback attack on
    the next enclave restart.
    """

    def __init__(self, name: str = "stable-storage", *, delta: bool = True) -> None:
        self.name = name
        #: block deltas only pay off when consecutive versions are
        #: near-copies (sealed state blobs); stores whose versions are
        #: unrelated records (the coordinator's decision log) pass
        #: ``delta=False`` and skip the diff — every version is a snapshot
        self._delta = delta
        self._records: list[_Record] = []
        self._tail: bytes = b""  # full bytes of the newest version
        self._current: int = -1
        self.stores = 0
        self.loads = 0

    # -------------------------------------------------- correct-host surface

    def store(self, blob: bytes) -> int:
        """Persist a blob; returns its version index."""
        if not isinstance(blob, (bytes, bytearray)):
            raise StorageError("stable storage holds bytes only")
        blob = bytes(blob)
        if self._delta and len(self._records) % SNAPSHOT_INTERVAL:
            runs = _fastpath.BACKEND.diff_blocks(self._tail, blob)
            self._records.append(
                (len(blob), [(lo, blob[lo:hi]) for lo, hi in runs])
            )
        else:
            self._records.append(blob)
        self._tail = blob
        self._current = len(self._records) - 1
        self.stores += 1
        return self._current

    def load(self) -> bytes | None:
        """Return the blob at the current pointer (None if nothing stored)."""
        self.loads += 1
        if self._current < 0:
            return None
        return self.load_version(self._current)

    # ------------------------------------------------ malicious-host surface

    def version_count(self) -> int:
        return len(self._records)

    def load_version(self, index: int) -> bytes:
        if not 0 <= index < len(self._records):
            raise StorageError(f"no stored version {index}")
        if index == len(self._records) - 1:
            return self._tail
        base = index
        while not isinstance(self._records[base], bytes):
            base -= 1
        blob = bytearray(self._records[base])
        for length, runs in self._records[base + 1 : index + 1]:
            del blob[length:]
            for offset, data in runs:
                blob[offset : offset + len(data)] = data
        return bytes(blob)

    def rollback_to(self, index: int) -> None:
        """Repoint "current" at an older version (rollback attack setup)."""
        if not 0 <= index < len(self._records):
            raise StorageError(f"no stored version {index}")
        self._current = index

    def latest_index(self) -> int:
        return self._current

    def total_bytes(self) -> int:
        """Logical bytes across all versions (as if each were stored whole)."""
        return sum(
            len(record) if isinstance(record, bytes) else record[0]
            for record in self._records
        )

    def physical_bytes(self) -> int:
        """Bytes actually retained: snapshots plus every delta's runs."""
        return sum(map(_retained_bytes, self._records))

    def last_delta_bytes(self) -> int | None:
        """Bytes the most recent store physically retained (its runs).

        This is the quantity the :class:`DiskModel` charges a steady-state
        sync write for (``CostModel.sealed_store_bytes``): the blocks equal
        to the previous version's never hit the disk again.
        """
        if not self._records:
            return None
        return _retained_bytes(self._records[-1])
