"""Versioned stable storage and the disk timing model.

``StableStorage`` retains *every* blob ever stored.  A correct server's
``load`` returns the most recent one; keeping the full version history is
what gives a malicious server its rollback ammunition ("a malicious server
may still return a correctly protected but outdated state", Sec. 2.3) and
lets tests assert exactly which stale state was replayed.

Since the trusted context seals its state as ``[key_blob, static_blob,
dynamic_blob]``, consecutive per-operation versions share a long common
prefix (the key and static-config boxes change only on membership or key
events).  The store exploits that: each version is kept as a delta against
the previously appended one — ``(shared prefix length, suffix bytes)`` —
with a full snapshot every :data:`SNAPSHOT_INTERVAL` versions so any
version reconstructs in a bounded number of joins.  The external contract
is unchanged: ``load``/``load_version`` return the exact bytes stored.

``DiskModel`` supplies the timing side for the performance experiments:
Fig. 5 runs with asynchronous writes (the write syscall returns after
hitting the page cache), Fig. 6 with fsync per state store, which the paper
shows flattens every non-batching system to a few hundred ops/s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError

#: Every Nth version is stored in full, bounding delta-chain reconstruction.
SNAPSHOT_INTERVAL = 64

#: Largest scan step of :func:`_common_prefix_length`.  Slices this size
#: stay under malloc's mmap threshold, so the temporaries recycle heap
#: memory; a blob-sized temporary faults in fresh pages on every store,
#: which on a 340 KiB blob costs several times the comparison itself.
_SCAN_CHUNK = 1 << 16


def _common_prefix_length(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix of two byte strings."""
    n = min(len(a), len(b))
    lo = 0
    step = 4096
    while lo < n:  # gallop over chunks that compare equal: one memcmp each
        hi = min(lo + step, n)
        if a[lo:hi] != b[lo:hi]:
            break
        lo = hi
        step = min(2 * step, _SCAN_CHUNK)
    else:
        return n
    while hi - lo > 128:  # the first mismatch lies in [lo, hi): bisect
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    # one big-int XOR; its top set bit locates the first mismatch
    xor = int.from_bytes(a[lo:hi], "big") ^ int.from_bytes(b[lo:hi], "big")
    return hi - ((xor.bit_length() + 7) >> 3)


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
        #: prefix-sharing only pays off when consecutive versions are
        #: near-copies (sealed state blobs); stores whose versions are
        #: unrelated records (the coordinator's decision log) pass
        #: ``delta=False`` and skip the scan — every version is a snapshot
        self._delta = delta
        # (shared prefix length vs the previously appended version, suffix);
        # snapshot versions have shared length 0
        self._records: list[tuple[int, bytes]] = []
        self._lengths: list[int] = []
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
        if self._delta and self._records and len(self._records) % SNAPSHOT_INTERVAL:
            shared = _common_prefix_length(self._tail, blob)
        else:
            shared = 0
        self._records.append((shared, blob[shared:]))
        self._lengths.append(len(blob))
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
        while self._records[base][0]:
            base -= 1
        blob = self._records[base][1]
        for position in range(base + 1, index + 1):
            shared, suffix = self._records[position]
            blob = blob[:shared] + suffix
        return blob

    def rollback_to(self, index: int) -> None:
        """Repoint "current" at an older version (rollback attack setup)."""
        if not 0 <= index < len(self._records):
            raise StorageError(f"no stored version {index}")
        self._current = index

    def latest_index(self) -> int:
        return self._current

    def total_bytes(self) -> int:
        """Logical bytes across all versions (as if each were stored whole)."""
        return sum(self._lengths)

    def physical_bytes(self) -> int:
        """Bytes actually retained after prefix-sharing delta compression."""
        return sum(len(suffix) for _, suffix in self._records)

    def last_delta_bytes(self) -> int | None:
        """Bytes the most recent store physically appended (its suffix).

        This is the quantity the :class:`DiskModel` charges a steady-state
        sync write for (``CostModel.sealed_store_bytes``): the sealed-blob
        prefix shared with the previous version never hits the disk again.
        """
        if not self._records:
            return None
        return len(self._records[-1][1])
