"""Versioned stable storage and the disk timing model.

``StableStorage`` retains *every* blob ever stored.  A correct server's
``load`` returns the most recent one; keeping the full version history is
what gives a malicious server its rollback ammunition ("a malicious server
may still return a correctly protected but outdated state", Sec. 2.3) and
lets tests assert exactly which stale state was replayed.

:meth:`StableStorage.store` takes one of two things:

- a whole blob (``bytes``), kept as a snapshot;
- a **delta** ``(base_length, length, runs)``: the new version is the
  newest stored one (which must be ``base_length`` bytes long), cut or
  grown to ``length`` bytes, with each ``(offset, bytes)`` run of
  ``runs`` written at its offset.  Runs ascend, do not overlap, lie
  inside ``[0, length]`` and cover everything past ``base_length``.

The LCM context emits the delta itself: it knows which pieces of its
sealed blob each seal rewrote (the sections a batch resealed, the V rows
of the clients it answered, the manifest tag), so a per-batch store
hands over those bytes and nothing else — no whole-blob join and no
compare.  The store keeps its newest version as one buffer patched in
place and appends ``(length, runs)``, with a full snapshot every
:data:`SNAPSHOT_INTERVAL` versions so any version reconstructs from a
bounded number of records.  A store therefore retains O(bytes it
changed).  The external contract is unchanged: ``load``/``load_version``
return the exact bytes of each version, as ``bytes``.

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

#: What :meth:`StableStorage.store` takes besides a whole blob: the base
#: version's length, the new length and the ascending ``(offset, bytes)``
#: runs that turn the one into the other.
Delta = tuple[int, int, list[tuple[int, bytes]]]

#: A stored version: the whole blob (a snapshot), or its length and the
#: ``(offset, bytes)`` runs written over the previously appended one.
_Record = bytes | tuple[int, list[tuple[int, bytes]]]


def _retained_bytes(record: _Record) -> int:
    if isinstance(record, bytes):
        return len(record)
    return sum(len(data) for _, data in record[1])


def _check_runs(base_length: int, length: int, runs: list) -> None:
    """Refuse runs that would not patch a ``base_length``-byte version
    into a ``length``-byte one.  Slice assignment past the end of a
    ``bytearray`` appends at the end instead of at the offset, so a gap
    or a stray offset would silently store the wrong bytes, and a
    negative ``length`` would cut that many bytes off the end."""
    if length < 0:
        raise StorageError(f"a delta to {length} bytes has a negative length")
    end = 0  # where the previous run stopped
    covered = base_length  # the new bytes are known up to here
    for offset, data in runs:
        if type(data) is not bytes:
            raise StorageError("a delta run holds bytes only")
        stop = offset + len(data)
        if offset < 0 or stop > length:
            raise StorageError(
                f"delta run [{offset}, {stop}) lies outside [0, {length}]"
            )
        if offset < end:
            raise StorageError("delta runs are not ascending")
        if offset <= covered < stop:
            covered = stop
        end = stop
    if covered < length:
        raise StorageError(
            f"delta leaves [{covered}, {length}) past its base uncovered"
        )


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

    def __init__(self, name: str = "stable-storage") -> None:
        self.name = name
        self._records: list[_Record] = []
        #: the newest version: a snapshot's bytes, or the buffer the
        #: deltas since then patched in place
        self._tail: bytes | bytearray = b""
        self._current: int = -1
        self.stores = 0
        self.loads = 0

    # -------------------------------------------------- correct-host surface

    def store(self, blob: bytes | Delta) -> int:
        """Persist a whole blob or a :data:`Delta` against the newest
        version; returns the new version's index."""
        if isinstance(blob, tuple):
            record = self._patch(*blob)
        elif isinstance(blob, (bytes, bytearray)):
            record = self._tail = bytes(blob)
        else:
            raise StorageError("stable storage holds bytes only")
        self._records.append(record)
        self._current = len(self._records) - 1
        self.stores += 1
        return self._current

    def _patch(self, base_length: int, length: int, runs: list) -> _Record:
        """Apply a delta to the newest version; returns its record."""
        if not self._records or base_length != len(self._tail):
            raise StorageError(
                f"a delta against {base_length} bytes does not patch the "
                "newest version"
            )
        _check_runs(base_length, length, runs)
        tail = self._tail
        if type(tail) is not bytearray:  # a snapshot: patch a private copy
            tail = self._tail = bytearray(tail)
        del tail[length:]
        for offset, data in runs:
            tail[offset : offset + len(data)] = data
        if len(self._records) % SNAPSHOT_INTERVAL == 0:
            return bytes(tail)
        return length, runs

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
            return bytes(self._tail)
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
        sync write for (``CostModel.sealed_store_bytes``): the bytes a
        delta leaves out equal the previous version's and never hit the
        disk again.
        """
        if not self._records:
            return None
        return _retained_bytes(self._records[-1])
