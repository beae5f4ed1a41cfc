"""Operation stability (Sec. 3.2.2, 4.5; Definitions 1 and 2).

The trusted context maintains a map ``V`` with, per client ``i``:

``ta``  sequence number of the last operation *acknowledged* by ``Ci``
        (T learns of the acknowledgement from the ``tc`` field of Ci's
        next INVOKE);
``t``   sequence number of Ci's last operation;
``h``   hash-chain value after Ci's last operation;
``r``   serialized result of Ci's last operation (the Sec. 4.6.1 retry
        extension stores it so a lost REPLY can be reproduced).

``majority-stable(V)`` returns "the largest acknowledged sequence number in
V that is less than or equal to more than n/2 sequence numbers in V": an
operation with sequence number ``q`` is known to have been observed by
client ``j`` once ``ta_j >= q`` (by completing its operation ``ta_j``,
``Cj`` observed the whole history prefix up to ``ta_j``).

:class:`StabilityTracker` is the client-side mirror: it records the
sequence numbers of completed operations until they are stable and lets
applications ask which of *their* operations are stable among a majority
(and therefore linearizable — "any subsequence of a history that contains
only operations that are stable among a majority is linearizable",
Sec. 3.2.2).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field

from repro.crypto.hashing import GENESIS_HASH
from repro.errors import ConfigurationError


@dataclass(slots=True)
class ClientEntry:
    """One row of the protocol-state map ``V``."""

    acknowledged: int = 0          # ta
    last_sequence: int = 0         # t
    last_chain: bytes = GENESIS_HASH  # h
    last_result: bytes = b""       # r (retry extension)

    def to_wire(self) -> list:
        return [self.acknowledged, self.last_sequence, self.last_chain, self.last_result]

    @classmethod
    def from_wire(cls, data: list) -> "ClientEntry":
        ta, t, h, r = data
        return cls(acknowledged=ta, last_sequence=t, last_chain=h, last_result=r)


class PackedRows:
    """``V`` as parallel packed columns instead of a dict of row objects.

    The batched invoke fast path hands the whole table to the native
    backend in one call: client ids, acknowledged markers and sequence
    numbers live in ``array('q')`` columns (machine int64, directly
    addressable from C through the buffer protocol), hash-chain values in
    one contiguous bytearray of 32-byte cells, and results — variable
    length, never read by the verification pass — as a plain list of
    bytes.  ``acks`` mirrors the acknowledged column in sorted order so
    ``majority-stable(V)`` stays one index per operation, exactly like
    the sorted-list mirror the dict representation kept.

    Rows are ordered by client id; ``slot`` maps a client id to its row
    index.  Membership events (insert/remove/replace) re-pack the
    columns — they are rare and small — while the per-operation path
    mutates a row's cells in place.

    Sequence numbers and acknowledged markers beyond int64 would overflow
    the columns; the protocol assigns them incrementally from zero, so the
    bound is unreachable in practice (client ids outside the range never
    enter ``V`` — an unknown id is rejected before any row is written).
    """

    CHAIN_BYTES = 32

    __slots__ = ("ids", "ack", "seq", "chains", "results", "slot", "acks")

    def __init__(self) -> None:
        self.ids = array("q")
        self.ack = array("q")
        self.seq = array("q")
        self.chains = bytearray()
        self.results: list[bytes] = []
        self.slot: dict[int, int] = {}
        self.acks = array("q")

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, client_id: int) -> bool:
        return client_id in self.slot

    def client_ids(self) -> list[int]:
        """All client ids, ascending (rows are stored in id order)."""
        return self.ids.tolist()

    def entry(self, client_id: int) -> ClientEntry | None:
        """A snapshot :class:`ClientEntry` for one row (slow paths only;
        mutations go through the packed columns, not the snapshot)."""
        slot = self.slot.get(client_id)
        if slot is None:
            return None
        return ClientEntry(
            acknowledged=self.ack[slot],
            last_sequence=self.seq[slot],
            last_chain=self.chain_at(slot),
            last_result=self.results[slot],
        )

    def chain_at(self, slot: int) -> bytes:
        start = slot * self.CHAIN_BYTES
        return bytes(self.chains[start : start + self.CHAIN_BYTES])

    def to_entries(self) -> dict[int, ClientEntry]:
        """The dict-of-rows view (migration export, checkers, tests)."""
        return {
            client_id: self.entry(client_id)  # type: ignore[misc]
            for client_id in self.ids
        }

    def argmax(self) -> tuple[int, int, bytes]:
        """``argmax(V)``: (client id, sequence, chain) of the row with the
        highest last sequence number (recovery, Sec. 4.4)."""
        if not self.ids:
            raise ConfigurationError("V is empty")
        seq = self.seq
        top = max(range(len(seq)), key=seq.__getitem__)
        return self.ids[top], seq[top], self.chain_at(top)

    def stable(self, quorum: int) -> int:
        """``majority-stable(V)`` from the sorted acknowledged mirror."""
        acks = self.acks
        if not acks:
            return 0
        return acks[len(acks) - quorum]

    # ---------------------------------------------------------- membership

    def replace(self, entries: dict[int, ClientEntry]) -> None:
        """Adopt a whole new table (provision / restore / migration)."""
        self.ids = array("q", sorted(entries))
        self.ack = array("q", (entries[i].acknowledged for i in self.ids))
        self.seq = array("q", (entries[i].last_sequence for i in self.ids))
        chains = bytearray()
        results = []
        for client_id in self.ids:
            entry = entries[client_id]
            chain = entry.last_chain
            if len(chain) != self.CHAIN_BYTES:
                raise ConfigurationError(
                    f"client {client_id} chain value is {len(chain)} bytes; "
                    f"V rows hold {self.CHAIN_BYTES}-byte hash-chain values"
                )
            chains += chain
            results.append(entry.last_result)
        self.chains = chains
        self.results = results
        self.slot = {client_id: i for i, client_id in enumerate(self.ids)}
        self.acks = array("q", sorted(self.ack))

    def insert(self, client_id: int, entry: ClientEntry | None = None) -> None:
        """Add one row (admin join); rows stay packed in id order."""
        if client_id in self.slot:
            raise ConfigurationError(f"client {client_id} already has a row")
        entry = entry if entry is not None else ClientEntry()
        position = bisect_left(self.ids, client_id)
        self.ids.insert(position, client_id)
        self.ack.insert(position, entry.acknowledged)
        self.seq.insert(position, entry.last_sequence)
        self.chains[
            position * self.CHAIN_BYTES : position * self.CHAIN_BYTES
        ] = entry.last_chain
        self.results.insert(position, entry.last_result)
        self.slot = {cid: i for i, cid in enumerate(self.ids)}
        insort(self.acks, entry.acknowledged)

    def remove(self, client_id: int) -> None:
        """Drop one row (admin leave)."""
        position = self.slot.pop(client_id, None)
        if position is None:
            raise ConfigurationError(f"client {client_id} has no row")
        del self.acks[bisect_left(self.acks, self.ack[position])]
        del self.ids[position]
        del self.ack[position]
        del self.seq[position]
        del self.chains[
            position * self.CHAIN_BYTES : (position + 1) * self.CHAIN_BYTES
        ]
        del self.results[position]
        self.slot = {cid: i for i, cid in enumerate(self.ids)}


def stable_frontier(acknowledged: list[int], quorum: int) -> int:
    """Largest sequence number at or below ``quorum`` of the given acks.

    The raw-integer core of ``majority-stable(V)``: sort the acknowledged
    markers and take the ``quorum``-th largest.  Unlike
    :func:`stable_with_quorum` this tolerates fewer than ``quorum``
    supporters by returning 0 (nothing is stable yet) — the streaming
    verifier calls it per audit log, where a freshly forked log may have
    arbitrarily few supporting clients.
    """
    if quorum < 1:
        raise ConfigurationError(f"quorum {quorum} must be at least 1")
    if len(acknowledged) < quorum:
        return 0
    ordered = sorted(acknowledged, reverse=True)
    return ordered[quorum - 1]


def stable_with_quorum(entries: dict[int, ClientEntry], quorum: int) -> int:
    """Largest sequence number acknowledged by at least ``quorum`` clients.

    With ``quorum == len(entries)`` this is full stability (Definition 1
    w.r.t. all clients); with a majority quorum it is Definition 2.
    """
    if not entries:
        return 0
    if not 1 <= quorum <= len(entries):
        raise ConfigurationError(
            f"quorum {quorum} out of range for {len(entries)} clients"
        )
    return stable_frontier(
        [entry.acknowledged for entry in entries.values()], quorum
    )


def majority_quorum(n: int) -> int:
    """Smallest integer strictly greater than n/2."""
    return n // 2 + 1


def majority_stable(entries: dict[int, ClientEntry]) -> int:
    """``majority-stable(V)`` from Alg. 2 (Definition 2)."""
    if not entries:
        return 0
    return stable_with_quorum(entries, majority_quorum(len(entries)))


def argmax_entry(entries: dict[int, ClientEntry]) -> tuple[int, ClientEntry]:
    """``argmax(V)``: the client whose last operation has the highest
    sequence number — used during recovery to rederive ``(t, h)``
    (Sec. 4.4)."""
    if not entries:
        raise ConfigurationError("V is empty")
    client_id = max(entries, key=lambda i: entries[i].last_sequence)
    return client_id, entries[client_id]


@dataclass
class StabilityTracker:
    """Client-side record of own operations and their stability status.

    ``observe(sequence, stable_sequence)`` is called for every completed
    operation (and for stability updates piggybacked on later replies).
    Only the unstable suffix of the client's own sequence numbers is
    kept: an operation that is stable stays stable, so its number is
    dropped, and the tracker holds no more than the pending operations —
    the "small, constant storage at the clients" the protocol promises.
    """

    own_sequences: deque[int] = field(default_factory=deque)
    stable_sequence: int = 0

    def observe(self, sequence: int | None, stable_sequence: int) -> None:
        own = self.own_sequences
        if sequence is not None:
            own.append(sequence)
        # stable sequence numbers never decrease (Sec. 3.2.2)
        self.stable_sequence = max(self.stable_sequence, stable_sequence)
        while own and own[0] <= self.stable_sequence:
            own.popleft()

    def is_stable(self, sequence: int) -> bool:
        """Is the operation with this sequence number stable among a majority?"""
        return sequence <= self.stable_sequence

    def pending(self) -> list[int]:
        """Own operations not yet known to be majority-stable."""
        return [seq for seq in self.own_sequences if seq > self.stable_sequence]

    def all_stable(self) -> bool:
        return not self.pending()
