"""Hashing and the LCM operation hash chain.

Alg. 2 extends a hash chain on every operation::

    h <- hash(h || o || t || i)

where ``o`` is the serialized operation, ``t`` the sequence number assigned
by the trusted context and ``i`` the invoking client's identifier.  The
chain value condenses the entire operation history: two parties holding the
same ``(t, h)`` pair have (except with negligible probability) observed the
same prefix of operations in the same order.

:class:`HashChain` is the reusable chain object; :func:`chain_extend` is the
pure function underneath it, used directly by the streaming checker in
:mod:`repro.consistency.streaming` (and, through
:func:`~repro.core.hashchain.verify_audit_chain`, by the view-level
reference checker) to recompute expected values.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

from repro.crypto import fastpath as _fastpath

#: The initial chain value h0 (Alg. 1: "initially hc = h0").  Any fixed,
#: publicly-known constant works; we use the hash of a domain-separation tag.
GENESIS_HASH: bytes = hashlib.sha256(b"lcm-genesis").digest()


def secure_hash(data: bytes) -> bytes:
    """Collision-resistant hash (SHA-256, as in the paper's implementation).

    Stays on hashlib because no per-operation path of the compiled tier
    calls it (only the pure-Python chain step below does), although the
    compiled tier would be faster: on an x86-64 CPU with SHA-NI,
    hashlib's one-shot digest of 100 bytes takes about 0.9 us and the
    compiled ``sha256_many([data])`` about 0.3 us.
    """
    return hashlib.sha256(data).digest()


def secure_hash_many(segments: list[bytes]) -> list[bytes]:
    """SHA-256 of every segment, in one C call when the compiled
    fastpath backend is active (faster than hashlib from one segment on:
    about 0.25 us against 0.8 us for one 100-byte segment, 0.46 against
    1.3 for two, on an x86-64 CPU with SHA-NI)."""
    backend = _fastpath.BACKEND
    if backend.native:
        return backend.sha256_many(segments)
    sha256 = hashlib.sha256
    return [sha256(segment).digest() for segment in segments]


#: Width of a consistent-hash ring position (64-bit points).
RING_POINT_BYTES = 8

#: Exclusive upper bound of the ring's point space.
RING_SPAN = 1 << (RING_POINT_BYTES * 8)


def ring_point(data: bytes | str) -> int:
    """64-bit consistent-hash ring position of ``data`` (str keys hash
    as their UTF-8 bytes).

    Lives here (not in :mod:`repro.sharding`) because both the keyspace
    partitioner and the trusted context's key-range handoff must derive
    the *same* point for a key without importing each other: the enclave
    filters its service state by ring membership when it exports the keys
    on reassigned arcs, and the router must agree on the result.  The
    str normalization lives here too, for the same reason.
    """
    if isinstance(data, str):
        data = data.encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:RING_POINT_BYTES], "big")


def chain_extend(previous: bytes, operation: bytes, sequence: int, client_id: int) -> bytes:
    """Compute ``hash(h || o || t || i)`` with injective field encoding.

    The paper writes plain concatenation; we length-prefix each field so no
    two distinct (h, o, t, i) tuples can collide by boundary shifting.
    The compiled fastpath backend builds the framing and hashes in one
    native call (byte-identical, cross-checked by the golden vectors);
    both routes raise OverflowError for fields outside the 64-bit framing.
    """
    backend = _fastpath.BACKEND
    if backend.native:
        return backend.chain_extend(previous, operation, sequence, client_id)
    payload = (
        len(previous).to_bytes(8, "big")
        + previous
        + len(operation).to_bytes(8, "big")
        + operation
        + sequence.to_bytes(8, "big")
        + client_id.to_bytes(8, "big")
    )
    return secure_hash(payload)


@dataclass
class HashChain:
    """Mutable hash-chain accumulator mirroring the ``h`` variable of Alg. 2.

    >>> chain = HashChain()
    >>> h1 = chain.extend(b"put(k,v)", 1, 0)
    >>> chain.value == h1
    True
    """

    value: bytes = field(default=GENESIS_HASH)
    length: int = 0

    def extend(self, operation: bytes, sequence: int, client_id: int) -> bytes:
        """Fold an operation into the chain and return the new chain value."""
        self.value = chain_extend(self.value, operation, sequence, client_id)
        self.length += 1
        return self.value

    def fork(self) -> "HashChain":
        """Copy the chain — used by attack simulations to model forked views."""
        return HashChain(value=self.value, length=self.length)

    def matches(self, other_value: bytes) -> bool:
        """Constant-time comparison against another chain value."""
        return hmac.compare_digest(self.value, other_value)


def replay_chain(
    operations: "list[tuple[bytes, int, int]]", start: bytes = GENESIS_HASH
) -> bytes:
    """Recompute the chain value for a sequence of (op, seq, client) tuples.

    Used by consistency checkers to validate that a claimed chain value is
    reachable from a claimed history.
    """
    value = start
    for operation, sequence, client_id in operations:
        value = chain_extend(value, operation, sequence, client_id)
    return value
