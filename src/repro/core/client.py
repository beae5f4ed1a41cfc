"""The LCM client — Alg. 1 plus the retry extension (Sec. 4.6.1).

A client keeps three pieces of constant-size state:

``tc``  sequence number of its last completed operation;
``ts``  last majority-stable sequence number it has seen;
``hc``  the hash-chain value the trusted context returned for its last
        operation.

``invoke`` sends an encrypted INVOKE containing ``(tc, hc, o, i)``, waits
for the REPLY, verifies that the echoed previous chain value matches its
own ``hc`` (this pairs the REPLY with its INVOKE and rules out responses
computed in a different fork), adopts the new ``(t, h)`` and returns
``(r, t, q)``.

The transport is any object with ``send_invoke(client_id, message) ->
reply_bytes``; it may raise :class:`TransportTimeout` to model a lost
message, in which case :meth:`invoke` retransmits with the retry marker
set — the trusted context then either processes the operation (crash
before store) or re-sends the stored reply (crash after store).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Any, Protocol

from repro import serde
from repro.crypto.aead import AeadKey
from repro.crypto.hashing import GENESIS_HASH
from repro.errors import InvalidReply, LCMError
from repro.core.context import NOP_OPERATION
from repro.core.messages import seal_invoke, unseal_reply
from repro.core.stability import StabilityTracker


class TransportTimeout(LCMError):
    """The transport gave up waiting for a REPLY (crash / lost message)."""


#: Canonical bytes of recently invoked operations.  Only tuples whose
#: elements are all str/bytes are memoized: those types are unambiguous as
#: dict keys, whereas e.g. ``True`` and ``1`` compare equal but encode
#: differently.  A proper LRU (ordered dict, move-to-end on hit, evict the
#: least recent when full) so a zipfian key set larger than the capacity
#: keeps its hot head cached instead of thrashing wholesale.
_OP_ENCODE_CACHE: collections.OrderedDict[tuple, bytes] = collections.OrderedDict()
_OP_ENCODE_CACHE_MAX = 512

#: Decoded forms of recently seen REPLY results, mirroring the operation
#: memo: real workloads read the same hot values over and over, and only
#: immutable scalars are cached (a list/dict result is never shared).
_RESULT_DECODE_CACHE: collections.OrderedDict[bytes, Any] = collections.OrderedDict()
_RESULT_DECODE_CACHE_MAX = 512
_MISS = object()


def _decode_result(data: bytes) -> Any:
    value = _RESULT_DECODE_CACHE.get(data, _MISS)
    if value is not _MISS:
        _RESULT_DECODE_CACHE.move_to_end(data)
        return value
    value = serde.decode(data)
    if type(value) in (str, bytes, int, bool) or value is None:
        if len(_RESULT_DECODE_CACHE) >= _RESULT_DECODE_CACHE_MAX:
            _RESULT_DECODE_CACHE.popitem(last=False)
        _RESULT_DECODE_CACHE[data] = value
    return value


def _encode_operation(operation: Any) -> bytes:
    if type(operation) is tuple and all(
        type(item) in (str, bytes) for item in operation
    ):
        cached = _OP_ENCODE_CACHE.get(operation)
        if cached is None:
            cached = serde.encode(operation)
            if len(_OP_ENCODE_CACHE) >= _OP_ENCODE_CACHE_MAX:
                _OP_ENCODE_CACHE.popitem(last=False)
            _OP_ENCODE_CACHE[operation] = cached
        else:
            _OP_ENCODE_CACHE.move_to_end(operation)
        return cached
    return serde.encode(operation)  # tuples encode as lists


class Transport(Protocol):
    """How a client reaches the server (Fig. 2's message path)."""

    def send_invoke(self, client_id: int, message: bytes) -> bytes: ...


@dataclass(slots=True, unsafe_hash=True)
class LcmResult:
    """The response event of Alg. 1: ``(r, t, q)``.

    Slots (not frozen) keep construction cheap on the hot path; treat
    instances as immutable.  ``unsafe_hash`` preserves the seed's
    hashability (like the seed, hashing raises for unhashable results).
    """

    result: Any
    sequence: int
    stable_sequence: int


@dataclass
class ClientCheckpoint:
    """Snapshot of the client's recoverable state (Sec. 4.2.3 requires the
    client state to be recoverable from stable storage after a crash)."""

    last_sequence: int
    stable_sequence: int
    last_chain: bytes


class Alg1State:
    """Alg. 1 without a transport: the ``(tc, ts, hc)`` state, INVOKE
    construction and REPLY acceptance.  :class:`LcmClient` adds a blocking
    transport with retries; :class:`~repro.core.async_client.AsyncLcmClient`
    adds a send function and a queue."""

    def __init__(self, client_id: int, communication_key: AeadKey) -> None:
        self.client_id = client_id
        self._key = communication_key
        self._last_sequence = 0          # tc
        self._stable_sequence = 0        # ts
        self._last_chain = GENESIS_HASH  # hc
        self.stability = StabilityTracker()

    @property
    def last_sequence(self) -> int:
        return self._last_sequence

    @property
    def stable_sequence(self) -> int:
        return self._stable_sequence

    @property
    def last_chain(self) -> bytes:
        return self._last_chain

    def is_stable(self, sequence: int) -> bool:
        """Is the given operation known to be stable among a majority?"""
        return sequence <= self._stable_sequence

    def _seal_invoke(self, operation: Any, retry: bool = False) -> bytes:
        """The sealed INVOKE ``(tc, hc, o, i)`` for ``operation`` in the
        current context; ``retry`` marks a retransmission (Sec. 4.6.1)."""
        return seal_invoke(
            self._key, self.client_id, self._last_sequence, self._last_chain,
            _encode_operation(operation), retry,
        )

    def _accept_reply(self, reply_box: bytes) -> LcmResult:
        """Alg. 1's response handling: open the REPLY, run the three
        asserts, adopt ``(t, h, q)`` and return ``(r, t, q)``."""
        sequence, chain, result_bytes, stable_sequence, previous_chain = (
            unseal_reply(reply_box, self._key)
        )
        # assert h'c = hc — pairs the REPLY with our INVOKE and rejects
        # replies minted against any other history.
        if previous_chain != self._last_chain:
            raise InvalidReply(
                "REPLY does not extend this client's context "
                "(previous chain value mismatch)"
            )
        if sequence <= self._last_sequence:
            raise InvalidReply(
                f"non-increasing sequence number {sequence} "
                f"(last was {self._last_sequence})"
            )
        if stable_sequence < self._stable_sequence:
            raise InvalidReply("majority-stable sequence number decreased")
        self._last_sequence = sequence
        self._last_chain = chain
        if stable_sequence > self._stable_sequence:
            self._stable_sequence = stable_sequence
        # inlined StabilityTracker.observe (hot path)
        stability = self.stability
        own = stability.own_sequences
        own.append(sequence)
        if stable_sequence > stability.stable_sequence:
            stability.stable_sequence = stable_sequence
        while own and own[0] <= stability.stable_sequence:
            own.popleft()
        return LcmResult(
            result=_decode_result(result_bytes),
            sequence=sequence,
            stable_sequence=stable_sequence,
        )


class LcmClient(Alg1State):
    """Alg. 1.  One instance per client ``Ci``; invocations are sequential."""

    def __init__(
        self,
        client_id: int,
        communication_key: AeadKey,
        transport: Transport,
        *,
        max_retries: int = 3,
    ) -> None:
        super().__init__(client_id, communication_key)
        self._transport = transport
        self._max_retries = max_retries
        self.completed_operations: list[tuple[Any, LcmResult]] = []

    # --------------------------------------------------------------- invoke

    def invoke(self, operation: Any) -> LcmResult:
        """Execute one operation through the trusted context.

        Raises a :class:`~repro.errors.SecurityViolation` subclass when the
        protocol detects server misbehaviour; raises
        :class:`TransportTimeout` if the server stayed unreachable through
        all retry attempts.
        """
        attempts = 0
        retry = False
        while True:
            try:
                reply_box = self._transport.send_invoke(
                    self.client_id, self._seal_invoke(operation, retry)
                )
            except TransportTimeout:
                attempts += 1
                if attempts > self._max_retries:
                    raise
                retry = True  # mark the retransmission (Sec. 4.6.1)
                continue
            return self._complete(operation, reply_box)

    def _complete(self, operation: Any, reply_box: bytes) -> LcmResult:
        outcome = self._accept_reply(reply_box)
        self.completed_operations.append((operation, outcome))
        return outcome

    # ------------------------------------------------------------ stability

    def poll_stability(self) -> int:
        """Invoke a protocol-level dummy operation to refresh stability
        (the FAUST-style mechanism of Sec. 4.5).  Returns the updated
        majority-stable sequence number."""
        return self.invoke(NOP_OPERATION).stable_sequence

    def wait_until_stable(self, sequence: int, *, max_polls: int = 100) -> bool:
        """Poll with dummy operations until ``sequence`` becomes stable.

        Returns False if it did not become stable within ``max_polls`` —
        under a forking attack the operations of separated clients cease to
        become stable (Sec. 4.5), so callers must bound their patience.
        """
        for _ in range(max_polls):
            if self.is_stable(sequence):
                return True
            self.poll_stability()
        return self.is_stable(sequence)

    # --------------------------------------------------------- crash/recover

    def checkpoint(self) -> ClientCheckpoint:
        """Export recoverable state (to be written to client-side storage)."""
        return ClientCheckpoint(
            last_sequence=self._last_sequence,
            stable_sequence=self._stable_sequence,
            last_chain=self._last_chain,
        )

    @classmethod
    def recover(
        cls,
        client_id: int,
        communication_key: AeadKey,
        transport: Transport,
        checkpoint: ClientCheckpoint,
        *,
        max_retries: int = 3,
    ) -> "LcmClient":
        """Rebuild a client from its checkpoint after a client crash."""
        client = cls(
            client_id, communication_key, transport, max_retries=max_retries
        )
        client._last_sequence = checkpoint.last_sequence
        client._stable_sequence = checkpoint.stable_sequence
        client._last_chain = checkpoint.last_chain
        return client
