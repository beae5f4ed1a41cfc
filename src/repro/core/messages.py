"""INVOKE / REPLY wire format (Sec. 4.1-4.2).

Both message types are canonically serialized (:mod:`repro.serde`) and then
protected end-to-end with authenticated encryption under the communication
key ``kC``.  Associated data carries the message direction so a REPLY box
can never be confused for an INVOKE box even under the same key.

Field map (paper notation):

======== ===============================================================
INVOKE   ``[tc, hc, o, i, retry]`` — client's last sequence number, last
         hash-chain value, serialized operation, client id, retry marker
         (the Sec. 4.6.1 extension).
REPLY    ``[t, h, r, q, h'c]`` — assigned sequence number, new chain
         value, serialized result, majority-stable sequence number, and
         an echo of the client's previous chain value.
======== ===============================================================

The module also measures the protocol's metadata overhead for the Sec. 6.3
experiment: the number of bytes an LCM message adds over a bare
(encrypted) operation, which is constant in the operation size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro import serde
from repro.crypto import fastpath as _fastpath
from repro.crypto.aead import (
    NONCE_SIZE,
    OVERHEAD,
    AeadKey,
    _fresh_nonce,
    _mac_frame,
    auth_decrypt,
    auth_encrypt,
)
from repro.errors import AuthenticationFailure, ConfigurationError, InvalidReply

_INVOKE_AD = b"lcm/invoke"
_REPLY_AD = b"lcm/reply"

# Hand-rolled fast paths below produce the exact canonical serde bytes of
# the documented field lists (verified against serde in the test suite);
# decoding falls back to the generic serde walk on any layout surprise.
_INVOKE_PREFIX = (
    b"L" + (6).to_bytes(8, "big") + b"S" + (6).to_bytes(8, "big") + b"INVOKE" + b"I"
)
_REPLY_PREFIX = (
    b"L" + (6).to_bytes(8, "big") + b"S" + (5).to_bytes(8, "big") + b"REPLY" + b"I"
)


class _Fallback(Exception):
    """Internal: fast-path decode did not match; use the generic decoder."""


_INVOKE_PREFIX_LEN = len(_INVOKE_PREFIX) + 16  # prefix plus the first int
_REPLY_PREFIX_LEN = len(_REPLY_PREFIX) + 16
_ORD_B = ord("B")
_ORD_I = ord("I")

_int_from_bytes = int.from_bytes

# Zero-copy field readers (struct reads straight out of the buffer; the
# slice + int.from_bytes route allocates an intermediate bytes per field).
_read_u64 = struct.Struct(">Q").unpack_from
_read_2u64 = struct.Struct(">QQ").unpack_from

#: ``B || len(32)`` — the framing of a 32-byte chain value, precomputed
#: because every hash-chain field the protocol emits is SHA-256 sized.
_CHAIN_FRAME = b"B" + (32).to_bytes(8, "big")


def _read_i128(data: bytes, offset: int) -> int:
    """The canonical 16-byte big-endian signed int at ``offset``."""
    hi, lo = _read_2u64(data, offset)
    value = (hi << 64) | lo
    if hi >> 63:
        value -= 1 << 128
    return value


def decode_invoke(data: bytes) -> tuple[int, int, bytes, bytes, bool]:
    """Decode canonical INVOKE bytes to ``(i, tc, hc, o, retry)``.

    Tuple-returning core of :meth:`InvokePayload.decode` — the trusted
    context's batch loop consumes the fields directly, skipping one
    object construction per message.
    """
    try:
        # Field reads are inlined (two decodes run per round trip);
        # IndexError/struct.error from a short message falls back like a
        # tag mismatch.
        size = len(data)
        if size < _INVOKE_PREFIX_LEN or not data.startswith(_INVOKE_PREFIX):
            raise _Fallback
        tc = _read_i128(data, _INVOKE_PREFIX_LEN - 16)
        if data[_INVOKE_PREFIX_LEN] != _ORD_B:
            raise _Fallback
        start = _INVOKE_PREFIX_LEN + 9
        end = start + _read_u64(data, _INVOKE_PREFIX_LEN + 1)[0]
        if end > size:
            raise _Fallback
        hc = data[start:end]
        if data[end] != _ORD_B:
            raise _Fallback
        start = end + 9
        end = start + _read_u64(data, end + 1)[0]
        if end > size:
            raise _Fallback
        op = data[start:end]
        if data[end] != _ORD_I or end + 18 != size:
            raise _Fallback
        client_id = _read_i128(data, end + 1)
        retry_tag = data[size - 1]
        if retry_tag == 84:  # "T"
            return client_id, tc, hc, op, True
        if retry_tag == 70:  # "F"
            return client_id, tc, hc, op, False
        raise _Fallback
    except (_Fallback, IndexError, struct.error):
        pass
    tag, tc, hc, op, client_id, retry = serde.decode(data)
    if tag != "INVOKE":
        raise InvalidReply(f"expected INVOKE payload, got {tag!r}")
    return client_id, tc, hc, op, retry


def decode_reply(data: bytes) -> tuple[int, bytes, bytes, int, bytes]:
    """Decode canonical REPLY bytes to ``(t, h, r, q, h'c)`` — the
    tuple-returning core of :meth:`ReplyPayload.decode` (the client hot
    path consumes the fields directly)."""
    try:
        size = len(data)
        if size < _REPLY_PREFIX_LEN or not data.startswith(_REPLY_PREFIX):
            raise _Fallback
        t = _read_i128(data, _REPLY_PREFIX_LEN - 16)
        if data[_REPLY_PREFIX_LEN] != _ORD_B:
            raise _Fallback
        start = _REPLY_PREFIX_LEN + 9
        end = start + _read_u64(data, _REPLY_PREFIX_LEN + 1)[0]
        if end > size:
            raise _Fallback
        h = data[start:end]
        if data[end] != _ORD_B:
            raise _Fallback
        start = end + 9
        end = start + _read_u64(data, end + 1)[0]
        if end > size:
            raise _Fallback
        r = data[start:end]
        if data[end] != _ORD_I or end + 17 + 9 > size:
            raise _Fallback
        q = _read_i128(data, end + 1)
        offset = end + 17
        if data[offset] != _ORD_B:
            raise _Fallback
        start = offset + 9
        end = start + _read_u64(data, offset + 1)[0]
        if end != size:
            raise _Fallback
        return t, h, r, q, data[start:end]
    except (_Fallback, IndexError, struct.error):
        pass
    tag, t, h, r, q, prev = serde.decode(data)
    if tag != "REPLY":
        raise InvalidReply(f"expected REPLY payload, got {tag!r}")
    return t, h, r, q, prev


def unseal_reply(box: bytes, key: AeadKey) -> tuple[int, bytes, bytes, int, bytes]:
    """Verify, decrypt and decode one REPLY box to its field tuple.

    With the compiled fastpath backend the MAC check, decrypt and field
    decode fuse into a single C call (the client completes one reply per
    operation, so this is half the client's per-op crypto work); any
    authentic-but-non-canonical payload falls back to the generic
    decoder on the C-returned plaintext.
    """
    backend = _fastpath.BACKEND
    if backend.native:
        opened = backend.open_reply(
            key._enc_key,
            key._mac_key,
            _mac_frame(key, _REPLY_AD),
            _REPLY_PREFIX,
            box,
        )
        if type(opened) is tuple:
            return opened
        if opened is None:
            if len(box) < OVERHEAD:
                raise AuthenticationFailure("ciphertext too short to be authentic")
            raise AuthenticationFailure("MAC verification failed")
        return decode_reply(opened)  # authentic, not canonically encoded
    return decode_reply(auth_decrypt(box, key, associated_data=_REPLY_AD))


@dataclass(slots=True, unsafe_hash=True)
class InvokePayload:
    """Plaintext content of an INVOKE message.

    Slots (not frozen) keep construction cheap — payloads are created four
    times per protocol round trip and a frozen ``__init__`` (which routes
    through ``object.__setattr__``) costs several times a plain one.
    Treat instances as immutable.
    """

    client_id: int
    last_sequence: int        # tc
    last_chain: bytes         # hc
    operation: bytes          # o, canonically serialized
    retry: bool = False

    def encode(self) -> bytes:
        chain = self.last_chain
        try:
            return (
                _INVOKE_PREFIX
                + self.last_sequence.to_bytes(16, "big", signed=True)
                + (
                    _CHAIN_FRAME
                    if len(chain) == 32
                    else b"B" + len(chain).to_bytes(8, "big")
                )
                + chain
                + b"B" + len(self.operation).to_bytes(8, "big") + self.operation
                + b"I" + self.client_id.to_bytes(16, "big", signed=True)
                + (b"T" if self.retry else b"F")
            )
        except OverflowError:
            raise serde.SerdeError(
                "INVOKE sequence/client id exceeds the canonical 128-bit range"
            ) from None

    @classmethod
    def decode(cls, data: bytes) -> "InvokePayload":
        client_id, tc, hc, op, retry = decode_invoke(data)
        return cls(
            client_id=client_id,
            last_sequence=tc,
            last_chain=hc,
            operation=op,
            retry=retry,
        )

    def seal(self, key: AeadKey, *, nonce: bytes | None = None) -> bytes:
        """Encode and seal in one step (:func:`seal_invoke`)."""
        return seal_invoke(
            key, self.client_id, self.last_sequence, self.last_chain,
            self.operation, self.retry, nonce=nonce,
        )

    @classmethod
    def unseal(cls, box: bytes, key: AeadKey) -> "InvokePayload":
        return cls.decode(auth_decrypt(box, key, associated_data=_INVOKE_AD))


def seal_invoke(
    key: AeadKey,
    client_id: int,
    last_sequence: int,
    last_chain: bytes,
    operation: bytes,
    retry: bool = False,
    *,
    nonce: bytes | None = None,
) -> bytes:
    """The sealed INVOKE ``[tc, hc, o, i, retry]``, from its fields.

    With the compiled fastpath backend the canonical encode, keystream,
    XOR and MAC fuse into a single C call — the client builds one INVOKE
    per attempt, so this removes the other half of its per-op crypto
    overhead, and no :class:`InvokePayload` is built for it.  Fields
    outside the C codec's int64 range (never produced by the protocol,
    whose counters start at zero) take the generic path.
    """
    backend = _fastpath.BACKEND
    if backend.native and 0 <= last_sequence < 2**63 and 0 <= client_id < 2**63:
        if nonce is None:
            nonce = _fresh_nonce()
        elif len(nonce) != NONCE_SIZE:  # the error auth_encrypt raises
            raise ConfigurationError(f"nonce must be {NONCE_SIZE} bytes")
        return backend.seal_invoke(
            key._enc_key,
            key._mac_key,
            nonce,
            _mac_frame(key, _INVOKE_AD),
            _INVOKE_PREFIX,
            last_sequence,
            last_chain,
            operation,
            client_id,
            retry,
        )
    payload = InvokePayload(client_id, last_sequence, last_chain, operation, retry)
    return auth_encrypt(payload.encode(), key, associated_data=_INVOKE_AD, nonce=nonce)


def encode_reply(
    sequence: int,
    chain: bytes,
    result: bytes,
    stable_sequence: int,
    previous_chain: bytes,
) -> bytes:
    """Canonical REPLY bytes from bare fields.

    The trusted context's batch path encodes straight from its protocol
    variables (no intermediate :class:`ReplyPayload` per operation);
    :meth:`ReplyPayload.encode` delegates here so there is exactly one
    codec.
    """
    try:
        return (
            _REPLY_PREFIX
            + sequence.to_bytes(16, "big", signed=True)
            + (
                _CHAIN_FRAME
                if len(chain) == 32
                else b"B" + len(chain).to_bytes(8, "big")
            )
            + chain
            + b"B" + len(result).to_bytes(8, "big") + result
            + b"I" + stable_sequence.to_bytes(16, "big", signed=True)
            + (
                _CHAIN_FRAME
                if len(previous_chain) == 32
                else b"B" + len(previous_chain).to_bytes(8, "big")
            )
            + previous_chain
        )
    except OverflowError:
        raise serde.SerdeError(
            "REPLY sequence number exceeds the canonical 128-bit range"
        ) from None


@dataclass(slots=True, unsafe_hash=True)
class ReplyPayload:
    """Plaintext content of a REPLY message.

    Slots (not frozen) for the same hot-path reason as
    :class:`InvokePayload`; treat instances as immutable.
    """

    sequence: int             # t
    chain: bytes              # h
    result: bytes             # r, canonically serialized
    stable_sequence: int      # q
    previous_chain: bytes     # h'c — echo of the client's hc

    def encode(self) -> bytes:
        return encode_reply(
            self.sequence,
            self.chain,
            self.result,
            self.stable_sequence,
            self.previous_chain,
        )

    @classmethod
    def decode(cls, data: bytes) -> "ReplyPayload":
        t, h, r, q, prev = decode_reply(data)
        return cls(
            sequence=t, chain=h, result=r, stable_sequence=q, previous_chain=prev
        )

    def seal(self, key: AeadKey, *, nonce: bytes | None = None) -> bytes:
        return auth_encrypt(
            self.encode(), key, associated_data=_REPLY_AD, nonce=nonce
        )

    @classmethod
    def unseal(cls, box: bytes, key: AeadKey) -> "ReplyPayload":
        return cls.decode(auth_decrypt(box, key, associated_data=_REPLY_AD))


# ----------------------------------------------------------- overhead probes


def invoke_metadata_overhead(operation: bytes, key: AeadKey) -> int:
    """Bytes an LCM INVOKE adds over an encrypted bare operation.

    The paper measured 45 bytes with its compact binary framing
    (Sec. 6.3); our self-describing serde framing is a little larger but
    equally *constant* in the operation size — the property Fig. 4 relies
    on.  The baseline is a bare operation under the same AEAD, so the
    constant 28-byte AEAD expansion cancels out.
    """
    from repro.crypto.hashing import GENESIS_HASH

    payload = InvokePayload(
        client_id=1, last_sequence=0, last_chain=GENESIS_HASH, operation=operation
    )
    bare = auth_encrypt(operation, key, associated_data=_INVOKE_AD)
    return len(payload.seal(key)) - len(bare)


def reply_metadata_overhead(result: bytes, key: AeadKey) -> int:
    """Bytes an LCM REPLY adds over an encrypted bare result."""
    from repro.crypto.hashing import GENESIS_HASH

    payload = ReplyPayload(
        sequence=1,
        chain=GENESIS_HASH,
        result=result,
        stable_sequence=0,
        previous_chain=GENESIS_HASH,
    )
    bare = auth_encrypt(result, key, associated_data=_REPLY_AD)
    return len(payload.seal(key)) - len(bare)
