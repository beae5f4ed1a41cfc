"""Canonical, injective serialization for protocol data.

Every byte string that LCM hashes, MACs or encrypts (operations, protocol
messages, state blobs) must be produced by an *injective* encoding —
otherwise two distinct logical values could collide and defeat the hash
chain.  This module implements a small self-describing binary format
(bencode-like, but with explicit type tags and 8-byte lengths) for the value
types the protocol uses:

``None``, ``bool``, ``int``, ``bytes``, ``str``, ``list``/``tuple`` and
``dict`` (with canonically sorted keys).

The format is deliberately simple and dependency-free; it is not a general
pickle replacement and refuses unknown types loudly.

The encoder writes into a single ``bytearray`` (:func:`encode_into`), so
nested containers produce no intermediate byte strings; the decoder walks a
``memoryview`` and only materialises bytes at the leaves.  Callers that
cache pre-encoded fragments (the trusted context caches per-client rows of
``V``) can assemble containers themselves with :func:`encode_list_header` /
:func:`encode_dict_header` — the framing is ``tag || count`` followed by the
encoded items, with dict items sorted by their encoded keys.
"""

from __future__ import annotations

from typing import Any

from repro.errors import LCMError

try:  # compiled codec (built at first import, cached on disk); the pure
    # encoder below stays authoritative for every value it declines, and
    # is registered as the C module's fallback at the end of this module
    from repro import _serde_native

    _NATIVE = _serde_native.MODULE
except Exception:  # pragma: no cover - builder failures degrade silently
    _NATIVE = None


def native_backend_active() -> bool:
    """True when the compiled codec is loaded (diagnostics / tests)."""
    return _NATIVE is not None


class SerdeError(LCMError):
    """Raised for unsupported types or malformed encodings."""


_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_LIST = b"L"
_TAG_DICT = b"D"

_ORD_NONE = _TAG_NONE[0]
_ORD_TRUE = _TAG_TRUE[0]
_ORD_FALSE = _TAG_FALSE[0]
_ORD_INT = _TAG_INT[0]
_ORD_BYTES = _TAG_BYTES[0]
_ORD_STR = _TAG_STR[0]
_ORD_LIST = _TAG_LIST[0]
_ORD_DICT = _TAG_DICT[0]

#: Canonical integers are fixed-width 128-bit two's complement.
INT_MIN = -(2**127)
INT_MAX = 2**127 - 1


def encode(value: Any) -> bytes:
    """Canonical bytes of ``value``.

    Scalar fast paths skip the buffer round trip; their output is pinned
    byte-identical to :func:`encode_into` by the golden-vector tests.
    """
    kind = type(value)  # exact type: bool must NOT take the int path
    if kind is bytes:
        return _TAG_BYTES + len(value).to_bytes(8, "big") + value
    if kind is str:
        raw = value.encode("utf-8")
        return _TAG_STR + len(raw).to_bytes(8, "big") + raw
    if kind is int:
        try:
            return _TAG_INT + value.to_bytes(16, "big", signed=True)
        except OverflowError:
            raise SerdeError(
                f"integer {value} exceeds the canonical 128-bit range "
                f"[{INT_MIN}, {INT_MAX}]"
            ) from None
    if kind is list:
        # flat scalar lists (the operation-tuple shape) in one join; any
        # nested or exotic item bails to the general recursive encoder
        parts = [_TAG_LIST + len(value).to_bytes(8, "big")]
        for item in value:
            kind = type(item)
            if kind is str:
                raw = item.encode("utf-8")
                parts.append(_TAG_STR + len(raw).to_bytes(8, "big") + raw)
            elif kind is bytes:
                parts.append(
                    _TAG_BYTES + len(item).to_bytes(8, "big") + item
                )
            elif kind is int:
                try:
                    parts.append(
                        _TAG_INT + item.to_bytes(16, "big", signed=True)
                    )
                except OverflowError:
                    raise SerdeError(
                        f"integer {item} exceeds the canonical 128-bit "
                        f"range [{INT_MIN}, {INT_MAX}]"
                    ) from None
            elif item is None:
                parts.append(_TAG_NONE)
            elif item is True:
                parts.append(_TAG_TRUE)
            elif item is False:
                parts.append(_TAG_FALSE)
            else:
                return _encode_general(value)
        return b"".join(parts)
    return _encode_general(value)


def _encode_general(value: Any) -> bytes:
    """Serialize ``value`` to canonical bytes.

    >>> encode([1, b"x"]) != encode([1, b"y"])
    True
    """
    buf = bytearray()
    _encode_into_pure(buf, value)
    return bytes(buf)


def encode_into(buf: bytearray, value: Any) -> None:
    """Append the canonical encoding of ``value`` to ``buf``.

    Produces exactly the bytes :func:`encode` would, without building
    intermediate objects for nested containers.
    """
    if value is None:
        buf += _TAG_NONE
        return
    if value is True:
        buf += _TAG_TRUE
        return
    if value is False:
        buf += _TAG_FALSE
        return
    if isinstance(value, int):
        try:
            payload = value.to_bytes(16, "big", signed=True)
        except OverflowError:
            raise SerdeError(
                f"integer {value} exceeds the canonical 128-bit range "
                f"[{INT_MIN}, {INT_MAX}]"
            ) from None
        buf += _TAG_INT
        buf += payload
        return
    if isinstance(value, (bytes, bytearray)):
        buf += _TAG_BYTES
        buf += len(value).to_bytes(8, "big")
        buf += value
        return
    if isinstance(value, str):
        raw = value.encode("utf-8")
        buf += _TAG_STR
        buf += len(raw).to_bytes(8, "big")
        buf += raw
        return
    if isinstance(value, (list, tuple)):
        buf += _TAG_LIST
        buf += len(value).to_bytes(8, "big")
        for item in value:
            _encode_into_pure(buf, item)
        return
    if isinstance(value, dict):
        items = [(encode(key), item) for key, item in value.items()]
        items.sort(key=lambda kv: kv[0])
        buf += _TAG_DICT
        buf += len(items).to_bytes(8, "big")
        for encoded_key, item in items:
            buf += encoded_key
            _encode_into_pure(buf, item)
        return
    raise SerdeError(f"unsupported type for canonical encoding: {type(value)!r}")


#: Pure recursion pinned by name: when the compiled codec rebinds the
#: public ``encode_into`` below, the pure walker must keep calling
#: *itself* (the C codec routes declined values back here — recursing
#: through the rebound name would ping-pong between the two forever).
_encode_into_pure = encode_into


def encode_list_header(buf: bytearray, count: int) -> None:
    """Append the framing of a ``count``-item list; the caller appends the
    encoded items."""
    buf += _TAG_LIST
    buf += count.to_bytes(8, "big")


def encode_dict_header(buf: bytearray, count: int) -> None:
    """Append the framing of a ``count``-item dict; the caller appends
    encoded ``key || value`` pairs sorted by encoded key."""
    buf += _TAG_DICT
    buf += count.to_bytes(8, "big")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`.  Raises :class:`SerdeError` on malformed input."""
    view = memoryview(data)
    value, offset = _decode_at(view, 0)
    if offset != len(view):
        raise SerdeError(f"{len(view) - offset} trailing bytes after value")
    return value


def _decode_at(data: memoryview, offset: int) -> tuple[Any, int]:
    # Bounds checks are inlined (not via _read): this function runs twice
    # per protocol round trip and a helper call per field is measurable.
    size = len(data)
    if offset >= size:
        raise SerdeError("truncated encoding")
    tag = data[offset]
    offset += 1
    if tag == _ORD_INT:
        end = offset + 16
        if end > size:
            raise SerdeError("truncated encoding")
        return int.from_bytes(data[offset:end], "big", signed=True), end
    if tag == _ORD_BYTES:
        header_end = offset + 8
        if header_end > size:
            raise SerdeError("truncated encoding")
        end = header_end + int.from_bytes(data[offset:header_end], "big")
        if end > size:
            raise SerdeError("truncated encoding")
        return bytes(data[header_end:end]), end
    if tag == _ORD_STR:
        header_end = offset + 8
        if header_end > size:
            raise SerdeError("truncated encoding")
        end = header_end + int.from_bytes(data[offset:header_end], "big")
        if end > size:
            raise SerdeError("truncated encoding")
        try:
            return str(data[header_end:end], "utf-8"), end
        except UnicodeDecodeError as exc:
            raise SerdeError(f"malformed utf-8 in string: {exc}") from exc
    if tag == _ORD_LIST:
        header_end = offset + 8
        if header_end > size:
            raise SerdeError("truncated encoding")
        count = int.from_bytes(data[offset:header_end], "big")
        offset = header_end
        items = []
        append = items.append
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            append(item)
        return items, offset
    if tag == _ORD_DICT:
        header_end = offset + 8
        if header_end > size:
            raise SerdeError("truncated encoding")
        count = int.from_bytes(data[offset:header_end], "big")
        offset = header_end
        result = {}
        for _ in range(count):
            key, offset = _decode_at(data, offset)
            value, offset = _decode_at(data, offset)
            result[key] = value
        return result, offset
    if tag == _ORD_NONE:
        return None, offset
    if tag == _ORD_TRUE:
        return True, offset
    if tag == _ORD_FALSE:
        return False, offset
    raise SerdeError(f"unknown type tag {bytes([tag])!r}")


#: The pure-Python codec, under stable names (tests exercise both
#: backends through these regardless of which one the public names use).
encode_pure = encode
decode_pure = decode

if _NATIVE is not None:
    # The C codec routes every value it declines (ints beyond 64 bits,
    # subclasses, depth > 64, malformed blobs, ...) through the pure
    # functions above, so the public names can *be* the C functions: the
    # hot path pays no Python wrapper frame, and edge cases keep the
    # exact pure-path bytes, errors and messages.
    _NATIVE.set_fallback(encode_pure, decode_pure)
    encode = _NATIVE.encode
    decode = _NATIVE.decode

    def encode_into(buf: bytearray, value: Any) -> None:  # noqa: F811
        """Append the canonical encoding of ``value`` to ``buf``
        (compiled-codec binding of the pure function above)."""
        buf += _NATIVE.encode(value)
