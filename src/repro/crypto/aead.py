"""Authenticated encryption with associated data (AEAD).

The paper protects every protocol message and every stored state blob with
AES-GCM-128 (``auth-encrypt`` / ``auth-decrypt`` in Sec. 4.1).  The standard
library has no AES-GCM, so we build an AEAD with the same *contract* from
primitives it does have:

- confidentiality: XOR with a SHA-256 counter-mode keystream derived from
  (key, nonce);
- integrity + authenticity: HMAC-SHA-256 over (nonce, associated data,
  ciphertext), truncated to 16 bytes to match GCM's tag size.

Tampering with a single bit of ciphertext, tag, nonce, or associated data
makes :func:`auth_decrypt` raise :class:`~repro.errors.AuthenticationFailure`
— exactly the behaviour Alg. 1/2 rely on ("auth-decrypt may also signal an
error; this is equivalent to an assert FALSE statement", Sec. 4.2.5).

Wire layout of a sealed box::

    nonce (12 bytes) || ciphertext (len(plaintext)) || tag (16 bytes)

so the constant ciphertext expansion is 28 bytes, comparable to GCM's
12-byte IV + 16-byte tag.

Implementation notes on the hot path (the wire format above is pinned by
golden-vector tests and unchanged):

- :class:`AeadKey` derives its encrypt/MAC subkeys and the HMAC key
  schedule once at construction instead of on every box;
- :mod:`repro.crypto.fastpath` provides one of two tiers, and every
  function here asks it one question, ``BACKEND.native``.  On the native
  tier a whole box (keystream, XOR and MAC) is one C call.  Otherwise the
  keystream comes from the backend's hashlib block loop in whole 32-byte
  blocks, is XORed against the payload as one big integer or numpy
  vector rather than byte by byte, and the MAC is cloned from the key's
  cached pad states;
- the keystream costs two SHA-256 compressions per 32 bytes (the hashed
  message is 59 bytes).  On the native tier it has two kernels, chosen
  when the module loads: a scalar block loop (SHA-NI where the CPU has
  it, portable C otherwise) and, on CPUs with AVX-512F, a 16-lane kernel
  that computes 16 counters' blocks at once for streams of 12 blocks or
  more (shorter ones, the small-value boxes, stay on the scalar loop).
  The lanes share the rounds that read only the key and nonce
  and a precomputed schedule for the padding block.
  ``fastpath.BACKEND.kernels`` names the choice;
- the native tier keeps an in-process keystream cache, because each box
  is sealed and opened in the same process.  It holds streams up to
  4352 bytes, so the opener of an INVOKE or REPLY carrying a 4 KiB value
  (about 4.25 KB) reuses the sealer's keystream instead of computing it
  again.  Sealed-state sections and longer payloads are not cached.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.crypto import fastpath as _fastpath
from repro.errors import AuthenticationFailure, ConfigurationError

try:  # optional vector XOR for large payloads; the image bakes numpy in
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None

KEY_SIZE = 16  # bytes; matches the paper's 128-bit keys
NONCE_SIZE = 12
TAG_SIZE = 16
OVERHEAD = NONCE_SIZE + TAG_SIZE

_BLOCK = hashlib.sha256().digest_size

_sha256 = hashlib.sha256


class NonceSequence:
    """Deterministic per-context nonce chain for enclave-sealed boxes.

    ``nonce_i = SHA-256(seed || i.to_bytes(8, "big"))[:NONCE_SIZE]`` — the
    exact derivation the C fast path applies inside
    ``lcm_invoke_batch_reply``, so a batch of replies sealed by either
    side of the backend seam carries byte-identical nonces.  The 32-byte
    seed is drawn once from platform randomness when the enclave context
    starts; the counter then advances without further entropy draws,
    which keeps enclave sealing off the shared process nonce pool (and
    therefore keeps every fastpath backend emitting identical wire bytes,
    whatever else in the process draws nonces in between).
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: bytes, start: int = 0) -> None:
        if len(seed) != 32:
            raise ConfigurationError(
                f"nonce sequence seeds are 32 bytes, got {len(seed)}"
            )
        self.seed = seed
        self.counter = start

    def next(self) -> bytes:
        counter = self.counter
        self.counter = counter + 1
        return _sha256(
            self.seed + counter.to_bytes(8, "big")
        ).digest()[:NONCE_SIZE]


def _keystream(key: "AeadKey", nonce: bytes, length: int) -> bytes:
    """``length`` bytes of SHA-256 counter-mode keystream for one box.

    The block loop itself runs in the selected
    :mod:`~repro.crypto.fastpath` backend; both backends produce the
    same bytes (``SHA-256(b"lcm-ctr" || enc_key || nonce || counter)``
    per 32-byte block).
    """
    if length <= 0:
        return b""
    stream = _fastpath.BACKEND.blocks(
        key._ctr_prefix + nonce, -(-length // _BLOCK)
    )
    return stream[:length] if len(stream) != length else stream


#: Above this size numpy's vectorised byte XOR beats the big-int route.
_NP_XOR_THRESHOLD = 256


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    """XOR ``data`` against ``stream[:len(data)]`` in one vector operation."""
    length = len(data)
    if _np is not None and length >= _NP_XOR_THRESHOLD:
        a = _np.frombuffer(data, dtype=_np.uint8)
        b = _np.frombuffer(stream, dtype=_np.uint8, count=length)
        return (a ^ b).tobytes()
    if len(stream) != length:
        stream = stream[:length]
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(length, "big")


#: Fresh-nonce pool: one os.urandom syscall buys 512 nonces.  The bytes are
#: CSPRNG output either way; buffering them only amortises the syscall.
#: ``list.pop`` is atomic under the GIL (two threads never receive the same
#: nonce; a racing refill merely adds extra fresh nonces), and a forked
#: child starts with an empty pool, so it never replays nonces the parent
#: also hands out — nonce reuse under one key would be a two-time pad.
_NONCE_POOL: list[bytes] = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_NONCE_POOL.clear)


def _fresh_nonce() -> bytes:
    if not _NONCE_POOL:
        chunk = os.urandom(NONCE_SIZE * 512)
        _NONCE_POOL.extend(
            chunk[i : i + NONCE_SIZE] for i in range(0, len(chunk), NONCE_SIZE)
        )
    return _NONCE_POOL.pop()


def _hmac_pad_states(key: bytes) -> tuple["hashlib._Hash", "hashlib._Hash"]:
    """SHA-256 states pre-fed with the HMAC inner/outer pads for ``key``.

    Cloning these per MAC skips the per-call key schedule; the digests are
    byte-identical to ``hmac.new(key, payload, sha256)``.
    """
    padded = key + b"\x00" * (64 - len(key))
    inner = _sha256(bytes(b ^ 0x36 for b in padded))
    outer = _sha256(bytes(b ^ 0x5C for b in padded))
    return inner, outer


def _tag_for(key: "AeadKey", nonce, associated_data: bytes, ciphertext) -> bytes:
    """Truncated ``HMAC-SHA-256(mac_key, len(ad) || ad || nonce || ct)``.

    Byte-identical to ``hmac.new(mac_key, framed, sha256)`` (test-pinned),
    built from cloned pad states instead of a per-call key schedule.  The
    associated-data strings are a handful of protocol constants, so the
    inner state pre-fed with ``len(ad) || ad`` is cached per key and only
    the nonce and ciphertext are hashed per call.
    """
    inners = key._mac_inners
    seeded = inners.get(associated_data)
    if seeded is None:
        seeded = key._mac_pads[0].copy()
        seeded.update(len(associated_data).to_bytes(8, "big") + associated_data)
        inners[associated_data] = seeded
    mac = seeded.copy()
    mac.update(nonce)
    mac.update(ciphertext)
    tag = key._mac_pads[1].copy()
    tag.update(mac.digest())
    return tag.digest()[:TAG_SIZE]


def _mac_frame(key: "AeadKey", associated_data: bytes) -> bytes:
    """Cached ``len(ad) || ad`` framing prefix the C tier's MACs take."""
    frame = key._mac_frames.get(associated_data)
    if frame is None:
        frame = len(associated_data).to_bytes(8, "big") + associated_data
        key._mac_frames[associated_data] = frame
    return frame


@dataclass(frozen=True)
class AeadKey:
    """A 128-bit symmetric key with independent encrypt/MAC subkeys.

    The subkeys are derived from the root key material, so two
    :class:`AeadKey` objects built from the same bytes are interchangeable —
    a property the protocol uses when the sealing key is re-derived after a
    restart (Sec. 4.4).  Derivation happens once at construction; the HMAC
    key schedule is likewise precomputed and cloned per MAC.
    """

    material: bytes
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if len(self.material) != KEY_SIZE:
            raise ConfigurationError(
                f"AEAD keys must be {KEY_SIZE} bytes, got {len(self.material)}"
            )
        object.__setattr__(
            self, "_enc_key", hashlib.sha256(b"lcm-enc" + self.material).digest()
        )
        object.__setattr__(
            self, "_mac_key", hashlib.sha256(b"lcm-mac" + self.material).digest()
        )
        object.__setattr__(self, "_mac_pads", _hmac_pad_states(self._mac_key))
        object.__setattr__(self, "_mac_inners", {})
        object.__setattr__(self, "_mac_frames", {})
        object.__setattr__(self, "_ctr_prefix", b"lcm-ctr" + self._enc_key)

    @classmethod
    def generate(
        cls, label: str = "", rng: Callable[[int], bytes] | None = None
    ) -> "AeadKey":
        """Generate a fresh random key (uses the OS CSPRNG by default)."""
        material = rng(KEY_SIZE) if rng is not None else os.urandom(KEY_SIZE)
        return cls(material=material, label=label)

    def __reduce__(self):
        # The derived-state caches hold live hashlib objects, which cannot
        # be pickled/copied; rebuild from the key material instead (two
        # AeadKeys from the same bytes are interchangeable by design).
        return (AeadKey, (self.material, self.label))

    def __deepcopy__(self, _memo) -> "AeadKey":
        return AeadKey(self.material, label=self.label)

    def hex(self) -> str:
        return self.material.hex()

    def __repr__(self) -> str:  # never leak key material in logs
        suffix = f" label={self.label!r}" if self.label else ""
        return f"<AeadKey{suffix}>"


def auth_encrypt(
    plaintext: bytes,
    key: AeadKey,
    *,
    associated_data: bytes = b"",
    nonce: bytes | None = None,
) -> bytes:
    """Encrypt and authenticate ``plaintext`` under ``key``.

    ``associated_data`` is authenticated but not encrypted (used by the
    protocol to bind message type tags to ciphertexts).  A caller may pin the
    nonce for deterministic tests; production callers leave it ``None``.
    """
    if nonce is None:
        nonce = _fresh_nonce()
    elif len(nonce) != NONCE_SIZE:
        raise ConfigurationError(f"nonce must be {NONCE_SIZE} bytes")
    backend = _fastpath.BACKEND
    if backend.native:
        frame = key._mac_frames.get(associated_data)
        if frame is None:
            frame = _mac_frame(key, associated_data)
        return backend.seal_box(
            key._enc_key, key._mac_key, nonce, frame, plaintext
        )
    stream = _keystream(key, nonce, len(plaintext))
    ciphertext = _xor_bytes(plaintext, stream)
    tag = _tag_for(key, nonce, associated_data, ciphertext)
    return nonce + ciphertext + tag


def auth_decrypt(
    box: bytes,
    key: AeadKey,
    *,
    associated_data: bytes = b"",
) -> bytes:
    """Verify and decrypt a box produced by :func:`auth_encrypt`.

    Raises :class:`~repro.errors.AuthenticationFailure` on any tampering or
    on use of the wrong key.  This is the protocol's tamper-evidence
    primitive; it must never silently return corrupted plaintext.
    """
    if len(box) < OVERHEAD:
        raise AuthenticationFailure("ciphertext too short to be authentic")
    backend = _fastpath.BACKEND
    if backend.native:
        frame = key._mac_frames.get(associated_data)
        if frame is None:
            frame = _mac_frame(key, associated_data)
        plaintext = backend.open_box(key._enc_key, key._mac_key, frame, box)
        if plaintext is None:
            raise AuthenticationFailure("MAC verification failed")
        return plaintext
    view = memoryview(box)  # avoid copying the ciphertext slice twice
    nonce = bytes(view[:NONCE_SIZE])
    ciphertext = view[NONCE_SIZE:-TAG_SIZE]
    tag = bytes(view[-TAG_SIZE:])
    expected = _tag_for(key, nonce, associated_data, ciphertext)
    if not hmac.compare_digest(tag, expected):
        raise AuthenticationFailure("MAC verification failed")
    stream = _keystream(key, nonce, len(ciphertext))
    return _xor_bytes(ciphertext, stream)


def stream_encrypt(
    plaintext: bytes, key: AeadKey, *, nonce: bytes | None = None
) -> bytes:
    """Encrypt WITHOUT authentication: returns ``nonce || ciphertext``.

    Confidentiality only — the caller MUST cover the returned box with an
    external MAC (:func:`mac_tag`) before trusting :func:`stream_decrypt`
    output.  The trusted context uses this for sealed-state sections whose
    integrity the manifest tag provides; protocol messages keep the full
    AEAD.
    """
    if nonce is None:
        nonce = _fresh_nonce()
    elif len(nonce) != NONCE_SIZE:
        raise ConfigurationError(f"nonce must be {NONCE_SIZE} bytes")
    backend = _fastpath.BACKEND
    if backend.native:
        return backend.stream_box(key._enc_key, nonce, plaintext)
    stream = _keystream(key, nonce, len(plaintext))
    return nonce + _xor_bytes(plaintext, stream)


def stream_decrypt(box: bytes, key: AeadKey) -> bytes:
    """Inverse of :func:`stream_encrypt`.  No integrity check — only call
    after the box was authenticated externally (manifest tag)."""
    if len(box) < NONCE_SIZE:
        raise AuthenticationFailure("stream box shorter than its nonce")
    nonce = box[:NONCE_SIZE]
    ciphertext = box[NONCE_SIZE:]
    stream = _keystream(key, nonce, len(ciphertext))
    return _xor_bytes(ciphertext, stream)


def mac_tag(data: bytes, key: AeadKey, *, associated_data: bytes = b"") -> bytes:
    """Standalone 16-byte authentication tag over ``data`` (no encryption).

    Used by the trusted context to bind the independently sealed sections of
    its state blob into one atomic unit.  Domain separation from box tags is
    by the associated-data value: callers must use an ``associated_data``
    string never passed to :func:`auth_encrypt`/:func:`auth_decrypt`, since
    the MAC framing is the same with an empty nonce.
    """
    return _tag_for(key, b"", associated_data, data)


def verify_mac_tag(
    tag: bytes, data: bytes, key: AeadKey, *, associated_data: bytes = b""
) -> bool:
    """Constant-time check of a :func:`mac_tag` tag."""
    return hmac.compare_digest(tag, _tag_for(key, b"", associated_data, data))
