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
  tier a whole box (keystream, XOR and MAC) — or a whole batch of them —
  is one C call.  Otherwise the keystream comes from the backend's
  hashlib block loop in whole 32-byte blocks, is XORed against the
  payload as one big integer or numpy vector rather than byte by byte,
  and the MAC is cloned from the key's cached pad states;
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
  again.  Sealed-state sections and longer payloads are not cached;
- :func:`auth_encrypt_batch` / :func:`auth_decrypt_batch` process a whole
  invoke batch in one pass: on the hashlib tier a single backend call
  generates the keystream for every box (one concatenated counter table),
  one vector XOR covers the joined payloads, and the MACs are
  emitted/verified with the per-key pad states shared across the batch.
  Each box's wire bytes are byte-identical to the per-box functions given
  the same (key, nonce, plaintext, associated data).

Batch tamper contract: :func:`auth_decrypt_batch` verifies **every** MAC
before releasing any plaintext, and a single tampered box rejects the
whole batch (the raised error names the first offending index).  The
trusted context relies on this all-or-nothing property: no operation from
a batch containing a forged message is ever executed.
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
_join = b"".join


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

    def take(self, count: int) -> list[bytes]:
        """``count`` consecutive nonces (one reply batch)."""
        seed = self.seed
        counter = self.counter
        self.counter = counter + count
        return [
            _sha256(seed + (counter + i).to_bytes(8, "big")).digest()[:NONCE_SIZE]
            for i in range(count)
        ]


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


def _keystreams(
    key: "AeadKey", nonces: list[bytes], lengths: list[int]
) -> list[bytes]:
    """Per-box keystreams for a batch on the hashlib tier, generated in
    one backend call over a single concatenated counter table."""
    prefix = key._ctr_prefix
    counts = [-(-length // _BLOCK) for length in lengths]
    joined = _fastpath.BACKEND.blocks_many(
        [prefix + nonce for nonce in nonces], counts
    )
    streams = []
    offset = 0
    for length, nblocks in zip(lengths, counts):
        streams.append(joined[offset : offset + length])
        offset += nblocks * _BLOCK
    return streams


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
#: nonce; a racing refill merely adds extra fresh nonces), and the pid guard
#: discards the pool in forked children so a child never replays nonces the
#: parent also hands out — nonce reuse under one key would be a two-time pad.
_NONCE_POOL: list[bytes] = []
_nonce_pid = 0


def _refill_pool(minimum: int) -> None:
    """Top the pool up to at least ``minimum`` nonces, discarding it
    first if this process is a fork (see the pool comment above)."""
    global _nonce_pid
    pid = os.getpid()
    if pid != _nonce_pid:
        _NONCE_POOL.clear()
        _nonce_pid = pid
    while len(_NONCE_POOL) < minimum:
        chunk = os.urandom(NONCE_SIZE * 512)
        _NONCE_POOL.extend(
            chunk[i : i + NONCE_SIZE] for i in range(0, len(chunk), NONCE_SIZE)
        )


def _fresh_nonce() -> bytes:
    if os.getpid() != _nonce_pid or not _NONCE_POOL:
        _refill_pool(1)
    return _NONCE_POOL.pop()


def _fresh_nonces(count: int) -> list[bytes]:
    """``count`` pool nonces in one slice (the batch paths' fast path)."""
    if os.getpid() != _nonce_pid or len(_NONCE_POOL) < count:
        _refill_pool(count)
    taken = _NONCE_POOL[-count:] if count else []
    del _NONCE_POOL[len(_NONCE_POOL) - count :]
    return taken


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
    """Cached ``len(ad) || ad`` framing prefix for batch MAC passes."""
    frame = key._mac_frames.get(associated_data)
    if frame is None:
        frame = len(associated_data).to_bytes(8, "big") + associated_data
        key._mac_frames[associated_data] = frame
    return frame


def _tags_for_batch(
    key: "AeadKey", associated_data: bytes, segments: list
) -> list[bytes]:
    """Truncated tags over ``frame || segment`` for every segment.

    ``segment`` is the contiguous ``nonce || ciphertext`` run of one box,
    so the digests equal :func:`_tag_for` byte for byte; the batch shares
    the pre-fed inner state exactly like :func:`_tag_for`.
    """
    inners = key._mac_inners
    seeded = inners.get(associated_data)
    if seeded is None:
        seeded = key._mac_pads[0].copy()
        seeded.update(_mac_frame(key, associated_data))
        inners[associated_data] = seeded
    clone = seeded.copy
    outer = key._mac_pads[1].copy
    tags = []
    for segment in segments:
        mac = clone()
        mac.update(segment)
        tag = outer()
        tag.update(mac.digest())
        tags.append(tag.digest()[:TAG_SIZE])
    return tags


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


def auth_encrypt_batch(
    plaintexts: list[bytes],
    key: AeadKey,
    *,
    associated_data: bytes = b"",
    nonces: list[bytes] | None = None,
) -> list[bytes]:
    """Encrypt a whole batch of boxes under one key in one crypto pass.

    Semantically equivalent to ``[auth_encrypt(p, key, ...) for p in
    plaintexts]`` — per-box wire bytes are identical given the same
    nonces — but the keystream for every box is generated in a single
    backend call over one concatenated counter table, the payloads are
    XORed as one joined buffer, and the MAC pass shares its pad states
    across the batch.  ``nonces`` pins the per-box nonces for tests;
    production callers leave it ``None`` (fresh pool nonces).
    """
    count = len(plaintexts)
    if nonces is None:
        nonces = _fresh_nonces(count)
    else:
        if len(nonces) != count:
            raise ConfigurationError(
                f"{count} plaintexts but {len(nonces)} nonces"
            )
        for nonce in nonces:
            if len(nonce) != NONCE_SIZE:
                raise ConfigurationError(f"nonce must be {NONCE_SIZE} bytes")
    if not count:
        return []
    backend = _fastpath.BACKEND
    if backend.native:
        return backend.seal_boxes(
            key._enc_key,
            key._mac_key,
            nonces,
            _mac_frame(key, associated_data),
            plaintexts,
        )
    lengths = [len(plaintext) for plaintext in plaintexts]
    joined_ct = _xor_bytes(
        _join(plaintexts), _join(_keystreams(key, nonces, lengths))
    ) if any(lengths) else b""
    segments = []  # nonce || ciphertext, the box minus its tag
    offset = 0
    for nonce, length in zip(nonces, lengths):
        segments.append(nonce + joined_ct[offset : offset + length])
        offset += length
    tags = _tags_for_batch(key, associated_data, segments)
    return [segment + tag for segment, tag in zip(segments, tags)]


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


def auth_decrypt_batch(
    boxes: list[bytes],
    key: AeadKey,
    *,
    associated_data: bytes = b"",
) -> list[bytes]:
    """Verify and decrypt a batch of boxes in one crypto pass.

    All-or-nothing: every MAC is verified **before** any plaintext is
    produced, and a single forged/tampered box raises
    :class:`~repro.errors.AuthenticationFailure` (naming the first bad
    index) for the whole batch.  Callers that want per-box rejection use
    :func:`auth_decrypt` per box; the trusted context deliberately wants
    the batch semantics (no operation from a batch containing a forged
    message executes).
    """
    if not boxes:
        return []
    backend = _fastpath.BACKEND
    if backend.native:
        plaintexts = backend.open_boxes(
            key._enc_key, key._mac_key, _mac_frame(key, associated_data), boxes
        )
        if type(plaintexts) is int:  # the first bad box's index
            bad = plaintexts
            if len(boxes[bad]) < OVERHEAD:
                raise AuthenticationFailure(
                    f"box {bad} of batch too short to be authentic"
                )
            raise AuthenticationFailure(
                f"MAC verification failed for box {bad} of batch"
            )
        return plaintexts
    views = []
    for index, box in enumerate(boxes):
        if len(box) < OVERHEAD:
            raise AuthenticationFailure(
                f"box {index} of batch too short to be authentic"
            )
        views.append(memoryview(box))
    segments = [view[:-TAG_SIZE] for view in views]
    expected = _tags_for_batch(key, associated_data, segments)
    bad = -1
    compare = hmac.compare_digest
    for index, (view, tag) in enumerate(zip(views, expected)):
        # constant-time per box; scan every box before failing so the
        # error index leaks nothing an attacker does not already control
        if not compare(view[-TAG_SIZE:], tag) and bad < 0:
            bad = index
    if bad >= 0:
        raise AuthenticationFailure(
            f"MAC verification failed for box {bad} of batch"
        )
    nonces = [bytes(view[:NONCE_SIZE]) for view in views]
    lengths = [len(view) - OVERHEAD for view in views]
    joined_pt = _xor_bytes(
        _join(view[NONCE_SIZE:-TAG_SIZE] for view in views),
        _join(_keystreams(key, nonces, lengths)),
    ) if any(lengths) else b""
    plaintexts = []
    offset = 0
    for length in lengths:
        plaintexts.append(joined_pt[offset : offset + length])
        offset += length
    return plaintexts


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
