"""Finite-field Diffie-Hellman for TEE secure channels.

The paper relies on "a secure channel provided by the TEE" twice: the admin
injects ``kC``/``kP`` into ``T`` during bootstrapping (Sec. 4.3), and the
origin context injects ``kP`` into the target during migration
(Sec. 4.6.2).  In both cases the channel key must be bound to an *attested*
enclave, otherwise the malicious host could interpose.

We implement textbook DH over the RFC 3526 2048-bit MODP group (group 14)
and bind the enclave's ephemeral public key into the attestation quote's
user data.  The shared secret is hashed into a 128-bit AEAD key.  The
exponentiations run on the native crypto tier's Montgomery kernel
(``fastpath.CBackend.modexp``) when it is active, and on Python's ``pow``
otherwise; both give the same integers.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from repro.crypto import fastpath
from repro.crypto.aead import AeadKey
from repro.crypto.keys import derive_key

# RFC 3526, group 14 (2048-bit MODP).
MODP_2048_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
GENERATOR = 2
PUBLIC_KEY_BYTES = 256


def _power(base: int, exponent: int) -> int:
    """``base ** exponent mod p``: the C kernel on the native tier (unless
    it was compiled without 128-bit integers), else ``pow``."""
    backend = fastpath.BACKEND
    if backend.native:
        result = backend.modexp(base, exponent, MODP_2048_PRIME)
        if result is not None:
            return result
    return pow(base, exponent, MODP_2048_PRIME)


@dataclass(frozen=True)
class DhKeyPair:
    """An ephemeral DH keypair.  ``secret`` never leaves its owner (nor
    its ``repr``)."""

    secret: int = field(repr=False)
    public: int

    @classmethod
    def generate(cls, rng_bytes: bytes | None = None) -> "DhKeyPair":
        raw = rng_bytes if rng_bytes is not None else os.urandom(32)
        secret = int.from_bytes(hashlib.sha256(b"lcm-dh" + raw).digest(), "big")
        # clamp into [2, p-2]
        secret = 2 + secret % (MODP_2048_PRIME - 4)
        return cls(secret=secret, public=_power(GENERATOR, secret))

    def public_bytes(self) -> bytes:
        return self.public.to_bytes(PUBLIC_KEY_BYTES, "big")

    def shared_key(self, peer_public: int | bytes, label: str = "dh-channel") -> AeadKey:
        """Derive the AEAD channel key from the DH shared secret."""
        if isinstance(peer_public, (bytes, bytearray)):
            peer_public = public_from_bytes(bytes(peer_public))
        shared = _power(peer_public, self.secret)
        return derive_key(
            shared.to_bytes(PUBLIC_KEY_BYTES, "big"), b"lcm-channel", label=label
        )


def public_from_bytes(data: bytes) -> int:
    """Parse and sanity-check a serialized public key."""
    value = int.from_bytes(data, "big")
    if not 2 <= value <= MODP_2048_PRIME - 2:
        raise ValueError("DH public key out of range")
    return value
