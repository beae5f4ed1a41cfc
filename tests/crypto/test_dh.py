"""Diffie-Hellman channel: agreement, serialization, bad public keys."""

import pytest

from repro.crypto import fastpath
from repro.crypto.aead import auth_decrypt, auth_encrypt
from repro.crypto.dh import (
    GENERATOR,
    MODP_2048_PRIME,
    PUBLIC_KEY_BYTES,
    DhKeyPair,
    public_from_bytes,
)


class TestKeyAgreement:
    def test_shared_key_agrees(self):
        alice = DhKeyPair.generate(b"alice-seed")
        bob = DhKeyPair.generate(b"bob-seed")
        assert (
            alice.shared_key(bob.public).material
            == bob.shared_key(alice.public).material
        )

    def test_shared_key_from_bytes(self):
        alice = DhKeyPair.generate(b"alice-seed")
        bob = DhKeyPair.generate(b"bob-seed")
        assert (
            alice.shared_key(bob.public_bytes()).material
            == bob.shared_key(alice.public_bytes()).material
        )

    def test_different_peers_different_keys(self):
        alice = DhKeyPair.generate(b"alice-seed")
        bob = DhKeyPair.generate(b"bob-seed")
        carol = DhKeyPair.generate(b"carol-seed")
        assert (
            alice.shared_key(bob.public).material
            != alice.shared_key(carol.public).material
        )

    def test_channel_end_to_end(self):
        alice = DhKeyPair.generate(b"alice-seed")
        bob = DhKeyPair.generate(b"bob-seed")
        box = auth_encrypt(b"provision-bundle", alice.shared_key(bob.public))
        assert auth_decrypt(box, bob.shared_key(alice.public)) == b"provision-bundle"

    def test_generate_without_seed_is_random(self):
        assert DhKeyPair.generate().public != DhKeyPair.generate().public

    def test_deterministic_with_seed(self):
        assert (
            DhKeyPair.generate(b"seed").public == DhKeyPair.generate(b"seed").public
        )


class TestSerialization:
    def test_public_bytes_length(self):
        assert len(DhKeyPair.generate(b"x").public_bytes()) == PUBLIC_KEY_BYTES

    def test_round_trip(self):
        pair = DhKeyPair.generate(b"x")
        assert public_from_bytes(pair.public_bytes()) == pair.public

    @pytest.mark.parametrize("bad", [0, 1, MODP_2048_PRIME - 1, MODP_2048_PRIME])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            public_from_bytes(bad.to_bytes(PUBLIC_KEY_BYTES, "big"))

    def test_secret_in_valid_range(self):
        pair = DhKeyPair.generate(b"x")
        assert 2 <= pair.secret <= MODP_2048_PRIME - 2
        assert pair.public == pow(GENERATOR, pair.secret, MODP_2048_PRIME)


class TestSecrecy:
    def test_repr_hides_secret(self):
        pair = DhKeyPair.generate(b"alice-seed")
        assert str(pair.secret) not in repr(pair)
        assert hex(pair.secret)[2:] not in repr(pair)
        assert str(pair.public) in repr(pair)


class TestTiers:
    def test_kernel_fallback_uses_pow(self, monkeypatch):
        """A native tier whose kernel reports "fall back" (no 128-bit
        integers) still derives the same keys, through ``pow``."""
        backend = fastpath._get_backend("c")
        if backend is None:
            pytest.skip("compiled backend unavailable")
        expected = DhKeyPair.generate(b"alice-seed")
        bob = DhKeyPair.generate(b"bob-seed")
        channel = expected.shared_key(bob.public).material
        monkeypatch.setattr(fastpath, "BACKEND", backend)
        monkeypatch.setattr(type(backend), "modexp", lambda *args: None)
        pair = DhKeyPair.generate(b"alice-seed")
        assert pair == expected
        assert pair.shared_key(bob.public).material == channel
