"""Authenticated encryption: round trips, tamper evidence, key separation."""

import os
import select
import signal

import pytest

from repro.crypto import aead
from repro.crypto.aead import (
    KEY_SIZE,
    NONCE_SIZE,
    OVERHEAD,
    AeadKey,
    auth_decrypt,
    auth_encrypt,
)
from repro.errors import AuthenticationFailure, ConfigurationError


@pytest.fixture
def key():
    return AeadKey(b"\x42" * KEY_SIZE, label="test")


class TestRoundTrip:
    def test_empty_plaintext(self, key):
        assert auth_decrypt(auth_encrypt(b"", key), key) == b""

    def test_short_plaintext(self, key):
        assert auth_decrypt(auth_encrypt(b"hi", key), key) == b"hi"

    def test_long_plaintext(self, key):
        message = bytes(range(256)) * 100
        assert auth_decrypt(auth_encrypt(message, key), key) == message

    def test_associated_data_round_trip(self, key):
        box = auth_encrypt(b"payload", key, associated_data=b"context")
        assert auth_decrypt(box, key, associated_data=b"context") == b"payload"

    def test_ciphertext_expansion_constant(self, key):
        for size in (0, 1, 100, 5000):
            box = auth_encrypt(b"x" * size, key)
            assert len(box) == size + OVERHEAD

    def test_fresh_nonce_each_call(self, key):
        assert auth_encrypt(b"m", key) != auth_encrypt(b"m", key)

    def test_pinned_nonce_deterministic(self, key):
        nonce = b"\x01" * NONCE_SIZE
        assert auth_encrypt(b"m", key, nonce=nonce) == auth_encrypt(
            b"m", key, nonce=nonce
        )


class TestTamperEvidence:
    def test_flip_each_region(self, key):
        box = bytearray(auth_encrypt(b"secret message", key))
        for position in (0, NONCE_SIZE, len(box) - 1):
            tampered = bytearray(box)
            tampered[position] ^= 0x01
            with pytest.raises(AuthenticationFailure):
                auth_decrypt(bytes(tampered), key)

    def test_wrong_key(self, key):
        other = AeadKey(b"\x43" * KEY_SIZE)
        with pytest.raises(AuthenticationFailure):
            auth_decrypt(auth_encrypt(b"m", key), other)

    def test_wrong_associated_data(self, key):
        box = auth_encrypt(b"m", key, associated_data=b"invoke")
        with pytest.raises(AuthenticationFailure):
            auth_decrypt(box, key, associated_data=b"reply")

    def test_truncated_box(self, key):
        box = auth_encrypt(b"m", key)
        with pytest.raises(AuthenticationFailure):
            auth_decrypt(box[: OVERHEAD - 1], key)

    def test_ciphertext_swap_between_messages(self, key):
        box_a = auth_encrypt(b"aaaa", key)
        box_b = auth_encrypt(b"bbbb", key)
        franken = box_a[:NONCE_SIZE] + box_b[NONCE_SIZE:]
        with pytest.raises(AuthenticationFailure):
            auth_decrypt(franken, key)


class TestKeys:
    def test_bad_key_size(self):
        with pytest.raises(ConfigurationError):
            AeadKey(b"short")

    def test_bad_nonce_size(self, key):
        with pytest.raises(ConfigurationError):
            auth_encrypt(b"m", key, nonce=b"short")

    def test_repr_hides_material(self, key):
        assert key.material.hex() not in repr(key)

    def test_generate_distinct(self):
        assert AeadKey.generate().material != AeadKey.generate().material

    def test_same_material_interchangeable(self, key):
        twin = AeadKey(key.material, label="other-name")
        assert auth_decrypt(auth_encrypt(b"m", key), twin) == b"m"

    def test_confidentiality_plaintext_not_in_box(self, key):
        secret = b"super-secret-payload-0123456789"
        assert secret not in auth_encrypt(secret, key)


class TestNoncePool:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_draws_none_of_the_parents_nonces(self):
        """The pool buffers CSPRNG nonces; a child that kept a copy would
        hand out the nonces its parent hands out too (a two-time pad
        under a shared key)."""
        while not aead._NONCE_POOL:  # the parent holds leftover nonces
            aead._fresh_nonce()
        pool = list(aead._NONCE_POOL)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report its first nonce and leave
            try:
                os.close(read_end)
                os.write(write_end, aead._fresh_nonce())
            finally:
                os._exit(0)
        os.close(write_end)
        ready = []
        try:
            ready, _, _ = select.select([read_end], [], [], 30)
            child_nonce = os.read(read_end, NONCE_SIZE) if ready else b""
        finally:
            os.close(read_end)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert len(child_nonce) == NONCE_SIZE
        assert aead._fresh_nonce() == pool[-1]  # the parent's next nonce
        assert child_nonce not in pool
