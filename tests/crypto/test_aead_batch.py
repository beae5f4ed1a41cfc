"""Batch AEAD: wire-byte equivalence with the per-box path and the
all-or-nothing tamper contract.

``auth_encrypt_batch`` / ``auth_decrypt_batch`` are pure performance
plumbing — one keystream/MAC pass per batch — so every box they produce
or accept must be byte-identical to what ``auth_encrypt`` /
``auth_decrypt`` produce for the same (key, nonce, plaintext, associated
data).  The tamper contract is documented in the module docstring: the
batch decryptor verifies every MAC before releasing any plaintext, and
one forged box rejects the whole batch.
"""

import os

import pytest

from repro.crypto import fastpath
from repro.crypto.aead import (
    AeadKey,
    OVERHEAD,
    auth_decrypt,
    auth_decrypt_batch,
    auth_encrypt,
    auth_encrypt_batch,
)
from repro.errors import AuthenticationFailure, ConfigurationError

KEY = AeadKey(b"\x01\x02" * 8, label="batch-golden")

#: Sizes straddling keystream-block and XOR-strategy boundaries.
SIZES = [0, 1, 31, 32, 33, 255, 256, 300, 1024, 1025, 2500]


def _payloads():
    return [bytes((i + s) & 0xFF for i in range(s)) for s in SIZES]


@pytest.fixture(params=["active", "python"])
def backend(request):
    """Run every test under the default backend and the hashlib one;
    restore the import-time selection afterwards."""
    previous = fastpath.active_backend()
    if request.param != "active":
        fastpath.select_backend(request.param)
    yield fastpath.active_backend()
    fastpath.BACKEND = previous


class TestBatchEquivalence:
    def test_encrypt_batch_matches_per_box(self, backend):
        payloads = _payloads()
        nonces = [os.urandom(12) for _ in payloads]
        for ad in (b"", b"lcm/invoke", b"lcm/reply"):
            expected = [
                auth_encrypt(p, KEY, associated_data=ad, nonce=n)
                for p, n in zip(payloads, nonces)
            ]
            got = auth_encrypt_batch(
                payloads, KEY, associated_data=ad, nonces=nonces
            )
            assert got == expected

    def test_decrypt_batch_round_trips_both_directions(self, backend):
        payloads = _payloads()
        boxes = auth_encrypt_batch(payloads, KEY, associated_data=b"x")
        # batch-sealed boxes open per box and batch-wise
        assert auth_decrypt_batch(boxes, KEY, associated_data=b"x") == payloads
        assert [
            auth_decrypt(box, KEY, associated_data=b"x") for box in boxes
        ] == payloads
        # per-box-sealed boxes open batch-wise
        singles = [
            auth_encrypt(p, KEY, associated_data=b"x") for p in payloads
        ]
        assert auth_decrypt_batch(singles, KEY, associated_data=b"x") == payloads

    def test_fresh_nonces_are_distinct(self, backend):
        boxes = auth_encrypt_batch([b"same"] * 64, KEY)
        assert len({box[:12] for box in boxes}) == 64
        assert len(set(boxes)) == 64

    def test_empty_batch(self, backend):
        assert auth_encrypt_batch([], KEY) == []
        assert auth_decrypt_batch([], KEY) == []

    def test_nonce_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            auth_encrypt_batch([b"a", b"b"], KEY, nonces=[os.urandom(12)])
        with pytest.raises(ConfigurationError):
            auth_encrypt_batch([b"a"], KEY, nonces=[b"short"])

    def test_golden_vector_through_batch(self):
        """The batch path reproduces the pinned seed-era wire bytes."""
        nonce = bytes(range(12))
        [box] = auth_encrypt_batch(
            [b"attack at dawn"],
            KEY,
            associated_data=b"lcm/invoke",
            nonces=[nonce],
        )
        assert box == bytes.fromhex(
            "000102030405060708090a0b76bada6be9c96d8d6c668d15bf28eb22"
            "bc370454432e4bdd99aa526c607a"
        )


class TestBatchTamperContract:
    def _boxes(self):
        return auth_encrypt_batch(
            [b"alpha" * 10, b"beta" * 20, b"gamma" * 30], KEY,
            associated_data=b"ad",
        )

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_one_tampered_box_rejects_whole_batch(self, backend, victim):
        boxes = self._boxes()
        bad = bytearray(boxes[victim])
        bad[len(bad) // 2] ^= 0x01
        boxes[victim] = bytes(bad)
        with pytest.raises(AuthenticationFailure) as excinfo:
            auth_decrypt_batch(boxes, KEY, associated_data=b"ad")
        assert f"box {victim}" in str(excinfo.value)

    def test_tamper_positions(self, backend):
        boxes = self._boxes()
        box = boxes[1]
        for position in (0, 5, 13, len(box) - 17, len(box) - 1):
            bad = bytearray(box)
            bad[position] ^= 0x01
            mixed = list(boxes)
            mixed[1] = bytes(bad)
            with pytest.raises(AuthenticationFailure):
                auth_decrypt_batch(mixed, KEY, associated_data=b"ad")

    def test_wrong_associated_data_and_key(self, backend):
        boxes = self._boxes()
        with pytest.raises(AuthenticationFailure):
            auth_decrypt_batch(boxes, KEY, associated_data=b"da")
        with pytest.raises(AuthenticationFailure):
            auth_decrypt_batch(boxes, AeadKey(b"\x09" * 16), associated_data=b"ad")

    def test_short_box_named(self, backend):
        boxes = self._boxes()
        boxes[2] = b"\x00" * (OVERHEAD - 1)
        with pytest.raises(AuthenticationFailure) as excinfo:
            auth_decrypt_batch(boxes, KEY, associated_data=b"ad")
        assert "box 2" in str(excinfo.value)
