"""Golden vectors pinning the AEAD wire format and hash-chain values.

The hot path went through several optimization rounds (precomputed
subkeys, cloned HMAC pad states, block-wise keystream generation, big-int
and numpy XOR).  These vectors were generated from the *seed*
implementation and verified byte-identical before the optimizations
landed; any future change that alters a single output byte breaks
compatibility with previously sealed blobs and recorded messages, and
must fail here.
"""

import hashlib
import hmac

import pytest

from repro.crypto.aead import (
    AeadKey,
    auth_decrypt,
    auth_encrypt,
    mac_tag,
    stream_decrypt,
    stream_encrypt,
    verify_mac_tag,
)
from repro.crypto.dh import DhKeyPair
from repro.crypto.hashing import GENESIS_HASH, chain_extend

KEY = AeadKey(b"\x01\x02" * 8, label="golden")
NONCE = bytes(range(12))


class TestAeadGolden:
    def test_empty_plaintext_box(self):
        assert auth_encrypt(b"", KEY, nonce=NONCE) == bytes.fromhex(
            "000102030405060708090a0b60c1683d24bb18fd554a81c49850e290"
        )

    def test_short_box_with_associated_data(self):
        box = auth_encrypt(
            b"attack at dawn", KEY, associated_data=b"lcm/invoke", nonce=NONCE
        )
        assert box == bytes.fromhex(
            "000102030405060708090a0b76bada6be9c96d8d6c668d15bf28eb22"
            "bc370454432e4bdd99aa526c607a"
        )

    def test_large_box_digest(self):
        """2500-byte payload (the Fig. 4 object size) — pinned by digest."""
        box = auth_encrypt(b"x" * 2500, KEY, nonce=NONCE)
        assert hashlib.sha256(box).hexdigest() == (
            "7f02b7f9c43defd4e5dcfdb67cf6c5fde926ffd356600ff0c2037f6cffdf33da"
        )

    def test_invoke_sized_box_digest(self):
        """A box the size of an INVOKE carrying a 4 KiB value (4249-byte
        payload): long enough for the 16-lane kernel and the long cache
        slots — pinned by digest, computed on the hashlib tier."""
        payload = bytes(i * 7 & 0xFF for i in range(4249))
        box = auth_encrypt(payload, KEY, associated_data=b"lcm/invoke", nonce=NONCE)
        assert hashlib.sha256(box).hexdigest() == (
            "0cd71e7ed3ba73ac10e511128dd152a73ff889710a16764b2bad8f076bb1954f"
        )
        assert auth_decrypt(box, KEY, associated_data=b"lcm/invoke") == payload

    def test_keystream_definition(self):
        """The keystream is SHA-256 over ``lcm-ctr || enc_key || nonce ||
        counter`` per 32-byte block — spelled out independently here."""
        enc_key = hashlib.sha256(b"lcm-enc" + KEY.material).digest()
        stream = b"".join(
            hashlib.sha256(
                b"lcm-ctr" + enc_key + NONCE + counter.to_bytes(8, "big")
            ).digest()
            for counter in range(3)
        )
        plaintext = bytes(range(80))
        box = auth_encrypt(plaintext, KEY, nonce=NONCE)
        ciphertext = box[12:-16]
        assert ciphertext == bytes(
            p ^ s for p, s in zip(plaintext, stream)
        )

    def test_tag_matches_plain_hmac(self):
        """The truncated tag equals a from-scratch hmac.new computation."""
        mac_key = hashlib.sha256(b"lcm-mac" + KEY.material).digest()
        associated_data = b"lcm/reply"
        box = auth_encrypt(b"payload", KEY, associated_data=associated_data, nonce=NONCE)
        ciphertext = box[12:-16]
        framed = (
            len(associated_data).to_bytes(8, "big")
            + associated_data
            + NONCE
            + ciphertext
        )
        reference = hmac.new(mac_key, framed, hashlib.sha256).digest()[:16]
        assert box[-16:] == reference

    def test_keys_survive_pickle_and_deepcopy(self):
        """The derived-state caches hold hashlib objects; keys must still
        pickle/copy by rebuilding from material."""
        import copy
        import pickle

        for clone in (
            pickle.loads(pickle.dumps(KEY)),
            copy.deepcopy(KEY),
            copy.copy(KEY),
        ):
            assert clone.material == KEY.material
            assert clone.label == KEY.label
            box = auth_encrypt(b"x", clone, nonce=NONCE)
            assert box == auth_encrypt(b"x", KEY, nonce=NONCE)

    def test_round_trip_across_fresh_key_objects(self):
        """Two AeadKey objects from the same material interoperate (the
        per-key derived-state caches must not leak into the wire)."""
        box = auth_encrypt(b"hello", KEY, associated_data=b"ad")
        other = AeadKey(b"\x01\x02" * 8)
        assert auth_decrypt(box, other, associated_data=b"ad") == b"hello"


class TestMacTagGolden:
    def test_matches_plain_hmac(self):
        """mac_tag is HMAC-SHA-256 over ``len(ad) || ad || data``, truncated."""
        data = b"manifest-bytes"
        associated_data = b"lcm/state-manifest"
        mac_key = hashlib.sha256(b"lcm-mac" + KEY.material).digest()
        framed = len(associated_data).to_bytes(8, "big") + associated_data + data
        reference = hmac.new(mac_key, framed, hashlib.sha256).digest()[:16]
        tag = mac_tag(data, KEY, associated_data=associated_data)
        assert tag == reference
        assert verify_mac_tag(tag, data, KEY, associated_data=associated_data)

    def test_rejects_wrong_data_ad_or_key(self):
        tag = mac_tag(b"data", KEY, associated_data=b"ad")
        assert not verify_mac_tag(tag, b"datb", KEY, associated_data=b"ad")
        assert not verify_mac_tag(tag, b"data", KEY, associated_data=b"da")
        assert not verify_mac_tag(
            tag, b"data", AeadKey(b"\x09" * 16), associated_data=b"ad"
        )


class TestStreamBoxGolden:
    def test_matches_aead_keystream(self):
        """stream_encrypt uses the identical keystream as auth_encrypt —
        only the tag is omitted."""
        plaintext = b"the service state"
        aead_box = auth_encrypt(plaintext, KEY, nonce=NONCE)
        stream_box = stream_encrypt(plaintext, KEY, nonce=NONCE)
        assert stream_box == aead_box[:-16]
        assert stream_decrypt(stream_box, KEY) == plaintext

    def test_long_section_digest(self):
        """A section longer than any cache slot streams through the kernel
        in 16-block chunks (64 KiB + 5 bytes: 2049 blocks, the last one
        partial) — pinned by digest, computed on the hashlib tier."""
        plaintext = bytes(i & 0xFF for i in range(65541))
        box = stream_encrypt(plaintext, KEY, nonce=NONCE)
        assert hashlib.sha256(box).hexdigest() == (
            "37db60a4487766ce03f2c862fd1d6cf8087b6bb7a3fdb5ba8472eaa64b8b551c"
        )
        assert stream_decrypt(box, KEY) == plaintext

    def test_round_trip_random_nonce(self):
        box = stream_encrypt(b"x" * 1000, KEY)
        assert len(box) == 12 + 1000
        assert stream_decrypt(box, KEY) == b"x" * 1000


class TestHashChainGolden:
    def test_genesis_value(self):
        assert GENESIS_HASH == bytes.fromhex(
            "5a051da39d33a5022dbe99662029001b67cac23823f7b69c411d5146c14f9164"
        )

    def test_extend_vector(self):
        assert chain_extend(GENESIS_HASH, b"op-bytes", 7, 3) == bytes.fromhex(
            "0e696af3d2d263dd4150a5e631a6457a0073301884ced42e47600ff22c176209"
        )


class TestDhGolden:
    """The attested channel's keys, pinned on whichever tier is active
    (the ``c`` tier's Montgomery kernel or ``pow``); computed with
    ``pow``."""

    def test_public_key_digest(self):
        public = DhKeyPair.generate(b"alice-seed").public_bytes()
        assert hashlib.sha256(public).hexdigest() == (
            "73aa7902f062348980de13e3c7f377bc73402c8666b1152ca123fe06823abb04"
        )

    def test_channel_key(self):
        alice = DhKeyPair.generate(b"alice-seed")
        bob = DhKeyPair.generate(b"bob-seed")
        expected = bytes.fromhex("8cf3996e5f1241aab3c43f74371fcc11")
        assert alice.shared_key(bob.public).material == expected
        assert bob.shared_key(alice.public_bytes()).material == expected


@pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 255, 256, 257, 2500, 8192])
def test_round_trip_every_block_boundary(size):
    """Round trips across keystream-block and XOR-strategy boundaries
    (the big-int/numpy switch must not change a single byte)."""
    payload = bytes(i & 0xFF for i in range(size))
    box = auth_encrypt(payload, KEY, associated_data=b"edge")
    assert auth_decrypt(box, KEY, associated_data=b"edge") == payload
