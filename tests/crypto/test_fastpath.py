"""The two crypto tiers: selection and byte-identity.

Both backends must produce identical keystream blocks, and the AEAD built
on either must produce identical tags and boxes — the golden-vector tests
pin the wire format under whichever backend is active; this file checks
each tier against independent stdlib computations.
"""

import hashlib
import hmac
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from repro.crypto import aead, fastpath
from repro.crypto.dh import MODP_2048_PRIME
from repro.crypto.aead import (
    AeadKey,
    auth_decrypt,
    auth_encrypt,
    stream_decrypt,
    stream_encrypt,
)
from repro.errors import AuthenticationFailure, ConfigurationError

KEY = AeadKey(b"\x05" * 16)
ENC_KEY = hashlib.sha256(b"lcm-enc" + b"\x05" * 16).digest()
MAC_KEY = hashlib.sha256(b"lcm-mac" + b"\x05" * 16).digest()
NONCE = bytes(range(12))
PREFIX = b"lcm-ctr" + ENC_KEY + NONCE

#: Block counts around the 16-lane kernel's edges: around its minimum
#: (``CTR_X16_MIN``), partial and whole chunks, chunk boundaries with a
#: scalar or a lane tail, the counter's low byte carrying (256/257) and a
#: 64 KiB stream.
LANE_EDGES = [
    1, 5, 6, 7, 11, 12, 13, 15, 16, 17, 27, 28, 31, 32, 33,
    128, 129, 256, 257, 2049,
]

#: What ``BACKEND.kernels`` may name: hashlib, or the C tier's compression
#: function with or without the 16-lane keystream kernel, each with or
#: without the Montgomery DH kernel.
KNOWN_KERNELS = {"hashlib"} | {
    compress + lanes + mont
    for compress in ("portable", "sha-ni")
    for lanes in ("", "+avx512x16")
    for mont in ("", "+mont64")
}


def _c_define(name: str) -> int:
    source = (pathlib.Path(fastpath.__file__).parent / "fastpath.c").read_text()
    return int(re.search(rf"#define {name} (\d+)", source).group(1))


def _reference_blocks(prefix: bytes, nblocks: int) -> bytes:
    return b"".join(
        hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        for counter in range(nblocks)
    )


def _reference_tag(mac_key: bytes, ad: bytes, segment: bytes) -> bytes:
    frame = len(ad).to_bytes(8, "big") + ad
    return hmac.new(mac_key, frame + segment, hashlib.sha256).digest()[:16]


def _all_backends():
    return [fastpath._get_backend(name) for name in fastpath.available_backends()]


@pytest.fixture
def compiled():
    """Run one test with ``c`` selected (skipped where it cannot build)."""
    if fastpath._get_backend("c") is None:
        pytest.skip("compiled backend unavailable")
    previous = fastpath.active_backend()
    yield fastpath.select_backend("c")
    fastpath.BACKEND = previous


def _tags(key, ad, segments):
    return [aead._tag_for(key, b"", ad, seg) for seg in segments]


class TestBackendEquivalence:
    # 4100 blocks run past the hashlib loop's precomputed counter table
    @pytest.mark.parametrize("nblocks", sorted({0, 2, 200, 4100, *LANE_EDGES}))
    def test_blocks_identical_across_backends(self, nblocks):
        expected = _reference_blocks(PREFIX, nblocks)
        for backend in _all_backends():
            assert backend.blocks(PREFIX, nblocks) == expected, backend.name

    @pytest.mark.parametrize("first", [2**24 - 3, 2**32 - 5, 2**56 - 7])
    def test_native_blocks_at_high_counters(self, compiled, first):
        """Counters whose carries cross the lane words' byte boundaries,
        up to the counter's top byte (unreachable by a box, reachable
        through the C entry point's first counter)."""
        assert compiled.blocks(PREFIX, 32, first) == b"".join(
            hashlib.sha256(PREFIX + counter.to_bytes(8, "big")).digest()
            for counter in range(first, first + 32)
        )

    @pytest.mark.parametrize(
        "prefix_len",
        # straddles the one-block, two-block and buffered-update shapes
        [0, 7, 40, 47, 48, 55, 56, 60, 64, 100],
    )
    def test_blocks_at_every_prefix_shape(self, prefix_len):
        prefix = bytes(range(256))[:prefix_len]
        expected = _reference_blocks(prefix, 4)
        for backend in _all_backends():
            assert backend.blocks(prefix, 4) == expected, backend.name

    def test_batch_hmac_matches_stdlib_on_every_backend(self):
        """The hashlib tier's tag over a batch of segments (cloning the
        key's cached pad states) and every tier's boxes are
        stdlib-identical, and the cached key schedule is safe across calls
        and keys."""
        ad = b"lcm/invoke"
        segments = [os.urandom(151) for _ in range(7)] + [b"", os.urandom(3000)]
        expected = [_reference_tag(MAC_KEY, ad, seg) for seg in segments]
        other = AeadKey(b"\x09" * 16)
        assert _tags(KEY, ad, segments) == expected
        # repeat (cached inner state) and an interleaved second key
        assert _tags(other, ad, segments[:2]) == [
            _reference_tag(other._mac_key, ad, seg) for seg in segments[:2]
        ]
        assert _tags(KEY, ad, segments) == expected
        previous = fastpath.active_backend()
        try:
            for name in fastpath.available_backends():
                fastpath.select_backend(name)
                boxes = [auth_encrypt(seg, KEY, associated_data=ad) for seg in segments]
                assert [box[-16:] for box in boxes] == [
                    _reference_tag(MAC_KEY, ad, box[:-16]) for box in boxes
                ], name
        finally:
            fastpath.BACKEND = previous

    def test_batch_hmac_accepts_memoryview_segments(self):
        """``auth_decrypt`` feeds the tag pass memoryview slices (the box
        minus its tag); the tags must match those over bytes."""
        ad = b"lcm/reply"
        payloads = [os.urandom(60) for _ in range(4)]
        views = [memoryview(payload) for payload in payloads]
        assert _tags(KEY, ad, views) == [
            _reference_tag(MAC_KEY, ad, payload) for payload in payloads
        ]

    def test_modexp_matches_pow(self, compiled):
        """The DH kernel against ``pow`` over group 14: seeded random
        2048-bit bases with 256-bit exponents (the DH secrets' size), the
        edge bases and exponents, exponents longer than 32 bytes, and (on
        the C ``modexp`` itself, which takes the exponent's bytes as given)
        exponents with leading zero bytes."""
        if not compiled.kernels.endswith("+mont64"):
            pytest.skip("Montgomery kernel not compiled in")
        p = MODP_2048_PRIME
        rng = random.Random(45)
        pairs = [(rng.getrandbits(2048), rng.getrandbits(256)) for _ in range(60)]
        pairs += [
            (base, exponent)
            for base in (0, 1, 2, p - 2, p - 1)
            for exponent in (0, 1, 2**255)
        ]
        pairs += [
            (rng.getrandbits(2048), exponent)
            for exponent in (
                2**256 - 1, p - 1, p, rng.getrandbits(300),
                rng.getrandbits(2100), rng.getrandbits(4096),
            )
        ]
        for base, exponent in pairs:
            expected = pow(base, exponent, p)
            assert compiled.modexp(base, exponent, p) == expected, (base, exponent)
        r2 = pow(2, 4096, p).to_bytes(256, "big")
        n0 = -pow(p, -1, 1 << 64) % (1 << 64)
        for base, exponent in pairs[:2] + pairs[60:75] + pairs[-6:]:
            base %= p
            for pad in (1, 7, 40):
                raw = bytes(pad) + exponent.to_bytes(512, "big").lstrip(b"\0")
                out = compiled._modexp(
                    p.to_bytes(256, "big"), r2, n0, base.to_bytes(256, "big"), raw
                )
                assert int.from_bytes(out, "big") == pow(base, exponent, p)

    def test_modexp_other_moduli_and_fallbacks(self, compiled):
        """Any odd modulus up to 2048 bits is exact (each gets its own
        cached R^2); an even or oversized modulus, or a negative
        exponent, returns None for the caller's ``pow``."""
        if not compiled.kernels.endswith("+mont64"):
            pytest.skip("Montgomery kernel not compiled in")
        rng = random.Random(47)
        for modulus in (3, 2**61 - 1, 2**521 - 1, 2**2047 + 1, 2**2048 - 1):
            for _ in range(5):
                base, exponent = rng.getrandbits(2100), rng.getrandbits(300)
                assert compiled.modexp(base, exponent, modulus) == pow(
                    base, exponent, modulus
                )
        assert compiled.modexp(5, 3, 2**64) is None
        assert compiled.modexp(5, 3, 2**2048 + 1) is None
        assert compiled.modexp(5, -1, MODP_2048_PRIME) is None

    def test_native_sha256_matches_stdlib(self):
        backend = fastpath._get_backend("c")
        if backend is None:
            pytest.skip("compiled backend unavailable")
        blobs = [b"", b"x", os.urandom(200), os.urandom(5000)]
        assert backend.sha256_many(blobs) == [
            hashlib.sha256(blob).digest() for blob in blobs
        ]


class TestSelection:
    def test_available_backends_always_include_pure_python(self):
        names = fastpath.available_backends()
        assert names in (["c", "python"], ["python"])

    def test_select_and_restore(self):
        previous = fastpath.active_backend()
        try:
            assert fastpath.select_backend("python").name == "python"
            assert fastpath.active_backend().name == "python"
            assert not fastpath.active_backend().native
            default = fastpath.select_backend(None)
            assert default.name in ("c", "python")
            assert default.native == (default.name == "c")
        finally:
            fastpath.BACKEND = previous

    def test_kernels_name_what_dispatch_chose(self):
        for backend in _all_backends():
            assert backend.kernels in KNOWN_KERNELS, backend.kernels
            assert (backend.kernels == "hashlib") == (not backend.native)
            if backend.native:
                # ``+mont64`` is named exactly when the DH kernel computes
                assert backend.kernels.endswith("+mont64") == (
                    backend.modexp(3, 5, 7) is not None
                )
            with pytest.raises(AttributeError):
                backend.kernels = "portable"

    def test_unknown_backend_rejected(self):
        """Exactly two names exist; ``python-batch`` names a stage-record
        path, not a backend, and is rejected like any unknown name."""
        for name in ("turbo", "python-batch"):
            with pytest.raises(ConfigurationError):
                fastpath.select_backend(name)

    def test_env_override_pins_backend_at_import(self):
        """A subprocess with REPRO_FASTPATH=python must select the pure
        backend and still reproduce the golden wire bytes."""
        code = (
            "from repro.crypto import fastpath\n"
            "assert fastpath.active_backend().name == 'python'\n"
            "from repro.crypto.aead import AeadKey, auth_encrypt\n"
            "box = auth_encrypt(b'', AeadKey(b'\\x01\\x02' * 8),"
            " nonce=bytes(range(12)))\n"
            "assert box == bytes.fromhex("
            "'000102030405060708090a0b60c1683d24bb18fd554a81c49850e290')\n"
            "print('ok')\n"
        )
        env = dict(os.environ, REPRO_FASTPATH="python")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestFusedBoxes:
    """The C ``seal_box`` / ``open_box`` through the AEAD entry points
    that call them."""

    def test_fused_seal_open_match_composed_path(self, compiled):
        ad = b"ad"
        for size in [0, 1, 31, 32, 300, 1024, 1025, 5000]:
            plaintext = os.urandom(size)
            nonce = os.urandom(12)
            box = auth_encrypt(plaintext, KEY, associated_data=ad, nonce=nonce)
            # manual composition from the block loop + stdlib HMAC
            stream = _reference_blocks(b"lcm-ctr" + ENC_KEY + nonce, -(-size // 32))
            ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
            tag = _reference_tag(MAC_KEY, ad, nonce + ciphertext)
            assert box == nonce + ciphertext + tag
            assert auth_decrypt(box, KEY, associated_data=ad) == plaintext
        bad = box[:-1] + bytes([box[-1] ^ 1])
        with pytest.raises(AuthenticationFailure):
            auth_decrypt(bad, KEY, associated_data=ad)


class TestKeystreamCache:
    """The C tier's in-process keystream cache: a short table and a table
    of long slots up to ``KS_MAX_STREAM`` bytes; longer payloads and
    section seals stream through the kernel uncached.  Every box must be
    the reference bytes whether its keystream was a hit, a miss or
    streamed."""

    @staticmethod
    def _reference_box(plaintext, nonce, ad):
        stream = _reference_blocks(
            b"lcm-ctr" + ENC_KEY + nonce, -(-len(plaintext) // 32)
        )
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        return nonce + ciphertext + _reference_tag(MAC_KEY, ad, nonce + ciphertext)

    def _round_trip(self, size, nonce, ad=b"lcm/invoke"):
        plaintext = os.urandom(size)
        box = auth_encrypt(plaintext, KEY, associated_data=ad, nonce=nonce)
        assert box == self._reference_box(plaintext, nonce, ad), size
        assert auth_decrypt(box, KEY, associated_data=ad) == plaintext, size
        return box

    @pytest.mark.parametrize("nblocks", LANE_EDGES)
    def test_boxes_at_lane_edges(self, compiled, nblocks):
        for size in (32 * nblocks - 5, 32 * nblocks):
            self._round_trip(size, os.urandom(12))
            plaintext = os.urandom(size)
            nonce = os.urandom(12)
            section = stream_encrypt(plaintext, KEY, nonce=nonce)
            assert section == self._reference_box(plaintext, nonce, b"")[:-16]
            assert stream_decrypt(section, KEY) == plaintext

    @pytest.mark.parametrize("bound", ["KS_SHORT_STREAM", "KS_MAX_STREAM"])
    def test_payloads_at_the_table_bounds(self, compiled, bound):
        limit = _c_define(bound)
        for size in (limit - 1, limit, limit + 1):
            self._round_trip(size, os.urandom(12))

    def test_slot_collision_at_shorter_and_longer_lengths(self, compiled):
        """Nonces sharing their first four bytes share a slot in both
        tables: a cached stream must never answer for another nonce,
        whether the newcomer is shorter or longer than what the slot
        holds, and the evicted nonce is regenerated correctly."""
        head = os.urandom(4)
        first, second = head + os.urandom(8), head + os.urandom(8)
        long_bound = _c_define("KS_MAX_STREAM")
        for size, shorter, longer in ((3000, 1500, long_bound), (900, 40, 1024)):
            self._round_trip(size, first)
            self._round_trip(shorter, second)
            self._round_trip(longer, second)
            self._round_trip(size, first)

    def test_open_of_a_sealed_4k_box_hits_the_cache(self, compiled):
        """Sealing fills the slot the open then reads; a second open
        reads it too."""
        nonce = os.urandom(12)
        box = self._round_trip(4249, nonce)
        plaintext = auth_decrypt(box, KEY, associated_data=b"lcm/invoke")
        assert auth_decrypt(box, KEY, associated_data=b"lcm/invoke") == plaintext

    def test_tampered_4k_box_with_a_cached_keystream_is_rejected(self, compiled):
        box = self._round_trip(4249, os.urandom(12))
        for index in (12, 2000, len(box) - 17, len(box) - 1):
            tampered = bytearray(box)
            tampered[index] ^= 1
            with pytest.raises(AuthenticationFailure):
                auth_decrypt(bytes(tampered), KEY, associated_data=b"lcm/invoke")
