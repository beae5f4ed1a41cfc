"""INVOKE/REPLY wire format: round trips, confusion resistance, overhead."""

import pytest

from repro import serde
from repro.crypto.aead import AeadKey
from repro.crypto.hashing import GENESIS_HASH
from repro.crypto import fastpath
from repro.errors import AuthenticationFailure, ConfigurationError, InvalidReply
from repro.core.messages import (
    InvokePayload,
    ReplyPayload,
    invoke_metadata_overhead,
    reply_metadata_overhead,
)


@pytest.fixture
def key():
    return AeadKey(b"\x01" * 16, label="kC")


@pytest.fixture
def invoke():
    return InvokePayload(
        client_id=7,
        last_sequence=3,
        last_chain=GENESIS_HASH,
        operation=serde.encode(["PUT", "k", "v"]),
        retry=False,
    )


@pytest.fixture
def reply():
    return ReplyPayload(
        sequence=4,
        chain=b"\x02" * 32,
        result=serde.encode("old-value"),
        stable_sequence=2,
        previous_chain=GENESIS_HASH,
    )


class TestInvoke:
    def test_encode_decode(self, invoke):
        assert InvokePayload.decode(invoke.encode()) == invoke

    def test_seal_unseal(self, invoke, key):
        assert InvokePayload.unseal(invoke.seal(key), key) == invoke

    def test_retry_flag_round_trips(self, invoke, key):
        marked = InvokePayload(
            invoke.client_id,
            invoke.last_sequence,
            invoke.last_chain,
            invoke.operation,
            retry=True,
        )
        assert InvokePayload.unseal(marked.seal(key), key).retry is True

    def test_wrong_key_rejected(self, invoke, key):
        with pytest.raises(AuthenticationFailure):
            InvokePayload.unseal(invoke.seal(key), AeadKey(b"\x02" * 16))

    def test_tampered_box_rejected(self, invoke, key):
        box = bytearray(invoke.seal(key))
        box[20] ^= 0x01
        with pytest.raises(AuthenticationFailure):
            InvokePayload.unseal(bytes(box), key)

    @pytest.mark.parametrize("tier", fastpath.available_backends())
    def test_a_pinned_nonce_of_the_wrong_length_is_refused_on_both_tiers(
        self, invoke, key, tier
    ):
        previous = fastpath.active_backend()
        fastpath.select_backend(tier)
        try:
            for nonce in (b"", bytes(11), bytes(13)):
                with pytest.raises(ConfigurationError):
                    invoke.seal(key, nonce=nonce)
        finally:
            fastpath.BACKEND = previous


class TestReply:
    def test_encode_decode(self, reply):
        assert ReplyPayload.decode(reply.encode()) == reply

    def test_seal_unseal(self, reply, key):
        assert ReplyPayload.unseal(reply.seal(key), key) == reply

    def test_reply_box_not_accepted_as_invoke(self, reply, key):
        with pytest.raises(AuthenticationFailure):
            InvokePayload.unseal(reply.seal(key), key)

    def test_invoke_box_not_accepted_as_reply(self, invoke, key):
        with pytest.raises(AuthenticationFailure):
            ReplyPayload.unseal(invoke.seal(key), key)

    def test_decode_wrong_tag(self, invoke):
        with pytest.raises(InvalidReply):
            ReplyPayload.decode(invoke.encode())


class TestMetadataOverhead:
    def test_invoke_overhead_constant_in_operation_size(self, key):
        overheads = {
            invoke_metadata_overhead(serde.encode(["PUT", "k", "v" * size]), key)
            for size in (1, 100, 1000, 10000)
        }
        assert len(overheads) == 1

    def test_reply_overhead_constant_in_result_size(self, key):
        overheads = {
            reply_metadata_overhead(serde.encode("v" * size), key)
            for size in (1, 100, 1000, 10000)
        }
        assert len(overheads) == 1

    def test_overheads_are_small(self, key):
        # same order as the paper's 45/46 bytes (our framing is fatter but
        # still double-digit-to-low-hundreds of bytes, constant)
        invoke_bytes = invoke_metadata_overhead(serde.encode(["GET", "k"]), key)
        reply_bytes = reply_metadata_overhead(serde.encode(None), key)
        assert 0 < invoke_bytes < 300
        assert 0 < reply_bytes < 300
