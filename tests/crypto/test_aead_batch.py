"""A batch of boxes under one key: what one ``invoke_batch`` ecall
guarantees of the INVOKE boxes it opens and the REPLY boxes it seals.

The trusted context works box by box on the ``python`` tier and in two
fused C calls on the ``c`` tier.  Either way every REPLY box is the box
:func:`auth_encrypt` seals under the context's nonce sequence, and the
INVOKE batch is opened all or nothing: every box is authenticated before
any is decoded, one unauthentic box rejects the whole batch, and the
error names the first bad box (the first one too short to be authentic,
else the first whose MAC fails).  Nothing of a rejected batch happens:
no operation runs, V keeps its rows, no state version is stored and the
context does not halt.

Three arms: the active tier, the ``python`` tier, and the C tier's
Python pass (``c-bail-out``).  The tamper batch carries one authentic
INVOKE outside the C codec, so the C tier bails out of its fused pass
when every box is authentic; a forged box stops the fused pass before
that, so the third arm enters the Python pass through a fused pass that
bails out at once.
"""

import pytest

from repro import serde
from repro.core.messages import _INVOKE_AD, _REPLY_AD, InvokePayload, ReplyPayload
from repro.crypto import fastpath
from repro.crypto.aead import (
    NONCE_SIZE,
    OVERHEAD,
    AeadKey,
    NonceSequence,
    auth_decrypt,
    auth_encrypt,
)
from repro.errors import AuthenticationFailure
from repro.kvstore import get, put

from tests.conftest import build_deployment


@pytest.fixture(params=["active", "python", "c-bail-out"])
def backend(request, monkeypatch):
    """Run every test under the default backend, the hashlib one and
    the C tier's Python pass; restore the import-time selection
    afterwards."""
    previous = fastpath.active_backend()
    if request.param == "python":
        fastpath.select_backend("python")
    elif request.param == "c-bail-out":
        if "c" not in fastpath.available_backends():
            pytest.skip("compiled fastpath backend unavailable")
        # the fused pass's answer for a non-canonical box 0, which it
        # gives before touching any state
        monkeypatch.setattr(
            fastpath.select_backend("c"), "invoke_batch_open", lambda *args: -2000
        )
    yield fastpath.active_backend()
    fastpath.BACKEND = previous


def _invoke(key, client, operation, canonical=True):
    """``client``'s next INVOKE; ``canonical=False`` seals the generic
    encoding with a ``None`` retry marker, authentic but outside the C
    codec."""
    encoded = serde.encode(list(operation))
    if not canonical:
        fields = ["INVOKE", client.last_sequence, client.last_chain, encoded,
                  client.client_id, None]
        return auth_encrypt(serde.encode(fields), key, associated_data=_INVOKE_AD)
    return InvokePayload(
        client_id=client.client_id,
        last_sequence=client.last_sequence,
        last_chain=client.last_chain,
        operation=encoded,
    ).seal(key)


def _batch():
    """A fresh 4-client deployment and one INVOKE per client, the last
    one outside the C codec."""
    host, deployment, clients = build_deployment(clients=4, audit=True)
    key = deployment.communication_key
    operations = [put("a", "1"), put("b", "2"), get("a"), get("b")]
    boxes = [
        _invoke(key, client, operation, canonical=index < 3)
        for index, (client, operation) in enumerate(zip(clients, operations))
    ]
    return host, key, boxes


def _observed(host):
    program = host.enclave._program
    rows = program._rows
    return (
        program._sequence,
        program._chain,
        len(program.audit_log),
        [bytes(column) for column in
         (rows.ids, rows.ack, rows.seq, rows.chains, rows.acks)],
        list(rows.results),
        host.stored_versions(),
        host.enclave.ecall("status", None),  # raises once halted
    )


def _rejected(host, boxes, message):
    before = _observed(host)
    with pytest.raises(AuthenticationFailure) as excinfo:
        host.enclave.ecall("invoke_batch", boxes)
    assert str(excinfo.value) == message
    assert _observed(host) == before


def _flip(box, position):
    forged = bytearray(box)
    forged[position] ^= 1
    return bytes(forged)


class TestBatchEquivalence:
    def test_encrypt_batch_matches_per_box(self, backend):
        """Reply i of a batch is ``auth_encrypt`` of its plaintext under
        the sequence's next nonce, for a batch in the C codec and one
        outside it, with replies of 0 B to 4 KiB values, which straddle
        the keystream's block and XOR-strategy boundaries."""
        sizes = [0, 31, 300, 4096]
        for canonical in (True, False):
            host, deployment, clients = build_deployment(clients=4)
            key = deployment.communication_key
            for client, size in zip(clients, sizes):
                client.invoke(put(f"k{size}", "v" * size))
            boxes = [
                _invoke(key, client, get(f"k{size}"), canonical or index < 3)
                for index, (client, size) in enumerate(zip(clients, sizes))
            ]
            nonces = host.enclave._program._nonces
            sequence = NonceSequence(nonces.seed, nonces.counter)
            replies = host.enclave.ecall("invoke_batch", boxes)
            assert [
                auth_encrypt(
                    auth_decrypt(reply, key, associated_data=_REPLY_AD),
                    key,
                    associated_data=_REPLY_AD,
                    nonce=sequence.next(),
                )
                for reply in replies
            ] == replies
            assert [
                len(serde.decode(ReplyPayload.unseal(reply, key).result))
                for reply in replies
            ] == sizes

    def test_decrypt_batch_round_trips_both_directions(self, backend):
        """INVOKE boxes sealed one by one, by the client's codec and by
        plain ``auth_encrypt``, open as one batch; the batch's REPLY
        boxes open one by one."""
        host, deployment, clients = build_deployment(clients=4)
        key = deployment.communication_key
        boxes = [
            _invoke(key, client, put(f"k{client.client_id}", "v"))
            for client in clients[:2]
        ] + [
            auth_encrypt(
                InvokePayload(
                    client_id=client.client_id,
                    last_sequence=0,
                    last_chain=client.last_chain,
                    operation=serde.encode(list(get("k1"))),
                ).encode(),
                key,
                associated_data=_INVOKE_AD,
            )
            for client in clients[2:]
        ]
        replies = host.enclave.ecall("invoke_batch", boxes)
        decoded = [ReplyPayload.unseal(reply, key) for reply in replies]
        assert [reply.sequence for reply in decoded] == [1, 2, 3, 4]
        assert [serde.decode(reply.result) for reply in decoded[2:]] == ["v", "v"]

    def test_reply_nonces_are_distinct(self, backend):
        host, key, boxes = _batch()
        replies = host.enclave.ecall("invoke_batch", boxes)
        assert len({reply[:NONCE_SIZE] for reply in replies}) == 4

    def test_empty_batch(self, backend):
        host, _, _ = _batch()
        before = _observed(host)[:5]
        assert host.enclave.ecall("invoke_batch", []) == []
        assert _observed(host)[:5] == before


class TestBatchTamperContract:
    def test_the_untampered_batch_is_served(self, backend):
        host, key, boxes = _batch()
        replies = host.enclave.ecall("invoke_batch", boxes)
        assert [
            ReplyPayload.unseal(reply, key).sequence for reply in replies
        ] == [1, 2, 3, 4]
        assert len(host.enclave._program.audit_log) == 4

    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_one_tampered_box_rejects_whole_batch(self, backend, victim):
        host, _, boxes = _batch()
        boxes[victim] = _flip(boxes[victim], len(boxes[victim]) // 2)
        _rejected(host, boxes, f"MAC verification failed for box {victim} of batch")

    def test_tamper_positions(self, backend):
        """The nonce, the ciphertext and the tag of one box; a rejected
        batch leaves nothing behind, so one deployment takes them all."""
        host, _, boxes = _batch()
        box = boxes[1]
        for position in (0, 5, 13, len(box) - 17, len(box) - 1):
            mixed = list(boxes)
            mixed[1] = _flip(box, position)
            _rejected(host, mixed, "MAC verification failed for box 1 of batch")

    def test_wrong_associated_data_and_key(self, backend):
        host, key, boxes = _batch()
        plain = auth_decrypt(boxes[2], key, associated_data=_INVOKE_AD)
        for wrong in (
            auth_encrypt(plain, key, associated_data=_REPLY_AD),
            auth_encrypt(plain, AeadKey(b"\x09" * 16), associated_data=_INVOKE_AD),
        ):
            mixed = list(boxes)
            mixed[2] = wrong
            _rejected(host, mixed, "MAC verification failed for box 2 of batch")

    def test_short_box_named(self, backend):
        host, _, boxes = _batch()
        for size in (0, OVERHEAD - 1):
            mixed = list(boxes)
            mixed[2] = boxes[2][:size]
            _rejected(host, mixed, "box 2 of batch too short to be authentic")

    def test_short_box_named_ahead_of_an_earlier_forged_one(self, backend):
        host, _, boxes = _batch()
        boxes[0] = _flip(boxes[0], -1)
        boxes[2] = boxes[2][: OVERHEAD - 1]
        _rejected(host, boxes, "box 2 of batch too short to be authentic")

    def test_forged_box_named_behind_an_authentic_undecodable_one(self, backend):
        host, key, boxes = _batch()
        boxes[1] = auth_encrypt(b"no INVOKE", key, associated_data=_INVOKE_AD)
        boxes[2] = _flip(boxes[2], -1)
        _rejected(host, boxes, "MAC verification failed for box 2 of batch")
