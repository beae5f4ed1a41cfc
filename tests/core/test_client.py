"""LCM client (Alg. 1): reply verification, retries, checkpointing."""

import pytest

from repro.crypto.aead import AeadKey
from repro.errors import InvalidReply
from repro.core.client import LcmClient, TransportTimeout
from repro.core.messages import ReplyPayload
from repro.kvstore import get, put

from tests.conftest import build_deployment


class TestReplyVerification:
    def test_reply_must_echo_clients_chain(self):
        host, deployment, (alice, *_) = build_deployment()

        class MintingServer:
            """Returns a validly encrypted REPLY minted against a different
            history (wrong previous-chain echo)."""

            def send_invoke(self, client_id, message):
                forged = ReplyPayload(
                    sequence=1,
                    chain=b"\x01" * 32,
                    result=b"N",
                    stable_sequence=0,
                    previous_chain=b"\x02" * 32,
                )
                return forged.seal(deployment.communication_key)

        rogue = LcmClient(1, deployment.communication_key, MintingServer())
        with pytest.raises(InvalidReply):
            rogue.invoke(get("k"))

    def test_reply_sequence_must_increase(self):
        _, deployment, _ = build_deployment()
        from repro.crypto.hashing import GENESIS_HASH

        class StuckServer:
            def send_invoke(self, client_id, message):
                return ReplyPayload(
                    sequence=0,
                    chain=b"\x01" * 32,
                    result=b"N",
                    stable_sequence=0,
                    previous_chain=GENESIS_HASH,
                ).seal(deployment.communication_key)

        client = LcmClient(1, deployment.communication_key, StuckServer())
        with pytest.raises(InvalidReply):
            client.invoke(get("k"))

    def test_stable_sequence_must_not_decrease(self):
        host, deployment, (alice, *_) = build_deployment(clients=1)
        # with one client, every op is immediately majority-stable
        alice.invoke(put("k", "v"))
        assert alice.stable_sequence >= 0

        class RegressingServer:
            def send_invoke(self, client_id, message):
                return ReplyPayload(
                    sequence=alice.last_sequence + 1,
                    chain=b"\x01" * 32,
                    result=b"N",
                    stable_sequence=-1,
                    previous_chain=alice.last_chain,
                ).seal(deployment.communication_key)

        alice._transport = RegressingServer()
        with pytest.raises(InvalidReply):
            alice.invoke(get("k"))


class TestRetry:
    def _flaky(self, host, failures: int):
        class FlakyTransport:
            def __init__(self):
                self.remaining = failures
                self.retry_flags = []

            def send_invoke(self, client_id, message):
                from repro.core.messages import InvokePayload

                if self.remaining > 0:
                    self.remaining -= 1
                    raise TransportTimeout("lost")
                return host.send_invoke(client_id, message)

        return FlakyTransport()

    def test_retry_succeeds_after_losses(self):
        host, deployment, _ = build_deployment()
        transport = self._flaky(host, failures=2)
        client = LcmClient(1, deployment.communication_key, transport)
        result = client.invoke(put("k", "v"))
        assert result.sequence == 1

    def test_retry_exhaustion_raises(self):
        host, deployment, _ = build_deployment()
        transport = self._flaky(host, failures=10)
        client = LcmClient(
            1, deployment.communication_key, transport, max_retries=2
        )
        with pytest.raises(TransportTimeout):
            client.invoke(put("k", "v"))


class TestCheckpointRecovery:
    def test_recovered_client_continues_protocol(self):
        host, deployment, (alice, bob, _) = build_deployment()
        alice.invoke(put("k", "v1"))
        alice.invoke(put("k", "v2"))
        checkpoint = alice.checkpoint()
        # client crashes; a new process recovers from its stable storage
        revived = LcmClient.recover(
            1, deployment.communication_key, host, checkpoint
        )
        result = revived.invoke(get("k"))
        assert result.result == "v2"
        assert result.sequence == 3

    def test_recovery_without_checkpoint_is_detected(self):
        """A client that loses its state and restarts from zero presents a
        stale (tc, hc) — the trusted context flags it as a replay, which is
        why Sec. 4.2.3 requires recoverable client state."""
        host, deployment, (alice, *_) = build_deployment()
        alice.invoke(put("k", "v"))
        amnesiac = LcmClient(1, deployment.communication_key, host)
        from repro.errors import ReplayDetected

        with pytest.raises(ReplayDetected):
            amnesiac.invoke(get("k"))


class TestBookkeeping:
    def test_completed_operations_recorded(self):
        _, _, (alice, *_) = build_deployment()
        alice.invoke(put("a", "1"))
        alice.invoke(get("a"))
        operations = [op for op, _ in alice.completed_operations]
        assert operations == [("PUT", "a", "1"), ("GET", "a")]

    def test_stability_tracker_follows_replies(self):
        _, _, (alice, *_) = build_deployment(clients=1)
        alice.invoke(put("a", "1"))
        assert list(alice.stability.own_sequences) == [1]
        alice.invoke(put("b", "2"))
        # the second INVOKE acknowledged the first, which makes it stable
        # for a group of one: the tracker keeps only the pending suffix
        assert alice.stability.stable_sequence == 1
        assert list(alice.stability.own_sequences) == [2]
        assert alice.stability.pending() == [2]

    def test_stability_tracker_stays_bounded(self):
        """Client state is constant-size: after 1,000 operations the
        tracker holds no more numbers than operations still pending."""
        _, _, clients = build_deployment()
        for index in range(1000):
            client = clients[index % len(clients)]
            client.invoke(put(f"k{index % 7}", str(index)))
            for each in clients:
                own = each.stability.own_sequences
                assert len(own) <= len(each.stability.pending()) <= 2
