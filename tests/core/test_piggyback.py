"""The Sec. 5.2 piggyback optimisation: state ships with the reply.

The prototype eliminated the store ocall by returning the encrypted
application+protocol state alongside the REPLY messages; the untrusted
server writes it to disk.  Security is unchanged: the server cannot read
or forge the blob, and serving a stale one is exactly the rollback attack
LCM detects.
"""

import pytest

from repro.core import make_lcm_program_factory
from repro.crypto.attestation import EpidGroup
from repro.errors import SecurityViolation
from repro.kvstore import KvsFunctionality, get, put
from repro.server import MaliciousServer, ServerHost
from repro.tee import TeePlatform

from tests.conftest import build_deployment


def piggyback_deployment(malicious=False, clients=3):
    from repro.core import Admin

    group = EpidGroup()
    platform = TeePlatform(group)
    factory = make_lcm_program_factory(KvsFunctionality, piggyback_state=True)
    host = (MaliciousServer if malicious else ServerHost)(platform, factory)
    admin = Admin(group.verifier(), TeePlatform.expected_measurement(factory))
    deployment = admin.bootstrap(host, client_ids=list(range(1, clients + 1)))
    return host, deployment, deployment.make_all_clients(host)


class TestPiggybackMode:
    def test_operations_work(self):
        host, _, (alice, bob, _) = piggyback_deployment()
        alice.invoke(put("k", "v"))
        assert bob.invoke(get("k")).result == "v"

    def test_state_still_persisted_every_operation(self):
        host, _, (alice, *_) = piggyback_deployment()
        before = host.stored_versions()
        alice.invoke(put("k", "v"))
        alice.invoke(get("k"))
        assert host.stored_versions() == before + 2

    def test_recovery_from_piggybacked_blob(self):
        host, _, (alice, *_) = piggyback_deployment()
        alice.invoke(put("k", "v"))
        host.reboot()
        assert alice.invoke(get("k")).result == "v"

    def test_batch_piggybacks_one_blob(self):
        from repro import serde
        from repro.core.messages import InvokePayload

        host, deployment, (alice, bob, _) = piggyback_deployment()
        messages = [
            (
                client.client_id,
                InvokePayload(
                    client_id=client.client_id,
                    last_sequence=client.last_sequence,
                    last_chain=client.last_chain,
                    operation=serde.encode(["PUT", f"k{client.client_id}", "v"]),
                ).seal(deployment.communication_key),
            )
            for client in (alice, bob)
        ]
        before = host.stored_versions()
        replies = host.send_invoke_batch(messages)
        assert len(replies) == 2
        assert host.stored_versions() == before + 1

    def test_piggybacked_state_is_the_stores_delta(self):
        """The outcome carries what the ocall would have stored: after the
        first (whole) store of an epoch, a delta against it whose result
        is byte for byte the context's whole sealed blob."""
        host, _, (alice, *_) = piggyback_deployment()
        program = host.enclave._program
        outcomes = []
        ecall = host.enclave.ecall

        def capture(name, payload):
            outcome = ecall(name, payload)
            outcomes.append(outcome)
            return outcome

        host.enclave.ecall = capture
        alice.invoke(put("k", "v" * 50))
        alice.invoke(put("k", "w" * 80))
        for outcome in outcomes:
            _, _, runs = outcome["state"]
            assert all(type(data) is bytes for _, data in runs)
        assert host.storage.load() == program._sealed_blob()
        host.reboot()
        alice.invoke(get("k"))
        assert isinstance(outcomes[-1]["state"], bytes)  # first store: whole
        assert alice.invoke(get("k")).result == "w" * 80

    def test_rollback_still_detected(self):
        host, _, (alice, *_) = piggyback_deployment(malicious=True)
        alice.invoke(put("k", "v1"))
        alice.invoke(put("k", "v2"))
        host.rollback(host.storage.version_count() - 2)
        with pytest.raises(SecurityViolation):
            alice.invoke(get("k"))

    def test_replayed_retry_is_delivered_like_any_invoke(self):
        """A replayed retry-marked INVOKE takes the Sec. 4.6.1 resend
        path; the server must hand back REPLY bytes and persist the
        piggybacked blob, exactly as for ``send_invoke``."""
        from repro.core.client import LcmClient, TransportTimeout
        from repro.core.messages import ReplyPayload

        host, deployment, _ = piggyback_deployment(malicious=True)

        class LoseFirstReply:
            lost = False

            def send_invoke(self, client_id, message):
                reply = host.send_invoke(client_id, message)
                if not self.lost:
                    self.lost = True
                    raise TransportTimeout("reply lost")
                return reply

        client = LcmClient(1, deployment.communication_key, LoseFirstReply())
        result = client.invoke(put("k", "v"))  # second delivery: retry marker
        before = host.storage.version_count()
        reply = host.replay_last_invoke(1)
        assert isinstance(reply, bytes)
        resent = ReplyPayload.unseal(reply, deployment.communication_key)
        assert resent.sequence == result.sequence
        assert host.storage.version_count() == before + 1

    def test_interoperates_with_default_mode_semantics(self):
        """Same operations, same sequence numbers and chain values in both
        modes — the optimisation is transport-only."""
        host_a, _, (alice_a, *_) = piggyback_deployment(clients=1)
        host_b, _, (alice_b, *_) = build_deployment(clients=1)
        result_a = alice_a.invoke(put("k", "v"))
        result_b = alice_b.invoke(put("k", "v"))
        assert result_a.sequence == result_b.sequence
        # chains differ (different keys/ids are not part of the chain — the
        # operations and sequence are), so they actually match:
        assert alice_a.last_chain == alice_b.last_chain
