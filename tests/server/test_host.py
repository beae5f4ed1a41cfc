"""Server host: lifecycle, batched transport, storage wiring."""

import pytest

from repro.core import make_lcm_program_factory
from repro.crypto.attestation import EpidGroup
from repro.kvstore import KvsFunctionality, get, put
from repro.server import ServerHost
from repro.tee import TeePlatform

from tests.conftest import build_deployment


@pytest.fixture
def host():
    platform = TeePlatform(EpidGroup(seed=b"g"), seed=4)
    return ServerHost(platform, make_lcm_program_factory(KvsFunctionality))


class TestLifecycle:
    def test_start_runs_enclave(self, host):
        host.start()
        assert host.enclave.running

    def test_reboot_starts_new_epoch(self, host):
        host.start()
        first = host.enclave.epoch
        host.reboot()
        assert host.enclave.running
        assert host.enclave.epoch == first + 1

    def test_shutdown(self, host):
        host.start()
        host.shutdown()
        assert not host.enclave.running
        host.shutdown()  # idempotent


class TestOcallSurface:
    def test_store_load_round_trip(self, host):
        host.ocall_store(b"blob-1")
        host.ocall_store(b"blob-2")
        assert host.ocall_load() == b"blob-2"
        assert host.stored_versions() == 2


class TestBatchedTransport:
    def test_batch_ecall_count(self):
        host, deployment, clients = build_deployment(clients=2)
        alice, bob = clients
        alice.invoke(put("a", "1"))
        before = host.ecall_count()
        # one batch with two messages = one additional invoke ecall
        from repro.core.messages import InvokePayload

        messages = []
        for client in (alice, bob):
            payload = InvokePayload(
                client_id=client.client_id,
                last_sequence=client.last_sequence,
                last_chain=client.last_chain,
                operation=__import__("repro.serde", fromlist=["encode"]).encode(
                    ["GET", "a"]
                ),
            )
            messages.append((client.client_id, payload.seal(deployment.communication_key)))
        replies = host.send_invoke_batch(messages)
        assert len(replies) == 2
        assert host.ecall_count() == before + 1
