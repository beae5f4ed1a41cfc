"""The seal digest guard: the exact bytes a fixed seal sequence stores.

A seeded two-group deployment runs one scripted sequence through every
path that changes the sealed state: puts, gets and deletes (a section
leaves), value-length changes (the bytes behind a section move), batches
of several clients, ``ADD_CLIENT``, ``REMOVE_CLIENT`` (a kC rotation
reseals the static box and every row), reboots (a restored context
adopts the stored pieces) and a key-range handoff (sections leave one
group and enter the other).  Every input is seeded — the EPID group, the
platforms, the admins' keys and the kC rotation — so the stored versions
are a function of the code alone.

The test pins the SHA-256 over every version either storage retains
(``load_version(k)``) and the bytes storage physically keeps
(``physical_bytes()``).  A change to how the context seals or stores
must leave both alone; one that moves them changed the sealed format or
the deltas it hands the host.  Both crypto tiers and every core count
must give the same values.
"""

import hashlib
import random

from repro import serde
from repro.core import Admin, make_lcm_program_factory
from repro.core.membership import _admin_request, add_client
from repro.core.migration import migrate_keys
from repro.crypto.aead import AeadKey
from repro.crypto.attestation import EpidGroup
from repro.crypto.hashing import RING_SPAN
from repro.kvstore import KvsFunctionality, delete, get, put
from repro.server import ServerHost
from repro.tee import TeePlatform

STORED_VERSIONS_SHA256 = (
    "05b46b894bff41371734a0c64e77d9dbe82a9045d4ae390f09d7838637ea3210"
)
PHYSICAL_BYTES = (59653, 17395)

_KEYS = [f"key{index:02d}" for index in range(12)]


def _group(epid: EpidGroup, platform_seed: int, clients: list[int]):
    factory = make_lcm_program_factory(KvsFunctionality, audit=True)
    host = ServerHost(TeePlatform(epid, seed=platform_seed), factory)
    admin = Admin(
        epid.verifier(),
        TeePlatform.expected_measurement(factory),
        rng=random.Random(f"seal-digest-admin:{platform_seed}").randbytes,
    )
    deployment = admin.bootstrap(host, client_ids=clients)
    clients = deployment.make_all_clients(host)
    return host, deployment, {client.client_id: client for client in clients}


def _operation(rng: random.Random):
    key = rng.choice(_KEYS)
    draw = rng.random()
    if draw < 0.55:
        # lengths vary, so a rewrite is at equal length or moves the tail
        return put(key, "v" * rng.choice((4, 4, 9, 30, 200)))
    if draw < 0.8:
        return get(key)
    return delete(key)


def _run(rng: random.Random, host, clients: dict, count: int) -> None:
    """``count`` operations: singles, and every fourth a batch of up to
    three distinct clients sealed into one ecall and one store."""
    ids = sorted(clients)
    done = 0
    while done < count:
        if done % 4 == 3:
            batch = [
                (clients[client_id], _operation(rng))
                for client_id in rng.sample(ids, min(3, len(ids)))
            ]
            replies = host.send_invoke_batch(
                [(client.client_id, client._seal_invoke(op)) for client, op in batch]
            )
            for (client, op), reply in zip(batch, replies):
                client._complete(op, reply)
            done += len(batch)
        else:
            clients[rng.choice(ids)].invoke(_operation(rng))
            done += 1


def _remove_client(host, deployment, clients: dict, client_id: int, rng) -> None:
    """``membership.remove_client`` with the new kC drawn from ``rng``."""
    new_key = AeadKey(rng.randbytes(16), label="kC")
    request = _admin_request(
        deployment, ["REMOVE_CLIENT", client_id, new_key.material]
    )
    assert host.enclave.ecall("admin", request) is True
    deployment.client_ids.remove(client_id)
    deployment.communication_key = new_key
    del clients[client_id]
    for client in clients.values():
        client._key = new_key


def _stored_versions(*hosts) -> tuple[str, tuple[int, ...]]:
    digest = hashlib.sha256()
    for host in hosts:
        storage = host.storage
        for index in range(storage.version_count()):
            blob = storage.load_version(index)
            digest.update(len(blob).to_bytes(8, "big"))
            digest.update(blob)
    return digest.hexdigest(), tuple(host.storage.physical_bytes() for host in hosts)


def seal_sequence() -> tuple[str, tuple[int, ...]]:
    """Run the scripted sequence; return the digest over both groups'
    stored versions and each storage's physical bytes."""
    rng = random.Random(0)
    epid = EpidGroup(seed=b"seal-digest-epid")
    host_a, deployment_a, clients_a = _group(epid, 101, [1, 2, 3])
    host_b, _, clients_b = _group(epid, 102, [1, 2])
    _run(rng, host_a, clients_a, 40)
    _run(rng, host_b, clients_b, 8)
    clients_a[4] = add_client(deployment_a, host_a, 4, host_a)
    _run(rng, host_a, clients_a, 12)
    _remove_client(host_a, deployment_a, clients_a, 2, rng)
    _run(rng, host_a, clients_a, 12)
    host_a.reboot()
    _run(rng, host_a, clients_a, 12)
    moved = migrate_keys(host_a, host_b, epid.verifier(), [[0, RING_SPAN // 2]])
    assert moved > 0
    _run(rng, host_a, clients_a, 8)
    _run(rng, host_b, clients_b, 8)
    host_b.reboot()
    _run(rng, host_b, clients_b, 8)
    # the newest version of each group restores to the live state
    for host in (host_a, host_b):
        live = serde.encode(host.enclave._program._state)
        host.reboot()
        assert serde.encode(host.enclave._program._state) == live
    return _stored_versions(host_a, host_b)


def test_stored_versions_are_pinned():
    digest, physical = seal_sequence()
    assert (digest, physical) == (STORED_VERSIONS_SHA256, PHYSICAL_BYTES)
