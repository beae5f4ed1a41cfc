"""Microbenchmarks of the real (functional) protocol stack.

These time the actual Python implementation — not the calibrated cost
model — so regressions in the protocol hot path (AEAD, hash chain,
sealing, full invoke round trip) are visible in benchmark history.
"""

import pytest

from repro import serde
from repro.crypto.aead import AeadKey, auth_decrypt, auth_encrypt
from repro.crypto.hashing import GENESIS_HASH, chain_extend
from repro.kvstore import get, put

from tests.conftest import build_deployment


def test_micro_aead_encrypt_100b(benchmark):
    key = AeadKey(b"\x01" * 16)
    payload = b"x" * 100
    box = benchmark(auth_encrypt, payload, key)
    assert len(box) == 100 + 28


def test_micro_aead_round_trip_2500b(benchmark):
    key = AeadKey(b"\x01" * 16)
    payload = b"x" * 2500

    def round_trip():
        return auth_decrypt(auth_encrypt(payload, key), key)

    assert benchmark(round_trip) == payload


def test_micro_hash_chain_extend(benchmark):
    operation = serde.encode(["PUT", "k" * 40, "v" * 100])
    value = benchmark(chain_extend, GENESIS_HASH, operation, 1, 1)
    assert len(value) == 32


def test_micro_serde_encode_state(benchmark):
    state = {f"user{i:012d}": "v" * 100 for i in range(100)}
    encoded = benchmark(serde.encode, state)
    assert len(encoded) > 100 * 100


def _dh_exchange():
    """One side of the attested channel's key agreement (bootstrap,
    Sec. 4.3, and migration, Sec. 4.6.2): an ephemeral keypair and the
    channel key against a fixed peer, two 2048-bit exponentiations."""
    from repro.crypto.dh import DhKeyPair

    peer = DhKeyPair.generate(b"bench-peer").public_bytes()
    return lambda: DhKeyPair.generate(b"bench-self").shared_key(peer)


def test_micro_dh_exchange(benchmark):
    key = benchmark(_dh_exchange())
    assert len(key.material) == 16


def test_micro_full_invoke_round_trip(benchmark):
    """One complete LCM operation through client, host, enclave and back."""
    _, _, (alice, *_) = build_deployment()
    alice.invoke(put("k", "v" * 100))

    def one_get():
        return alice.invoke(get("k"))

    result = benchmark(one_get)
    assert result.result == "v" * 100


def test_micro_invoke_with_state_growth(benchmark):
    """PUT on one of 200 objects (a scaled-down version of the paper's
    1000-object working set).  The seal re-encrypts only the written
    entry and the store hands storage only that section, the writer's
    row and the tag; what still grows with the state is the dict copy in
    ``F``."""
    _, _, (alice, *_) = build_deployment()
    for i in range(200):  # scaled-down load phase to keep the suite quick
        alice.invoke(put(f"user{i:012d}", "v" * 100))

    def one_put():
        return alice.invoke(put("user000000000000", "w" * 100))

    result = benchmark(one_put)
    assert result.sequence > 200


def _large_state_put():
    """64 keys x 4 KiB with one hot key: the state seal's own number — a
    PUT encrypts and hashes one 4 KiB section of a 256 KiB state, and
    the store copies that section, the writer's row and the tag into
    storage's newest version; no 256 KiB blob is joined or compared."""
    _, _, (alice, *_) = build_deployment()
    for i in range(64):
        alice.invoke(put(f"object{i:04d}", "v" * 4096))
    return lambda: alice.invoke(put("object0000", "w" * 4096))


def test_micro_put_large_state(benchmark):
    result = benchmark(_large_state_put())
    assert result.sequence > 64


def _batched_invoke_round(host, deployment, clients):
    """One full batch round trip: every client seals its own INVOKE, one
    ecall serves the batch, every client completes its own REPLY.  The
    batch codec is the enclave's; clients seal and open per message."""
    from repro.core.messages import InvokePayload

    key = deployment.communication_key
    operation = serde.encode(["PUT", "shared", "v"])
    messages = [
        (
            client.client_id,
            InvokePayload(
                client_id=client.client_id,
                last_sequence=client.last_sequence,
                last_chain=client.last_chain,
                operation=operation,
            ).seal(key),
        )
        for client in clients
    ]
    replies = host.send_invoke_batch(messages)
    # feed the replies back so contexts stay current between rounds
    for client, reply in zip(clients, replies):
        client._complete(("PUT", "shared", "v"), reply)
    return replies


def test_micro_batched_invoke(benchmark):
    """A 16-message batch through one ecall (the Sec. 5.2 fast path).

    Since PR 3 the rounds are preceded by warmup (cold-start effects —
    interpreter specialization, cache fills — used to contribute a
    constant ~60µs to the 20-round median, drowning real deltas).  When
    comparing against an older revision, run *both* sides under this
    harness interleaved (``git stash push -- src`` keeps the benchmark
    files in place) so the methodology cancels out.
    """
    host, deployment, clients = build_deployment(clients=16)

    def one_batch():
        return _batched_invoke_round(host, deployment, clients)

    replies = benchmark.pedantic(
        one_batch, rounds=20, iterations=1, warmup_rounds=10
    )
    assert len(replies) == 16


@pytest.mark.parametrize("batch_size", [1, 8, 32])
def test_micro_batched_invoke_sizes(benchmark, batch_size):
    """The batched-invoke family across batch sizes (Sec. 5.2/5.3
    amortisation curve): per-op cost should fall as the batch grows.
    Warmup rounds exclude cold caches from the steady-state numbers."""
    host, deployment, clients = build_deployment(clients=batch_size)

    def one_batch():
        return _batched_invoke_round(host, deployment, clients)

    replies = benchmark.pedantic(
        one_batch, rounds=30, iterations=1, warmup_rounds=5
    )
    assert len(replies) == batch_size


def test_micro_shard_scaling(benchmark):
    """A fixed uniform workload over 2 sharded groups vs. the same keys
    funneled through 1 group — the per-round cost of the routed path,
    provisioning excluded (clusters are reused across rounds)."""
    from repro.sharding import ShardRouter, ShardedCluster

    clusters = {
        shards: ShardedCluster(shards=shards, clients=4, seed=shards)
        for shards in (1, 2)
    }
    routers = {shards: ShardRouter(cluster) for shards, cluster in clusters.items()}

    def one_round():
        elapsed = {}
        for shards, cluster in clusters.items():
            router = routers[shards]
            start = cluster.sim.now
            for client_id in cluster.client_ids:
                for i in range(4):
                    # fixed key set: state size (and so per-round cost)
                    # reaches steady state after the first round
                    router.submit(client_id, put(f"k-{i}", "v" * 64))
            cluster.run()
            elapsed[shards] = cluster.sim.now - start
        return elapsed

    elapsed = benchmark.pedantic(one_round, rounds=10, iterations=1)
    # two groups drain the same offered load in less virtual time
    assert elapsed[2] < elapsed[1]


def _handoff_pair(keys=100):
    """Two live single-group deployments in one attestation group, with a
    populated keyspace and the arc list that moves the lower half of the
    ring."""
    from repro.crypto.attestation import EpidGroup
    from repro.crypto.hashing import RING_SPAN
    from repro.tee import TeePlatform

    group = EpidGroup()
    host_a, _, (alice, *_) = build_deployment(
        epid_group=group, platform=TeePlatform(group, seed=71)
    )
    host_b, _, _ = build_deployment(
        epid_group=group, platform=TeePlatform(group, seed=72)
    )
    for i in range(keys):
        alice.invoke(put(f"user{i:012d}", "v" * 64))
    return host_a, host_b, group.verifier(), [[0, RING_SPAN // 2]]


def test_micro_key_handoff_round_trip(benchmark):
    """One elastic-resharding handoff there and back: mutual attestation,
    arc filtering inside both enclaves, sealed bundle transfer, chained
    import/export and a state seal on each side.  Bouncing the same arcs
    A→B→A keeps the states stationary across rounds."""
    from repro.core.migration import migrate_keys

    host_a, host_b, verifier, arcs = _handoff_pair()

    def bounce():
        moved_out = migrate_keys(host_a, host_b, verifier, arcs)
        moved_back = migrate_keys(host_b, host_a, verifier, arcs)
        return moved_out, moved_back

    moved_out, moved_back = benchmark.pedantic(
        bounce, rounds=15, iterations=1, warmup_rounds=2
    )
    assert moved_out == moved_back > 0


def test_micro_cross_shard_txn(benchmark):
    """One two-participant atomic commit through the router's 2PC
    coordinator: two prepares and two decisions — four sequenced LCM
    operations over two groups — per round, clusters reused across
    rounds so the cost is the steady-state transaction path."""
    from repro.sharding import ShardRouter, ShardedCluster

    cluster = ShardedCluster(shards=2, clients=4, seed=41)
    router = ShardRouter(cluster)
    keys, index = [], 0
    while len(keys) < 2:
        key = f"txnkey-{index}"
        index += 1
        if not keys or cluster.ring.owner(key) != cluster.ring.owner(keys[0]):
            keys.append(key)
    for key in keys:
        router.submit(1, put(key, "v" * 64))
    cluster.run()

    def one_txn():
        done = {}
        router.submit_txn(
            1,
            [put(keys[0], "v" * 64), put(keys[1], "v" * 64)],
            lambda result: done.setdefault("r", result),
        )
        cluster.run()
        return done["r"]

    result = benchmark.pedantic(one_txn, rounds=15, iterations=1, warmup_rounds=3)
    assert result.committed
    assert router.transactions_aborted == 0


def _group_commit_cluster(shards, seed=47, clients=4):
    """A persistent cluster with a preloaded key universe and a fixed
    list of cross-shard key pairs for the group-commit rounds."""
    from repro.sharding import ShardRouter, ShardedCluster

    cluster = ShardedCluster(shards=shards, clients=clients, seed=seed)
    router = ShardRouter(cluster)
    keys = [f"gc-{i:04d}" for i in range(48)]
    for key in keys:
        router.submit(1, put(key, "v" * 64))
    cluster.run()
    by_shard = {}
    for key in keys:
        by_shard.setdefault(cluster.ring.owner(key), []).append(key)
    shard_ids = sorted(by_shard)
    pairs = []
    for index in range(16):
        shard_a = shard_ids[index % len(shard_ids)]
        shard_b = shard_ids[(index + 1) % len(shard_ids)]
        pairs.append(
            (
                by_shard[shard_a][index % len(by_shard[shard_a])],
                by_shard[shard_b][index % len(by_shard[shard_b])],
            )
        )
    return cluster, router, pairs


def _group_commit_round(cluster, router, pairs, depth=4):
    """One pipelined transaction burst: every client keeps ``depth``
    cross-shard transactions in flight at once, so the coordinator's
    group commit merges their prepares and decisions into *_MANY sealed
    operations — one ecall per participant per boundary."""
    for client_id in cluster.client_ids:
        for slot in range(depth):
            key_a, key_b = pairs[
                (client_id * depth + slot) % len(pairs)
            ]
            router.submit_txn(
                client_id, [put(key_a, "v" * 64), put(key_b, "v" * 64)]
            )
    cluster.run()


#: virtual-time throughput per shard count, filled by the parametrized
#: group-commit bench so the 4-shard variant can assert scaling over 2
_GC_VIRTUAL_TPS = {}


@pytest.mark.parametrize("shards", [2, 4])
def test_micro_txn_group_commit(benchmark, shards):
    """A pipelined burst of cross-shard transactions per round (4
    clients x 4 in flight, multi-key mix with some key overlap so lock
    waiters engage).  Clusters persist across rounds, so the cost is
    the steady-state grouped transaction path; virtual-time throughput
    must rise with the shard count."""
    cluster, router, pairs = _group_commit_cluster(shards)
    elapsed = {}

    def one_burst():
        start = cluster.sim.now
        before = router.transactions_committed + router.transactions_aborted
        _group_commit_round(cluster, router, pairs)
        elapsed["virtual"] = cluster.sim.now - start
        done = router.transactions_committed + router.transactions_aborted
        return done - before

    finished = benchmark.pedantic(
        one_burst, rounds=10, iterations=1, warmup_rounds=2
    )
    assert finished == len(cluster.client_ids) * 4
    assert router.transactions_committed > 0
    assert getattr(router, "txn_group_flushes", 1) > 0
    _GC_VIRTUAL_TPS[shards] = finished / elapsed["virtual"]
    if shards == 4 and 2 in _GC_VIRTUAL_TPS:
        assert _GC_VIRTUAL_TPS[4] > _GC_VIRTUAL_TPS[2]


def test_micro_elastic_reshard(benchmark):
    """A full control-plane split + merge on a quiet populated cluster:
    group provisioning, quiescence barrier, per-arc handoffs and the two
    ring swaps.  Each round adds one shard and removes it again, so the
    cluster returns to its starting shape."""
    from repro.sharding import ShardRouter, ShardedCluster

    cluster = ShardedCluster(shards=2, clients=4, seed=31)
    router = ShardRouter(cluster)
    for client_id in cluster.client_ids:
        for i in range(25):
            router.submit(client_id, put(f"user{client_id}-{i:04d}", "v" * 64))
    cluster.run()

    def split_and_merge():
        new_id = cluster.add_shard()
        cluster.remove_shard(new_id)
        return new_id

    benchmark.pedantic(split_and_merge, rounds=10, iterations=1, warmup_rounds=1)
    assert cluster.shard_count == 2
    assert cluster.stats.keys_migrated > 0
