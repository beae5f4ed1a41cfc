"""Sharded group runtime: routing, fan-out, rebalancing, fork detection.

The ISSUE-level correctness properties live here: fork-linearizability
evidence survives a mid-workload rebalance, a forked shard is detected by
the router even when every other shard is honest, and the sharded path
speaks exactly the seed's wire format (golden vectors reused from
``tests/core/test_message_wire_golden.py``).
"""

import importlib.util
import pathlib

import pytest

from repro.errors import (
    ConfigurationError,
    RollbackDetected,
    SecurityViolation,
)
from repro.kvstore import get, put
from repro.sharding import ShardRouter, ShardedCluster, routing_key


def build(shards=3, clients=3, seed=1, **kwargs):
    cluster = ShardedCluster(shards=shards, clients=clients, seed=seed, **kwargs)
    return cluster, ShardRouter(cluster)


def keys_owned_by(cluster, shard_id, count, prefix="key"):
    keys = []
    index = 0
    while len(keys) < count:
        key = f"{prefix}-{index}"
        if cluster.ring.owner(key) == shard_id:
            keys.append(key)
        index += 1
    return keys


class TestRouting:
    def test_all_operations_complete_and_land_on_owners(self):
        cluster, router = build()
        expected = {shard: 0 for shard in range(3)}
        for client_id in cluster.client_ids:
            for i in range(6):
                operation = put(f"k-{client_id}-{i}", "v")
                expected[cluster.ring.owner(routing_key(operation))] += 1
                router.submit(client_id, operation)
        cluster.run()
        assert cluster.stats.operations_completed == 18
        assert cluster.stats.per_shard_operations == expected

    def test_read_your_writes_across_the_ring(self):
        cluster, router = build(seed=2)
        seen = {}
        for i in range(10):
            router.submit(1, put(f"key-{i}", str(i)))
        cluster.run()
        for i in range(10):
            router.submit(
                1, get(f"key-{i}"), lambda r, i=i: seen.__setitem__(i, r.result)
            )
        cluster.run()
        assert seen == {i: str(i) for i in range(10)}

    def test_sequences_dense_per_shard(self):
        cluster, router = build(seed=3)
        for client_id in cluster.client_ids:
            for i in range(4):
                router.submit(client_id, put(f"x-{client_id}-{i}", "v"))
        cluster.run()
        for shard_id in range(cluster.shard_count):
            sequences = sorted(
                record.sequence
                for record in cluster.shard_history(shard_id).records()
            )
            assert sequences == list(range(1, len(sequences) + 1))

    def test_per_shard_batch_stats(self):
        cluster, router = build(shards=2, clients=4, seed=17)
        for client_id in cluster.client_ids:
            for i in range(5):
                router.submit(client_id, put(f"s-{client_id}-{i}", "v"))
        cluster.run()
        for shard_id in range(cluster.shard_count):
            mean = cluster.stats.mean_batch_size(shard_id)
            assert mean >= 1.0
            assert mean <= cluster.stats.per_shard_operations[shard_id]
        assert cluster.stats.mean_batch_size(99) == 0.0  # unknown shard

    def test_keyless_operation_needs_explicit_shard(self):
        cluster, router = build()
        with pytest.raises(ConfigurationError):
            router.submit(1, ("__LCM_NOP__",))
        router.submit_to_shard(0, 1, get("whatever"))
        cluster.run()
        assert cluster.stats.per_shard_operations[0] == 1


class TestFanout:
    def test_results_merge_in_submission_order(self):
        cluster, router = build(seed=4)
        for i in range(8):
            router.submit(1, put(f"fan-{i}", str(i)))
        cluster.run()
        collected = {}
        router.submit_many(
            1,
            [get(f"fan-{i}") for i in range(8)],
            lambda results: collected.setdefault(
                "values", [r.result for r in results]
            ),
        )
        cluster.run()
        assert collected["values"] == [str(i) for i in range(8)]

    def test_fanout_spans_multiple_shards(self):
        cluster, router = build(shards=4, seed=5)
        fanout = router.submit_many(
            2, [put(f"spread-{i}", "v") for i in range(16)]
        )
        cluster.run()
        assert sum(fanout.values()) == 16
        assert len(fanout) > 1  # 16 uniform keys virtually never co-locate

    def test_empty_fanout_completes_immediately(self):
        cluster, router = build()
        collected = []
        assert router.submit_many(1, [], collected.append) == {}
        assert collected == [[]]
        assert router.scan(2, [], collected.append) == {}
        assert collected == [[], []]

    def test_scan_is_cross_shard_multi_get(self):
        cluster, router = build(shards=4, seed=6)
        keys = [f"scan-{i}" for i in range(6)]
        for key in keys:
            router.submit(3, put(key, key.upper()))
        cluster.run()
        collected = {}
        router.scan(3, keys, lambda rs: collected.setdefault(
            "values", [r.result for r in rs]))
        cluster.run()
        assert collected["values"] == [k.upper() for k in keys]


class TestRebalance:
    def test_evidence_survives_mid_workload_rebalance(self):
        """ISSUE criterion: a rebalance during the run completes with zero
        consistency-check violations."""
        cluster, router = build(shards=3, clients=4, seed=7)
        for client_id in cluster.client_ids:
            for i in range(6):
                router.submit(client_id, put(f"a-{client_id}-{i}", "v1"))
        cluster.schedule_rebalance(1.5e-3, shard_id=0)
        cluster.run()
        assert cluster.stats.rebalances == 1
        for client_id in cluster.client_ids:
            for i in range(3):
                router.submit(client_id, get(f"a-{client_id}-{i}"))
        cluster.run()
        verdict = router.check_fork_linearizable()
        assert verdict.ok
        # the merged evidence spans both sides of the migration: the
        # rebalanced shard's single audit log covers pre- and post-move ops
        logs = cluster.audit_logs(0)
        assert len(logs) == 1
        assert len(logs[0]) == len(cluster.shard_history(0).records())

    def test_rebalance_defers_until_batch_boundary(self):
        cluster, router = build(shards=2, clients=4, seed=8)
        for client_id in cluster.client_ids:
            for i in range(8):
                router.submit(client_id, put(f"b-{i}", "v"))
        # ask while traffic is in flight at many points in virtual time;
        # each request runs (possibly deferred) without dropping a batch
        cluster.schedule_rebalance(4e-4, shard_id=0)
        cluster.run()
        assert cluster.stats.rebalances == 1
        assert cluster.stats.operations_completed == 32
        assert router.check_fork_linearizable().ok

    def test_rollback_detection_survives_rebalance(self):
        """The migrated context still halts on a rolled-back sealed blob."""
        cluster, router = build(shards=2, clients=2, seed=9)
        shard_keys = keys_owned_by(cluster, 0, 3)
        for index, key in enumerate(shard_keys):
            router.submit(1, put(key, str(index)))
        cluster.run()
        assert cluster.rebalance(0) is True
        router.submit(1, put(shard_keys[0], "post-move"))
        cluster.run()
        target = cluster.shard_host(0)
        target.storage.rollback_to(0)
        target.reboot()
        router.submit(1, get(shard_keys[0]))
        cluster.run()
        assert isinstance(cluster.shard_violation(0), RollbackDetected)
        with pytest.raises(RollbackDetected, match="shard 0"):
            router.check_fork_linearizable()

    def test_scheduled_rebalance_abandoned_when_shard_halts(self):
        """A mid-workload rebalance whose shard halts before the request
        fires is quietly dropped — it must not crash the simulator loop
        the other shards share."""
        cluster, router = build(shards=2, clients=2, seed=20)
        shard_keys = keys_owned_by(cluster, 0, 2)
        router.submit(1, put(shard_keys[0], "v"))
        cluster.run()
        host = cluster.shard_host(0)
        host.storage.rollback_to(0)
        host.reboot()
        router.submit(1, get(shard_keys[0]))  # detection halts shard 0
        cluster.schedule_rebalance(1.0, shard_id=0)  # fires after the halt
        cluster.run()
        assert isinstance(cluster.shard_violation(0), RollbackDetected)
        assert cluster.stats.rebalances == 0

    def test_scheduled_rebalance_abandoned_when_shard_forked(self):
        cluster, router = build(shards=2, clients=2, seed=21, malicious_shards=(0,))
        router.submit(1, put(keys_owned_by(cluster, 0, 1)[0], "v"))
        cluster.run()
        cluster.fork_shard(0)
        cluster.schedule_rebalance(1e-4, shard_id=0)
        cluster.run()  # must not raise out of the sim callback
        assert cluster.stats.rebalances == 0

    def test_clients_keep_contexts_across_rebalance(self):
        cluster, router = build(shards=2, clients=2, seed=10)
        shard_keys = keys_owned_by(cluster, 1, 2)
        router.submit(2, put(shard_keys[0], "before"))
        cluster.run()
        before = cluster.shard_clients(1)[2].last_sequence
        cluster.rebalance(1)
        results = []
        router.submit(2, get(shard_keys[0]), results.append)
        cluster.run()
        assert results[0].result == "before"
        assert results[0].sequence == before + 1  # same group, same chain


class TestForkDetection:
    def _forked_cluster(self, seed):
        cluster, router = build(
            shards=3, clients=3, seed=seed, malicious_shards=(1,)
        )
        victim_keys = keys_owned_by(cluster, 1, 3)
        for client_id in cluster.client_ids:
            router.submit(client_id, put(victim_keys[0], f"base-{client_id}"))
        cluster.run()
        fork = cluster.fork_shard(1)
        cluster.route_client(1, 3, fork)
        router.submit(1, put(victim_keys[1], "main-side"))
        router.submit(3, put(victim_keys[2], "fork-side"))
        cluster.run()
        return cluster, router, victim_keys

    def test_maintained_fork_shows_in_merged_verdict(self):
        cluster, router, _ = self._forked_cluster(seed=11)
        verdict = router.verdict()
        assert verdict.forked_shards == [1]
        assert all(
            verdict.shards[shard].ok and not verdict.shards[shard].fork_points
            for shard in (0, 2)
        )

    def test_fork_from_intermediate_version_yields_clean_evidence(self):
        """Forking from an older sealed version must truncate the fork's
        reconstructed log to what that state had executed — not splice in
        primary records the forked instance never ran."""
        cluster, router = build(
            shards=2, clients=3, seed=18, malicious_shards=(0,)
        )
        victim_keys = keys_owned_by(cluster, 0, 3)
        for client_id in cluster.client_ids:  # one batch (= version) per op
            router.submit(client_id, put(victim_keys[0], f"w-{client_id}"))
            cluster.run()
        router.submit(1, put(victim_keys[1], "late"))
        cluster.run()
        # seed the fork from the state just *before* client 1's late write:
        # client 3's chain still verifies there, so its next op runs clean
        versions = cluster.shard_host(0).storage.version_count()
        fork = cluster.fork_shard(0, from_version=versions - 2)
        cluster.route_client(0, 3, fork)
        router.submit(3, put(victim_keys[2], "fork-side"))
        cluster.run()
        verdict = router.verdict()
        assert verdict.shards[0].ok  # no spurious audit-gap violation
        assert verdict.forked_shards == [0]

    def test_join_attempt_detected_and_attributed(self):
        """ISSUE criterion: a forked shard is detected by the router even
        when all other shards are honest."""
        cluster, router, victim_keys = self._forked_cluster(seed=12)
        cluster.route_client(1, 3, 0)  # server joins the forks back
        router.submit(3, get(victim_keys[0]))
        cluster.run()
        assert isinstance(cluster.shard_violation(1), SecurityViolation)
        with pytest.raises(SecurityViolation, match="shard 1"):
            router.check_fork_linearizable()
        # honest shards keep verifying despite the compromised neighbour
        verdict = router.verdict()
        assert verdict.shards[0].ok and verdict.shards[2].ok
        assert not verdict.shards[1].ok

    def test_honest_shards_unaffected_by_neighbour_halt(self):
        cluster, router, victim_keys = self._forked_cluster(seed=13)
        cluster.route_client(1, 3, 0)
        router.submit(3, get(victim_keys[0]))
        cluster.run()
        results = []
        other = keys_owned_by(cluster, 0, 1)[0]
        router.submit(2, put(other, "still-serving"), results.append)
        cluster.run()
        assert results and results[0].result is None

    def test_fork_helpers_refused_on_honest_shards(self):
        cluster, _ = build(seed=14)
        with pytest.raises(ConfigurationError):
            cluster.fork_shard(0)
        with pytest.raises(ConfigurationError):
            cluster.route_client(2, 1, 0)

    def test_rebalance_refused_while_forks_are_live(self):
        """Migrating a forked shard would orphan the forked instances'
        audit evidence, so the runtime refuses instead."""
        cluster, router, _ = self._forked_cluster(seed=15)
        with pytest.raises(ConfigurationError, match="forked instance"):
            cluster.rebalance(1)
        # the merged verdict still sees the fork evidence afterwards
        assert router.verdict().forked_shards == [1]

    def test_platform_seeds_unique_across_shards_and_generations(self):
        """Equal platform seeds would mean equal sealing keys on two live
        shards; the derivation must be collision-free across every
        (shard, generation) pair, including post-rebalance hardware."""
        cluster, _ = build(shards=2, clients=1, seed=23)
        seeds = {
            cluster._platform_seed(shard_id, generation)
            for shard_id in range(150)
            for generation in range(4)
        }
        assert len(seeds) == 150 * 4

    def test_one_seed_stores_the_same_bytes(self):
        """The admin's keys come from the cluster seed like the platform
        secret does, so every stored version — and how many of its blocks
        storage retains — repeats exactly for one seed, and only for it."""

        def stored(seed):
            cluster, router = build(shards=2, clients=2, seed=seed)
            for index in range(12):
                router.submit(1 + index % 2, put(f"key-{index % 5}", str(index)))
            cluster.run()
            return [
                [storage.load_version(i) for i in range(storage.version_count())]
                for storage in (cluster.shard_host(s).storage for s in range(2))
            ]

        first = stored(24)
        assert stored(24) == first
        assert stored(25) != first

    def test_stopped_enclave_reported_not_raised(self):
        """A shard whose enclave was stopped out-of-band (no recorded live
        violation) must surface in the verdict, not crash the sweep."""
        cluster, router = build(shards=2, clients=2, seed=22)
        router.submit(1, put(keys_owned_by(cluster, 0, 1)[0], "v"))
        router.submit(1, put(keys_owned_by(cluster, 1, 1)[0], "v"))
        cluster.run()
        cluster.shard_host(0).enclave.stop()
        verdict = router.verdict()
        assert not verdict.shards[0].ok
        assert verdict.shards[1].ok
        assert 0 in verdict.violations

    def test_router_requires_audit_mode(self):
        cluster = ShardedCluster(shards=2, clients=1, seed=16, audit=False)
        with pytest.raises(ConfigurationError, match="audit mode"):
            ShardRouter(cluster)


class TestGoldenWire:
    """The sharded path speaks byte-for-byte the seed's wire format."""

    @staticmethod
    def _golden_module():
        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "core"
            / "test_message_wire_golden.py"
        )
        spec = importlib.util.spec_from_file_location("golden_wire_vectors", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_golden_vectors_still_decode(self):
        from repro.core.messages import InvokePayload, ReplyPayload

        golden = self._golden_module()
        assert (
            InvokePayload.decode(golden.INVOKE_GOLDEN).encode()
            == golden.INVOKE_GOLDEN
        )
        assert (
            ReplyPayload.decode(golden.REPLY_GOLDEN).encode()
            == golden.REPLY_GOLDEN
        )

    def test_router_path_emits_canonical_bytes(self):
        from repro import serde
        from repro.core.messages import InvokePayload
        from repro.crypto.aead import auth_decrypt

        cluster, router = build(shards=2, clients=1, seed=15)
        shard_id = cluster.ring.owner("probe-key")
        client = cluster.shard_clients(shard_id)[1]
        captured = []
        original_send = client._send
        client._send = lambda message: (captured.append(message), original_send(message))[1]
        router.submit(1, put("probe-key", "probe-value"))
        cluster.run()
        key = cluster.shard_deployment(shard_id).communication_key
        plain = auth_decrypt(captured[0], key, associated_data=b"lcm/invoke")
        payload = InvokePayload.decode(plain)
        # same canonical field-list encoding the golden vectors pin down
        assert payload.encode() == plain
        assert plain == serde.encode(
            [
                "INVOKE",
                payload.last_sequence,
                payload.last_chain,
                payload.operation,
                payload.client_id,
                payload.retry,
            ]
        )


class TestRouterFailFast:
    """A halted shard must fail fast at the router instead of queueing
    requests forever behind its stopped dispatcher."""

    def _halted_cluster(self):
        cluster, router = build(
            shards=3, clients=3, seed=11, malicious_shards=(1,)
        )
        victim_keys = keys_owned_by(cluster, 1, 3)
        for client_id in cluster.client_ids:
            router.submit(client_id, put(victim_keys[0], f"base-{client_id}"))
        cluster.run()
        fork = cluster.fork_shard(1)
        cluster.route_client(1, 3, fork)
        router.submit(1, put(victim_keys[1], "main-side"))
        router.submit(3, put(victim_keys[2], "fork-side"))
        cluster.run()
        cluster.route_client(1, 3, 0)  # join the forks: client 3 detects
        router.submit(3, get(victim_keys[0]))
        cluster.run()
        assert not cluster.shard_healthy(1)
        return cluster, router, victim_keys

    def test_submit_to_halted_shard_raises_dedicated_error(self):
        from repro.errors import ShardUnavailable

        cluster, router, victim_keys = self._halted_cluster()
        submitted_before = router.operations_submitted
        with pytest.raises(ShardUnavailable, match="shard 1"):
            router.submit(2, put(victim_keys[1], "stuck"))
        # nothing was queued: the count did not move and the pending
        # queue of the halted shard stayed empty
        assert router.operations_submitted == submitted_before
        assert cluster.shard(1).dispatcher.pending == 0

    def test_healthy_shards_still_serve(self):
        cluster, router, _ = self._halted_cluster()
        healthy = next(
            shard_id
            for shard_id in range(cluster.shard_count)
            if cluster.shard_healthy(shard_id)
        )
        keys = keys_owned_by(cluster, healthy, 1, prefix="ok")
        results = []
        router.submit_to_shard(
            healthy, 2, put(keys[0], "alive"), results.append
        )
        cluster.run()
        assert len(results) == 1

    def test_healthy_flag_tracks_violations(self):
        cluster, router = build(shards=2, clients=2, seed=3)
        assert all(
            cluster.shard_healthy(shard_id)
            for shard_id in range(cluster.shard_count)
        )
