"""The single-group Fig. 3 deployment under virtual time: real protocol +
virtual-time network + batching, as a 1-shard ``ShardedCluster`` driven
through its ``ShardRouter``."""

from repro.kvstore import get, put
from repro.sharding import ShardRouter, ShardedCluster


def _group(clients, **kwargs):
    """One LCM group: a 1-shard cluster and the router submitting to it."""
    cluster = ShardedCluster(shards=1, clients=clients, **kwargs)
    return cluster, ShardRouter(cluster)


class TestBasicOperation:
    def test_all_submitted_operations_complete(self):
        cluster, router = _group(clients=3, seed=1)
        for client_id in (1, 2, 3):
            for round_number in range(5):
                router.submit(client_id, put(f"k{client_id}", str(round_number)))
        cluster.run()
        assert cluster.stats.operations_completed == 15

    def test_results_reflect_global_order(self):
        cluster, router = _group(clients=2, seed=2)
        router.submit(1, put("shared", "from-1"))
        router.submit(2, put("shared", "from-2"))
        router.submit(1, get("shared"))
        cluster.run()
        final = [
            record
            for record in cluster.shard_history(0).records()
            if record.operation == ("GET", "shared")
        ]
        assert final[0].result in ("from-1", "from-2")

    def test_sequence_numbers_dense(self):
        cluster, router = _group(clients=3, seed=3)
        for client_id in (1, 2, 3):
            for _ in range(4):
                router.submit(client_id, get("x"))
        cluster.run()
        sequences = sorted(
            record.sequence for record in cluster.shard_history(0).records()
        )
        assert sequences == list(range(1, 13))


class TestBatching:
    def test_batches_form_under_load(self):
        cluster, router = _group(clients=8, batch_limit=16, seed=4)
        for client_id in range(1, 9):
            for _ in range(6):
                router.submit(client_id, put("k", "v"))
        cluster.run()
        assert cluster.stats.operations_completed == 48
        assert cluster.stats.mean_batch_size(0) > 1.0

    def test_batch_limit_respected(self):
        cluster, router = _group(clients=8, batch_limit=4, seed=5)
        for client_id in range(1, 9):
            for _ in range(4):
                router.submit(client_id, get("x"))
        cluster.run()
        assert max(cluster.stats.batch_size_histogram(0)) <= 4

    def test_state_stores_amortised_by_batching(self):
        def stored_versions(batch_limit):
            cluster, router = _group(clients=6, batch_limit=batch_limit, seed=6)
            for client_id in range(1, 7):
                for _ in range(5):
                    router.submit(client_id, put("k", "v"))
            cluster.run()
            return cluster.shard_host(0).stored_versions()

        assert stored_versions(16) < stored_versions(1)


class TestConsistency:
    def test_execution_is_fork_linearizable(self):
        cluster, router = _group(clients=4, seed=7)
        for client_id in range(1, 5):
            for round_number in range(4):
                if round_number % 2 == 0:
                    router.submit(client_id, put(f"key-{round_number}", str(client_id)))
                else:
                    router.submit(client_id, get(f"key-{round_number - 1}"))
        cluster.run()
        verdict = router.check_fork_linearizable()
        assert verdict.shards[0].fork_points == []

    def test_audit_chain_valid_after_concurrent_run(self):
        from repro.core.hashchain import verify_audit_chain

        cluster, router = _group(clients=5, seed=8)
        for client_id in range(1, 6):
            for _ in range(5):
                router.submit(client_id, put(f"k{client_id}", "v"))
        cluster.run()
        (log,) = cluster.audit_logs(0)
        verify_audit_chain(log)

    def test_stability_advances_under_continuous_load(self):
        cluster, router = _group(clients=3, seed=9)
        for round_number in range(6):
            for client_id in (1, 2, 3):
                router.submit(client_id, put("k", f"{round_number}"))
        cluster.run()
        # with everyone operating, the stable sequence advances well into
        # the history at every client
        for client in cluster.shard_clients(0).values():
            assert client.stable_sequence > 0

    def test_deterministic_given_seed(self):
        def run_once():
            cluster, router = _group(clients=3, seed=10)
            for client_id in (1, 2, 3):
                for i in range(4):
                    router.submit(client_id, put(f"k{i}", str(client_id)))
            cluster.run()
            return [
                (r.client_id, r.sequence)
                for r in cluster.shard_history(0).records()
            ]

        assert run_once() == run_once()
