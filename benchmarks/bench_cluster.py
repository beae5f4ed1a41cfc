"""Virtual-time cluster benchmarks: emergent batching on the real protocol.

The Sec. 5.3 prototype flushes its bounded queue whenever the enclave is
free; batch sizes are therefore an *emergent* property of load.  These
benchmarks run the actual protocol (real crypto, real context) over the
DES network and record how batches grow with client count — the mechanism
behind the batching curves of Figs. 5-6.
"""

from repro.harness.experiments import ExperimentResult
from repro.harness.report import render_series_table
from repro.kvstore import get, put
from repro.sharding import ShardRouter, ShardedCluster

from benchmarks.conftest import register_table


def _drive(clients: int, ops_per_client: int = 8, batch_limit: int = 16):
    """Run the trace on one LCM group (a 1-shard cluster; the streaming
    verifier is off so the wall-time canary times the protocol stack)."""
    cluster = ShardedCluster(
        shards=1, clients=clients, batch_limit=batch_limit, seed=clients,
        streaming=False,
    )
    router = ShardRouter(cluster)
    for client_id in range(1, clients + 1):
        for round_number in range(ops_per_client):
            if round_number % 2 == 0:
                router.submit(client_id, put(f"k{round_number}", str(client_id)))
            else:
                router.submit(client_id, get(f"k{round_number - 1}"))
    cluster.run()
    return cluster, router


def test_cluster_emergent_batch_size(benchmark):
    counts = [1, 2, 4, 8, 16]

    def sweep():
        return [_drive(n)[0].stats.mean_batch_size(0) for n in counts]

    sizes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    result = ExperimentResult(
        experiment="cluster-batching",
        description="mean emergent batch size vs. client count (real protocol on DES)",
        parameters={"batch_limit": 16, "ops_per_client": 8},
        series={"clients": counts, "mean_batch_size": sizes},
    )
    register_table(render_series_table(result, x_key="clients"))
    assert sizes[0] <= 1.5            # one client cannot form batches
    assert sizes[-1] > sizes[0]       # load grows batches
    assert all(size <= 16 for size in sizes)


def test_cluster_store_amortisation(benchmark):
    """Sealed-state stores per operation fall as batches grow."""

    def run():
        cluster, _ = _drive(12, ops_per_client=6)
        return (
            cluster.shard_host(0).stored_versions()
            / cluster.stats.operations_completed
        )

    stores_per_op = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stores_per_op < 0.9        # strictly better than one store per op


def test_cluster_full_run_wall_time(benchmark):
    """End-to-end wall time of a 64-operation protocol run on the DES —
    a regression canary for the whole stack's constant factors."""
    cluster, router = benchmark.pedantic(
        _drive, args=(8,), kwargs={"ops_per_client": 8}, rounds=3, iterations=1
    )
    assert cluster.stats.operations_completed == 64
    router.check_fork_linearizable()
