"""Pin of the per-operation path's virtual clock.

A closed loop of eight clients on one shard drives every per-operation
layer — router placement, the client machine's queue, the seal, the jittered
channels, the dispatcher's batching and the reply path — with nothing
else in the run.  The pinned numbers are the simulator's event count, its
virtual end time, the batch-size histogram and a digest of every
completion's ``(client, sequence, virtual time)``.  A change that is
meant to be a pure host-time optimisation of that path must leave all of
them alone: any drift in a float expression, in the jitter RNG's draw
order or in the event order changes at least one.
"""

import hashlib
import random

from repro.kvstore import get, put
from repro.net.latency import LatencyModel
from repro.sharding import ShardedCluster, ShardRouter

CLIENTS = 8
#: operations each client keeps queued on its machine: the second one
#: waits behind the first, so the machine's queue path runs too
DEPTH = 2
OPERATIONS_PER_CLIENT = 40


def run_closed_loop():
    cluster = ShardedCluster(
        shards=1,
        clients=CLIENTS,
        batch_limit=16,
        latency=LatencyModel(propagation=20e-6, jitter_fraction=0.2, seed=11),
        seed=5,
    )
    router = ShardRouter(cluster)
    rng = random.Random(7)
    digest = hashlib.sha256()
    sent = dict.fromkeys(range(1, CLIENTS + 1), 0)

    def submit_next(client_id):
        if sent[client_id] == OPERATIONS_PER_CLIENT:
            return
        index = sent[client_id]
        sent[client_id] += 1
        key = f"k{rng.randrange(16)}"
        operation = (
            put(key, f"v{client_id}-{index}") if rng.random() < 0.5 else get(key)
        )

        def complete(result):
            digest.update(
                f"{client_id},{result.sequence},{cluster.sim.now!r};".encode()
            )
            submit_next(client_id)

        router.submit(client_id, operation, complete)

    for client_id in sent:
        for _ in range(DEPTH):
            submit_next(client_id)
    cluster.run()
    assert cluster.stats.operations_completed == CLIENTS * OPERATIONS_PER_CLIENT
    assert router.verdict().ok
    return cluster, digest.hexdigest()


def test_hot_path_virtual_clock_is_pinned():
    cluster, completions = run_closed_loop()
    assert cluster.sim.events_processed == 721
    assert repr(cluster.sim.now) == "0.016045356375248555"
    assert cluster.stats.batch_size_histogram(0) == {1: 5, 2: 36, 6: 37, 7: 3}
    assert completions == (
        "13b2f445e155c126896f984b4fb4cea55fbaea0c3c6e6508410ad129c9e9d123"
    )
