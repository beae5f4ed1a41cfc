"""The router's submission table.

Every single-key operation is one record in ``ShardRouter._submissions``
that moves through ``parked`` / ``inflight`` / ``waiting`` and ends
``done`` — its callback fired exactly once — or ``dropped`` with
attribution.  These tests drive each path a record can take through
``tests.conftest.CompletionCounts`` and check that a drained run leaves
the table, and the gauges counted off it, empty.
"""

import pytest

from repro.kvstore import get, put
from repro.net.latency import LatencyModel
from tests.conftest import CompletionCounts
from tests.sharding import test_controlplane as controlplane
from tests.sharding import test_txn as txn


def assert_drained(cluster, router):
    gauges = cluster.metrics()["gauges"]
    assert gauges["router.inflight_operations"] == 0
    assert gauges["router.parked_operations_total"] == 0
    assert gauges["router.txn_waiter_depth"] == 0
    assert not router._submissions


def placements(router):
    """Spy on ``_place``: the state of each record it is handed (``None``
    for a fresh submission)."""
    seen = []
    place = router._place

    def spy(record):
        seen.append(record.state)
        return place(record)

    router._place = spy
    return seen


def parked_gauges(cluster, router):
    """The per-shard parked gauges, checked against the total and against
    ``parked_operations(id)``."""
    gauges = cluster.metrics()["gauges"]
    prefix = "router.parked_operations{shard="
    per_shard = {
        int(key[len(prefix):-1]): value
        for key, value in gauges.items()
        if key.startswith(prefix)
    }
    assert sum(per_shard.values()) == gauges["router.parked_operations_total"]
    for shard_id, value in per_shard.items():
        assert value == router.parked_operations(shard_id), shard_id
    return per_shard


def race_a_read_against_a_commit(seed, jitter_fraction):
    """A GET submitted the moment a transaction's commit goes out reaches
    the locked key first; returns the spied placements."""
    cluster, router = txn.build(
        shards=2, clients=4, seed=seed,
        latency=LatencyModel(
            propagation=100e-6, jitter_fraction=jitter_fraction, seed=seed
        ),
    )
    keys = txn.populate(cluster, router, count=30)
    (k_a, k_b), _ = txn.cross_shard_keys(cluster, keys)
    counts = CompletionCounts()
    reads = []

    def hook(phase, record):
        if phase == "decision-sent" and not reads:
            reads.append(None)
            router.submit(3, get(k_a), counts.once(reads.append))

    router.txn_phase_hook = hook
    seen = placements(router)
    router.submit_txn(
        2,
        [put(k_a, "committed"), put(k_b, "committed")],
        counts.once(lambda result: None),
    )
    cluster.run()
    counts.assert_exactly_once()
    assert [result.result for result in reads[1:]] == ["committed"]
    assert router.operations_lock_retried == 1
    assert_drained(cluster, router)
    return seen


class TestLockWaits:
    def test_wait_queued_on_a_live_holder_completes_once(self):
        seen = race_a_read_against_a_commit(seed=4, jitter_fraction=0.2)
        # the bounced GET waited on the holder and was resubmitted by it
        assert "waiting" in seen

    def test_wait_on_an_already_decided_holder_resubmits_once(self):
        seen = race_a_read_against_a_commit(seed=16, jitter_fraction=0.9)
        # the lock reply landed after the holder finished: the in-flight
        # record was resubmitted straight from its reply
        assert "inflight" in seen and "waiting" not in seen


class TestReplay:
    def test_fanout_across_crash_and_recovery_completes_once(self):
        cluster, router = controlplane.build(
            shards=3, clients=2, seed=13, failover=True
        )
        victim = controlplane.keys_owned_by(cluster, 0, 4)
        others = controlplane.keys_owned_by(cluster, 1, 2, prefix="b")
        counts = CompletionCounts()
        results = []
        # one fan-out in flight when shard 0 dies, one parked against it
        router.submit_many(
            1,
            [put(victim[0], "x"), put(others[0], "x"), get(victim[1])],
            counts.once(results.append),
        )
        cluster.crash_shard(0)
        router.submit_many(
            2,
            [get(others[1]), put(victim[2], "y"), put(victim[3], "y")],
            counts.once(results.append),
        )
        assert router.parked_operations(0) == 2
        cluster.recover_shard(0)
        cluster.run()
        counts.assert_exactly_once()
        assert [len(merged) for merged in results] == [3, 3]
        assert router.operations_parked == 2
        assert router.operations_replayed == 4
        assert_drained(cluster, router)

    def test_dropped_pinned_op_is_terminal_and_never_completes(self):
        cluster, router = controlplane.build(
            shards=3, clients=2, seed=21, failover=True
        )
        controlplane.populate(cluster, router, 30)
        counts = CompletionCounts()
        cluster._fenced.add(2)
        router.submit_to_shard(
            2, 1, get("whatever"), counts.once(lambda result: None)
        )
        (record,) = router._submissions
        cluster._fenced.discard(2)
        cluster.remove_shard(2)
        cluster.run()
        assert counts.fires == {0: 0}
        assert cluster.metrics_registry.counter("router.operations_dropped").value == 1
        assert record.state == "dropped"
        assert_drained(cluster, router)

    def test_parked_gauges_agree_at_every_snapshot(self):
        """A shard whose parked work was replayed away (here: dropped
        because the shard was removed) reads 0, not its last count."""
        cluster, router = controlplane.build(
            shards=3, clients=2, seed=21, failover=True
        )
        controlplane.populate(cluster, router, 30)
        assert set(parked_gauges(cluster, router).values()) == {0}
        cluster._fenced.add(2)
        router.submit_to_shard(2, 1, get("whatever"))
        assert parked_gauges(cluster, router)[2] == 1
        cluster._fenced.discard(2)
        parked_gauges(cluster, router)
        cluster.remove_shard(2)
        assert parked_gauges(cluster, router)[2] == 0
        cluster.run()
        parked_gauges(cluster, router)
        cluster.add_shard()
        assert set(parked_gauges(cluster, router).values()) == {0}


class TestDuplicateReply:
    def test_second_delivery_of_one_dispatch_raises(self):
        cluster, router = controlplane.build(shards=2, clients=2, seed=3)
        key = controlplane.keys_owned_by(cluster, 0, 1)[0]
        machine = cluster.client_machine(0, 1)
        invoke = machine.invoke
        delivered = []

        def recording_invoke(operation, on_complete):
            def reply(result):
                delivered.append((on_complete, result))
                on_complete(result)

            invoke(operation, reply)

        machine.invoke = recording_invoke
        counts = CompletionCounts()
        router.submit(1, put(key, "v"), counts.once(lambda result: None))
        cluster.run()
        (on_reply, result), = delivered
        with pytest.raises(RuntimeError, match="answered twice"):
            on_reply(result)
        counts.assert_exactly_once()
