"""The per-group dispatcher, alone and inside a 1-shard cluster.

There is exactly one dispatch loop and one cluster runtime: a 1-shard
``ShardedCluster`` *is* the single-group Fig. 3 deployment, and must keep
producing the batch stats the deleted single-group harness recorded on
the same trace.
"""

import pytest

from repro.errors import SecurityViolation
from repro.kvstore import get, put
from repro.net.simulation import Simulator
from repro.server.dispatch import GroupDispatcher


class TestGroupDispatcher:
    def _dispatcher(
        self, sim, replies_log, batch_limit=4, service_time=lambda n: 1e-3 * n,
        **kwargs,
    ):
        def send_batch(batch):
            return [message.upper() for _, message in batch]

        def deliver(client_id, reply):
            replies_log.append((client_id, reply))

        return GroupDispatcher(
            sim=sim,
            send_batch=send_batch,
            deliver=deliver,
            service_time=service_time,
            batch_limit=batch_limit,
            **kwargs,
        )

    def test_batches_respect_limit_and_arrival_order(self):
        sim = Simulator()
        log = []
        dispatcher = self._dispatcher(sim, log, batch_limit=2)
        for i in range(5):
            dispatcher.enqueue(i, b"m%d" % i)
        sim.run()
        assert [cid for cid, _ in log] == [0, 1, 2, 3, 4]
        assert log[0] == (0, b"M0")
        assert dispatcher.batches == 3
        assert dispatcher.histogram.as_dict() == {1: 1, 2: 2}
        assert dispatcher.histogram.max_size == 2

    def test_each_batch_pays_its_price(self):
        sim = Simulator()
        log = []
        sizes = []

        def price(n):
            sizes.append(n)
            return 1.0 + 0.5 * n

        dispatcher = self._dispatcher(sim, log, batch_limit=8, service_time=price)
        for i in range(3):
            dispatcher.enqueue(i, b"x")
        sim.run()
        # first batch has size 1 (cut on first enqueue), second size 2
        assert sizes == [1, 2]
        assert sim.now == pytest.approx(1.5 + 2.0)

    def test_limit_at_queue_length_drains_the_queue_in_one_batch(self):
        """The group-commit shape: while one batch is served the rest of
        the clients queue up, and the next cut takes all of them."""
        sim = Simulator()
        log = []
        dispatcher = self._dispatcher(sim, log, batch_limit=5)
        for i in range(5):
            dispatcher.enqueue(i, b"x")
        assert dispatcher.pending == 4
        sim.run()
        assert dispatcher.histogram.as_dict() == {1: 1, 4: 1}
        assert [cid for cid, _ in log] == [0, 1, 2, 3, 4]

    def test_violation_without_hook_propagates_and_halts(self):
        sim = Simulator()

        def send_batch(batch):
            raise SecurityViolation("boom")

        dispatcher = GroupDispatcher(
            sim=sim, send_batch=send_batch, deliver=lambda c, r: None,
            service_time=lambda n: 1e-3 * n, batch_limit=4,
        )
        with pytest.raises(SecurityViolation):
            dispatcher.enqueue(1, b"m")
        assert dispatcher.halted and not dispatcher.healthy
        # pending requests stay queued, nothing further dispatches
        dispatcher.enqueue(2, b"n")
        assert dispatcher.pending == 1
        assert dispatcher.batches == 1

    def test_violation_hook_records_and_halts_quietly(self):
        sim = Simulator()
        seen = []

        def send_batch(batch):
            raise SecurityViolation("boom")

        dispatcher = GroupDispatcher(
            sim=sim, send_batch=send_batch, deliver=lambda c, r: None,
            service_time=lambda n: 1e-3 * n, batch_limit=4,
            on_violation=seen.append,
        )
        dispatcher.enqueue(1, b"m")
        assert len(seen) == 1 and isinstance(seen[0], SecurityViolation)
        assert dispatcher.halted

    def test_on_idle_runs_at_batch_boundaries(self):
        sim = Simulator()
        boundaries = []
        log = []
        dispatcher = self._dispatcher(
            sim, log, batch_limit=2, on_idle=lambda: boundaries.append(sim.now)
        )
        for i in range(4):
            dispatcher.enqueue(i, b"x")
        sim.run()
        assert len(boundaries) == dispatcher.batches

    def test_boundary_gate_withholds_the_idle_hook_mid_transaction(self):
        """A closed gate (prepared-but-undecided transaction in the
        enclave) skips the boundary hook for that delivery; the next
        delivery with the gate open — the decision's own batch — fires
        it.  No poll events are scheduled, so a run ending mid-
        transaction drains instead of spinning."""
        sim = Simulator()
        boundaries = []
        log = []
        gate = {"open": True}
        dispatcher = self._dispatcher(
            sim,
            log,
            batch_limit=1,
            on_idle=lambda: boundaries.append(sim.now),
            boundary_gate=lambda: gate["open"],
        )
        dispatcher.enqueue(1, b"plain")
        sim.run()
        assert len(boundaries) == 1
        gate["open"] = False  # a prepare locked keys; decision pending
        dispatcher.enqueue(1, b"prepare")
        sim.run()  # drains — no gate poll keeps the agenda alive
        assert len(boundaries) == 1
        assert dispatcher.boundaries_deferred == 1
        gate["open"] = True  # the decision's batch re-opens the gate
        dispatcher.enqueue(1, b"commit")
        sim.run()
        assert len(boundaries) == 2
        assert dispatcher.batches == 3


class TestDispatcherParity:
    """A 1-shard ShardedCluster reproduces, on the same trace, the batch
    stats recorded from the single-group ``harness`` runtime at the
    commit that deleted it (it drove the same dispatcher)."""

    TRACE = [
        (client_id, operation)
        for client_id in range(1, 5)
        for operation in (
            put("alpha", "1"), get("alpha"), put("beta", "2"),
            get("missing"), put("alpha", "3"), get("beta"),
        )
    ]

    def test_identical_batch_stats_on_same_trace(self):
        from repro.sharding import ShardRouter, ShardedCluster

        cluster = ShardedCluster(shards=1, clients=4, batch_limit=4, seed=7)
        router = ShardRouter(cluster)
        for client_id, operation in self.TRACE:
            router.submit_to_shard(0, client_id, operation)
        cluster.run()
        stats = cluster.stats
        assert stats.operations_completed == len(self.TRACE)
        assert stats.per_shard_batches[0] == 21
        assert stats.batch_size_histogram(0) == {1: 19, 2: 1, 3: 1}
        assert stats.mean_batch_size(0) == pytest.approx(24 / 21)

    def test_both_runtimes_share_the_dispatcher_implementation(self):
        """One runtime is left and it has no dispatch loop of its own:
        every shard of it drives a GroupDispatcher."""
        from repro.sharding import ShardedCluster

        assert not hasattr(ShardedCluster, "_maybe_dispatch")
        sharded = ShardedCluster(shards=2, clients=2)
        for shard_id in range(sharded.shard_count):
            assert isinstance(
                sharded._shard(shard_id).dispatcher, GroupDispatcher
            )
