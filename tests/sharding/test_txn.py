"""Cross-shard atomic commit: coordinator/participant lifecycle.

The ISSUE-level properties: multi-key requests commit atomically across
shards (all-or-nothing under conflicts and crashes), every lifecycle
step is an ordinary sequenced hash-chained operation (so the existing
checkers cover it), decisions replay idempotently through failover, and
a forked shard that withholds a decision from part of its clientele is
flagged by the merged verdict even though every per-shard history is
individually fork-linearizable.
"""

import pytest

from repro.errors import ShardUnavailable, TxnAtomicityViolation
from repro.kvstore import get, put, txn_commit, txn_prepare
from repro.kvstore.functionality import (
    TXN_ALREADY,
    TXN_COMMITTED,
    TXN_LOCKED,
    TXN_PREPARED,
)
from repro.sharding import ShardRouter, ShardedCluster
from tests.conftest import CompletionCounts


def build(shards=3, clients=4, seed=5, **kwargs):
    router_kwargs = {
        key: kwargs.pop(key)
        for key in ("failover", "group_commit", "txn_store")
        if key in kwargs
    }
    cluster = ShardedCluster(shards=shards, clients=clients, seed=seed, **kwargs)
    return cluster, ShardRouter(cluster, **router_kwargs)


def populate(cluster, router, count=24, prefix="user"):
    keys = [f"{prefix}{i:012d}" for i in range(count)]
    for key in keys:
        router.submit(1, put(key, "base"))
    cluster.run()
    return keys


def keys_by_shard(cluster, keys):
    grouped = {}
    for key in keys:
        grouped.setdefault(cluster.ring.owner(key), []).append(key)
    return grouped


def cross_shard_keys(cluster, keys, count=2):
    """One key from each of ``count`` distinct shards."""
    grouped = keys_by_shard(cluster, keys)
    assert len(grouped) >= count, grouped
    shard_ids = sorted(grouped)[:count]
    return [grouped[shard_id][0] for shard_id in shard_ids], shard_ids


class TestCommit:
    def test_multi_shard_commit_applies_everywhere_in_order(self):
        cluster, router = build()
        keys = populate(cluster, router)
        (k_a, k_b), shard_ids = cross_shard_keys(cluster, keys)
        done = {}
        router.submit_txn(
            2,
            [get(k_a), put(k_b, "NEW"), put(k_a, "ALSO")],
            lambda r: done.setdefault("result", r),
        )
        cluster.run()
        result = done["result"]
        assert result.committed
        # per-operation results in submission order: the read, then the
        # previous values the writes observed under the locks
        assert result.results == ["base", "base", "base"]
        # the live record is pruned once the decision completed; the
        # compact decision entry is the durable trace
        decision = router.coordinator_decision(result.txn_id)
        assert decision is not None and decision.complete
        assert sorted(decision.participants) == shard_ids
        read = {}
        router.submit(3, get(k_a), lambda r: read.setdefault("a", r.result))
        router.submit(3, get(k_b), lambda r: read.setdefault("b", r.result))
        cluster.run()
        assert read == {"a": "ALSO", "b": "NEW"}
        assert router.verdict().ok

    def test_lifecycle_is_ordinary_chained_operations(self):
        """Every prepare and decision appears in the participants' audit
        logs as a sequenced operation attributed to the submitting
        client — nothing rides outside the hash chain."""
        cluster, router = build()
        keys = populate(cluster, router)
        (k_a, k_b), shard_ids = cross_shard_keys(cluster, keys)
        router.submit_txn(2, [put(k_a, "x"), put(k_b, "y")])
        cluster.run()
        from repro import serde
        from repro.kvstore.functionality import parse_txn_operation

        for shard_id in shard_ids:
            (log,) = cluster.audit_logs(shard_id)
            txn_records = [
                (parse_txn_operation(serde.decode(r.operation)), r.client_id)
                for r in log
                if parse_txn_operation(serde.decode(r.operation)) is not None
            ]
            kinds = [parsed[0] for parsed, _ in txn_records]
            assert kinds == ["prepare", "commit"]
            assert all(client_id == 2 for _, client_id in txn_records)

    def test_locked_single_key_ops_retry_transparently(self):
        cluster, router = build()
        keys = populate(cluster, router)
        (k_a, k_b), _ = cross_shard_keys(cluster, keys)
        done = {}
        router.submit_txn(2, [put(k_a, "T"), put(k_b, "T")])
        router.submit(3, get(k_a), lambda r: done.setdefault("read", r.result))
        cluster.run()
        assert done["read"] in ("base", "T")  # never the lock marker
        assert router.operations_lock_retried >= 0
        assert router.verdict().ok

    def test_locked_marker_surfaces_when_retry_disabled(self):
        """Only key-routed submissions wait out a lock; an explicit-shard
        submission is never retried, so its caller sees the marker."""
        cluster, router = build()
        keys = populate(cluster, router)
        (k_a, k_b), _ = cross_shard_keys(cluster, keys)
        seen = []
        router.submit_txn(2, [put(k_a, "T"), put(k_b, "T")])
        router.submit_to_shard(
            cluster.ring.owner(k_a), 3, get(k_a), lambda r: seen.append(r.result)
        )
        cluster.run()
        assert len(seen) == 1
        if isinstance(seen[0], list):  # the read raced into the lock window
            assert seen[0][0] == TXN_LOCKED
        assert router.verdict().ok


class TestAbortOnConflict:
    def test_loser_aborts_cleanly_and_winner_commits(self):
        cluster, router = build()
        keys = populate(cluster, router)
        grouped = keys_by_shard(cluster, keys)
        shard_ids = sorted(grouped)
        shared = grouped[shard_ids[0]][0]
        other_a = grouped[shard_ids[1]][0]
        other_b = grouped[shard_ids[1]][1]
        results = {}
        router.submit_txn(
            2, [put(shared, "A"), put(other_a, "A")],
            lambda r: results.setdefault("t1", r),
        )
        router.submit_txn(
            3, [put(shared, "B"), put(other_b, "B")],
            lambda r: results.setdefault("t2", r),
        )
        cluster.run()
        outcomes = {name: r.committed for name, r in results.items()}
        assert sorted(outcomes.values()) == [False, True]
        loser = next(r for r in results.values() if not r.committed)
        winner = next(r for r in results.values() if r.committed)
        assert loser.results is None
        assert loser.conflict_with == winner.txn_id
        # the loser's buffered write never leaked anywhere
        read = {}
        router.submit(1, get(shared), lambda r: read.setdefault("v", r.result))
        cluster.run()
        assert read["v"] == ("A" if winner.txn_id.startswith("txn-2") else "B")
        assert router.transactions_aborted == 1
        assert router.verdict().ok

    def test_conflicted_participant_needs_no_abort(self):
        """A participant that voted CONFLICT locked nothing; the abort
        goes only to participants that voted PREPARED, and the checker
        accepts the conflicted prepare without a decision."""
        cluster, router = build()
        keys = populate(cluster, router)
        grouped = keys_by_shard(cluster, keys)
        shard_ids = sorted(grouped)
        shared = grouped[shard_ids[0]][0]
        results = {}
        router.submit_txn(
            2, [put(shared, "A"), put(grouped[shard_ids[1]][0], "A")],
            lambda r: results.setdefault("t1", r),
        )
        router.submit_txn(
            3, [put(shared, "B"), put(grouped[shard_ids[1]][1], "B")],
            lambda r: results.setdefault("t2", r),
        )
        cluster.run()
        assert router.verdict().ok


class TestCrashWindows:
    def _crash_on_phase(self, cluster, router, phase_name, pick=min):
        state = {}

        def hook(phase, record):
            if phase == phase_name and not state:
                victim = pick(record.participants)
                state["victim"] = victim
                cluster.crash_shard(victim)
                cluster.recover_shard(
                    victim, at=20 * ShardedCluster.SERVICE_INTERVAL
                )

        router.txn_phase_hook = hook
        return state

    def test_crash_at_prepare_recovers_without_losing_the_txn(self):
        """ISSUE criterion: a participant crashing between prepare and
        decision — the vote is lost in flight, the failover router
        replays the prepare onto the recovered generation, and the
        transaction decides exactly once with zero violations."""
        cluster, router = build(failover=True)
        keys = populate(cluster, router)
        (k_a, k_b), _ = cross_shard_keys(cluster, keys)
        state = self._crash_on_phase(cluster, router, "prepare-sent")
        done = {}
        router.submit_txn(
            2, [put(k_a, "T"), put(k_b, "T")], lambda r: done.setdefault("r", r)
        )
        cluster.run()
        assert state, "fault was never injected"
        assert done["r"].committed
        assert cluster.stats.recoveries == 1
        verdict = router.verdict()
        assert verdict.ok, (verdict.violations, verdict.txn_violations)
        # the surviving participant applied the write exactly once
        survivor_key = k_b if cluster.ring.owner(k_a) == state["victim"] else k_a
        read = {}
        router.submit(3, get(survivor_key), lambda r: read.setdefault("v", r.result))
        cluster.run()
        assert read["v"] == "T"

    def test_crash_after_decision_replays_idempotently(self):
        """ISSUE criterion: the decision lost in flight to a crash is
        replayed after recovery (failover=True); on the fresh generation
        it must be a no-op — never a double-apply — and the verdict,
        spanning both generations, stays clean."""
        cluster, router = build(seed=7, failover=True)
        keys = populate(cluster, router)
        (k_a, k_b), _ = cross_shard_keys(cluster, keys)
        state = self._crash_on_phase(cluster, router, "decision-sent")
        done = {}
        router.submit_txn(
            2, [put(k_a, "T"), put(k_b, "T")], lambda r: done.setdefault("r", r)
        )
        cluster.run()
        assert state, "fault was never injected"
        assert done["r"].committed
        verdict = router.verdict()
        assert verdict.ok, (verdict.violations, verdict.txn_violations)
        # the replayed decision answered TXN_UNKNOWN on the fresh
        # generation: visible in its audit log as a no-op commit
        from repro import serde
        from repro.kvstore.functionality import TXN_UNKNOWN, parse_txn_operation

        logs = cluster.audit_logs(state["victim"])
        replayed = [
            serde.decode(record.result)
            for log in logs
            for record in log
            if (parsed := parse_txn_operation(serde.decode(record.operation)))
            and parsed[0] == "commit"
        ]
        assert [TXN_UNKNOWN] in replayed

    def test_direct_decision_replay_answers_already(self):
        """Same-generation idempotence: a duplicate COMMIT submitted
        after the first one answers TXN_ALREADY without reapplying."""
        cluster, router = build()
        keys = populate(cluster, router)
        grouped = keys_by_shard(cluster, keys)
        shard_id = sorted(grouped)[0]
        key = grouped[shard_id][0]
        votes = []
        router.submit_to_shard(
            shard_id, 2, txn_prepare("manual-1", [["PUT", key, "once"]]),
            lambda r: votes.append(r.result),
        )
        router.submit_to_shard(
            shard_id, 2, txn_commit("manual-1"), lambda r: votes.append(r.result)
        )
        router.submit_to_shard(
            shard_id, 2, txn_commit("manual-1"), lambda r: votes.append(r.result)
        )
        cluster.run()
        assert votes[0][0] == TXN_PREPARED
        assert votes[1] == [TXN_COMMITTED]
        assert votes[2] == [TXN_ALREADY, "C"]
        read = {}
        router.submit(1, get(key), lambda r: read.setdefault("v", r.result))
        cluster.run()
        assert read["v"] == "once"

    def test_txn_to_down_shard_fails_fast_without_failover(self):
        cluster, router = build()
        keys = populate(cluster, router)
        (k_a, k_b), shard_ids = cross_shard_keys(cluster, keys)
        cluster.crash_shard(shard_ids[0])
        with pytest.raises(ShardUnavailable, match="failover=True"):
            router.submit_txn(2, [put(k_a, "T"), put(k_b, "T")])

    def test_txn_parked_whole_while_participant_down(self):
        """With failover, a transaction whose participant is down at
        begin time parks whole (no half-prepared residue) and re-begins
        after the recovery."""
        cluster, router = build(failover=True)
        keys = populate(cluster, router)
        (k_a, k_b), shard_ids = cross_shard_keys(cluster, keys)
        cluster.crash_shard(shard_ids[0])
        done = {}
        router.submit_txn(
            2, [put(k_a, "T"), put(k_b, "T")], lambda r: done.setdefault("r", r)
        )
        parked = cluster.metrics_registry.counter("router.transactions_parked")
        assert parked.value == 1
        # no prepare reached the healthy participant either
        assert cluster.shard_txn_pending(shard_ids[1]) == 0
        cluster.recover_shard(shard_ids[0])
        cluster.run()
        assert done["r"].committed
        assert router.verdict().ok


class TestFencingInterplay:
    def test_decision_bypasses_the_fence(self):
        """A reshard fencing a prepared participant must still let the
        decision through — the barrier's drain is waiting on exactly
        that decision (deadlock otherwise), and the handoff only runs
        once the transaction resolved."""
        cluster, router = build(shards=2, failover=True)
        keys = populate(cluster, router)
        (k_a, k_b), _ = cross_shard_keys(cluster, keys)
        started = {}

        def hook(phase, record):
            if phase == "prepare-sent" and not started:
                started["shard"] = cluster.add_shard()

        router.txn_phase_hook = hook
        done = {}
        router.submit_txn(
            2, [put(k_a, "T"), put(k_b, "T")], lambda r: done.setdefault("r", r)
        )
        cluster.run()
        assert done["r"].committed
        report = cluster.control.reports[-1]
        assert report.completed, report.aborted
        verdict = router.verdict()
        assert verdict.ok, (verdict.violations, verdict.txn_violations)


class TestForkedDecisions:
    def test_forked_shard_withholding_a_decision_is_flagged(self):
        """The ISSUE's divergent-decision attack: a malicious shard forks
        at the prepared state, applies the commit on the instance serving
        one client and shows another client a history where the
        transaction never decided.  Each per-shard history is individually
        fork-linearizable (a clean fork, no join) — only the cross-shard
        transaction checker catches the withheld decision."""
        cluster, router = build(shards=2, clients=3, seed=13, malicious_shards=(1,))
        keys = populate(cluster, router, count=40)
        grouped = keys_by_shard(cluster, keys)
        assert 1 in grouped and 0 in grouped
        k_honest = grouped[0][0]
        k_forked = grouped[1][0]
        k_side = grouped[1][1]
        forked = {}

        def hook(phase, record):
            if phase == "decision-sent" and not forked:
                # the prepare is applied and sealed; the decision is on
                # the wire — fork now and pin client 3 to the stale twin
                forked["instance"] = cluster.fork_shard(1)
                cluster.route_client(1, 3, forked["instance"])

        router.txn_phase_hook = hook
        done = {}
        router.submit_txn(
            2, [put(k_honest, "T"), put(k_forked, "T")],
            lambda r: done.setdefault("r", r),
        )
        cluster.run()
        assert done["r"].committed
        # client 3 keeps operating against the forked instance, whose
        # history still holds the undecided prepare
        router.submit(3, put(k_side, "on-the-fork"))
        cluster.run()

        verdict = router.verdict()
        # every per-shard history is fine on its own...
        assert all(shard.violation is None for shard in verdict.shards.values())
        # ...but the merged transaction check catches the withheld decision
        assert not verdict.ok
        assert len(verdict.txn_violations) == 1
        violation = verdict.txn_violations[0]
        assert isinstance(violation, TxnAtomicityViolation)
        assert "withholding" in str(violation)
        with pytest.raises(TxnAtomicityViolation):
            router.check_fork_linearizable()

    def test_honest_run_with_fork_before_prepare_is_clean(self):
        """A fork seeded *before* the transaction carries no prepare in
        its history — nothing was withheld from its clients, so the
        transaction checker stays quiet (the fork itself is still
        visible through fork_points, as ever)."""
        cluster, router = build(shards=2, clients=3, seed=13, malicious_shards=(1,))
        keys = populate(cluster, router, count=40)
        grouped = keys_by_shard(cluster, keys)
        instance = cluster.fork_shard(1)
        cluster.route_client(1, 3, instance)
        done = {}
        router.submit_txn(
            2, [put(grouped[0][0], "T"), put(grouped[1][0], "T")],
            lambda r: done.setdefault("r", r),
        )
        cluster.run()
        router.submit(3, put(grouped[1][1], "fork-side"))
        cluster.run()
        assert done["r"].committed
        verdict = router.verdict()
        assert verdict.ok, (verdict.violations, verdict.txn_violations)
        assert verdict.shards[1].fork_points


class TestMixedRoleClients:
    @staticmethod
    def run_mix(seed, txn_clients, single_clients, draw_txn):
        """``txn_clients`` keep four ``submit_txn`` in flight (each drawn
        by ``draw_txn(rng, keys, client_id, index)``) and
        ``single_clients`` run a closed single-key loop, on the same 64
        keys; every request must complete exactly once."""
        import random

        from repro.net.latency import LatencyModel

        cluster, router = build(
            shards=4, clients=8, seed=seed,
            latency=LatencyModel(propagation=20e-6, jitter_fraction=0.2, seed=seed),
        )
        keys = populate(cluster, router, count=64)
        rng = random.Random(seed)
        completed = []
        counts = CompletionCounts()

        def pipeline(plan, submit_one, depth):
            """Keep ``depth`` items of ``plan`` in flight until it ends."""
            remaining = iter(plan)

            def issue(result=None):
                if result is not None:
                    completed.append(result)
                item = next(remaining, None)
                if item is not None:
                    submit_one(item, counts.once(issue))

            for _ in range(depth):
                issue()

        planned = 0
        for client_id in cluster.client_ids:
            txns = [
                draw_txn(rng, keys, client_id, index)
                for index in range(20 if client_id in txn_clients else 0)
            ]
            singles = [
                put(rng.choice(keys), f"s{client_id}-{index}")
                if rng.random() < 0.5
                else get(rng.choice(keys))
                for index in range(40 if client_id in single_clients else 0)
            ]
            planned += len(txns) + len(singles)
            pipeline(
                txns,
                lambda ops, then, c=client_id: router.submit_txn(c, ops, then),
                depth=4,
            )
            pipeline(
                singles,
                lambda op, then, c=client_id: router.submit(c, op, then),
                depth=1,
            )
        cluster.run()
        waiters = cluster.metrics()["gauges"]["router.txn_waiter_depth"]
        assert (len(completed), waiters) == (planned, 0)
        counts.assert_exactly_once()

    def test_pipelined_txns_beside_a_single_key_loop_all_complete(self):
        """Every client in both roles (the shape marked "stalls at HEAD"
        in ``benchmarks/e2e/workloads.py::run_txn``)."""
        def draw(rng, keys, client_id, index):
            first, second = rng.sample(keys, 2)
            if rng.random() < 0.5:
                return [put(first, f"t{client_id}-{index}"), get(second)]
            return [
                put(first, f"t{client_id}-{index}a"),
                put(second, f"t{client_id}-{index}b"),
            ]

        self.run_mix(0, range(1, 9), range(1, 9), draw)

    def test_split_roles_like_txn_mix_all_complete(self):
        """``txn_mix``'s split: clients 1-4 run transactions that read or
        write each key at even odds, clients 5-8 single-key operations.
        At this seed a queued prepare's resolved vote rides another
        client's decision ack and overtakes the prepare's own
        TXN_WAITING reply; a coordinator that then counts the voted
        shard as waiting again never decides."""
        def draw(rng, keys, client_id, index):
            return [
                put(key, f"t{client_id}-{index}-{slot}")
                if rng.random() < 0.5
                else get(key)
                for slot, key in enumerate(rng.sample(keys, 2))
            ]

        self.run_mix(37, (1, 2, 3, 4), (5, 6, 7, 8), draw)
