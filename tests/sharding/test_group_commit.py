"""Transaction group commit, queued waiters and the durable coordinator.

Router-level contracts of the group-commit plane:

- pipelined transactions against a busy (client, shard) machine flush as
  merged ``TXN_PREPARE_MANY`` / ``TXN_DECIDE_MANY`` operations — one
  sealed ecall per participant per boundary — and still commit with a
  clean merged verdict;
- a closed-loop run never finds a busy machine, so it sends every
  lifecycle operation as its single verb and makes no merged flush;
- single-key operations bounced off a transaction's lock queue on the
  holder and resubmit exactly when its decision completes — no retry
  polling;
- the durable decision log re-drives exactly the undecided set after a
  coordinator stop between phase 1 and phase 2 (decided-but-unacked →
  re-sent; begun-but-undecided → presumed abort), with zero violations;
- a forked shard withholding a *merged* decision from part of its
  clientele is still flagged, and the streaming verdict agrees with the
  post-mortem one.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import get, put
from repro.kvstore.functionality import (
    TXN_ABORT_VERB,
    TXN_COMMIT_VERB,
    TXN_DECIDE_MANY_VERB,
    TXN_PREPARE_MANY_VERB,
    TXN_PREPARE_VERB,
)
from repro.sharding import ShardRouter
from repro.sharding.observer import parity_report
from repro import serde

from tests.sharding.test_txn import (
    build,
    cross_shard_keys,
    keys_by_shard,
    populate,
)

TXN_VERBS = (
    TXN_PREPARE_VERB,
    TXN_COMMIT_VERB,
    TXN_ABORT_VERB,
    TXN_PREPARE_MANY_VERB,
    TXN_DECIDE_MANY_VERB,
)


def pipelined_txns(cluster, router, pairs, client_id=2):
    """Submit one transaction per key pair back-to-back (open loop), so
    lifecycle operations pile onto busy machines and grouping engages."""
    results = {}
    for index, (k_a, k_b) in enumerate(pairs):
        router.submit_txn(
            client_id,
            [put(k_a, f"A{index}"), put(k_b, f"B{index}")],
            lambda r, index=index: results.setdefault(index, r),
        )
    cluster.run()
    return results


def txn_verbs(cluster):
    """How many operations of each transaction lifecycle verb, single or
    grouped, the shards' audit logs record."""
    counts = Counter()
    for shard_id in cluster.verdict_shard_ids:
        for log in cluster.audit_logs(shard_id):
            for record in log:
                operation = serde.decode(record.operation)
                if operation and operation[0] in TXN_VERBS:
                    counts[operation[0]] += 1
    return counts


class TestGroupedFlushes:
    def test_pipelined_txns_flush_merged_operations(self):
        cluster, router = build(shards=2, clients=4, seed=11)
        keys = populate(cluster, router, count=40)
        grouped = keys_by_shard(cluster, keys)
        pairs = list(zip(grouped[0], grouped[1]))[:6]
        results = pipelined_txns(cluster, router, pairs)
        assert len(results) == 6
        assert all(r.committed for r in results.values())
        assert router.txn_group_flushes > 0
        verbs = txn_verbs(cluster)
        assert TXN_PREPARE_MANY_VERB in verbs
        assert TXN_DECIDE_MANY_VERB in verbs
        verdict = router.verdict()
        assert verdict.ok, (verdict.violations, verdict.txn_violations)
        assert not parity_report(router.streaming_verdict(), verdict)
        # reads see every transaction's writes (commits all applied)
        read = {}
        router.submit(3, get(pairs[-1][0]), lambda r: read.setdefault("a", r))
        cluster.run()
        assert read["a"].result == "A5"

    def test_closed_loop_sends_only_single_verbs(self):
        """A client that waits for each transaction before submitting the
        next one never finds a busy machine, so every prepare and every
        decision goes out as its own single verb: no merged flush."""
        cluster, router = build(shards=2, clients=4, seed=17)
        keys = populate(cluster, router, count=30)
        (k_a, k_b), _ = cross_shard_keys(cluster, keys)

        def chain(index=0):
            if index == 4:
                return
            router.submit_txn(
                2,
                [put(k_a, f"v{index}"), put(k_b, f"w{index}")],
                lambda _r, index=index: chain(index + 1),
            )

        chain()
        cluster.run()
        assert router.transactions_committed == 4
        assert router.txn_group_flushes == 0
        assert router.txn_group_entries == 0
        assert txn_verbs(cluster) == {TXN_PREPARE_VERB: 8, TXN_COMMIT_VERB: 8}
        assert router.verdict().ok


class TestLockWaiters:
    def test_locked_single_key_op_waits_for_the_decision(self):
        """A GET bounced by a transaction's lock parks on the holder's
        record and resubmits when the decision completes — it never spins
        and it returns the post-commit value."""
        cluster, router = build(shards=2, clients=4, seed=7)
        keys = populate(cluster, router, count=30)
        (k_a, k_b), _ = cross_shard_keys(cluster, keys)
        read = {}

        def hook(phase, record):
            if phase == "decision-sent" and "sent" not in read:
                read["sent"] = True
                # the decision is on the wire; a read racing it can be
                # rejected by the still-held lock — it must then wait for
                # the decision, not poll
                router.submit(3, get(k_a), lambda r: read.setdefault("r", r))

        router.txn_phase_hook = hook
        done = {}
        router.submit_txn(
            2,
            [put(k_a, "committed"), put(k_b, "committed")],
            lambda r: done.setdefault("r", r),
        )
        cluster.run()
        assert done["r"].committed
        assert read["r"].result == "committed"
        verdict = router.verdict()
        assert verdict.ok, (verdict.violations, verdict.txn_violations)


class TestDurableCoordinator:
    def test_recovery_redrives_exactly_the_undecided_set(self):
        """Coordinator stop between phase 1 and phase 2: a fresh router
        handed the durable log re-sends the logged decision of the
        decided-but-unacked transaction, presumes abort for the
        begun-but-undecided one, leaves the finished one alone — and the
        cluster ends with the committed writes applied, every lock
        released and a clean merged verdict."""
        cluster, router = build(shards=2, clients=4, seed=23)
        keys = populate(cluster, router, count=40)
        grouped = keys_by_shard(cluster, keys)
        (a1, b1), (a2, b2), (a3, b3) = list(zip(grouped[0], grouped[1]))[:3]

        done = {}
        finished_id = router.submit_txn(
            2, [put(a1, "T1"), put(b1, "T1")], lambda r: done.setdefault(1, r)
        )
        cluster.run()
        assert done[1].committed

        # T2: decision logged durably, then the coordinator "stops" —
        # phase 2 never goes out
        router._txn_send_decision = lambda record, shard_id: None
        decided_id = router.submit_txn(
            2, [put(a2, "T2"), put(b2, "T2")], lambda r: done.setdefault(2, r)
        )
        cluster.run()
        assert 2 not in done  # stuck between phases

        # T3: prepared everywhere, coordinator stops before deciding
        router._maybe_decide = lambda record: None
        undecided_id = router.submit_txn(
            2, [put(a3, "T3"), put(b3, "T3")], lambda r: done.setdefault(3, r)
        )
        cluster.run()
        assert 3 not in done

        # the replacement coordinator: same cluster, same durable log
        recovered = ShardRouter(cluster, txn_store=router.txn_store)
        outcome = recovered.recover_transactions()
        assert outcome == {
            "redriven": [decided_id],
            "presumed_aborted": [undecided_id],
        }
        cluster.run()

        # T2's logged commit landed; T3's presumed abort released the
        # locks without applying anything
        read = {}
        for name, key in (("a2", a2), ("b2", b2), ("a3", a3), ("b3", b3)):
            recovered.submit(
                3, get(key), lambda r, name=name: read.setdefault(name, r)
            )
        cluster.run()
        assert read["a2"].result == "T2" and read["b2"].result == "T2"
        assert read["a3"].result == "base" and read["b3"].result == "base"

        decisions = recovered.coordinator_decisions()
        assert decisions[finished_id].decision == "C"
        assert decisions[decided_id].decision == "C"
        assert decisions[decided_id].complete
        assert decisions[undecided_id].decision == "A"
        assert decisions[undecided_id].complete
        # new ids never collide with recovered ones
        assert recovered._txn_counter > int(undecided_id.rsplit("-", 1)[1])
        verdict = recovered.verdict()
        assert verdict.ok, (verdict.violations, verdict.txn_violations)


class TestRecoveryProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        fates=st.lists(
            st.sampled_from(["finished", "decided", "undecided"]),
            min_size=1,
            max_size=5,
        )
    )
    def test_redriven_set_is_exactly_the_undecided_set(self, fates):
        """For any interleaving of finished, decided-but-unacked and
        begun-but-undecided transactions at the moment the coordinator
        stops, recovery re-drives exactly the non-finished ones — logged
        decisions re-sent, undecided ones presumed aborted — and the
        post-recovery verdict is clean."""
        cluster, router = build(shards=2, clients=4, seed=29)
        keys = populate(cluster, router, count=2 * len(fates) + 10)
        grouped = keys_by_shard(cluster, keys)
        pairs = list(zip(grouped[0], grouped[1]))
        assert len(pairs) >= len(fates)
        send_decision = router._txn_send_decision
        maybe_decide = router._maybe_decide
        expected = {"redriven": [], "presumed_aborted": []}
        for index, fate in enumerate(fates):
            if fate == "decided":
                router._txn_send_decision = lambda record, shard_id: None
            elif fate == "undecided":
                router._maybe_decide = lambda record: None
            k_a, k_b = pairs[index]
            txn_id = router.submit_txn(
                2, [put(k_a, f"T{index}"), put(k_b, f"T{index}")]
            )
            cluster.run()
            router._txn_send_decision = send_decision
            router._maybe_decide = maybe_decide
            if fate == "decided":
                expected["redriven"].append(txn_id)
            elif fate == "undecided":
                expected["presumed_aborted"].append(txn_id)

        recovered = ShardRouter(cluster, txn_store=router.txn_store)
        assert recovered.recover_transactions() == expected
        cluster.run()
        decisions = recovered.coordinator_decisions()
        for index, fate in enumerate(fates):
            txn_id = f"txn-2-{index:08d}"
            assert decisions[txn_id].complete
            assert decisions[txn_id].decision == (
                "A" if fate == "undecided" else "C"
            )
        # every lock is released: all keys readable again
        read = {}
        for index in range(len(fates)):
            for name, key in zip((f"a{index}", f"b{index}"), pairs[index]):
                recovered.submit(
                    3, get(key), lambda r, name=name: read.setdefault(name, r)
                )
        cluster.run()
        for index, fate in enumerate(fates):
            want = "base" if fate == "undecided" else f"T{index}"
            assert read[f"a{index}"].result == want
            assert read[f"b{index}"].result == want
        verdict = recovered.verdict()
        assert verdict.ok, (verdict.violations, verdict.txn_violations)


class TestForkedGroupedDecisions:
    def test_withheld_merged_decision_is_flagged_with_streaming_parity(self):
        """The withheld-decision attack against the *grouped* plane: the
        malicious shard forks while merged decisions are still queued, so
        the instance pinned to one client never shows them.  The merged
        verdict flags the withheld decisions and the streaming verdict
        agrees exactly."""
        cluster, router = build(
            shards=2, clients=4, seed=13, malicious_shards=(1,)
        )
        keys = populate(cluster, router, count=60)
        grouped = keys_by_shard(cluster, keys)
        pairs = list(zip(grouped[0], grouped[1]))[:5]
        k_side = grouped[1][10]
        forked = {}
        decisions_seen = {"count": 0}

        def hook(phase, record):
            if phase != "decision-sent":
                return
            decisions_seen["count"] += 1
            if decisions_seen["count"] == 2 and not forked:
                # at least one decision is buffered/queued behind the
                # in-flight grouped operation — fork now and pin client
                # 3 to the stale twin
                forked["instance"] = cluster.fork_shard(1)
                cluster.route_client(1, 3, forked["instance"])

        router.txn_phase_hook = hook
        results = pipelined_txns(cluster, router, pairs)
        assert all(r.committed for r in results.values())
        assert router.txn_group_flushes > 0
        # the pinned client keeps operating against the forked instance
        router.submit(3, put(k_side, "on-the-fork"))
        cluster.run()

        verdict = router.verdict()
        assert all(
            shard.violation is None for shard in verdict.shards.values()
        )
        assert not verdict.ok
        assert verdict.txn_violations
        assert all(
            "withholding" in str(violation)
            for violation in verdict.txn_violations
        )
        assert not parity_report(router.streaming_verdict(), verdict)
