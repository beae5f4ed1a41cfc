"""Elastic shard membership + recovery control plane.

The ISSUE-level properties live here: ``add_shard``/``remove_shard``
migrate *only* the keys on ring-reassigned arcs through a handoff that
keeps both sides' evidence checkable; ``recover_shard`` re-bootstraps a
dead group as a fresh generation and the router replays what the outage
parked (idempotently); tampering across a handoff or a generation bump
is still detected and attributed.
"""

import pytest

from repro.errors import (
    AuthenticationFailure,
    ConfigurationError,
    RollbackDetected,
    ShardUnavailable,
)
from repro.kvstore import get, put
from repro.kvstore.functionality import HANDOFF_EXPORT_VERB, HANDOFF_IMPORT_VERB
from repro.sharding import ShardRouter, ShardedCluster
from repro import serde
from tests.conftest import CompletionCounts


def build(shards=2, clients=3, seed=1, **kwargs):
    router_kwargs = {}
    if "failover" in kwargs:
        router_kwargs["failover"] = kwargs.pop("failover")
    cluster = ShardedCluster(shards=shards, clients=clients, seed=seed, **kwargs)
    return cluster, ShardRouter(cluster, **router_kwargs)


def populate(cluster, router, count=60, prefix="key"):
    keys = [f"{prefix}-{i}" for i in range(count)]
    for index, key in enumerate(keys):
        router.submit(1 + index % len(cluster.client_ids), put(key, f"v{index}"))
    cluster.run()
    return keys


def read_all(cluster, router, keys, client_id=1):
    seen = {}
    for index, key in enumerate(keys):
        router.submit(
            client_id, get(key), lambda r, i=index: seen.__setitem__(i, r.result)
        )
    cluster.run()
    return seen


def keys_owned_by(cluster, shard_id, count, prefix="own"):
    keys = []
    index = 0
    while len(keys) < count:
        key = f"{prefix}-{index}"
        if cluster.ring.owner(key) == shard_id:
            keys.append(key)
        index += 1
    return keys


class TestAddShard:
    def test_only_ring_reassigned_keys_migrate(self):
        """ISSUE acceptance criterion: resharding moves exactly the keys
        on ring-reassigned arcs — verified against the enclaves' own
        chained handoff records, not just the router's view."""
        cluster, router = build(shards=3, clients=3, seed=4)
        keys = populate(cluster, router, 120)
        before = {key: cluster.ring.owner(key) for key in keys}

        new_id = cluster.add_shard()

        reassigned = {key for key in keys if cluster.ring.owner(key) != before[key]}
        assert reassigned, "a 3->4 split virtually always reassigns some keys"
        # every moved key moved *to* the new shard (never between survivors)
        assert all(cluster.ring.owner(key) == new_id for key in reassigned)
        # the enclaves' handoff records name exactly the reassigned keys
        exported = set()
        for shard_id in (0, 1, 2):
            for record in cluster.audit_logs(shard_id)[0]:
                operation = serde.decode(record.operation)
                if operation[0] == HANDOFF_EXPORT_VERB:
                    assert record.client_id == 0  # the reserved handoff id
                    exported.update(
                        key for key, _ in serde.decode(record.result)
                    )
        imported = set()
        for record in cluster.audit_logs(new_id)[0]:
            operation = serde.decode(record.operation)
            if operation[0] == HANDOFF_IMPORT_VERB:
                imported.update(key for key, _ in operation[1])
        assert exported == reassigned == imported
        assert cluster.stats.keys_migrated == len(reassigned)

    def test_values_survive_the_split(self):
        cluster, router = build(shards=2, clients=2, seed=5)
        keys = populate(cluster, router, 80)
        cluster.add_shard()
        seen = read_all(cluster, router, keys)
        assert seen == {i: f"v{i}" for i in range(80)}
        assert router.check_fork_linearizable().ok

    def test_new_shard_serves_and_scales_membership(self):
        cluster, router = build(shards=2, clients=2, seed=6)
        populate(cluster, router, 30)
        new_id = cluster.add_shard()
        assert cluster.shard_ids == [0, 1, 2]
        owned = keys_owned_by(cluster, new_id, 2)
        results = []
        router.submit(1, put(owned[0], "fresh"), results.append)
        cluster.run()
        assert results and cluster.stats.per_shard_operations[new_id] == 1

    def test_mid_workload_split_under_traffic(self):
        """Closed-loop clients keep submitting while the barrier fences,
        drains, hands off and swaps the ring: some operations get parked
        and replayed onto the new owner, every one completes exactly
        once, and the evidence stays clean on both sides of the split."""
        cluster, router = build(shards=2, clients=4, seed=7, failover=True)
        streams = {
            client_id: [put(f"t-{client_id}-{i}", "v") for i in range(20)]
            for client_id in cluster.client_ids
        }

        counts = CompletionCounts()

        def start(client_id):
            def pump(_result=None):
                if streams[client_id]:
                    router.submit(
                        client_id, streams[client_id].pop(0), counts.once(pump)
                    )
            pump()

        for client_id in cluster.client_ids:
            start(client_id)
        cluster.add_shard(at=5e-4)  # while traffic is in flight
        cluster.run()
        # every logical operation completed exactly once, parked or not
        assert cluster.stats.operations_completed == 80
        counts.assert_exactly_once()
        assert router.operations_parked > 0
        assert router.operations_replayed >= router.operations_parked
        report = cluster.control.reports[-1]
        assert report.completed and report.aborted is None
        assert router.check_fork_linearizable().ok


class TestRemoveShard:
    def test_keys_hand_off_to_survivors_and_evidence_retires(self):
        cluster, router = build(shards=3, clients=3, seed=8)
        keys = populate(cluster, router, 90)
        victim = 1
        owned = [key for key in keys if cluster.ring.owner(key) == victim]
        assert owned

        report = cluster.remove_shard(victim)

        assert report.completed and report.keys_moved >= len(owned)
        assert not cluster.is_live(victim)
        assert cluster.shard_ids == [0, 2]
        # no key may still map to the removed shard; values all survive
        assert all(cluster.ring.owner(key) != victim for key in keys)
        assert read_all(cluster, router, keys) == {
            i: f"v{i}" for i in range(90)
        }
        # the removed shard's final evidence stays in the merged verdict
        verdict = router.verdict()
        assert sorted(verdict.shards) == [0, 1, 2]
        assert verdict.shards[victim].ok
        assert verdict.ok

    def test_refusals(self):
        cluster, router = build(shards=2, clients=2, seed=9)
        populate(cluster, router, 10)
        with pytest.raises(ConfigurationError, match="no shard"):
            cluster.remove_shard(9)
        cluster.remove_shard(1)
        with pytest.raises(ConfigurationError, match="last shard"):
            cluster.remove_shard(0)

    def test_removing_a_down_shard_refused(self):
        cluster, router = build(shards=2, clients=2, seed=10)
        populate(cluster, router, 10)
        cluster.crash_shard(1)
        with pytest.raises(ConfigurationError, match="recover"):
            cluster.remove_shard(1)


class TestCrashRecover:
    def test_crashed_shard_fails_fast_without_failover(self):
        cluster, router = build(shards=2, clients=2, seed=11)
        populate(cluster, router, 10)
        cluster.crash_shard(0)
        assert not cluster.shard_healthy(0)
        victim_key = keys_owned_by(cluster, 0, 1)[0]
        with pytest.raises(ShardUnavailable, match="hardware crash"):
            router.submit(1, put(victim_key, "stuck"))

    def test_recovery_replays_parked_operations_once(self):
        """Replay idempotence: a parked operation executes exactly once
        on the recovered generation, even if the recovery notification
        is (wrongly) delivered twice."""
        cluster, router = build(shards=2, clients=2, seed=12, failover=True)
        populate(cluster, router, 10)
        cluster.crash_shard(0)
        key = keys_owned_by(cluster, 0, 1)[0]
        results = []
        counts = CompletionCounts()
        router.submit(1, put(key, "parked"), counts.once(results.append))
        assert router.parked_operations(0) == 1
        cluster.recover_shard(0)
        cluster.run()
        assert len(results) == 1
        completed = cluster.stats.operations_completed
        # a duplicate notification finds nothing left to replay
        cluster._notify_reconfiguration("recovered", (0,))
        cluster.run()
        assert len(results) == 1
        counts.assert_exactly_once()
        assert cluster.stats.operations_completed == completed
        assert router.parked_operations(0) == 0

    def test_recovery_replays_operations_lost_in_flight(self):
        """Operations invoked before the crash whose replies died with
        the hardware are replayed on the fresh generation."""
        cluster, router = build(shards=2, clients=2, seed=13, failover=True)
        keys = keys_owned_by(cluster, 0, 2)
        results = []
        counts = CompletionCounts()
        router.submit(1, put(keys[0], "lost"), counts.once(results.append))
        router.submit(2, put(keys[1], "also-lost"), counts.once(results.append))
        cluster.crash_shard(0)  # before the sim ever delivers them
        cluster.recover_shard(0)
        cluster.run()
        assert len(results) == 2
        counts.assert_exactly_once()
        assert router.operations_replayed == 2
        assert router.check_fork_linearizable().ok

    def test_recovered_generation_starts_fresh(self):
        cluster, router = build(shards=2, clients=2, seed=14, failover=True)
        keys = populate(cluster, router, 40)
        shard0_key = next(k for k in keys if cluster.ring.owner(k) == 0)
        cluster.crash_shard(0)
        cluster.recover_shard(0)
        results = []
        router.submit(1, get(shard0_key), results.append)
        cluster.run()
        assert results[0].result is None  # fresh keys, fresh state
        assert cluster.shard_generation(0) == 1
        verdict = router.verdict()
        assert [g.generation for g in verdict.shards[0].generations] == [0, 1]
        assert verdict.ok

    def test_tamper_detection_across_generation_bump(self):
        """A host rolling back the *recovered* generation's sealed state
        is caught and attributed to that generation — recovery must not
        reset the rollback protection."""
        cluster, router = build(shards=2, clients=1, seed=15, failover=True)
        populate(cluster, router, 10)
        cluster.crash_shard(0)
        cluster.recover_shard(0)
        keys = keys_owned_by(cluster, 0, 2, prefix="gen1")
        router.submit(1, put(keys[0], "a"))
        router.submit(1, put(keys[1], "b"))
        cluster.run()
        host = cluster.shard_host(0)
        host.storage.rollback_to(1)
        host.reboot()
        router.submit(1, get(keys[0]))
        cluster.run()
        assert isinstance(cluster.shard_violation(0), RollbackDetected)
        verdict = router.verdict()
        generations = verdict.shards[0].generations
        assert generations[0].ok                      # pre-crash life clean
        assert not generations[1].ok                  # new life caught
        assert isinstance(generations[1].violation, RollbackDetected)
        with pytest.raises(RollbackDetected, match="shard 0"):
            router.check_fork_linearizable()

    def test_tampered_handoff_bundle_rejected(self):
        """Flipping a bit of the sealed handoff bundle mid-transfer fails
        authenticated decryption inside the importing enclave."""
        from repro.core.migration import migrate_keys
        from repro.errors import MigrationError

        cluster, router = build(shards=2, clients=2, seed=16)
        populate(cluster, router, 30)
        source, target = (cluster.shard_host(0), cluster.shard_host(1))
        verifier = cluster.group.verifier()
        source_nonce = source.enclave.ecall("handoff_challenge", None)
        target_quote = target.platform.quote(
            target.enclave.ecall("attest", source_nonce)
        )
        target_nonce = target.enclave.ecall("handoff_challenge", None)
        source_quote = source.platform.quote(
            source.enclave.ecall("attest", target_nonce)
        )
        export = source.enclave.ecall(
            "handoff_export",
            {"quote": target_quote, "verifier": verifier, "arcs": [[0, 1 << 63]]},
        )
        bundle = bytearray(export["bundle"])
        bundle[len(bundle) // 2] ^= 0x01
        with pytest.raises(AuthenticationFailure):
            target.enclave.ecall(
                "handoff_import",
                {
                    "quote": source_quote,
                    "verifier": verifier,
                    "bundle": bytes(bundle),
                },
            )

    def test_refusals(self):
        cluster, router = build(shards=2, clients=2, seed=17)
        populate(cluster, router, 10)
        with pytest.raises(ConfigurationError, match="healthy"):
            cluster.recover_shard(0)
        cluster.crash_shard(0)
        with pytest.raises(ConfigurationError, match="already down"):
            cluster.crash_shard(0)


class TestControlPlaneSequencing:
    def test_plans_queue_and_run_fifo(self):
        cluster, router = build(shards=2, clients=2, seed=18)
        keys = populate(cluster, router, 50)
        new_id = cluster.add_shard()
        report = cluster.remove_shard(new_id)
        assert report.completed
        assert cluster.shard_ids == [0, 1]
        assert cluster.stats.reshards == 2
        assert read_all(cluster, router, keys) == {
            i: f"v{i}" for i in range(50)
        }
        assert router.check_fork_linearizable().ok

    def test_reshard_aborts_when_fenced_shard_dies(self):
        """A shard dying while fenced must abort the plan cleanly (the
        handoff can no longer run) instead of stalling the cluster."""
        cluster, router = build(shards=2, clients=2, seed=19, failover=True)
        populate(cluster, router, 30)
        # keep traffic in flight so the barrier cannot complete instantly
        for client_id in cluster.client_ids:
            for i in range(10):
                router.submit(client_id, put(f"late-{client_id}-{i}", "v"))
        new_id = cluster.add_shard(at=1e-4)
        cluster.schedule_crash(1.2e-4, 0)  # dies inside the barrier window
        cluster.run()
        report = next(r for r in cluster.control.reports if r.kind == "add")
        assert report.aborted is not None and "went down" in report.aborted
        assert not report.completed
        assert not cluster.control.busy
        assert cluster.fenced_shards == set()

    def test_replay_to_a_removed_shard_drops_with_attribution(self):
        """An operation pinned (submit_to_shard) to a shard that is then
        removed cannot be delivered; the replay must drop it with
        attribution instead of raising out of the simulator event and
        wedging the control-plane queue."""
        cluster, router = build(shards=3, clients=2, seed=21, failover=True)
        populate(cluster, router, 30)
        results = []
        # park a pinned op by fencing manually, then remove the shard
        cluster._fenced.add(2)
        router.submit_to_shard(2, 1, get("whatever"), results.append)
        assert router.parked_operations(2) == 1
        cluster._fenced.discard(2)
        cluster.remove_shard(2)  # notification replays the parked op
        cluster.run()
        assert results == []  # never delivered...
        # ...but accounted for
        assert cluster.metrics_registry.counter("router.operations_dropped").value == 1
        (shard_id, client_id, _operation, error) = router.replay_failures[0]
        assert (shard_id, client_id) == (2, 1)
        assert isinstance(error, ConfigurationError)
        # the cluster (and any queued plan) keeps working
        new_id = cluster.add_shard()
        assert cluster.control.reports[-1].completed
        assert cluster.is_live(new_id)

    def test_partial_handoff_failure_compensates(self, monkeypatch):
        """A reshard whose second arc handoff fails must hand the first
        pair's keys back before aborting — the ring never swapped, so
        stranded keys would otherwise be unreachable."""
        from repro.sharding import controlplane
        from repro.errors import MigrationError

        cluster, router = build(shards=3, clients=3, seed=22)
        keys = populate(cluster, router, 90)
        before = {key: cluster.ring.owner(key) for key in keys}
        real_migrate = controlplane.migrate_keys
        calls = {"n": 0}

        def flaky_migrate(source, target, verifier, arcs, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:  # second forward pair of the remove plan
                raise MigrationError("injected mid-plan failure")
            return real_migrate(source, target, verifier, arcs, **kwargs)

        monkeypatch.setattr(controlplane, "migrate_keys", flaky_migrate)
        with pytest.raises(MigrationError, match="injected"):
            cluster.remove_shard(1)
        report = cluster.control.reports[-1]
        assert not report.completed and report.aborted == "failed"
        assert report.completed_at is None
        assert report.orphaned == []  # the hand-back succeeded
        assert cluster.is_live(1)  # the removal never happened
        # ownership unchanged and every value still readable in place
        assert {key: cluster.ring.owner(key) for key in keys} == before
        assert read_all(cluster, router, keys) == {
            i: f"v{i}" for i in range(90)
        }
        assert router.check_fork_linearizable().ok

    def test_fenced_shard_parks_even_without_failover(self):
        cluster, router = build(shards=2, clients=2, seed=20)
        populate(cluster, router, 30)
        cluster._fenced.add(0)
        key = keys_owned_by(cluster, 0, 1)[0]
        results = []
        router.submit(1, get(key), results.append)
        assert router.parked_operations(0) == 1
        cluster._fenced.discard(0)
        cluster._notify_reconfiguration("resharded", (0,))
        cluster.run()
        assert len(results) == 1


class TestConcurrentPlans:
    """Plans over disjoint shard sets run in parallel; overlapping plans
    stay FIFO per shard (the satellite's scheduling contract)."""

    def test_disjoint_recoveries_run_concurrently(self):
        """Two recoveries of different shards have disjoint involved
        sets; with INVOKEs still on the wire neither barrier is quiet,
        so both plans must be mid-barrier at once (strict FIFO would
        hold the second until the first completed)."""
        cluster, router = build(shards=4, clients=2, seed=30, failover=True)
        populate(cluster, router, 40)
        # one op in flight per crashed shard keeps its links un-drained
        router.submit(1, put(keys_owned_by(cluster, 0, 1)[0], "x"))
        router.submit(2, put(keys_owned_by(cluster, 2, 1)[0], "x"))
        cluster.crash_shard(0)
        cluster.crash_shard(2)
        cluster.recover_shard(0)
        cluster.recover_shard(2)
        assert cluster.control.active_count == 2  # both mid-barrier now
        cluster.run()
        assert cluster.stats.recoveries == 2
        assert cluster.control.max_concurrent == 2
        # the in-flight ops were replayed onto the fresh generations
        assert router.operations_replayed >= 2
        assert router.check_fork_linearizable().ok

    def test_overlapping_plans_serialize_fifo(self):
        """Two adds overlap (both steal arcs from the same survivors),
        so they must run one at a time, in submission order."""
        cluster, router = build(shards=2, clients=2, seed=31)
        populate(cluster, router, 40)
        first = cluster.add_shard()
        second = cluster.add_shard()
        cluster.run()
        assert cluster.control.max_concurrent == 1
        reports = [r for r in cluster.control.reports if r.kind == "add"]
        assert [r.shard_id for r in reports] == [first, second]
        assert all(r.completed for r in reports)
        assert reports[0].completed_at <= reports[1].completed_at
        assert router.check_fork_linearizable().ok

    def test_plan_queued_behind_overlap_waits_for_it(self):
        """A remove queued while an overlapping recover is mid-barrier
        starts only after it finishes; per-shard order is preserved."""
        cluster, router = build(shards=3, clients=2, seed=32, failover=True)
        populate(cluster, router, 40)
        cluster.crash_shard(1)
        cluster.recover_shard(1, at=0.0005)
        cluster.remove_shard(1, at=0.0006)  # overlaps: same shard id
        cluster.run()
        kinds = [(r.kind, r.completed) for r in cluster.control.reports]
        assert ("recover", True) in kinds
        assert ("remove", True) in kinds
        assert not cluster.is_live(1)
        assert router.check_fork_linearizable().ok


class TestTxnBarrier:
    """The quiescence barrier treats prepared-but-undecided keys as
    unmovable: a reshard waits for the decision, and the enclave refuses
    to export locked arcs outright."""

    def test_reshard_waits_for_pending_decision(self):
        from repro.kvstore import txn_commit, txn_prepare

        cluster, router = build(shards=2, clients=2, seed=33)
        populate(cluster, router, 30)
        key = keys_owned_by(cluster, 0, 1)[0]
        votes = []
        router.submit_to_shard(
            0, 1, txn_prepare("held", [["PUT", key, "vv"]]),
            lambda r: votes.append(r.result),
        )
        cluster.run()
        assert votes and votes[0][0] == "__LCM_TXN_PREPARED__"
        assert cluster.shard_txn_pending(0) == 1
        new_id = cluster.add_shard(at=0.0001)
        # bounded run (below the stall limit): the barrier must keep
        # polling, neither completing nor giving up yet
        cluster.run(max_events=500)
        report = cluster.control.reports[-1]
        assert not report.completed and report.aborted is None
        # the decision unblocks it
        router.submit_to_shard(0, 1, txn_commit("held"))
        cluster.run()
        assert cluster.control.reports[-1].completed
        assert cluster.shard_txn_pending(0) == 0
        assert cluster.is_live(new_id)
        assert router.check_fork_linearizable().ok

    def test_barrier_gives_up_on_a_transaction_that_never_resolves(self):
        """Liveness: a prepared transaction whose decision can never
        arrive must not wedge the control plane (and the simulator)
        forever — after the stall limit the plan aborts with
        attribution and the run drains."""
        from repro.kvstore import txn_prepare

        cluster, router = build(shards=2, clients=2, seed=38)
        populate(cluster, router, 30)
        key = keys_owned_by(cluster, 0, 1)[0]
        router.submit_to_shard(0, 1, txn_prepare("stuck", [["PUT", key, "x"]]))
        cluster.run()
        cluster.add_shard(at=0.0001)
        cluster.run()  # must terminate
        report = cluster.control.reports[-1]
        assert not report.completed
        assert "never resolved" in report.aborted
        assert not cluster.control.busy
        assert cluster.fenced_shards == set()

    def test_enclave_refuses_exporting_locked_arcs(self):
        from repro.crypto.hashing import RING_SPAN
        from repro.kvstore import txn_prepare

        cluster, router = build(shards=2, clients=2, seed=34)
        populate(cluster, router, 30)
        key = keys_owned_by(cluster, 0, 1)[0]
        router.submit_to_shard(0, 1, txn_prepare("held", [["PUT", key, "vv"]]))
        cluster.run()
        source = cluster.shard_host(0)
        target = cluster.shard_host(1)
        verifier = cluster.group.verifier()
        source_nonce = source.enclave.ecall("handoff_challenge", None)
        target_quote = target.platform.quote(
            target.enclave.ecall("attest", source_nonce)
        )
        with pytest.raises(ConfigurationError, match="prepared-but-undecided"):
            source.enclave.ecall(
                "handoff_export",
                {
                    "quote": target_quote,
                    "verifier": verifier,
                    "arcs": [[0, RING_SPAN]],
                },
            )


def two_live_groups(seed_a, seed_b, keys=40):
    """Two provisioned single-group deployments on one attestation group,
    the first holding ``keys`` entries: the raw pair :func:`migrate_keys`
    hands arcs between."""
    from tests.conftest import build_deployment
    from repro.crypto.attestation import EpidGroup
    from repro.tee import TeePlatform

    group = EpidGroup()
    host_a, _, (alice, *_) = build_deployment(
        epid_group=group, platform=TeePlatform(group, seed=seed_a)
    )
    host_b, _, _ = build_deployment(
        epid_group=group, platform=TeePlatform(group, seed=seed_b)
    )
    for i in range(keys):
        alice.invoke(put(f"user{i:012d}", "v"))
    return host_a, host_b, group.verifier()


class TestRepeatedHandoffs:
    """Every handoff runs the full mutually attested handshake, so the
    same pair can hand arcs back and forth, across reboots, and a bundle
    cannot be imported twice."""

    def test_split_then_merge_returns_every_key(self):
        cluster, router = build(shards=2, clients=2, seed=35)
        keys = populate(cluster, router, 60)
        new_id = cluster.add_shard()
        assert sum(cluster.control.reports[-1].moved.values()) > 0
        cluster.remove_shard(new_id)
        assert read_all(cluster, router, keys) == {
            i: f"v{i}" for i in range(60)
        }
        assert router.check_fork_linearizable().ok

    def test_split_and_merge_after_a_generation_bump(self):
        cluster, router = build(shards=2, clients=2, seed=36, failover=True)
        keys = populate(cluster, router, 60)
        first = cluster.add_shard()
        cluster.remove_shard(first)
        # crash + recover shard 0: fresh platform, fresh enclave, and the
        # keys it held are lost with the hardware
        cluster.crash_shard(0)
        cluster.recover_shard(0)
        cluster.run()
        before = read_all(cluster, router, keys)
        second = cluster.add_shard()
        assert sum(cluster.control.reports[-1].moved.values()) > 0
        cluster.remove_shard(second)
        assert read_all(cluster, router, keys) == before
        assert router.check_fork_linearizable().ok

    def test_same_keys_move_after_a_target_reboot(self):
        from repro.core.migration import migrate_keys
        from repro.crypto.hashing import RING_SPAN

        host_a, host_b, verifier = two_live_groups(81, 82)
        arcs = [[0, RING_SPAN // 2]]
        moved_out = migrate_keys(host_a, host_b, verifier, arcs)
        assert migrate_keys(host_b, host_a, verifier, arcs) == moved_out > 0
        host_b.reboot()
        assert migrate_keys(host_a, host_b, verifier, arcs) == moved_out
        assert migrate_keys(host_b, host_a, verifier, arcs) == moved_out

    def test_replayed_import_is_refused(self):
        from repro.crypto.hashing import RING_SPAN
        from repro.errors import AttestationFailure

        host_a, host_b, verifier = two_live_groups(83, 84)
        source_nonce = host_a.enclave.ecall("handoff_challenge", None)
        target_quote = host_b.platform.quote(
            host_b.enclave.ecall("attest", source_nonce)
        )
        target_nonce = host_b.enclave.ecall("handoff_challenge", None)
        source_quote = host_a.platform.quote(
            host_a.enclave.ecall("attest", target_nonce)
        )
        export = host_a.enclave.ecall(
            "handoff_export",
            {"quote": target_quote, "verifier": verifier, "arcs": [[0, RING_SPAN]]},
        )
        payload = {
            "quote": source_quote,
            "verifier": verifier,
            "bundle": export["bundle"],
        }
        assert host_b.enclave.ecall("handoff_import", payload) == export["moved"] > 0
        sequence = host_b.enclave.ecall("status", None)["sequence"]
        # the import consumed the target's challenge nonce ...
        with pytest.raises(ConfigurationError, match="handoff before challenge"):
            host_b.enclave.ecall("handoff_import", payload)
        # ... and a fresh challenge does not match the stale quote
        host_b.enclave.ecall("handoff_challenge", None)
        with pytest.raises(AttestationFailure):
            host_b.enclave.ecall("handoff_import", payload)
        assert host_b.enclave.ecall("status", None)["sequence"] == sequence
