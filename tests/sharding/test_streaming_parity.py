"""End-to-end parity: the streaming verdict equals the one-pass replay.

Every scenario the harness exercises — clean scaling, rebalances,
elastic membership, crash + recovery, fork attacks, rollback across a
generation bump, cross-shard transactions with a withheld decision —
runs once and is judged three times: online
(:meth:`ShardRouter.streaming_verdict`), by the one-pass replay of the
retained evidence (:meth:`ShardRouter.verdict`), and per generation by
the view-level reference checker (``tests.conftest.reference_generations``).
``parity_report`` must come back empty — same violations, same
attribution, same fork points, same transaction findings — and the
reference must agree with the replay on every generation, so the
streaming checker is never only compared against itself.

The suite also pins the online-detection promise (the registry holds the
verifier's event *before* any verdict is computed), the memory bound
(retained evidence tracks the unstable suffix, not the history) and the
replay's cost (one application of ``F`` per audit record per log).
"""

import random

import pytest

from repro import serde
from repro.core.context import NOP_OPERATION
from repro.errors import ConfigurationError, RollbackDetected
from repro.kvstore import get, put
from repro.net.latency import LatencyModel
from repro.sharding import ShardRouter, ShardedCluster
from repro.sharding.observer import parity_report
from tests.conftest import (
    CompletionCounts,
    generation_signatures,
    reference_generations,
)


def build(shards=3, clients=3, seed=1, **kwargs):
    router_kwargs = {
        key: kwargs.pop(key) for key in ("failover",) if key in kwargs
    }
    cluster = ShardedCluster(shards=shards, clients=clients, seed=seed, **kwargs)
    return cluster, ShardRouter(cluster, **router_kwargs)


def keys_owned_by(cluster, shard_id, count, prefix="key"):
    keys = []
    index = 0
    while len(keys) < count:
        key = f"{prefix}-{index}"
        if cluster.ring.owner(key) == shard_id:
            keys.append(key)
        index += 1
    return keys


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


def verifier_events(cluster):
    """The verifier's full ordered event stream as ``[(name, fields)]``."""
    return [
        (event.name, event.fields)
        for event in cluster.metrics_registry.events
        if event.name.startswith("verifier.")
    ]


#: label fields of every pairwise fork event in this suite: the forked
#: instance is always log 1 of shard 1's first generation
FORK = {"shard": 1, "generation": 0, "log_a": 0, "log_b": 1}


def withheld_event(txn_id):
    return (
        "verifier.txn-withheld",
        {"shard": 1, "generation": 0, "txn_id": txn_id, "decision": "C"},
    )


def assert_parity(router):
    post = router.verdict()
    streaming = router.streaming_verdict()
    report = parity_report(streaming, post)
    assert report == [], report
    assert reference_generations(router.cluster) == generation_signatures(post)
    return streaming, post


def forked_cluster(seed, shards=3, victim=1, **kwargs):
    """Fork ``victim``, serve client 3 from the fork and keep it there: a
    maintained fork, two logs on the victim."""
    cluster, router = build(
        shards=shards, clients=3, seed=seed, malicious_shards=(victim,), **kwargs
    )
    victim_keys = keys_owned_by(cluster, victim, 3)
    for client_id in cluster.client_ids:
        router.submit(client_id, put(victim_keys[0], f"base-{client_id}"))
    cluster.run()
    fork = cluster.fork_shard(victim)
    cluster.route_client(victim, 3, fork)
    router.submit(1, put(victim_keys[1], "main-side"))
    router.submit(3, put(victim_keys[2], "fork-side"))
    cluster.run()
    return cluster, router, victim_keys


def joined_fork(seed, **kwargs):
    """A maintained fork on shard 1 that the server then joins back."""
    cluster, router, victim_keys = forked_cluster(seed, **kwargs)
    cluster.route_client(1, 3, 0)
    router.submit(3, get(victim_keys[0]))
    cluster.run()
    return cluster, router


def rollback_after_recovery(seed, **kwargs):
    """Shard 0 crashes and recovers into generation 1, whose sealed state
    is then rolled back and rebooted."""
    cluster, router = build(shards=2, clients=1, seed=seed, failover=True, **kwargs)
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
    return cluster, router


class TestCleanRuns:
    def test_multi_shard_workload(self):
        cluster, router = build(shards=3, clients=4, seed=30)
        for client_id in cluster.client_ids:
            for index in range(8):
                router.submit(client_id, put(f"p-{client_id}-{index}", "v"))
        cluster.run()
        streaming, post = assert_parity(router)
        assert streaming.ok and post.ok

    def test_workload_with_midrun_rebalance(self):
        cluster, router = build(shards=2, clients=4, seed=31)
        for client_id in cluster.client_ids:
            for index in range(8):
                router.submit(client_id, put(f"r-{index}", "v"))
        cluster.schedule_rebalance(4e-4, shard_id=0)
        cluster.run()
        assert cluster.stats.rebalances == 1
        streaming, post = assert_parity(router)
        assert streaming.ok

    def test_elastic_membership_changes(self):
        cluster, router = build(shards=2, clients=3, seed=32, failover=True)
        populate(cluster, router, 30)
        added = cluster.add_shard()
        cluster.remove_shard(added)
        cluster.crash_shard(0)
        cluster.recover_shard(0)
        for client_id in cluster.client_ids:
            router.submit(client_id, put(f"after-{client_id}", "v"))
        cluster.run()
        streaming, post = assert_parity(router)
        assert streaming.ok
        # retired generations were streamed and sealed, not re-derived
        assert len(streaming.shards[0].generations) == 2


class TestLateReplies:
    def test_reply_from_a_retired_generation_is_dropped_and_counted(self):
        """Crash-after-unfence: ``remove_shard`` replays parked operations
        onto shard 0, shard 0 crashes with their replies on the wire and
        is recovered (the router replays them onto generation 1) before
        those replies land.  The late replies must not complete anything:
        every callback fires once and both verdicts stay clean."""
        cluster, router = build(
            shards=3, clients=16, seed=0, failover=True,
            latency=LatencyModel(propagation=20e-6, jitter_fraction=0.2, seed=0),
        )
        rng = random.Random(0)
        counts = CompletionCounts()

        def closed_loop(client_id):
            plan = iter([
                put(f"k{rng.randrange(64)}", f"c{client_id}-{index}")
                if rng.random() < 0.5
                else get(f"k{rng.randrange(64)}")
                for index in range(120)
            ])

            def issue(_result=None):
                operation = next(plan, None)
                if operation is not None:
                    router.submit(client_id, operation, counts.once(issue))

            issue()

        for client_id in cluster.client_ids:
            closed_loop(client_id)
        cluster.remove_shard(1, at=0.004)
        armed = []

        def crash_after_unfence(event, _shard_ids):
            if event == "resharded" and not armed:
                armed.append(event)
                cluster.schedule_crash(125e-6, 0)
                cluster.recover_shard(0, at=350e-6)

        cluster.subscribe_reconfiguration(crash_after_unfence)
        cluster.run()
        # the schedule did hit the window: replies arrived after retirement
        assert router.replies_after_retire > 0
        assert len(counts.fires) == 16 * 120
        counts.assert_exactly_once()
        streaming, post = assert_parity(router)
        assert streaming.ok and post.ok


class TestAttacks:
    def test_maintained_fork_detected_online(self):
        cluster, router, _ = forked_cluster(seed=33)
        # online promise: the divergence is already in the event channel,
        # before any verdict is computed
        divergences = cluster.metrics_registry.events_named(
            "verifier.fork-divergence"
        )
        assert divergences and divergences[0].fields["shard"] == 1
        assert (
            cluster.metrics_registry.counter(
                "verifier.events", kind="fork-divergence"
            ).value
            >= 1
        )
        divergence = ("verifier.fork-divergence", {**FORK, "position": 4})
        assert verifier_events(cluster) == [divergence]
        streaming, post = assert_parity(router)
        assert streaming.forked_shards == [1] == post.forked_shards
        # the verdict-time harvest observes the final points: the majority
        # frontier now lies past the divergence
        assert verifier_events(cluster) == [
            divergence,
            (
                "verifier.stable-frontier-fork",
                {**FORK, "divergence": 4, "frontier": 4},
            ),
        ]

    def test_join_attempt(self):
        cluster, router = joined_fork(seed=34)
        streaming, post = assert_parity(router)
        assert not streaming.ok and not post.ok
        assert not streaming.shards[1].ok
        assert streaming.shards[0].ok and streaming.shards[2].ok
        # the join dies on the client's own chain check: the live
        # violation is the evidence and the stream stops consuming
        assert verifier_events(cluster) == [
            ("verifier.fork-divergence", {**FORK, "position": 4})
        ]

    def test_rollback_across_generation_bump(self):
        """Recovery bumps the generation; a rollback of the *new*
        generation's sealed state must be attributed to generation 1 by
        both pipelines."""
        cluster, router = rollback_after_recovery(seed=35)
        streaming, post = assert_parity(router)
        generations = streaming.shards[0].generations
        assert generations[0].ok
        assert isinstance(generations[1].violation, RollbackDetected)
        # caught by the enclave, not the verifier: no verifier event
        assert verifier_events(cluster) == []
        assert [
            event.fields["generation"]
            for event in cluster.metrics_registry.events_named("shard-violation")
        ] == [1]

    def test_crashed_shard_without_recovery(self):
        cluster, router = build(shards=2, clients=2, seed=36)
        populate(cluster, router, 10)
        cluster.crash_shard(0)
        assert_parity(router)


class TestTransactions:
    def test_clean_cross_shard_txn(self):
        cluster, router = build(shards=3, clients=4, seed=37)
        keys = populate(cluster, router)
        grouped = keys_by_shard(cluster, keys)
        shard_ids = sorted(grouped)
        done = {}
        router.submit_txn(
            2,
            [put(grouped[shard_ids[0]][0], "X"), put(grouped[shard_ids[1]][0], "Y")],
            lambda r: done.setdefault("r", r),
        )
        cluster.run()
        assert done["r"].committed
        streaming, post = assert_parity(router)
        assert streaming.ok

    def test_withheld_decision_detected_online(self):
        """The divergent-decision attack: each per-shard history is clean
        on its own; only the cross-shard transaction fold catches the
        withheld decision — online, the moment the decision completes."""
        cluster, router = build(
            shards=2, clients=3, seed=13, malicious_shards=(1,)
        )
        keys = populate(cluster, router, count=40)
        grouped = keys_by_shard(cluster, keys)
        k_honest = grouped[0][0]
        k_forked = grouped[1][0]
        k_side = grouped[1][1]
        forked = {}

        def hook(phase, record):
            if phase == "decision-sent" and not forked:
                forked["instance"] = cluster.fork_shard(1)
                cluster.route_client(1, 3, forked["instance"])

        router.txn_phase_hook = hook
        done = {}
        router.submit_txn(
            2, [put(k_honest, "T"), put(k_forked, "T")],
            lambda r: done.setdefault("r", r),
        )
        cluster.run()
        router.submit(3, put(k_side, "on-the-fork"))
        cluster.run()
        assert done["r"].committed
        # online promise: the withheld decision is already an event
        withheld = cluster.metrics_registry.events_named("verifier.txn-withheld")
        assert withheld and withheld[0].fields["decision"] == "C"
        online = [
            ("verifier.fork-divergence", {**FORK, "position": 23}),
            withheld_event("txn-2-00000000"),
        ]
        assert verifier_events(cluster) == online
        streaming, post = assert_parity(router)
        assert not streaming.ok and not post.ok
        assert len(streaming.txn_violations) == 1
        assert verifier_events(cluster) == online + [
            (
                "verifier.stable-frontier-fork",
                {**FORK, "divergence": 23, "frontier": 23},
            ),
        ]

    def test_withheld_grouped_decision_detected_online(self):
        """The same attack against the group-commit plane: pipelined
        transactions merge their decisions into one sealed operation; a
        fork taken while merged decisions are still queued withholds all
        of them from the pinned client.  The streaming verifier folds the
        grouped evidence exactly like the post-mortem checker — the
        online events fire and the two verdicts agree."""
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
                forked["instance"] = cluster.fork_shard(1)
                cluster.route_client(1, 3, forked["instance"])

        router.txn_phase_hook = hook
        done = {}
        for index, (k_a, k_b) in enumerate(pairs):
            router.submit_txn(
                2,
                [put(k_a, f"A{index}"), put(k_b, f"B{index}")],
                lambda r, index=index: done.setdefault(index, r),
            )
        cluster.run()
        router.submit(3, put(k_side, "on-the-fork"))
        cluster.run()
        assert all(r.committed for r in done.values())
        assert router.txn_group_flushes > 0
        withheld = cluster.metrics_registry.events_named("verifier.txn-withheld")
        assert withheld and withheld[0].fields["decision"] == "C"
        # the first withheld decision completes a boundary before the
        # fork's first own record streams in
        online = [
            withheld_event("txn-2-00000001"),
            ("verifier.fork-divergence", {**FORK, "position": 37}),
            withheld_event("txn-2-00000002"),
            withheld_event("txn-2-00000003"),
            withheld_event("txn-2-00000004"),
        ]
        assert verifier_events(cluster) == online
        streaming, post = assert_parity(router)
        assert not streaming.ok and not post.ok
        assert streaming.txn_violations
        assert verifier_events(cluster) == online


def _held_items(log):
    """Entries held by every container reachable from one log's
    verification state through slotted objects — whatever structures the
    checker keeps — except the replayed ``F`` state, which is the
    service's size, not the verifier's."""
    total = 0
    stack = [
        getattr(log, slot)
        for slot in type(log).__slots__
        if slot not in ("state", "base_state")
    ]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, dict, set, tuple)):
            total += len(item)
        elif hasattr(type(item), "__slots__"):
            stack.extend(getattr(item, slot) for slot in type(item).__slots__)
    return total


class TestUnlocatedPoint:
    def test_reported_at_every_boundary_while_it_stays_unlocated(self):
        cluster, router = build(shards=1, clients=3, seed=42)
        for client_id in cluster.client_ids:
            router.submit(client_id, put(f"u-{client_id}", "v"))
        cluster.run()
        assert verifier_events(cluster) == []
        shard = cluster.shard(0)
        machine = shard.clients[2]
        honest_chain = machine.last_chain
        machine._last_chain = b"\xff" * 32  # a chain value on no enclave log
        reported = (
            "verifier.unlocated-point",
            {"shard": 0, "generation": 0, "client": 2},
        )
        cluster.observer.on_batch_boundary(shard)
        cluster.observer.on_batch_boundary(shard)  # nothing moved in between
        assert verifier_events(cluster) == [reported, reported]
        # other clients' traffic neither hides nor multiplies the report:
        # once per boundary, for as long as the point stays off every log
        boundaries = []
        harvest = cluster.observer.on_batch_boundary

        def counted(shard):
            boundaries.append(shard.shard_id)
            harvest(shard)

        cluster.observer.on_batch_boundary = counted
        router.submit(1, put("u-more", "v"))
        router.submit(3, put("u-most", "v"))
        cluster.run()
        del cluster.observer.on_batch_boundary
        events = verifier_events(cluster)
        assert boundaries and events == [reported] * (2 + len(boundaries))
        machine._last_chain = honest_chain
        cluster.observer.on_batch_boundary(shard)
        assert verifier_events(cluster) == events  # located again: silence
        streaming, post = assert_parity(router)
        assert streaming.ok and post.ok


class TestMemoryBound:
    def test_retained_evidence_tracks_unstable_suffix(self):
        """ISSUE criterion: a long steady-state run keeps the per-shard
        retained evidence near the in-flight window while the audit log
        grows linearly."""
        cluster, router = build(shards=2, clients=4, seed=38)
        rounds = 12
        per_round = 16
        samples = []
        for round_number in range(rounds):
            for index in range(per_round):
                client_id = cluster.client_ids[index % len(cluster.client_ids)]
                router.submit(
                    client_id, put(f"gc-{round_number}-{index}", "v")
                )
            cluster.run()
            samples.append(
                max(
                    cluster.observer.retained_records(shard_id)
                    for shard_id in cluster.shard_ids
                )
            )
        total = sum(
            len(log) for shard_id in cluster.shard_ids
            for log in cluster.audit_logs(shard_id)
        )
        assert total >= rounds * per_round  # the history kept growing...
        assert max(samples) <= 2 * per_round  # ...the retained window didn't
        assert samples[-1] <= 2 * per_round
        # ten times the history later, everything a log's verification
        # state holds — the real-time evidence included — is still sized
        # by the retained window, not by the log
        for round_number in range(rounds, 11 * rounds):
            for index in range(per_round):
                client_id = cluster.client_ids[index % len(cluster.client_ids)]
                router.submit(
                    client_id, put(f"gc-{round_number}-{index}", "v")
                )
            cluster.run()
        for shard_id in cluster.shard_ids:
            checker = cluster.observer._streams[(shard_id, 0)].checker
            assert checker.log_length(0) >= 4 * rounds * per_round
            assert checker.retained_records <= 2 * per_round
            assert _held_items(checker._logs[0]) <= 4 * 2 * per_round
        assert_parity(router)

    def test_frontier_and_floor_gauges_track_the_checker(self):
        cluster, router = build(shards=1, clients=3, seed=39)
        for client_id in cluster.client_ids:
            for index in range(6):
                router.submit(client_id, put(f"fg-{client_id}-{index}", "v"))
        cluster.run()
        snapshot = cluster.metrics()
        frontier = snapshot["gauges"]["verifier.frontier{shard=0}"]
        floor = snapshot["gauges"]["verifier.floor{shard=0}"]
        assert frontier >= floor >= 0
        assert frontier >= 1  # a majority observed something


class TestOnePassReplay:
    def test_replay_applies_f_once_per_audit_record_per_log(self):
        """``verdict()`` feeds each generation's evidence to one checker in
        one pass: ``F`` runs once per non-nop audit record of every log,
        however many clients view that log — where the view-level
        checker replays the log once per client view."""
        cluster, router, _ = forked_cluster(seed=43, shards=1, victim=0)
        logs = cluster.audit_logs(0)
        assert len(logs) == 2 and len(cluster.client_ids) == 3
        applied = []
        make = cluster.functionality

        class CountingFunctionality:
            def __init__(self):
                self._inner = make()

            def initial_state(self):
                return self._inner.initial_state()

            def apply(self, state, operation):
                applied.append(operation)
                return self._inner.apply(state, operation)

        cluster.functionality = CountingFunctionality
        verdict = router.verdict()
        assert verdict.forked_shards == [0]
        audited = [
            record
            for log in logs
            for record in log
            if serde.decode(record.operation) != [NOP_OPERATION[0]]
        ]
        assert len(applied) == len(audited)


class TestConfiguration:
    def test_streaming_requires_audit_mode(self):
        with pytest.raises(ConfigurationError, match="audit"):
            ShardedCluster(shards=1, clients=2, audit=False, streaming=True)

    def test_opt_out_disables_observer_but_keeps_metrics(self):
        cluster, router = build(shards=2, clients=2, seed=40, streaming=False)
        for index in range(4):
            router.submit(1, put(f"off-{index}", "v"))
        cluster.run()
        assert not cluster.observer.enabled
        snapshot = cluster.metrics()
        assert snapshot["gauges"]["cluster.operations_completed"] == 4
        assert not any(key.startswith("verifier.") for key in snapshot["gauges"])
        with pytest.raises(ConfigurationError, match="disabled"):
            router.streaming_verdict()

    def test_post_mortem_verdict_unaffected_by_streaming_mode(self):
        """The replayed verdict must not depend on the observer: the same
        seed with streaming on and off yields identical verdicts — same
        violation types, messages, attribution and fork points — on a
        clean run, a maintained fork, a joined fork and a rollback."""

        def clean(streaming):
            cluster, router = build(
                shards=2, clients=3, seed=41, streaming=streaming
            )
            for client_id in cluster.client_ids:
                for index in range(5):
                    router.submit(client_id, put(f"s-{index}", "v"))
            cluster.run()
            return router

        scenarios = {
            "clean": clean,
            "maintained fork": lambda streaming: forked_cluster(
                33, streaming=streaming
            )[1],
            "joined fork": lambda streaming: joined_fork(
                34, streaming=streaming
            )[1],
            "rollback": lambda streaming: rollback_after_recovery(
                35, streaming=streaming
            )[1],
        }
        judged = {}
        for name, scenario in scenarios.items():
            results = {}
            for streaming in (True, False):
                verdict = scenario(streaming).verdict()
                results[streaming] = (
                    verdict.ok,
                    generation_signatures(verdict),
                    [repr(violation) for violation in verdict.txn_violations],
                )
            assert results[True] == results[False], name
            judged[name] = results[False][1]
        # the attacked inputs were judged, not waved through
        assert judged["maintained fork"][1] == [(0, None, [3])]
        for name, shard_id, generation in (
            ("joined fork", 1, 0), ("rollback", 0, 1)
        ):
            last = judged[name][shard_id][-1]
            assert last[0] == generation and last[1][0] == "RollbackDetected"
