"""Shared fixtures: a fully bootstrapped LCM deployment in one line.

The fixtures build the whole stack — EPID group, TEE platform, server host,
admin bootstrap — so individual tests read like protocol narratives.
"""

from __future__ import annotations

import pytest

from repro.crypto.attestation import EpidGroup
from repro.core import Admin, make_lcm_program_factory
from repro.core.bootstrap import Deployment
from repro.kvstore import CounterFunctionality, KvsFunctionality
from repro.server import MaliciousServer, ServerHost
from repro.tee import TeePlatform


@pytest.fixture
def epid_group() -> EpidGroup:
    return EpidGroup(seed=b"test-epid-group")


@pytest.fixture
def platform(epid_group) -> TeePlatform:
    return TeePlatform(epid_group, seed=1)


def build_deployment(
    *,
    epid_group: EpidGroup | None = None,
    platform: TeePlatform | None = None,
    clients: int = 3,
    functionality=KvsFunctionality,
    malicious: bool = False,
    audit: bool = False,
    quorum_override: int | None = None,
):
    """Assemble (host, deployment, clients) for a fresh LCM service."""
    group = epid_group or EpidGroup()
    tee = platform or TeePlatform(group)
    factory = make_lcm_program_factory(functionality, audit=audit)
    if malicious:
        host = MaliciousServer(tee, factory)
    else:
        host = ServerHost(tee, factory)
    admin = Admin(group.verifier(), TeePlatform.expected_measurement(factory))
    deployment = admin.bootstrap(host, client_ids=list(range(1, clients + 1)),
                                 quorum_override=quorum_override)
    client_objects = deployment.make_all_clients(host)
    return host, deployment, client_objects


@pytest.fixture
def kvs_deployment(epid_group, platform):
    """A 3-client honest KVS deployment: (host, deployment, [c1, c2, c3])."""
    return build_deployment(epid_group=epid_group, platform=platform)


@pytest.fixture
def counter_deployment(epid_group, platform):
    """A 3-client counter deployment for protocol-level tests."""
    return build_deployment(
        epid_group=epid_group, platform=platform, functionality=CounterFunctionality
    )


@pytest.fixture
def malicious_deployment(epid_group, platform):
    """A 3-client deployment on a malicious server, audit mode on."""
    return build_deployment(
        epid_group=epid_group, platform=platform, malicious=True, audit=True
    )


class CompletionCounts:
    """Exactly-once oracle for completion callbacks.

    ``once(callback)`` wraps one submission's ``on_complete`` and counts
    how often the router fires it; ``assert_exactly_once()`` fails on a
    submission that never completed or completed twice.
    """

    def __init__(self) -> None:
        self.fires: dict[int, int] = {}

    def once(self, callback):
        submission = len(self.fires)
        self.fires[submission] = 0

        def fired(result):
            self.fires[submission] += 1
            callback(result)

        return fired

    def assert_exactly_once(self) -> None:
        assert self.fires, "no submission was counted"
        assert set(self.fires.values()) == {1}, {
            submission: count
            for submission, count in self.fires.items()
            if count != 1
        }


def violation_sig(violation) -> tuple[str, str] | None:
    """A violation as ``(type name, message)``, comparable across runs."""
    if violation is None:
        return None
    return (type(violation).__name__, str(violation))


def generation_signatures(verdict) -> dict[int, list[tuple]]:
    """A merged verdict as ``{shard_id: [(generation, violation
    signature, fork points), ...]}``, generations in verdict order."""
    return {
        shard_id: [
            (gen.generation, violation_sig(gen.violation), gen.fork_points)
            for gen in shard.generations
        ]
        for shard_id, shard in verdict.shards.items()
    }


def reference_generations(cluster) -> dict[int, list[tuple]]:
    """Every shard generation's evidence judged by the view-level
    reference checker (``views_from_audit_logs`` + ``check_fork_linearizable``),
    in the shape of :func:`generation_signatures`.

    The independent oracle for the cluster verdicts, which run the
    streaming checker instead: it rebuilds each client's view from the
    same audit logs, points and history and replays every view.  A
    generation that holds a recorded violation, or whose audit export
    fails, is judged by that error alone, as the cluster verdicts do."""
    from repro.consistency import check_fork_linearizable, views_from_audit_logs
    from repro.core.hashchain import ChainPoint
    from repro.errors import LCMError

    def judge(generation, logs, clients, history):
        points = {
            client_id: ChainPoint(machine.last_sequence, machine.last_chain)
            for client_id, machine in clients.items()
        }
        lookup = {
            (record.client_id, record.sequence): record
            for record in history.records()
            if record.sequence is not None
        }
        own = {client_id: history.by_client(client_id) for client_id in clients}
        try:
            views = views_from_audit_logs(logs, points, lookup)
            tree = check_fork_linearizable(
                views, cluster.functionality(), own_operations=own
            )
        except LCMError as violation:
            return generation, violation_sig(violation), []
        return generation, None, tree.fork_points()

    judged: dict[int, list[tuple]] = {}
    for shard_id in cluster.verdict_shard_ids:
        generations = judged[shard_id] = []
        for evidence in cluster.retired_generations(shard_id):
            if evidence.violation is not None:
                generations.append(
                    (evidence.generation, violation_sig(evidence.violation), [])
                )
            else:
                generations.append(judge(
                    evidence.generation, evidence.logs, evidence.clients,
                    evidence.history,
                ))
        if not cluster.is_live(shard_id):
            continue
        generation = cluster.shard_generation(shard_id)
        violation = cluster.shard_violation(shard_id)
        if violation is None:
            try:
                logs = cluster.audit_logs(shard_id)
            except LCMError as caught:
                violation = caught
        if violation is not None:
            generations.append((generation, violation_sig(violation), []))
            continue
        generations.append(judge(
            generation, logs, cluster.shard_clients(shard_id),
            cluster.shard_history(shard_id),
        ))
    return judged
